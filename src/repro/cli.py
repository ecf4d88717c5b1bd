"""Command-line interface: ``python -m repro <command>``.

Commands:
    compile    Compile an OpenQASM 2.0 file for a zoned NA machine.
    bench      Run one Table 2 benchmark through all three scenarios.
    batch      Compile a JSON job manifest (parallel, cached, shardable).
    merge      Reassemble per-shard batch result files into one document.
    serve      Run the resident compilation service (persistent queue).
    coordinate Run the fleet coordinator: one front door over N
               daemons (cache-affinity routing, work stealing).
    loadgen    Drive a daemon or coordinator with synthetic traffic
               and report p50/p95/p99 submit-to-result latency.
    submit     Send a job manifest to a running service.
    status     Queue occupancy of a running service (per-job attempts,
               queue wait and span time for one submission).
    trace      Render one finished job's span timeline as a tree.
    results    Fetch / follow a submission's result records (NDJSON).
    shutdown   Stop a running service (draining by default;
               --fleet tears down a coordinator's daemons too).
    backends   List the registered compiler backends and their knobs.
    cache      Compiled-program cache maintenance and the cache server
               (info / prune against any --cache spec, serve).
    table2     Print the Table 2 reproduction.
    table3     Print a Table 3 reproduction over selected rows.
    fig7       Print the Fig. 7 multi-AOD series.
    scorecard  Evaluate the paper-vs-measured shape checks.
    verify     State-vector check: compiled schedule == circuit (<= 12q).
    profile    Structural workload characterisation of a QASM file.

The experiment commands (``bench``, ``table3``, ``fig7``, ``batch``)
route every compilation through the batch engine: ``--workers N`` fans
cache-missing jobs out over a process pool and ``--cache SPEC``
selects the compiled-program cache backend (``memory``,
``disk:PATH[:MAX_BYTES]``, ``remote:URL``,
``tiered:disk:PATH,remote:URL`` -- see ``docs/caching.md``;
``--cache-dir DIR`` remains shorthand for ``disk:DIR``).
``repro cache serve`` runs the shared HTTP cache server the
``remote:`` tier talks to.  Compilers resolve through the backend
registry: ``--backend`` selects variants by name (``repro backends``
lists them).

``batch`` additionally supports fail-soft sweeps
(``--on-error collect`` turns job failures into error records instead
of aborting the batch), per-job retry-with-backoff (``--retries N``),
streaming delivery (``--stream`` emits one NDJSON record per job on
stdout, in completion order), and deterministic sharding
(``--shard I/N`` compiles the ``I``-th of ``N`` round-robin manifest
slices; ``merge`` reassembles the shard outputs).

The service commands (``serve``, ``submit``, ``status``, ``results``,
``shutdown``) run the same workloads through a resident daemon with a
persistent job queue -- see ``docs/service.md``.  ``results --follow``
streams records identical in schema to ``batch --stream``.
``coordinate`` scales the service out: it fronts N daemons behind the
same protocol, routing each job to the daemon that rendezvous-hashing
its cache key picks (warm-cache affinity), spilling on load and
stealing work from stragglers; ``loadgen`` measures the
submit-to-result latency distribution of either topology.
Observability rides on the same protocol: ``serve --metrics
HOST:PORT`` adds a Prometheus ``GET /metrics`` listener, ``trace``
renders a finished job's recorded spans (queue wait, attempts,
per-pass compile times, cache-tier lookups) and ``loadgen --scrape
URL`` embeds ``/metrics`` samples in its report -- see
``docs/observability.md``.

Examples:
    python -m repro compile circuit.qasm --no-storage --trace
    python -m repro bench BV-14
    python -m repro bench BV-14 --backend enola --backend atomique
    python -m repro table3 --keys BV-14 VQE-30 --workers 4
    python -m repro fig7 --backend powermove-noreorder
    python -m repro batch manifest.json --workers 4 --cache-dir .cache
    python -m repro batch manifest.json --on-error collect --stream
    python -m repro batch manifest.json --retries 2 --backoff 0.5
    python -m repro batch manifest.json --shard 1/2 --output s1.json
    python -m repro merge s1.json s2.json --output results.json
    python -m repro cache serve .sharedcache --listen 127.0.0.1:8123
    python -m repro batch manifest.json \
        --cache tiered:disk:.cache,remote:http://127.0.0.1:8123
    python -m repro cache info --cache tiered:disk:.cache,remote:http://127.0.0.1:8123
    python -m repro cache prune --cache-dir .cache --max-bytes 50000000
    python -m repro serve queue/ --listen 127.0.0.1:7431 --workers 4
    python -m repro submit manifest.json --connect 127.0.0.1:7431
    python -m repro results s000001 --connect 127.0.0.1:7431 --follow
    python -m repro coordinate --listen 127.0.0.1:7500 \
        --daemon 127.0.0.1:7431 --daemon 127.0.0.1:7432
    python -m repro serve q2/ --listen 127.0.0.1:7432 \
        --announce 127.0.0.1:7500 --completed-ttl 3600
    python -m repro loadgen --connect 127.0.0.1:7500 \
        --clients 8 --rate 10 --duration 30 --output latency.json
    python -m repro shutdown --connect 127.0.0.1:7500 --fleet
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from .analysis import (
    figure7_series,
    render_table2,
    reproduce_table3,
    run_benchmark,
)
from .analysis.tables import Table3Row
from .analysis.visualize import program_trace
from .baselines import EnolaConfig
from .benchsuite import SUITE, get_benchmark
from .circuits import load_qasm
from .core import PowerMoveCompiler, PowerMoveConfig
from .engine import (
    BATCH_RESULTS_FORMAT,
    BATCH_RESULTS_VERSION,
    CacheSpecError,
    CompilationEngine,
    DiskCache,
    EngineError,
    ManifestError,
    MemoryCache,
    RemoteCacheError,
    RemoteCacheServer,
    ShardError,
    ShardPlan,
    describe_cache,
    job_record,
    make_cache,
    manifest_cache_spec,
    manifest_digest,
    merge_result_docs,
    parse_manifest,
    read_manifest,
    results_doc,
    results_doc_from_records,
)
from .fidelity import evaluate_program
from .schedule import validate_program
from .schedule.serialize import dump_program

__all__ = ["BATCH_RESULTS_FORMAT", "BATCH_RESULTS_VERSION", "main"]


def _resolve_cache(
    args: argparse.Namespace,
    manifest_doc=None,
    default=None,
):
    """Cache from ``--cache`` / ``--cache-dir`` / the manifest.

    Precedence: the explicit ``--cache`` spec, then ``--cache-dir``
    (shorthand for ``disk:DIR``), then the manifest's top-level
    ``"cache"`` key, then ``default``.  A malformed spec exits 2 (the
    same contract as argparse's own option errors).
    """
    try:
        if getattr(args, "cache", None):
            return make_cache(args.cache)
        if getattr(args, "cache_dir", None):
            return DiskCache(args.cache_dir)
        if manifest_doc is not None:
            spec = manifest_cache_spec(manifest_doc)
            if spec:
                return make_cache(spec)
    except CacheSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    return default


def _make_engine(
    args: argparse.Namespace, progress=None
) -> CompilationEngine:
    """Engine from the shared --workers / --cache CLI options."""
    return CompilationEngine(
        cache=_resolve_cache(args),
        workers=args.workers,
        progress=progress,
        retries=getattr(args, "retries", 0),
        backoff=getattr(args, "backoff", 0.1),
    )


def _emit_ndjson(record) -> None:
    """Print one NDJSON record, flushed.

    Per-record flushing is what makes ``batch --stream`` and
    ``results --follow`` consumable live through ``head`` / ``jq`` --
    a block-buffered pipe would sit on finished results until 4 kB
    accumulate.
    """
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _cache_dir_path(text: str) -> str:
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} exists and is not a directory"
        )
    return text


def _add_cache_options(
    parser: argparse.ArgumentParser, required: bool = False
) -> None:
    """The mutually-exclusive --cache / --cache-dir pair."""
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument(
        "--cache",
        default=None,
        metavar="SPEC",
        help="compiled-program cache spec: memory, "
        "disk:PATH[:MAX_BYTES], remote:URL, or "
        "tiered:SPEC,SPEC,... (see docs/caching.md)",
    )
    group.add_argument(
        "--cache-dir",
        type=_cache_dir_path,
        default=None,
        help="directory for the on-disk compiled-program cache "
        "(shorthand for --cache disk:DIR)",
    )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="process-pool width for parallel compilation (default 1)",
    )
    _add_cache_options(parser)
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts granted to a failing job before its "
        "failure is surfaced (default 0)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        help="base seconds between attempts, doubling per retry "
        "(default 0.1)",
    )


def _cmd_compile(args: argparse.Namespace) -> int:
    circuit = load_qasm(args.file)
    config = PowerMoveConfig(
        use_storage=args.storage,
        num_aods=args.aods,
        seed=args.seed,
    )
    result = PowerMoveCompiler(config).compile(circuit)
    validate_program(result.program, source_circuit=result.native_circuit)
    report = evaluate_program(result.program)
    print(f"compiled {args.file!r} with {result.program.compiler_name}")
    print(f"  qubits          : {circuit.num_qubits}")
    print(f"  rydberg stages  : {result.program.num_stages}")
    print(f"  coll-moves      : {result.program.num_coll_moves}")
    print(f"  transfers       : {result.program.num_transfers}")
    print(f"  T_exe           : {report.execution_time_us:.1f} us")
    print(f"  T_comp          : {result.compile_time * 1e3:.2f} ms")
    print(f"  fidelity        : {report.total:.6g}")
    for name, value in report.infidelity_breakdown().items():
        print(f"    1-f[{name:12s}]: {value:.6g}")
    if args.output:
        dump_program(result.program, args.output)
        print(f"  wrote program   : {args.output}")
    if args.trace:
        print()
        print(program_trace(result.program, max_instructions=args.trace))
    return 0


def _cmd_bench_scaling(args: argparse.Namespace) -> int:
    from .benchsuite.scaling import (
        SCALING_BACKENDS,
        SCALING_SIZES,
        run_scaling,
        scaling_doc,
    )

    sizes = (
        tuple(int(s) for s in args.sizes.split(","))
        if args.sizes
        else SCALING_SIZES
    )
    backends = tuple(args.backend) if args.backend else SCALING_BACKENDS

    def progress(point) -> None:
        slowest = max(
            point.pass_timings.items(),
            key=lambda item: item[1],
            default=("-", 0.0),
        )
        print(
            f"  {point.backend:24s} N={point.num_qubits:<6d} "
            f"T_comp={point.compile_s:8.3f}s  "
            f"(slowest pass: {slowest[0]} {slowest[1]:.3f}s)",
            flush=True,
        )

    print(
        "scaling ladder: random 3-regular QAOA, "
        f"sizes={list(sizes)}, backends={list(backends)}"
    )
    points = run_scaling(sizes=sizes, backends=backends,
                         seed=args.seed, progress=progress,
                         arch=args.arch)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(scaling_doc(points), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.scaling:
        return _cmd_bench_scaling(args)
    if args.key is None:
        print(
            "error: a benchmark key is required unless --scaling is given",
            file=sys.stderr,
        )
        return 2
    spec = get_benchmark(args.key)
    enola_cfg = EnolaConfig(
        seed=args.seed,
        mis_restarts=args.mis_restarts,
        sa_iterations_per_qubit=args.sa_iterations,
        num_aods=args.aods,
    )
    from .engine import SCENARIOS

    result = run_benchmark(
        spec,
        num_aods=args.aods,
        seed=args.seed,
        enola_config=enola_cfg,
        engine=_make_engine(args),
        scenarios=tuple(args.backend) if args.backend else SCENARIOS,
        arch=args.arch,
    )
    if args.backend:
        print(f"benchmark {args.key} ({spec.num_qubits} qubits)")
        for key in args.backend:
            scenario = result[key]
            print(
                f"  {key:24s} fid={scenario.fidelity.total:<10.4g} "
                f"T_exe={scenario.execution_time_us:<10.0f} "
                f"T_comp={scenario.compile_time:.4f}s"
            )
        return 0
    row = Table3Row.from_result(result)
    print(f"benchmark {args.key} ({spec.num_qubits} qubits)")
    print(
        f"  fidelity   enola={row.enola_fidelity:.4g}  "
        f"ns={row.ns_fidelity:.4g}  ws={row.ws_fidelity:.4g}  "
        f"improv={row.fidelity_improvement:.3g}x"
    )
    print(
        f"  T_exe (us) enola={row.enola_texe_us:.0f}  "
        f"ns={row.ns_texe_us:.0f}  ws={row.ws_texe_us:.0f}  "
        f"improv={row.texe_improvement:.2f}x"
    )
    print(
        f"  T_comp (s) enola={row.enola_tcomp_s:.4f}  "
        f"ours={row.pm_tcomp_s:.4f}  improv={row.tcomp_improvement:.2f}x"
    )
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    print(render_table2())
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    keys = tuple(args.keys) if args.keys else None
    if keys:
        for key in keys:
            get_benchmark(key)  # validate early
    enola_cfg = EnolaConfig(
        seed=args.seed,
        mis_restarts=args.mis_restarts,
        sa_iterations_per_qubit=args.sa_iterations,
    )
    table = reproduce_table3(
        keys=keys,
        seed=args.seed,
        enola_config=enola_cfg,
        engine=_make_engine(args),
        backend=args.backend,
        arch=args.arch,
    )
    print(table.render())
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from .pipeline import REGISTRY

    if args.json:
        doc = [
            {
                "name": spec.name,
                "description": spec.description,
                "config": spec.config_cls.__name__,
                "config_knobs": {
                    name: repr(value)
                    for name, value in spec.config_knobs.items()
                },
                "passes": list(spec.pipeline.pass_names),
                "preserves_gate_stream": spec.preserves_gate_stream,
                "strategies": dict(spec.strategies or {}),
                "strategy_axes": dict(spec.strategy_axes or {}),
            }
            for spec in REGISTRY
        ]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for spec in REGISTRY:
        print(f"{spec.name}")
        print(f"  {spec.description}")
        knobs = ", ".join(
            f"{name}={value!r}" for name, value in spec.config_knobs.items()
        )
        print(f"  config {spec.config_cls.__name__}: {knobs}")
        print(f"  passes: {' -> '.join(spec.pipeline.pass_names)}")
        if spec.strategy_axes:
            axes = ", ".join(
                f"{axis}={name}"
                for axis, name in sorted(spec.strategy_axes.items())
            )
            print(f"  strategies: {axes}")
    return 0


def _cmd_architectures(args: argparse.Namespace) -> int:
    from .hardware.catalog import ARCHITECTURES
    from .hardware.params import DEFAULT_PARAMS

    # Catalog entries are factories; size each at a reference workload so
    # the listing shows a concrete floor plan.
    example_qubits = args.qubits
    if args.json:
        doc = []
        for spec in ARCHITECTURES:
            machine = spec.build(example_qubits, 1, DEFAULT_PARAMS)
            doc.append(
                {
                    "name": spec.name,
                    "description": spec.description,
                    "example_qubits": example_qubits,
                    "compute_shape": list(machine.compute_shape),
                    "storage_shape": list(machine.storage_shape),
                    "has_storage": machine.has_storage,
                    "num_aods": machine.num_aods,
                    "num_sites": machine.num_sites,
                }
            )
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for spec in ARCHITECTURES:
        machine = spec.build(example_qubits, 1, DEFAULT_PARAMS)
        ccols, crows = machine.compute_shape
        scols, srows = machine.storage_shape
        storage = f"{scols}x{srows}" if machine.has_storage else "none"
        print(f"{spec.name}")
        print(f"  {spec.description}")
        print(
            f"  at {example_qubits} qubits: compute {ccols}x{crows}, "
            f"storage {storage}, AODs {machine.num_aods}, "
            f"{machine.num_sites} sites"
        )
    return 0


def _cache_target(args: argparse.Namespace):
    """The cache named by ``--cache`` / ``--cache-dir`` (required)."""
    cache = _resolve_cache(args)
    if cache is None:  # argparse enforces the group; belt and braces
        print("error: give --cache SPEC or --cache-dir DIR",
              file=sys.stderr)
        raise SystemExit(2)
    return cache


def _render_cache_info(info: dict, indent: str = "") -> None:
    """Print one cache's (or tier's) occupancy line(s)."""
    if info.get("kind") == "tiered":
        print(
            f"{indent}tiered cache "
            f"(write-{info.get('write_policy', 'through')}):"
        )
        for tier in info.get("tiers", []):
            _render_cache_info(tier, indent + "  ")
        return
    name = info.get("name", info.get("kind", "cache"))
    where = info.get("directory") or info.get("url") or ""
    parts = []
    if info.get("entries") is not None:
        parts.append(f"{info['entries']} entries")
    if info.get("total_bytes") is not None:
        parts.append(f"{info['total_bytes']} bytes")
    if info.get("max_bytes"):
        parts.append(f"budget {info['max_bytes']} bytes")
    if info.get("reachable") is False:
        parts.append("UNREACHABLE")
    body = ", ".join(parts) if parts else "no occupancy data"
    suffix = f" ({where})" if where else ""
    print(f"{indent}{name}{suffix}: {body}")


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    cache = _cache_target(args)
    try:
        report = cache.prune(args.max_bytes)
    except RemoteCacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"pruned {describe_cache(cache)}: removed "
        f"{report.removed_entries} entries "
        f"({report.removed_bytes} bytes), "
        f"{report.remaining_entries} entries "
        f"({report.remaining_bytes} bytes) remain"
    )
    return 0


def _cmd_cache_info(args: argparse.Namespace) -> int:
    cache = _cache_target(args)
    if args.json:
        print(json.dumps(cache.info(), indent=1))
    else:
        _render_cache_info(cache.info())
    return 0


def _cmd_cache_serve(args: argparse.Namespace) -> int:
    from .service.protocol import ProtocolError, parse_address

    try:
        kind, value = parse_address(args.listen)
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if kind != "tcp":
        print(
            "error: the cache server listens on TCP only "
            "(host:port)",
            file=sys.stderr,
        )
        return 2
    host, port = value
    store = DiskCache(args.directory, max_bytes=args.max_bytes)
    server = RemoteCacheServer(store, host=host, port=port)
    print(
        f"repro cache server listening on {server.url} "
        f"(directory {args.directory}"
        + (
            f", budget {args.max_bytes} bytes)"
            if args.max_bytes
            else ")"
        ),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print(
            "repro cache server: interrupt -- stopping "
            "(entries stay on disk)",
            file=sys.stderr,
        )
    finally:
        server.stop()
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        manifest_doc = read_manifest(args.manifest)
        if args.arch is not None:
            # Fold the override into the manifest document itself (not
            # just the parsed jobs) so manifest_digest -- and therefore
            # shard-merge compatibility checks -- see the same work.
            manifest_doc.setdefault("defaults", {})["arch"] = args.arch
        jobs = parse_manifest(manifest_doc)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    shard = None
    if args.shard:
        try:
            shard = ShardPlan.parse(args.shard)
        except ShardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        pairs = shard.select(jobs)
        if not pairs:
            # Manifest smaller than the shard count: still a valid
            # (empty) shard, so fixed N-lane automation works on any
            # manifest size; merge coverage comes from the other shards.
            print(
                f"note: shard {shard.spec} selects none of the "
                f"{len(jobs)} manifest jobs; writing an empty shard "
                "document",
                file=sys.stderr,
            )
    else:
        pairs = list(enumerate(jobs))
    global_indices = [index for index, _ in pairs]
    run_jobs = [job for _, job in pairs]

    progress = None
    if args.progress:
        finished = [0]

        def progress(event):
            finished[0] += 1
            status = (
                "fail"
                if event.failed
                else "hit " if event.cache_hit else "comp"
            )
            print(
                f"  [{finished[0]}/{event.total}] {status} "
                f"{event.job.label} ({event.compile_time * 1e3:.1f} ms)",
                file=sys.stderr,
            )

    cache = _resolve_cache(
        args, manifest_doc=manifest_doc, default=None
    )
    if cache is None:
        cache = MemoryCache()
    engine = CompilationEngine(
        cache=cache,
        workers=args.workers,
        progress=progress,
        on_error=args.on_error,
        retries=args.retries,
        backoff=args.backoff,
    )
    start = time.perf_counter()
    results = []
    try:
        if args.stream:
            for result in engine.stream(run_jobs):
                record = job_record(
                    result, global_indices[result.index]
                )
                _emit_ndjson(record)
                results.append(result)
        else:
            results = engine.run(run_jobs)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Push write-back-deferred entries to the backing tier before the
    # run ends (no-op for every non-write-back cache).
    cache.flush()
    wall_time = time.perf_counter() - start

    doc = results_doc(
        results,
        manifest_digest=manifest_digest(manifest_doc),
        total_jobs=len(jobs),
        wall_time_s=wall_time,
        on_error=args.on_error,
        shard=shard,
        global_indices=global_indices,
        cache_stats=cache.stats_doc(),
    )
    summary = (
        f"batch: {doc['num_jobs']} jobs, {doc['cache_hits']} cache "
        f"hits, {doc['cache_misses']} compiled in {wall_time:.2f}s"
    )
    if doc["num_failed"]:
        summary += f", {doc['num_failed']} failed"
    if shard is not None:
        summary += f" (shard {shard.spec} of {doc['total_jobs']} jobs)"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
        print(
            f"{summary} -> {args.output}",
            file=sys.stderr if args.stream else sys.stdout,
        )
    elif not args.stream:
        print(json.dumps(doc, indent=1))
    else:
        print(summary, file=sys.stderr)
    return 1 if doc["num_failed"] else 0


def _cmd_merge(args: argparse.Namespace) -> int:
    docs = []
    for path in args.results:
        try:
            with open(path, encoding="utf-8") as handle:
                docs.append(json.load(handle))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    try:
        merged = merge_result_docs(docs)
    except ShardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=1)
        print(
            f"merged {len(docs)} result files "
            f"({merged['num_jobs']} jobs, {merged['num_failed']} "
            f"failed) -> {args.output}"
        )
    else:
        print(json.dumps(merged, indent=1))
    # Mirror `batch`: a merged document carrying failed jobs is an
    # incomplete sweep, and automation gating on the merge should see
    # that.
    return 1 if merged["num_failed"] else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import socket as _socket

    from .service import ServiceServer

    listen = args.listen
    if listen is None:
        # Self-contained default: a socket inside the queue directory
        # (TCP loopback where AF_UNIX is unavailable).
        listen = (
            os.path.join(args.queue_dir, "service.sock")
            if hasattr(_socket, "AF_UNIX")
            else "127.0.0.1:0"
        )
    try:
        server = ServiceServer(
            args.queue_dir,
            listen,
            cache=args.cache,
            cache_dir=args.cache_dir,
            workers=args.workers,
            retries=args.retries,
            backoff=args.backoff,
            completed_ttl=args.completed_ttl,
            announce=args.announce,
            metrics_address=args.metrics,
            tenants=args.tenants,
        )
    except (CacheSpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if server.tenants is not None and hasattr(signal, "SIGHUP"):
        # kill -HUP <daemon> reloads the tenants file immediately
        # (token rotation without a restart); the maintenance sweep
        # also picks up mtime changes on its own.
        def _reload_tenants(signum, frame):  # noqa: ARG001
            if server.tenants.reload():
                print(
                    f"repro service: tenants file "
                    f"{server.tenants.path} reloaded (SIGHUP)",
                    flush=True,
                )
            else:
                print(
                    "repro service: SIGHUP tenants reload failed; "
                    "keeping the previous table",
                    file=sys.stderr,
                    flush=True,
                )

        signal.signal(signal.SIGHUP, _reload_tenants)
    server.start()
    announce_note = (
        f", announcing to {args.announce}" if args.announce else ""
    )
    metrics_note = (
        f", metrics at {server.metrics_url}" if server.metrics_url else ""
    )
    tenants_note = (
        f", tenants {args.tenants} "
        f"({len(server.tenants.tenants())} tenant(s))"
        if server.tenants is not None
        else ""
    )
    print(
        f"repro service listening on {server.address} "
        f"(queue {args.queue_dir}, {args.workers} workers, "
        f"retries {args.retries}, "
        f"cache {describe_cache(server.cache)}"
        f"{announce_note}{metrics_note}{tenants_note})",
        flush=True,
    )
    try:
        while not server.wait_stopped(timeout=0.5):
            pass
    except KeyboardInterrupt:
        print(
            "repro service: interrupt -- stopping (queued jobs stay "
            "on disk)",
            file=sys.stderr,
        )
        server.stop(drain=False)
    return 0


def _resolve_token(args: argparse.Namespace) -> str | None:
    """``--token`` wins; the ``REPRO_TOKEN`` env var is the fallback
    on every service-facing command."""
    token = getattr(args, "token", None)
    if token:
        return token
    return os.environ.get("REPRO_TOKEN") or None


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(args.connect, token=_resolve_token(args))


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceError

    try:
        manifest_doc = read_manifest(args.manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = _service_client(args)
    try:
        reply = client.submit(manifest_doc, priority=args.priority)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(reply.raw, indent=1))
    else:
        print(
            f"submitted {reply['submission']}: "
            f"{reply['total_jobs']} jobs "
            f"(manifest {reply['manifest_digest'][:16]})"
        )
        print(
            f"  follow with: repro results {reply['submission']} "
            f"--connect {args.connect} --follow"
        )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        reply = client.status(args.submission)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(reply.raw, indent=1))
        return 0
    counts = reply["counts"]
    line = ", ".join(f"{counts[state]} {state}" for state in counts)
    if args.submission:
        print(
            f"{args.submission}: {line} "
            f"(of {reply['total_jobs']} jobs)"
        )
        for job in reply.get("jobs", []):
            attempts = job.get("attempts")
            wait_s = job.get("queue_wait_s")
            span_s = job.get("span_time_s")
            detail = ", ".join(
                part
                for part in (
                    f"attempts {attempts}" if attempts else None,
                    f"waited {wait_s:.3f}s" if wait_s is not None else None,
                    f"spans {span_s:.3f}s" if span_s is not None else None,
                )
                if part
            )
            print(
                f"  {job['id']}: {job['status']}"
                + (f" ({detail})" if detail else "")
            )
    else:
        print(f"queue: {line}")
        for sub in reply["submissions"]:
            sub_counts = sub["counts"]
            done = sub_counts["done"] + sub_counts["error"]
            print(
                f"  {sub['id']}: {done}/{sub['total_jobs']} finished "
                f"({sub_counts['error']} failed)"
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.trace import render_trace_tree
    from .service import ServiceError

    client = _service_client(args)
    try:
        reply = client.trace(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(reply["trace"], indent=1))
    else:
        print(render_trace_tree(reply["trace"]))
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    from .service import ServiceError

    client = _service_client(args)
    records = []
    failed = 0
    try:
        for record in client.results(
            args.submission, follow=args.follow
        ):
            _emit_ndjson(record)
            records.append(record)
            if record.get("status") == "error":
                failed += 1
        start = client.last_start or {}
        summary = client.last_summary or {}
        remaining = summary.get("remaining", 0)
        if args.output:
            if remaining:
                print(
                    f"error: {remaining} job(s) still unfinished; "
                    "re-run with --follow to wait for them",
                    file=sys.stderr,
                )
                return 2
            # The records just streamed ARE the document body; no
            # second round trip to the daemon.
            doc = results_doc_from_records(
                records,
                manifest_digest=start.get("manifest_digest", ""),
                total_jobs=start.get("total_jobs", len(records)),
                wall_time_s=summary.get("wall_time_s", 0.0),
                on_error="collect",
            )
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=1)
            print(
                f"wrote results document -> {args.output}",
                file=sys.stderr,
            )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"results {args.submission}: {summary.get('num_done', 0)} "
        f"finished, {failed} failed, {remaining} remaining",
        file=sys.stderr,
    )
    if failed:
        return 1
    # A partial stream (daemon stopped mid-run, or no --follow on an
    # unfinished submission) must not read as success to pipelines.
    return 2 if remaining else 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        client.shutdown(drain=not args.now, fleet=args.fleet)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        "shutdown requested"
        + (" (immediate)" if args.now else " (draining the queue first)")
        + (" (whole fleet)" if args.fleet else "")
    )
    return 0


def _cmd_coordinate(args: argparse.Namespace) -> int:
    from .service import Coordinator

    try:
        coordinator = Coordinator(
            args.listen,
            daemons=tuple(args.daemon or ()),
            spill_depth=args.spill_depth,
            poll_interval=args.poll,
            steal_batch=args.steal_batch,
            tenants=args.tenants,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if coordinator.tenants is not None and hasattr(signal, "SIGHUP"):
        # Same token-rotation path as ``repro serve``: kill -HUP
        # reloads the tenants file without dropping the fleet.
        def _reload_tenants(signum, frame):  # noqa: ARG001
            if coordinator.tenants.reload():
                print(
                    f"repro coordinator: tenants file "
                    f"{coordinator.tenants.path} reloaded (SIGHUP)",
                    flush=True,
                )
            else:
                print(
                    "repro coordinator: SIGHUP tenants reload failed; "
                    "keeping the previous table",
                    file=sys.stderr,
                    flush=True,
                )

        signal.signal(signal.SIGHUP, _reload_tenants)
    coordinator.start()
    tenants_note = (
        f", tenants {args.tenants}" if args.tenants else ""
    )
    print(
        f"repro coordinator listening on {coordinator.address} "
        f"({len(args.daemon or ())} static daemon(s), "
        f"spill depth {args.spill_depth}, "
        f"steal batch {args.steal_batch}{tenants_note})",
        flush=True,
    )
    try:
        while not coordinator.wait_stopped(timeout=0.5):
            pass
    except KeyboardInterrupt:
        print(
            "repro coordinator: interrupt -- stopping (daemon queues "
            "keep their work)",
            file=sys.stderr,
        )
        coordinator.stop(drain=False)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .service import ServiceError
    from .service.loadgen import run_loadgen

    progress = None
    if args.progress:

        def progress(count: int, latency: float) -> None:
            print(
                f"  [{count}] {latency * 1e3:.0f} ms",
                file=sys.stderr,
                flush=True,
            )

    try:
        report = run_loadgen(
            args.connect,
            clients=args.clients,
            rate_hz=args.rate,
            duration_s=args.duration,
            benchmarks=tuple(args.benchmark or ["BV-14"]),
            backend=args.backend,
            distinct_seeds=args.distinct,
            seed=args.seed,
            progress=progress,
            scrape_url=args.scrape,
            token=_resolve_token(args),
        )
    except (ServiceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print(f"wrote loadgen report -> {args.output}", file=sys.stderr)
    else:
        print(json.dumps(report, indent=1))
    latency = report["latency_s"]
    print(
        f"loadgen: {report['completed']}/{report['submitted']} "
        f"completed, {report['failed']} failed, "
        f"{report['num_errors']} errors | latency "
        f"p50 {latency['p50'] * 1e3:.0f} ms, "
        f"p95 {latency['p95'] * 1e3:.0f} ms, "
        f"p99 {latency['p99'] * 1e3:.0f} ms "
        f"({report['throughput_jobs_per_s']:.1f} jobs/s)",
        file=sys.stderr,
    )
    ok = (
        report["completed"] > 0
        and report["failed"] == 0
        and report["num_errors"] == 0
    )
    return 0 if ok else 1


def _cmd_tenants(args: argparse.Namespace) -> int:
    from .service.tenancy import (
        TenancyError,
        TenantRegistry,
        quota_table,
    )

    try:
        registry = TenantRegistry.load(args.file)
    except (OSError, TenancyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tenants = registry.tenants()
    fleet_note = (
        "fleet token configured"
        if registry.has_fleet_token()
        else "no fleet token (single-daemon use only)"
    )
    print(
        f"{args.file}: ok -- {len(tenants)} tenant(s), {fleet_note}"
    )
    print(quota_table(tenants.values()))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .circuits import transpile_to_native
    from .verify import verify_program_semantics

    circuit = load_qasm(args.file)
    config = PowerMoveConfig(
        use_storage=args.storage, num_aods=args.aods, seed=args.seed
    )
    result = PowerMoveCompiler(config).compile(circuit)
    validate_program(result.program, source_circuit=result.native_circuit)
    overlap = verify_program_semantics(
        result.program, transpile_to_native(circuit), seed=args.seed
    )
    print(
        f"verified {args.file!r}: structural checks pass, "
        f"state-vector overlap {overlap:.12f}"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .analysis.workloads import profile_circuit, render_profiles

    profile = profile_circuit(load_qasm(args.file))
    print(render_profiles([profile]))
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from .analysis.scorecard import run_scorecard

    keys = tuple(args.keys) if args.keys else None
    enola_cfg = EnolaConfig(
        seed=args.seed,
        mis_restarts=args.mis_restarts,
        sa_iterations_per_qubit=args.sa_iterations,
    )
    card = run_scorecard(keys=keys, seed=args.seed, enola_config=enola_cfg)
    print(card.render())
    return 0 if card.score >= args.min_score else 1


def _cmd_fig7(args: argparse.Namespace) -> int:
    keys = tuple(args.keys) if args.keys else ("BV-14", "QSIM-rand-0.3-10")
    series = figure7_series(
        keys=keys,
        aod_counts=tuple(args.aod_counts),
        seed=args.seed,
        engine=_make_engine(args),
        backend=args.backend,
        arch=args.arch,
    )
    print(series.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile an OpenQASM 2.0 file"
    )
    p_compile.add_argument("file", help="path to the .qasm file")
    p_compile.add_argument(
        "--no-storage",
        dest="storage",
        action="store_false",
        help="disable the storage zone (non-storage scenario)",
    )
    p_compile.add_argument("--aods", type=int, default=1)
    p_compile.add_argument("--seed", type=int, default=0)
    p_compile.add_argument(
        "--output", help="write the compiled program as JSON"
    )
    p_compile.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=40,
        default=None,
        help="print an instruction trace (optionally: max instructions)",
    )
    p_compile.set_defaults(func=_cmd_compile, storage=True)

    p_bench = sub.add_parser(
        "bench", help="run one Table 2 benchmark, all scenarios"
    )
    p_bench.add_argument(
        "key",
        nargs="?",
        default=None,
        help=f"one of: {', '.join(SUITE)} (omit with --scaling)",
    )
    p_bench.add_argument(
        "--scaling",
        action="store_true",
        help="run the compile-time scaling ladder (random 3-regular "
        "QAOA over --sizes) instead of one Table 2 benchmark",
    )
    p_bench.add_argument(
        "--sizes",
        default=None,
        metavar="N,N,...",
        help="comma-separated ladder sizes (default: 64,256,1024,4096,"
        "10000; only with --scaling)",
    )
    p_bench.add_argument(
        "--output",
        default=None,
        help="write the ladder timings as compare_bench-format JSON "
        "(only with --scaling)",
    )
    p_bench.add_argument("--aods", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--arch",
        default=None,
        metavar="NAME",
        help="architecture-catalog entry to compile onto (see "
        "'repro architectures'; applies to --scaling rungs too)",
    )
    p_bench.add_argument("--mis-restarts", type=int, default=5)
    p_bench.add_argument("--sa-iterations", type=int, default=150)
    p_bench.add_argument(
        "--backend",
        action="append",
        default=None,
        metavar="NAME",
        help="registry backend to run (repeatable; replaces the default "
        "enola / non-storage / with-storage trio)",
    )
    _add_engine_options(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_batch = sub.add_parser(
        "batch", help="compile a JSON job manifest (parallel, cached)"
    )
    p_batch.add_argument("manifest", help="path to the job manifest JSON")
    p_batch.add_argument(
        "--output",
        help="write the results JSON here (default: print to stdout)",
    )
    p_batch.add_argument(
        "--progress",
        action="store_true",
        help="stream per-job progress lines to stderr",
    )
    p_batch.add_argument(
        "--stream",
        action="store_true",
        help="emit one NDJSON result record per job on stdout, in "
        "completion order (suppresses the final document unless "
        "--output is given)",
    )
    p_batch.add_argument(
        "--on-error",
        choices=["raise", "collect"],
        default="raise",
        help="failure policy: 'raise' aborts on the first failing job "
        "(cancelling pending work), 'collect' records it and finishes "
        "the rest (default: raise)",
    )
    p_batch.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="compile only the I-th of N deterministic round-robin "
        "manifest slices (1-based); combine the outputs with "
        "'repro merge'",
    )
    p_batch.add_argument(
        "--arch",
        default=None,
        metavar="NAME",
        help="architecture-catalog default folded into the manifest's "
        "defaults block (per-job 'arch' entries still win); affects "
        "the manifest digest, so give every shard the same value",
    )
    _add_engine_options(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_merge = sub.add_parser(
        "merge",
        help="reassemble per-shard batch result files into one document",
    )
    p_merge.add_argument(
        "results",
        nargs="+",
        help="the per-shard result JSON files (every shard exactly once)",
    )
    p_merge.add_argument(
        "--output",
        help="write the merged JSON here (default: print to stdout)",
    )
    p_merge.set_defaults(func=_cmd_merge)

    p_serve = sub.add_parser(
        "serve", help="run the resident compilation service"
    )
    p_serve.add_argument(
        "queue_dir",
        type=_cache_dir_path,
        help="persistent job-queue directory (reusing one resumes its "
        "unfinished work)",
    )
    p_serve.add_argument(
        "--listen",
        default=None,
        metavar="ADDR",
        help="listen address: host:port or a unix socket path "
        "(default: <queue-dir>/service.sock)",
    )
    _add_cache_options(p_serve)
    p_serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="leased worker threads executing jobs (default 2)",
    )
    p_serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="per-job extra attempts before a failure is recorded "
        "(default 1)",
    )
    p_serve.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        help="base seconds between attempts, doubling per retry "
        "(default 0.1)",
    )
    p_serve.add_argument(
        "--completed-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="garbage-collect submissions whose every job finished "
        "more than this many seconds ago (default: keep forever; "
        "live or leased jobs are never collected)",
    )
    p_serve.add_argument(
        "--announce",
        default=None,
        metavar="ADDR",
        help="self-register with a fleet coordinator at this address "
        "(re-announced periodically, so a restarted coordinator "
        "re-learns this daemon)",
    )
    p_serve.add_argument(
        "--metrics",
        default=None,
        metavar="LISTEN",
        help="serve the Prometheus exposition on an HTTP listener at "
        "GET /metrics (HOST:PORT, :PORT or a bare port; default: off)",
    )
    p_serve.add_argument(
        "--tenants",
        default=None,
        metavar="FILE",
        help="tenants file (JSON/TOML) enabling token auth, "
        "per-tenant namespaces, quotas and submit rate limits; hot "
        "reloaded on SIGHUP or when the file's mtime changes "
        "(default: open v1-compatible daemon)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_coordinate = sub.add_parser(
        "coordinate",
        help="run the fleet coordinator (front door over N daemons)",
    )
    p_coordinate.add_argument(
        "--listen",
        default="127.0.0.1:7500",
        metavar="ADDR",
        help="listen address: host:port or a unix socket path "
        "(default 127.0.0.1:7500)",
    )
    p_coordinate.add_argument(
        "--daemon",
        action="append",
        default=None,
        metavar="ADDR",
        help="address of a compilation daemon (repeatable); daemons "
        "can also self-register via 'repro serve --announce'",
    )
    p_coordinate.add_argument(
        "--spill-depth",
        type=_positive_int,
        default=16,
        metavar="N",
        help="queue depth at which affinity placement spills to the "
        "next rendezvous choice (default 16)",
    )
    p_coordinate.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="fleet poll interval: liveness checks and the "
        "work-steal scan (default 0.5)",
    )
    p_coordinate.add_argument(
        "--steal-batch",
        type=int,
        default=2,
        metavar="N",
        help="jobs moved per steal from a straggling daemon to an "
        "idle one (0 disables stealing; default 2)",
    )
    p_coordinate.add_argument(
        "--tenants",
        default=None,
        metavar="FILE",
        help="tenants file (JSON/TOML); the coordinator enforces "
        "auth/quotas/rate limits at the front door and passes work to "
        "its daemons with the file's fleet_token",
    )
    p_coordinate.set_defaults(func=_cmd_coordinate)

    p_tenants = sub.add_parser(
        "tenants",
        help="validate a tenants file offline and print its quota table",
    )
    p_tenants.add_argument(
        "file", help="path to the tenants file (JSON or TOML)"
    )
    p_tenants.add_argument(
        "--check",
        action="store_true",
        help="validate and print the quota table (the default action; "
        "the flag exists for scripting clarity)",
    )
    p_tenants.set_defaults(func=_cmd_tenants)

    connect_help = "address of the running service (host:port or socket path)"

    token_help = (
        "bearer token for a tenanted service (defaults to the "
        "REPRO_TOKEN environment variable)"
    )

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive a daemon or coordinator with synthetic traffic "
        "and report p50/p95/p99 latency",
    )
    p_loadgen.add_argument(
        "--connect", required=True, metavar="ADDR", help=connect_help
    )
    p_loadgen.add_argument(
        "--clients",
        type=_positive_int,
        default=4,
        help="concurrent client threads (default 4)",
    )
    p_loadgen.add_argument(
        "--rate",
        type=float,
        default=2.0,
        metavar="HZ",
        help="aggregate Poisson submission rate in jobs/s (default 2)",
    )
    p_loadgen.add_argument(
        "--duration",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how long to generate new submissions; in-flight work "
        "is followed to completion (default 5)",
    )
    p_loadgen.add_argument(
        "--benchmark",
        action="append",
        default=None,
        metavar="NAME",
        help="benchmark drawn per submission (repeatable; default "
        "BV-14)",
    )
    p_loadgen.add_argument(
        "--backend",
        default="powermove",
        metavar="NAME",
        help="backend every submission compiles with "
        "(default powermove)",
    )
    p_loadgen.add_argument(
        "--distinct",
        type=_positive_int,
        default=4,
        metavar="N",
        help="job seeds cycle over this many values -- the cache-hit "
        "mix knob (default 4)",
    )
    p_loadgen.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed of the generator itself (default 0)",
    )
    p_loadgen.add_argument(
        "--progress",
        action="store_true",
        help="print a line per completed submission to stderr",
    )
    p_loadgen.add_argument(
        "--scrape",
        default=None,
        metavar="URL",
        help="sample this GET /metrics URL ('serve --metrics') once "
        "per second while the burst runs and embed the series in the "
        "report's 'scrape' block",
    )
    p_loadgen.add_argument(
        "--output",
        help="write the latency report JSON here (default: stdout)",
    )
    p_loadgen.add_argument(
        "--token", default=None, metavar="TOKEN", help=token_help
    )
    p_loadgen.set_defaults(func=_cmd_loadgen)

    p_submit = sub.add_parser(
        "submit", help="send a job manifest to a running service"
    )
    p_submit.add_argument("manifest", help="path to the job manifest JSON")
    p_submit.add_argument(
        "--connect", required=True, metavar="ADDR", help=connect_help
    )
    p_submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="scheduling priority (higher runs first; default 0)",
    )
    p_submit.add_argument(
        "--json",
        action="store_true",
        help="print the raw submit response JSON",
    )
    p_submit.add_argument(
        "--token", default=None, metavar="TOKEN", help=token_help
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="queue occupancy of a running service"
    )
    p_status.add_argument(
        "submission",
        nargs="?",
        default=None,
        help="restrict to one submission id",
    )
    p_status.add_argument(
        "--connect", required=True, metavar="ADDR", help=connect_help
    )
    p_status.add_argument(
        "--json",
        action="store_true",
        help="print the raw status response JSON",
    )
    p_status.add_argument(
        "--token", default=None, metavar="TOKEN", help=token_help
    )
    p_status.set_defaults(func=_cmd_status)

    p_trace = sub.add_parser(
        "trace",
        help="render one finished job's span timeline as a tree",
    )
    p_trace.add_argument(
        "job",
        help="job id from 'repro status SUBMISSION' "
        "(daemon: s000001-00003; coordinator: c000001-00003)",
    )
    p_trace.add_argument(
        "--connect", required=True, metavar="ADDR", help=connect_help
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="print the raw trace-v1 document instead of the tree",
    )
    p_trace.add_argument(
        "--token", default=None, metavar="TOKEN", help=token_help
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_results = sub.add_parser(
        "results",
        help="fetch a submission's result records as NDJSON",
    )
    p_results.add_argument("submission", help="submission id")
    p_results.add_argument(
        "--connect", required=True, metavar="ADDR", help=connect_help
    )
    p_results.add_argument(
        "--follow",
        action="store_true",
        help="stream records as jobs complete until the submission "
        "finishes (same schema as 'batch --stream')",
    )
    p_results.add_argument(
        "--output",
        help="also write the assembled batch-results document here "
        "(the submission must be complete)",
    )
    p_results.add_argument(
        "--token", default=None, metavar="TOKEN", help=token_help
    )
    p_results.set_defaults(func=_cmd_results)

    p_shutdown = sub.add_parser(
        "shutdown", help="stop a running service"
    )
    p_shutdown.add_argument(
        "--connect", required=True, metavar="ADDR", help=connect_help
    )
    p_shutdown.add_argument(
        "--now",
        action="store_true",
        help="stop without draining (queued jobs stay on disk for the "
        "next daemon)",
    )
    p_shutdown.add_argument(
        "--fleet",
        action="store_true",
        help="when --connect points at a coordinator: also shut down "
        "every live daemon it knows about",
    )
    p_shutdown.add_argument(
        "--token", default=None, metavar="TOKEN", help=token_help
    )
    p_shutdown.set_defaults(func=_cmd_shutdown)

    p_table2 = sub.add_parser("table2", help="print the Table 2 reproduction")
    p_table2.set_defaults(func=_cmd_table2)

    p_table3 = sub.add_parser("table3", help="print a Table 3 reproduction")
    p_table3.add_argument("--keys", nargs="*", default=None)
    p_table3.add_argument("--seed", type=int, default=0)
    p_table3.add_argument("--mis-restarts", type=int, default=5)
    p_table3.add_argument("--sa-iterations", type=int, default=150)
    p_table3.add_argument(
        "--backend",
        default="powermove",
        metavar="NAME",
        help="registry backend for the 'Ours (ws)' columns "
        "(default: powermove)",
    )
    p_table3.add_argument(
        "--arch",
        default=None,
        metavar="NAME",
        help="architecture-catalog entry every scenario compiles onto "
        "(see 'repro architectures')",
    )
    _add_engine_options(p_table3)
    p_table3.set_defaults(func=_cmd_table3)

    p_backends = sub.add_parser(
        "backends", help="list registered compiler backends"
    )
    p_backends.add_argument(
        "--json",
        action="store_true",
        help="print the registry as a JSON document (name, knobs, "
        "passes, strategy axes)",
    )
    p_backends.set_defaults(func=_cmd_backends)

    p_arch = sub.add_parser(
        "architectures", help="list the named architecture catalog"
    )
    p_arch.add_argument(
        "--json",
        action="store_true",
        help="print the catalog as a JSON document",
    )
    p_arch.add_argument(
        "--qubits",
        type=int,
        default=64,
        metavar="N",
        help="reference workload size the example floor plans are "
        "built at (default 64)",
    )
    p_arch.set_defaults(func=_cmd_architectures)

    p_cache = sub.add_parser(
        "cache",
        help="compiled-program cache maintenance and the cache server",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_prune = cache_sub.add_parser(
        "prune", help="evict least-recently-used entries to a size budget"
    )
    _add_cache_options(p_prune, required=True)
    p_prune.add_argument(
        "--max-bytes",
        type=int,
        default=0,
        help="size budget in bytes (default 0: remove every entry)",
    )
    p_prune.set_defaults(func=_cmd_cache_prune)
    p_info = cache_sub.add_parser(
        "info", help="print per-tier entry counts and sizes"
    )
    _add_cache_options(p_info, required=True)
    p_info.add_argument(
        "--json",
        action="store_true",
        help="print the raw info document JSON",
    )
    p_info.set_defaults(func=_cmd_cache_info)
    p_cache_serve = cache_sub.add_parser(
        "serve",
        help="run the shared HTTP cache server (the remote: tier)",
    )
    p_cache_serve.add_argument(
        "directory",
        type=_cache_dir_path,
        help="disk-cache directory backing the server",
    )
    p_cache_serve.add_argument(
        "--listen",
        default="127.0.0.1:8123",
        metavar="HOST:PORT",
        help="TCP listen address (default 127.0.0.1:8123; port 0 "
        "binds an ephemeral port)",
    )
    p_cache_serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="server-side LRU eviction budget in bytes "
        "(default: unbounded)",
    )
    p_cache_serve.set_defaults(func=_cmd_cache_serve)

    p_verify = sub.add_parser(
        "verify", help="state-vector equivalence check (<= 12 qubits)"
    )
    p_verify.add_argument("file", help="path to the .qasm file")
    p_verify.add_argument(
        "--no-storage", dest="storage", action="store_false"
    )
    p_verify.add_argument("--aods", type=int, default=1)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify, storage=True)

    p_profile = sub.add_parser(
        "profile", help="structural workload characterisation"
    )
    p_profile.add_argument("file", help="path to the .qasm file")
    p_profile.set_defaults(func=_cmd_profile)

    p_score = sub.add_parser(
        "scorecard", help="paper-vs-measured shape checks"
    )
    p_score.add_argument("--keys", nargs="*", default=None)
    p_score.add_argument("--seed", type=int, default=0)
    p_score.add_argument("--mis-restarts", type=int, default=5)
    p_score.add_argument("--sa-iterations", type=int, default=150)
    p_score.add_argument(
        "--min-score",
        type=float,
        default=0.0,
        help="exit non-zero when the pass fraction falls below this",
    )
    p_score.set_defaults(func=_cmd_scorecard)

    p_fig7 = sub.add_parser("fig7", help="print the Fig. 7 multi-AOD series")
    p_fig7.add_argument("--keys", nargs="*", default=None)
    p_fig7.add_argument(
        "--aod-counts", nargs="*", type=int, default=[1, 2, 3, 4]
    )
    p_fig7.add_argument("--seed", type=int, default=0)
    p_fig7.add_argument(
        "--backend",
        default="powermove",
        metavar="NAME",
        help="registry backend swept over the AOD grid "
        "(default: powermove)",
    )
    p_fig7.add_argument(
        "--arch",
        default=None,
        metavar="NAME",
        help="architecture-catalog entry every grid point compiles "
        "onto (see 'repro architectures')",
    )
    _add_engine_options(p_fig7)
    p_fig7.set_defaults(func=_cmd_fig7)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
