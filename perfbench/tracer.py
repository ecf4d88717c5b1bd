"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``.  Instead :class:`Tracer` replaces a
public callable at the name its caller resolves (a module global, a
class attribute, or a pass instance's ``run``) with a timing wrapper,
and restores the original on :meth:`Tracer.uninstall`.  Spans are kept
in memory as ``(name, start, end, self_s, root)`` tuples; self time is
the span minus the part its traced children cover.  Counters record how
often a callable ran without timing it (``moves_conflict`` runs millions
of times per compile).

:data:`PER_LAYER` is the catalogue of per-layer metric names every
traced run prints, and :func:`layer_metrics` turns recorded spans into
those metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from measure import median, percentile

#: Backends whose passes are traced one by one.
TRACED_BACKENDS = ("powermove", "enola", "enola-windowed")

#: Each traced backend's pass names, in pipeline order.
PASSES = {
    "powermove": (
        "transpile", "block_partition", "architecture", "initial_layout",
        "stage_schedule", "continuous_route", "collmove_batch",
        "emit_program",
    ),
    "enola": (
        "transpile", "block_partition", "architecture", "initial_layout",
        "mis_schedule", "revert_route", "emit_program",
    ),
}
PASSES["enola-windowed"] = PASSES["enola"]

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER: dict[str, str] = {
    **{
        f"pass.{backend}.{name}_s": "s"
        for backend in TRACED_BACKENDS
        for name in PASSES[backend]
    },
    "moves.conflict_checks": "count",
    "validate.program_s": "s",
    "serialize.to_dict_s": "s",
    "serialize.from_dict_s": "s",
    "fidelity.evaluate_s": "s",
    "fidelity.calls": "count",
    "cache.disk.get_s": "s",
    "cache.disk.put_s": "s",
    "cache.disk.put_bytes": "bytes",
    "cache.memory.get_s": "s",
    "cache.memory.put_s": "s",
    "cache.memory.put_bytes": "bytes",
    "cache.hit_ratio": "ratio",
    "engine.key_s": "s",
    "circuit.build_s": "s",
    "circuit.digest_s": "s",
    **{
        f"queue.{op}.{pct}_ms": "ms"
        for op in ("submit", "lease", "complete", "wait")
        for pct in ("p50", "p99")
    },
    "queue.records": "count",
    "frame.write.p50_us": "us",
    "frame.read.p50_us": "us",
    "worker.busy_frac": "ratio",
    "worker.job.p50_ms": "ms",
    "gen_lag.p99_ms": "ms",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Span name -> metric name of the layers reported as summed self time.
_SELF_TIME_METRICS = {
    "validate.program": "validate.program_s",
    "serialize.to_dict": "serialize.to_dict_s",
    "serialize.from_dict": "serialize.from_dict_s",
    "fidelity.evaluate": "fidelity.evaluate_s",
    "cache.disk.get": "cache.disk.get_s",
    "cache.disk.put": "cache.disk.put_s",
    "cache.memory.get": "cache.memory.get_s",
    "cache.memory.put": "cache.memory.put_s",
    "engine.key": "engine.key_s",
    "circuit.build": "circuit.build_s",
    "circuit.digest": "circuit.digest_s",
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, float, bool]] = []
        self.counters: dict[str, Any] = defaultdict(itertools.count)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._tls = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def count(self, name: str) -> None:
        next(self.counters[name])

    def total(self, name: str) -> int:
        """How often :meth:`count` ran for ``name``."""
        counter = self.counters.get(name)
        # itertools.count repr is "count(N)": the next value is N.
        return 0 if counter is None else int(repr(counter)[6:-1])

    def timed(self, func: Callable, label: Callable[..., str] | str,
              on_return: Callable | None = None) -> Callable:
        """``func`` wrapped to record one span per call.

        ``label`` is the span name, or a function of ``(stack, *args)``
        computing it (the stack holds ``[name, child_s]`` frames of the
        enclosing traced calls on this thread).  ``on_return(result,
        end, *args)`` runs after the span closes.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            name = label if isinstance(label, str) else label(stack, *args)
            frame = [name, 0.0]
            root = not stack
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if not root:
                    stack[-1][1] += duration
                tracer.spans.append(
                    (name, start, end, duration - frame[1], root)
                )
            if on_return is not None:
                on_return(result, end, *args)
            return result

        return wrapper

    def timed_async(self, func: Callable, name: str) -> Callable:
        """Coroutine twin of :meth:`timed` (always a root span: other
        coroutines interleave across its awaits)."""
        tracer = self

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.spans.append((name, start, end, end - start, True))

        return wrapper

    def counted(self, func: Callable, name: str) -> Callable:
        counter = self.counters[name]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            next(counter)
            return func(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        had_own = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, replacement)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def wrap(self, owner: Any, attr: str, label, on_return=None) -> None:
        self.patch(
            owner, attr, self.timed(getattr(owner, attr), label, on_return)
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install_engine(self) -> None:
        """Wrap the compiler, schedule, fidelity, cache, engine and
        circuit layers (everything a ``CompilationEngine`` job reaches)."""
        import repro.benchsuite.suite as suite
        import repro.circuits.circuit as circuit
        import repro.engine.cache as cache
        import repro.engine.engine as engine
        import repro.engine.jobs as jobs
        import repro.fidelity.model as model
        import repro.hardware.moves as moves
        import repro.pipeline.registry as registry

        self.wrap(
            registry.PipelineCompiler, "compile",
            lambda stack, compiler, *a: f"compile.{compiler.name}",
        )
        wrapped: set[int] = set()
        for backend in TRACED_BACKENDS:
            for p in registry.get_backend(backend).pipeline:
                if id(p) not in wrapped:
                    wrapped.add(id(p))
                    self.wrap(p, "run", _pass_label(p.name))
        self.patch(
            moves, "moves_conflict",
            self.counted(moves.moves_conflict, "moves.conflict_checks"),
        )
        self.wrap(engine, "validate_program", "validate.program")
        self.wrap(jobs, "validate_program", "validate.program")
        self.wrap(jobs, "program_to_dict", "serialize.to_dict")
        self.wrap(engine, "program_from_dict", "serialize.from_dict")
        self.wrap(model.FidelityModel, "evaluate", "fidelity.evaluate")
        self.wrap(engine, "job_cache_key", "engine.key")
        self.wrap(circuit.Circuit, "digest", "circuit.digest")
        self.wrap(suite.BenchmarkSpec, "build", "circuit.build")

        def on_get(doc, end, store, key):
            self.count(f"cache.{'hits' if doc is not None else 'misses'}")

        def on_put(_, end, store, key, doc):
            self.values[f"cache.{store.kind}.put_bytes"].append(
                len(json.dumps(doc, separators=(",", ":")))
            )

        self.wrap(
            cache.ProgramCache, "get",
            lambda stack, store, *a: f"cache.{store.kind}.get", on_get,
        )
        self.wrap(
            cache.ProgramCache, "put",
            lambda stack, store, *a: f"cache.{store.kind}.put", on_put,
        )

    def install_service(self) -> None:
        """Wrap the daemon's queue, framing and worker job calls."""
        import repro.engine.engine as engine
        import repro.service.protocol as protocol
        import repro.service.queue as queue
        import repro.service.server as server

        leased: dict[str, float] = {}

        def on_lease(record, end, *args):
            # Idle polls return None; every call still counts as a span.
            if record is not None:
                leased[record["id"]] = end
                self.values["queue.wait"].append(queue.queue_wait_s(record))

        def on_complete(_, end, q, job_id, *args):
            # The same worker thread leased the job, so this is its
            # busy interval: lease return to complete return.
            self.values["worker.busy"].append(end - leased.pop(job_id))

        self.wrap(queue.JobQueue, "submit", "queue.submit")
        self.wrap(queue.JobQueue, "lease", "queue.lease", on_lease)
        self.wrap(queue.JobQueue, "complete", "queue.complete", on_complete)
        self.patch(
            server, "write_message_async",
            self.timed_async(server.write_message_async, "frame.write"),
        )
        # read_message_async also waits for the peer's next line; the
        # decode itself is _parse_line, the part framing costs.
        self.wrap(protocol, "_parse_line", "frame.read")
        self.wrap(engine.CompilationEngine, "run", "worker.job")


def _pass_label(pass_name: str) -> Callable[..., str]:
    """Name a pass span after the backend compiling it: enola and
    enola-windowed share pass instances, so the enclosing ``compile.*``
    span decides."""

    def label(stack, *args) -> str:
        for name, _ in reversed(stack):
            if name.startswith("compile."):
                return f"pass.{name[len('compile.'):]}.{pass_name}"
        return f"pass.unknown.{pass_name}"

    return label


def coverage(spans, windows: list[tuple[float, float]]) -> float:
    """Share of the ``windows``' wall time covered by root spans."""
    wall = sum(end - start for start, end in windows)
    if not wall:
        return 0.0
    covered = 0.0
    for name, start, end, _, root in spans:
        if root and any(lo <= start and end <= hi for lo, hi in windows):
            covered += end - start
    return covered / wall


def layer_metrics(tracer: Tracer, divisor: float = 1.0) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from recorded spans and counters.

    Summed times and counts are divided by ``divisor`` (the number of
    traced batches, so they read per batch); percentiles are not.
    Metrics of layers the workload never reached read ``0``; the
    harness metrics (``trace.*``, ``gen_lag``, ``worker.busy_frac``)
    are filled in by the workload.
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    by_name: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    for name, start, end, self_s, _ in tracer.spans:
        by_name[name].append(end - start)
        self_time[name] += self_s
    for name, total in self_time.items():
        metric = _SELF_TIME_METRICS.get(name)
        if metric is None and name.startswith("pass."):
            metric = f"{name}_s"
        if metric in metrics:
            metrics[metric] = total / divisor
    metrics["fidelity.calls"] = len(by_name["fidelity.evaluate"]) / divisor
    metrics["moves.conflict_checks"] = (
        tracer.total("moves.conflict_checks") / divisor
    )
    for kind in ("disk", "memory"):
        metrics[f"cache.{kind}.put_bytes"] = (
            sum(tracer.values[f"cache.{kind}.put_bytes"]) / divisor
        )
    hits = tracer.total("cache.hits")
    lookups = hits + tracer.total("cache.misses")
    metrics["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    for op in ("submit", "lease", "complete"):
        samples = by_name[f"queue.{op}"]
        metrics[f"queue.{op}.p50_ms"] = percentile(samples, 50) * 1e3
        metrics[f"queue.{op}.p99_ms"] = percentile(samples, 99) * 1e3
    waits = tracer.values["queue.wait"]
    metrics["queue.wait.p50_ms"] = percentile(waits, 50) * 1e3
    metrics["queue.wait.p99_ms"] = percentile(waits, 99) * 1e3
    metrics["frame.write.p50_us"] = median(by_name["frame.write"]) * 1e6
    metrics["frame.read.p50_us"] = median(by_name["frame.read"]) * 1e6
    metrics["worker.job.p50_ms"] = median(by_name["worker.job"]) * 1e3
    return metrics
