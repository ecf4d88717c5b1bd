"""The in-process workloads: ``compile-cold`` and ``cache-warm``.

Both drive ``CompilationEngine(workers=1).stream`` over the seeded
batch of :mod:`corpus`, a fixed number of times per run.
``compile-cold`` gives every batch a fresh ``disk:`` cache, so every
job compiles, validates, replays fidelity and is written.
``cache-warm`` re-runs the batch against the disk cache that set-up
filled in a forked child process, so every job is a hit and the
measuring process never compiles: its peak RSS is that of warm hits.

A job's cost is the gap between its ``stream()`` result and the one
before it, and ``batch_s`` sums each job's fastest cost over the run's
batches.  On a shared machine a slower repeat is interference from
other tenants, not the program, so the fastest is the steadiest
estimate of the program's own cost.
"""

from __future__ import annotations

import gc
import multiprocessing
import shutil
import tempfile
import time

from repro.engine import CompilationEngine
from repro.schedule.serialize import program_digest

import corpus
from checks import check_result, load_reference, quality
from measure import Outcome, peak_rss_mb, percentile
from tracer import Tracer, coverage, layer_metrics

#: Set-ups are repeated across the run and setup_s is the fastest:
#: repeats spread over the run are less likely all to meet a slow
#: stretch of the host.  compile-cold builds the corpus this many times
#: before its first batch and before every batch.  cache-warm
#: builds it and fills a cache before its first batch, and once more,
#: into a spare cache, before batch WARM_REFILL_AT.
COLD_SETUPS = 3
WARM_REFILL_AT = 2
#: Untraced batches per run.  The count is fixed, so a faster program
#: gets no more samples (and no lower minimum) than a slower one.
BATCHES = {"compile-cold": 3, "cache-warm": 4}
#: A traced run measures one untraced batch, then one traced batch.
TRACED_PLAN = [False, True]
#: Safety cap: no batch starts after this many times ``--seconds``.
CAP_FACTOR = 3


def _build(seed: int):
    inputs = corpus.batch_inputs(seed)
    digests = corpus.input_digests(inputs)
    return inputs, digests, corpus.batch_jobs(inputs)


class Batch:
    """One pass of the engine over the jobs, and what it cost."""

    def __init__(self, engine: CompilationEngine, jobs):
        self.results = []
        #: Job index -> gap before its result, in seconds.  With one
        #: in-process worker, that is the job's whole cost.
        self.gaps: dict[int, float] = {}
        self.start = last = time.perf_counter()
        for result in engine.stream(jobs):
            now = time.perf_counter()
            self.gaps[result.index] = now - last
            self.results.append(result)
            last = now
        self.end = last

    @property
    def wall(self) -> float:
        return self.end - self.start


def _fill(jobs, cache_dir: str, conn) -> None:
    """Child process: compile ``jobs`` into ``cache_dir`` and send back
    ``(job id -> program digest, failures)``."""
    results = CompilationEngine(
        cache=f"disk:{cache_dir}", on_error="collect"
    ).run(jobs)
    conn.send((
        {
            corpus.job_id(r.job): program_digest(r.program)
            for r in results if r.ok
        },
        [f"job failed: {r.error.describe()}" for r in results if not r.ok],
    ))
    conn.close()


def _warm_setup(seed: int, workdir: str):
    """Build the corpus and fill a disk cache with it in a forked child.

    Returns ``(seconds, corpus, cache_dir, cold digests, failures)``.
    """
    start = time.perf_counter()
    built = _build(seed)
    cache_dir = tempfile.mkdtemp(dir=workdir, prefix="cache-")
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_fill, args=(built[2], cache_dir, send))
    child.start()
    send.close()
    try:
        digests, failures = receive.recv()
    finally:
        child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"cache fill exited with {child.exitcode}")
    return time.perf_counter() - start, built, cache_dir, digests, failures


def _traced_setup(seed: int) -> dict[str, float]:
    tracer = Tracer()
    tracer.install_engine()
    tracer.wrap(corpus, "qaoa_regular", "circuit.build")
    try:
        _build(seed)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    return {
        name: metrics[name]
        for name in ("circuit.build_s", "circuit.digest_s")
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Outcome:
    out = Outcome()
    reference_digests = load_reference(seed)
    cold_digests: dict[str, str] = {}
    setup_times: list[float] = []

    def timed_build():
        start = time.perf_counter()
        built = _build(seed)
        setup_times.append(time.perf_counter() - start)
        return built

    def timed_fill():
        fill_s, built, cache_dir, digests, failures = _warm_setup(
            seed, workdir
        )
        setup_times.append(fill_s)
        failures += [
            f"{name}: refill digest differs from the first fill"
            for name, digest in digests.items()
            if cold_digests.get(name, digest) != digest
        ]
        out.check(len(built[2]), failures)
        return built, cache_dir, digests

    def cold_setup():
        for _ in range(COLD_SETUPS):
            # Drop the last corpus first: two alive at once would raise
            # the peak RSS the run reports.
            built = None
            built = timed_build()
        return built

    if workload == "cache-warm":
        built, cache_dir, cold_digests = timed_fill()
    else:
        built = cold_setup()
    inputs, input_digests, jobs = built
    del built
    plan = TRACED_PLAN if trace else [False] * BATCHES[workload]
    tracer = Tracer()
    untraced: list[Batch] = []
    traced: list[Batch] = []
    texe = fid = None
    started = time.perf_counter()
    for number, is_traced in enumerate(plan):
        if untraced and (traced or not trace) and (
            time.perf_counter() - started > CAP_FACTOR * seconds
        ):
            break
        if workload == "compile-cold":
            inputs = input_digests = jobs = None
            inputs, input_digests, jobs = cold_setup()
            cache_dir = tempfile.mkdtemp(dir=workdir, prefix="cache-")
        elif number == WARM_REFILL_AT:
            shutil.rmtree(timed_fill()[1])
        engine = CompilationEngine(
            cache=f"disk:{cache_dir}", on_error="collect"
        )
        # Start every batch from the same heap: garbage of the last one
        # must not be collected on this one's time.
        batch = None
        gc.collect()
        if is_traced:
            tracer.install_engine()
        try:
            batch = Batch(engine, jobs)
        finally:
            tracer.uninstall()
        (traced if is_traced else untraced).append(batch)
        failures = []
        for result in batch.results:
            digest, failure = check_result(
                result, reference_digests, cold_digests or None
            )
            if failure is None and workload == "cache-warm" and (
                not result.cache_hit
            ):
                failure = f"{corpus.job_id(result.job)}: cache miss"
            if failure is not None:
                failures.append(failure)
            else:
                cold_digests.setdefault(corpus.job_id(result.job), digest)
        out.check(len(jobs), failures)
        if texe is None:
            texe, fid = quality(batch.results)
        batch.results = None
        if workload == "compile-cold":
            shutil.rmtree(cache_dir)
    best_gaps = [
        min(b.gaps[index] for b in untraced) for index in range(len(jobs))
    ]
    out.report = {
        "inputs": input_digests,
        "jobs_per_batch": len(jobs),
        "batches": len(untraced),
        "setup_times_s": setup_times,
        "batch_walls_s": [b.wall for b in untraced],
        "traced_batch_walls_s": [b.wall for b in traced],
        # Over the jobs' fastest costs; not gated (see NOTES.md).
        "job_p50_ms": percentile(best_gaps, 50) * 1e3,
        "job_p90_ms": percentile(best_gaps, 90) * 1e3,
    }
    if trace:
        layers = layer_metrics(tracer, divisor=len(traced))
        layers.update(_traced_setup(seed))
        layers["trace.coverage_frac"] = coverage(
            tracer.spans, [(b.start, b.end) for b in traced]
        )
        layers["trace.overhead_frac"] = (
            min(b.wall for b in traced) / min(b.wall for b in untraced) - 1
        )
        out.metrics = layers
    else:
        out.metrics = {
            "setup_s": min(setup_times),
            # Equals the fastest batch when nothing interferes; a job
            # slowed in one batch but not in another counts at its
            # unslowed cost.
            "batch_s": sum(best_gaps),
            "texe_us_geomean": texe,
            "fid_neglog10": fid,
            "peak_rss_mb": peak_rss_mb(),
        }
    return out
