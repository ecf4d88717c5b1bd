"""The batch compilation engine: fan-out, caching, streaming, fail-soft.

:class:`CompilationEngine` takes a batch of
:class:`~repro.engine.jobs.CompileJob` and produces one
:class:`JobResult` per job.  For every job it

1. derives the content-addressed cache key
   (:func:`repro.engine.cache.job_cache_key`) from the workload
   circuit's memoised digest;
2. serves the job from the cache when possible;
3. otherwise builds the workload circuit and compiles it --
   in-process, or fanned out over a ``concurrent.futures`` process
   pool when ``workers > 1`` -- and stores the artifact back into the
   cache.

Two consumption styles:

* :meth:`CompilationEngine.run` -- list of results in submission order;
* :meth:`CompilationEngine.stream` -- generator of results in
  *completion* order (cache hits first, then compilations as they
  finish); each :class:`JobResult` carries its batch ``index`` so
  callers can restore submission order.

Failure handling is governed by the ``on_error`` policy:

* ``"raise"`` (default, the historical behaviour) -- the first failing
  job raises :class:`EngineError`; at most ``workers`` attempts are in
  flight, so a large batch neither hangs on unstarted work nor
  silently burns CPU after the batch is doomed.
* ``"collect"`` (fail-soft) -- a failing job becomes a
  :class:`JobResult` whose ``error`` is a :class:`JobFailure`
  (index, label, cache key, exception text); every other job still
  completes.  This is the mode batch sweeps, streaming delivery and
  cross-machine sharding build on.

Retries: construct the engine with ``retries=N`` to grant every
failing job up to ``N`` extra attempts (exponential backoff,
``backoff * 2**(attempt-1)`` seconds between attempts) before its
failure is raised or collected; other misses run during a job's
backoff, at every width.  The :class:`JobResult` records the
``attempts`` taken and the total ``retry_wait_s`` of backoff.

Determinism: jobs carry explicit seeds and the compilers draw all
randomness from them, so the engine produces bit-identical programs
regardless of worker count, scheduling order or cache state; only the
wall-clock ``compile_time`` measurements vary.

Progress: pass ``progress=callback`` to observe one
:class:`ProgressEvent` per finished job, streamed as jobs complete
(cache hits first, then compilations in completion order).
"""

from __future__ import annotations

import heapq
import json
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..circuits.transpile import transpile_to_native
from ..fidelity.model import FidelityModel, FidelityReport
from ..schedule.program import NAProgram
from ..schedule.serialize import program_from_dict
from ..schedule.validator import ValidationError, validate_program
from .cache import ProgramCache, job_cache_key
from .cachestore import make_cache
from .jobs import (
    AUTO_BACKEND,
    SUMMARY_FIELDS,
    CompileJob,
    execute_job_on_circuit,
    resolve_backend,
    result_summary,
)

#: Valid ``on_error`` policies.
ERROR_POLICIES = ("raise", "collect")


@dataclass(frozen=True)
class JobFailure:
    """Structured description of one failed job.

    Attributes:
        index: Position of the job in the submitted batch.
        label: Human-readable job identity (:attr:`CompileJob.label`).
        key: Content-addressed cache key of the failed job.
        message: Stringified worker exception.
        error_type: Exception class name (``"ValidationError"``, ...).
    """

    index: int
    label: str
    key: str
    message: str
    error_type: str

    def describe(self) -> str:
        """One-line failure summary naming index, label and key."""
        return (
            f"job {self.index} ({self.label}, key {self.key[:16]}) "
            f"failed: [{self.error_type}] {self.message}"
        )


class EngineError(RuntimeError):
    """A job failed inside the engine (wraps the worker exception).

    Attributes:
        failure: The :class:`JobFailure` payload (index, label, cache
            key, exception text) when the failing job is known.
    """

    def __init__(
        self, message: str, failure: JobFailure | None = None
    ) -> None:
        super().__init__(message)
        self.failure = failure


@dataclass(frozen=True)
class ProgressEvent:
    """One finished job, reported to the progress callback.

    Attributes:
        index: Position of the job in the submitted batch.
        total: Batch size.
        job: The finished job.
        cache_hit: Whether the result came from the cache.
        compile_time: ``T_comp`` seconds (the cached measurement on hits).
        failed: Whether the job failed (``on_error="collect"`` only).
    """

    index: int
    total: int
    job: CompileJob
    cache_hit: bool
    compile_time: float
    failed: bool = False


@dataclass
class JobResult:
    """Outcome of one job: a compiled program, or a failure record.

    A successful result carries the artifact's ``summary`` -- everything
    a result record reads -- and the program as JSON text.  ``program``
    and ``fidelity`` are built from that text on first access (the text
    is dropped once the program exists), so a stream that only writes
    records never parses a program or replays its timeline.

    Attributes:
        job: The originating job.
        index: Position of the job in the submitted batch (restores
            submission order for streamed results).
        key: Content-addressed cache key.
        compile_time: Wall-clock compilation seconds (``T_comp``); on a
            cache hit, the time the original compilation took.
        cache_hit: Whether the compilation was skipped.
        summary: The artifact's :func:`~repro.engine.jobs.result_summary`
            -- Eq. (1) ``total``, ``execution_time`` (seconds) and the
            stage / CollMove / transfer counts (``None`` when the job
            failed).
        error: :class:`JobFailure` describing the failure, or ``None``
            on success.
        attempts: Number of compilation attempts this outcome took
            (``1`` when the first attempt succeeded or retries are
            disabled; cache hits always count one).
        retry_wait_s: Total backoff seconds scheduled between attempts.
        stats: Run-environment measurements of this result:
            ``"pass_timings"`` (per-pass compile seconds from the
            artifact) and, on cache hits, ``"cache_tier"`` -- the
            tier that served the hit (``"memory"`` / ``"disk"`` /
            ``"remote"``, or the backend kind for plain caches); on
            ``backend="auto"`` jobs, ``"auto_backend"`` -- the concrete
            backend the cost model chose (``job`` is the resolved job).
            When the engine compiled in-process (``workers == 1``, the
            service configuration) it also records ``"spans"`` -- raw
            span dicts (``name``/``start``/``end``/``attrs``/
            ``children``, timestamps in ``time.perf_counter`` units)
            covering the cache lookup (per-tier children) and every
            compilation attempt (per-pass children on the successful
            one); see :func:`repro.obs.trace.rebase_spans`.  Pool
            compilations stay span-free: their perf counters are not
            comparable across processes.
            Volatile by definition: never part of result records.
        program_text: The artifact's program JSON until ``program`` is
            first read.
    """

    job: CompileJob
    index: int
    key: str
    compile_time: float
    cache_hit: bool
    summary: dict[str, Any] | None = None
    error: JobFailure | None = None
    attempts: int = 1
    retry_wait_s: float = 0.0
    stats: dict[str, Any] = field(default_factory=dict)
    program_text: str | None = field(default=None, repr=False)
    _program: NAProgram | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _fidelity: FidelityReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        """True when the job compiled successfully."""
        return self.error is None

    @property
    def scenario(self) -> str:
        """The job's reporting key (legacy scenario or backend name)."""
        return self.job.scenario_key

    @property
    def program(self) -> NAProgram | None:
        """The compiled program (``None`` when the job failed)."""
        text = self.program_text
        if self._program is None and text is not None:
            self._program = program_from_dict(json.loads(text))
            self.program_text = None
        return self._program

    @property
    def fidelity(self) -> FidelityReport | None:
        """Eq. (1) evaluation under the job's hardware params (``None``
        when the job failed)."""
        if self._fidelity is None and self.program is not None:
            self._fidelity = FidelityModel(self.job.params).evaluate(
                self.program
            )
        return self._fidelity


def _is_artifact(doc: Any) -> bool:
    """Whether a cached document has the current artifact shape.

    Anything else (a hand-edited or foreign entry under a live key) is
    treated as a miss: recompiled and overwritten, never a crash on the
    hit path.
    """
    if not isinstance(doc, dict):
        return False
    summary = doc.get("summary")
    return (
        isinstance(doc.get("program"), str)
        and isinstance(summary, dict)
        and all(name in summary for name in SUMMARY_FIELDS)
        and isinstance(doc.get("compile_time"), (int, float))
    )


ProgressCallback = Callable[[ProgressEvent], None]


class CompilationEngine:
    """Batch compiler with process-pool fan-out and artifact caching.

    Args:
        cache: Artifact cache backend -- a ready
            :class:`~repro.engine.cache.ProgramCache`, or a cache-spec
            string (``"memory"``, ``"disk:PATH[:MAX_BYTES]"``,
            ``"remote:URL"``, ``"tiered:disk:PATH,remote:URL"``, see
            ``docs/caching.md``) resolved through
            :func:`~repro.engine.cachestore.make_cache`.
            :class:`~repro.engine.cache.NullCache` -- no caching --
            when omitted.
        workers: Process-pool width for cache-missing jobs; ``1``
            compiles serially in-process.
        progress: Per-finished-job callback.
        on_error: Failure policy -- ``"raise"`` (first failure raises
            :class:`EngineError`, unstarted work never runs) or
            ``"collect"`` (failures become error-carrying
            :class:`JobResult` entries, every other job completes).
        retries: Extra compilation attempts granted to a failing job
            before its failure is surfaced (``0``, the default,
            preserves the historical single-attempt behaviour).  The
            attempt count and total backoff are recorded on the
            :class:`JobResult`.
        backoff: Base delay in seconds between attempts; attempt ``n``
            waits ``backoff * 2**(n-1)`` before re-running, so
            transient failures (cache-volume hiccups, memory pressure
            in a worker) get breathing room without stalling the batch.

    Example:
        >>> from repro.engine import CompilationEngine, CompileJob
        >>> engine = CompilationEngine()
        >>> [result] = engine.run(
        ...     [CompileJob(scenario="pm_with_storage", benchmark="BV-14")]
        ... )
        >>> result.program.num_stages > 0
        True
    """

    def __init__(
        self,
        cache: ProgramCache | str | None = None,
        workers: int = 1,
        progress: ProgressCallback | None = None,
        on_error: str = "raise",
        retries: int = 0,
        backoff: float = 0.1,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if on_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ERROR_POLICIES}, "
                f"got {on_error!r}"
            )
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff < 0:
            raise ValueError("backoff must be non-negative")
        self.cache = make_cache(cache)
        self.workers = workers
        self.on_error = on_error
        self.retries = retries
        self.backoff = backoff
        self._progress = progress

    # ------------------------------------------------------------------

    def run(
        self, jobs: Iterable[CompileJob], on_error: str | None = None
    ) -> list[JobResult]:
        """Execute a batch; one result per job, in input order.

        Args:
            jobs: The batch.
            on_error: Per-call override of the engine's failure policy.
        """
        batch = list(jobs)
        results: list[JobResult | None] = [None] * len(batch)
        for result in self.stream(batch, on_error=on_error):
            results[result.index] = result
        return list(results)

    def stream(
        self, jobs: Iterable[CompileJob], on_error: str | None = None
    ) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per job, in completion order.

        Cache hits come first (in submission order), then compilations
        as they finish.  Each result carries its batch ``index``;
        :meth:`run` is exactly this stream re-ordered by it.

        Under ``on_error="raise"`` the first failure raises
        :class:`EngineError`; already-yielded results remain valid.
        Under ``"collect"`` failures are yielded as error results and
        the stream continues.  Raising or abandoning the generator
        mid-stream starts no further work.
        """
        policy = self.on_error if on_error is None else on_error
        if policy not in ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ERROR_POLICIES}, "
                f"got {policy!r}"
            )
        # Validate eagerly (above), then hand off to the generator so a
        # bad policy or job list fails at the call site, not at the
        # first next().
        return self._stream(list(jobs), policy)

    def _stream(
        self, batch: list[CompileJob], policy: str
    ) -> Iterator[JobResult]:
        total = len(batch)
        pending: list[tuple[int, CompileJob, Any, str]] = []
        lookup_spans: dict[int, dict[str, Any]] = {}

        # Circuits are built only where they are read: a miss compiles
        # one, an ``auto`` job's cost model inspects one and a validating
        # hit on an unvalidated entry replays against one.  A plain hit
        # keys off the memoised digest and builds nothing.
        resolved: dict[tuple[str, int], Any] = {}

        def resolve(job: CompileJob) -> Any:
            if job.circuit is not None:
                return job.circuit
            workload = (job.benchmark, job.seed)
            if workload not in resolved:
                resolved[workload] = job.resolve_circuit()
            return resolved[workload]

        auto_choices: dict[int, str] = {}
        for index, job in enumerate(batch):
            circuit = None
            if job.backend == AUTO_BACKEND:
                # Resolve the cost-model choice once, here: downstream
                # (cache key, worker, records) sees the concrete
                # backend, and the choice is surfaced in result stats.
                circuit = resolve(job)
                job = resolve_backend(job, circuit)
                auto_choices[index] = job.backend_name
            key = job_cache_key(job)
            doc, lookup_spans[index] = self._lookup(key)
            if doc is not None:
                try:
                    if job.validate and not doc.get("validated"):
                        circuit = resolve(job)
                    result = self._hit(
                        job, index, key, doc, lookup_spans[index], circuit
                    )
                except Exception as exc:
                    # Historical contract: hit-path validation errors
                    # propagate as-is (ValidationError, ...) under the
                    # raise policy.
                    if policy == "raise":
                        raise
                    yield self._failure(
                        index, total, job, key, exc
                    )
                    continue
                if index in auto_choices:
                    result.stats["auto_backend"] = auto_choices[index]
                self._emit(index, total, job, True, doc["compile_time"])
                yield result
            else:
                pending.append((index, job, resolve(job), key))

        for result in self._compile_pending(
            pending, total, policy, lookup_spans
        ):
            if result.index in auto_choices and result.ok:
                result.stats["auto_backend"] = auto_choices[result.index]
            yield result

    def cached_result(
        self, job: CompileJob, key: str, index: int = 0
    ) -> JobResult | None:
        """Answer ``job`` from the cache's local tiers, or ``None``.

        The daemon's submit path: ``key`` is the job's
        :func:`~repro.engine.cache.job_cache_key`.  Only a *plain* hit
        is answered -- a current artifact that needs no check (stored
        ``validated``, or the job does not validate) -- through the
        same :meth:`_hit` a batch stream runs.  An ``auto`` job, a
        validating hit on an unvalidated entry, a miss and a hit only a
        remote tier holds return ``None`` and count no lookup
        (:meth:`~repro.engine.cache.ProgramCache.probe`); they run on a
        worker.
        """
        if job.backend == AUTO_BACKEND:
            return None

        def plain(doc: dict[str, Any]) -> bool:
            return _is_artifact(doc) and (
                not job.validate or bool(doc.get("validated"))
            )

        doc, span = self._lookup(key, probe=plain)
        if doc is None:
            return None
        return self._hit(job, index, key, doc, span)

    def _lookup(
        self,
        key: str,
        probe: Callable[[dict[str, Any]], bool] | None = None,
    ) -> tuple[dict[str, Any] | None, dict[str, Any]]:
        """One cache lookup: the artifact (``None`` on a miss or a
        foreign entry) and its raw ``cache.lookup`` span.

        With ``probe``, a :meth:`ProgramCache.probe` of the local tiers
        that serves only artifacts ``probe`` accepts.
        """
        start = time.perf_counter()
        if probe is None:
            doc = self.cache.get(key)
            if doc is not None and not _is_artifact(doc):
                doc = None
        else:
            doc = self.cache.probe(key, probe)
        span = _lookup_span(
            start,
            time.perf_counter(),
            self.cache.last_lookup_profile,
            hit=doc is not None,
        )
        if doc is not None and self.cache.last_hit_tier is not None:
            span["attrs"]["tier"] = self.cache.last_hit_tier
        return doc, span

    def _hit(
        self,
        job: CompileJob,
        index: int,
        key: str,
        doc: dict[str, Any],
        span: dict[str, Any],
        circuit: Any = None,
    ) -> JobResult:
        """The result of a cache hit, carrying its lookup span: the one
        step that turns a cached artifact into a result, for a batch
        stream and the daemon's submit path alike.

        A validating job on an unvalidated entry is checked against
        ``circuit`` first (raises on a mismatch).
        """
        result = self._result_from_artifact(
            job, index, key, doc, cache_hit=True,
            circuit=circuit, hit_tier=span["attrs"].get("tier"),
        )
        result.stats["spans"] = [span]
        return result

    # ------------------------------------------------------------------

    def _compile_pending(
        self,
        pending: Sequence[tuple[int, CompileJob, Any, str]],
        total: int,
        policy: str,
        lookup_spans: dict[int, dict[str, Any]],
    ) -> Iterator[JobResult]:
        """Yield a :class:`JobResult` for every cache miss.

        One dispatcher for every width: at most ``workers`` attempts are
        in flight, on a process pool or -- with one worker or one miss
        -- in-process through :class:`_InlineExecutor`.  Retries that
        are due go before new jobs, a failed attempt waits out its
        backoff (``backoff * 2**(attempt-1)`` seconds) while other work
        runs, and the loop sleeps only when nothing else can run.  A
        failure is raised or collected only after the job's final
        attempt; each completion batch is handled lowest index first,
        so the reported failure is deterministic.

        In-process results carry their ``cache.lookup`` span
        (``lookup_spans``) and one ``compile`` span per attempt; pool
        results carry none -- a worker's perf counters are not
        comparable with this process's.
        """
        if not pending:
            return
        width = min(self.workers, len(pending))
        inline = width == 1
        spans = (
            {index: [lookup_spans[index]] for index, *_ in pending}
            if inline
            else {}
        )
        new_jobs = deque(pending)
        # Failed jobs sitting out their backoff, as (due, index, entry)
        # on ``time.monotonic``.
        backoffs: list[tuple[float, int, Any]] = []
        attempts: dict[int, int] = {}
        waited: dict[int, float] = {}
        running: dict[Future, tuple[int, CompileJob, Any, str]] = {}
        pool = (
            _InlineExecutor()
            if inline
            else ProcessPoolExecutor(max_workers=width)
        )
        try:
            while new_jobs or backoffs or running:
                while len(running) < width:
                    if backoffs and backoffs[0][0] <= time.monotonic():
                        entry = heapq.heappop(backoffs)[2]
                    elif new_jobs:
                        entry = new_jobs.popleft()
                    else:
                        break
                    index, job, circuit, _ = entry
                    attempt = attempts[index] = attempts.get(index, 0) + 1
                    start = time.perf_counter()
                    future = pool.submit(execute_job_on_circuit, job, circuit)
                    running[future] = entry
                    if inline:
                        # The attempt already ran; ``error`` names the
                        # retry cause.
                        attrs: dict[str, Any] = {"attempt": attempt}
                        exc = future.exception()
                        if exc is not None:
                            attrs["error"] = type(exc).__name__
                        spans[index].append({
                            "name": "compile",
                            "start": start,
                            "end": time.perf_counter(),
                            "attrs": attrs,
                            "children": [],
                        })
                if not running:
                    # Only backoffs are left: sleep to the earliest.
                    time.sleep(max(0.0, backoffs[0][0] - time.monotonic()))
                    continue
                timeout = (
                    max(0.0, backoffs[0][0] - time.monotonic())
                    if backoffs
                    else None
                )
                done, _ = wait(
                    running, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in sorted(done, key=lambda f: running[f][0]):
                    entry = running.pop(future)
                    index, job, _, key = entry
                    exc = future.exception()
                    if exc is None:
                        yield self._finish(
                            index, total, job, key, future.result(),
                            attempts=attempts[index],
                            retry_wait_s=waited.get(index, 0.0),
                            spans=spans.get(index),
                        )
                    elif attempts[index] <= self.retries:
                        delay = self.backoff * 2 ** (attempts[index] - 1)
                        waited[index] = waited.get(index, 0.0) + delay
                        heapq.heappush(
                            backoffs, (time.monotonic() + delay, index, entry)
                        )
                    else:
                        failure = _describe_failure(index, job, key, exc)
                        if policy == "raise":
                            raise EngineError(
                                failure.describe(), failure=failure
                            ) from exc
                        yield self._failure(
                            index, total, job, key, exc, failure=failure,
                            attempts=attempts[index],
                            retry_wait_s=waited.get(index, 0.0),
                            spans=spans.get(index),
                        )
        except BaseException:
            # A raise or an abandoned stream: running attempts finish
            # unread, unsubmitted work never starts.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()

    def _finish(
        self,
        index: int,
        total: int,
        job: CompileJob,
        key: str,
        artifact: dict[str, Any],
        attempts: int = 1,
        retry_wait_s: float = 0.0,
        spans: list[dict[str, Any]] | None = None,
    ) -> JobResult:
        """Store a fresh artifact and materialise its result.

        ``pass_spans`` is popped off the artifact *before* the cache
        write: the cached document keeps its historical schema and a
        later hit never replays the timeline of the machine that
        happened to compile it first.  When this compilation recorded
        spans, the popped offsets become the per-pass children of the
        final (successful) compile span.
        """
        pass_spans = artifact.pop("pass_spans", None)
        self.cache.put(key, artifact)
        result = self._result_from_artifact(
            job, index, key, artifact, cache_hit=False,
            attempts=attempts, retry_wait_s=retry_wait_s,
        )
        if spans is not None:
            if pass_spans and spans:
                spans[-1]["children"] = [
                    (name, start_s, end_s)
                    for name, start_s, end_s in pass_spans
                ]
            result.stats["spans"] = spans
        self._emit(index, total, job, False, artifact["compile_time"])
        return result

    def _failure(
        self,
        index: int,
        total: int,
        job: CompileJob,
        key: str,
        exc: Exception,
        failure: JobFailure | None = None,
        attempts: int = 1,
        retry_wait_s: float = 0.0,
        spans: list[dict[str, Any]] | None = None,
    ) -> JobResult:
        """Materialise a failed job as an error-carrying result."""
        if failure is None:
            failure = _describe_failure(index, job, key, exc)
        self._emit(index, total, job, False, 0.0, failed=True)
        return JobResult(
            job=job,
            index=index,
            key=key,
            compile_time=0.0,
            cache_hit=False,
            error=failure,
            attempts=attempts,
            retry_wait_s=retry_wait_s,
            stats={"spans": spans} if spans else {},
        )

    def _result_from_artifact(
        self,
        job: CompileJob,
        index: int,
        key: str,
        doc: dict[str, Any],
        cache_hit: bool,
        circuit=None,
        attempts: int = 1,
        retry_wait_s: float = 0.0,
        hit_tier: str | None = None,
    ) -> JobResult:
        stats: dict[str, Any] = {
            "pass_timings": doc.get("pass_timings", {}),
        }
        if cache_hit and hit_tier is not None:
            stats["cache_tier"] = hit_tier
        result = JobResult(
            job=job,
            index=index,
            key=key,
            compile_time=doc["compile_time"],
            cache_hit=cache_hit,
            summary=doc["summary"],
            attempts=attempts,
            retry_wait_s=retry_wait_s,
            stats=stats,
            program_text=doc["program"],
        )
        if cache_hit and job.validate and not doc.get("validated"):
            from ..pipeline.registry import REGISTRY

            preserves = REGISTRY.get(job.backend_name).preserves_gate_stream
            source = (
                transpile_to_native(circuit)
                if circuit is not None and preserves
                else None
            )
            report = validate_program(result.program, source_circuit=source)
            result._fidelity = FidelityModel(job.params).from_timeline(
                report.timeline
            )
            # The records read the stored summary, so an unchecked entry
            # must prove it describes the program it carries.
            if result_summary(result.program, result.fidelity) != (
                result.summary
            ):
                raise ValidationError(
                    "stored summary differs from the program's own"
                )
            # Persist the successful validation so future hits on this
            # key skip the (expensive) re-check.  Counted apart from
            # fresh stores and tier fills (kind="revalidate").
            self.cache.put(key, {**doc, "validated": True},
                           kind="revalidate")
        return result

    def _emit(
        self,
        index: int,
        total: int,
        job: CompileJob,
        cache_hit: bool,
        compile_time: float,
        failed: bool = False,
    ) -> None:
        if self._progress is not None:
            self._progress(
                ProgressEvent(
                    index=index,
                    total=total,
                    job=job,
                    cache_hit=cache_hit,
                    compile_time=compile_time,
                    failed=failed,
                )
            )


class _InlineExecutor:
    """The in-process executor: each call runs at submit, so the
    dispatcher's one slot always holds a finished future."""

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(
        self, wait: bool = True, *, cancel_futures: bool = False
    ) -> None:
        """Nothing runs in the background, so there is nothing to stop."""


def _lookup_span(
    start: float,
    end: float,
    profile: list[dict[str, Any]],
    hit: bool,
) -> dict[str, Any]:
    """Build a raw ``cache.lookup`` span from a per-tier profile.

    ``profile`` is :attr:`ProgramCache.last_lookup_profile` -- the
    tiers consulted by the lookup, in order, each with its duration.
    The tiers become child spans laid end-to-end from the lookup start
    (they ran sequentially, so that is also how they ran).
    """
    children: list[tuple[str, float, float]] = []
    offset = 0.0
    for entry in profile:
        duration = float(entry.get("duration_s", 0.0))
        children.append(
            (f"cache.{entry.get('tier', '?')}", offset, offset + duration)
        )
        offset += duration
    return {
        "name": "cache.lookup",
        "start": start,
        "end": end,
        "attrs": {"hit": hit},
        "children": children,
    }


def _describe_failure(
    index: int, job: CompileJob, key: str, exc: Exception
) -> JobFailure:
    return JobFailure(
        index=index,
        label=job.label,
        key=key,
        message=str(exc),
        error_type=type(exc).__name__,
    )


__all__ = [
    "ERROR_POLICIES",
    "CompilationEngine",
    "EngineError",
    "JobFailure",
    "JobResult",
    "ProgressCallback",
    "ProgressEvent",
]
