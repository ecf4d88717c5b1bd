"""The resident compilation daemon (``repro serve``).

A :class:`ServiceServer` ties together the three service halves:

* an **asyncio listener** -- TCP or Unix domain
  (:func:`repro.service.protocol.parse_address`) speaking the NDJSON
  protocol through the shared front door of
  :class:`~repro.service.aio.AsyncServerCore`, which owns auth, the
  admin-gated ``shutdown``, the ``submit`` preamble and the
  ``results`` stream.  This module supplies the daemon's op table
  (``ping``/``metrics``/``submit`` off the loop, ``status``/``trace``
  inline), its tenancy admission call site and the queue-backed
  results view.  Every reply frame goes through this module's
  ``write_message_async``, looked up at call time, so patching that
  one name times every daemon frame (``perfbench/tracer.py`` does);
* a persistent :class:`~repro.service.queue.JobQueue` -- submissions
  survive restarts, crash recovery runs on startup, and (with
  ``completed_ttl``) finished submissions are garbage-collected by
  the maintenance loop;
* a pool of **leased workers** -- threads that lease jobs from the
  queue and execute them through the existing
  :class:`~repro.engine.CompilationEngine` (one engine per worker,
  sharing one program cache) with per-job retry-with-backoff and
  ``on_error="collect"``, so a failing job becomes an error record
  instead of a dead daemon.  A plain cache hit never reaches them:
  ``submit`` answers it from the local cache tiers and the job is
  finished inside the submission's fsynced submit line.

The daemon is the only process on its queue directory, so a job is
running exactly while one of its workers holds it.  A worker whose
``_execute`` raises logs the error, requeues the job (bounded by the
queue's ``max_requeues``) and keeps serving; at start-up
:meth:`JobQueue.recover` requeues whatever a killed daemon left
running.  A maintenance thread runs the completed-submission GC, the
write-back cache flush and the tenants-file reload.

With ``announce`` the daemon periodically registers itself with a
fleet coordinator (:mod:`repro.service.coordinator`), so a fleet can
be grown by just starting more ``repro serve --announce`` processes.

Lifecycle: :meth:`start` binds the socket and spawns the threads;
:meth:`stop` (``drain=True``) stops accepting submissions, lets the
workers finish every queued job, then shuts the daemon down.  The
``shutdown`` protocol op triggers the same path remotely.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from typing import Any

from ..engine.cache import DiskCache, MemoryCache, ProgramCache
from ..engine.cachestore import cache_stats_registry, make_cache
from ..engine.engine import CompilationEngine, JobResult
from ..engine.shard import error_record, job_record
from ..obs.metrics import (
    MetricsRegistry,
    MetricsServer,
    render_prometheus_doc,
)
from ..obs.trace import Trace, rebase_spans
from ..engine.jobs import CompileJob
from .aio import AsyncServerCore, ResultsView
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    error_reply,
    write_message_async,
)
from .queue import JobQueue, queue_wait_s
from .tenancy import AuthContext, TenantRegistry, admit_submit

#: Re-announce period of ``--announce`` self-registration; frequent
#: enough that a restarted coordinator re-learns its fleet quickly.
ANNOUNCE_INTERVAL_S = 5.0

#: Maintenance sweep period (GC, write-back flush, tenants reload).
#: A ``completed_ttl`` below twice this shortens it to
#: ``completed_ttl / 2`` seconds, but never below 0.05 s.
MAINTENANCE_INTERVAL_S = 15.0


def _parse_metrics_listen(spec: str) -> tuple[str, int]:
    """Parse a ``--metrics`` listen spec: ``HOST:PORT``, ``:PORT`` or
    a bare port (host defaults to loopback)."""
    spec = spec.strip()
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = "", spec
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(
            f"bad metrics listen spec {spec!r}: expected HOST:PORT or PORT"
        ) from None


def _trace_doc(
    job_id: str,
    benchmark: str | None,
    backend: str,
    worker: str,
    origin: float,
    queue_wait: float,
    result: JobResult | None,
) -> dict[str, Any]:
    """A finished job's ``trace-v1`` document.

    ``origin`` is the ``time.perf_counter()`` instant of the enqueue,
    so offset ``0.0`` starts the ``queue.wait`` span.  Daemon engines
    are serial (``workers=1``), so they recorded raw perf-counter spans;
    those are shifted onto the same timeline.
    """
    trace = Trace(
        "job",
        attrs={"benchmark": benchmark, "backend": backend, "worker": worker},
        origin=origin,
    )
    trace.add_span("queue.wait", 0.0, queue_wait)
    if result is not None:
        rebase_spans(
            result.stats.get("spans") or (),
            trace,
            trace.root,
            trace.offset_of(0.0),
        )
    return trace.to_doc(job=job_id)


class ServiceServer(AsyncServerCore):
    """The resident compilation service (see module docstring).

    Args:
        queue_dir: Job-queue root; reusing a previous daemon's
            directory resumes its unfinished work.
        address: Listen address spec (``host:port`` or a Unix socket
            path).  TCP port ``0`` binds an ephemeral port --
            :attr:`address` carries the resolved spec after
            :meth:`start`.
        cache: Program cache shared by every worker -- a ready
            :class:`ProgramCache`, or a cache-spec string
            (``"disk:PATH"``, ``"remote:URL"``,
            ``"tiered:disk:PATH,remote:URL"``, ...) resolved through
            :func:`repro.engine.cachestore.make_cache`.  Defaults to
            ``DiskCache(cache_dir)`` when ``cache_dir`` is given, else
            an in-process :class:`MemoryCache`.
        cache_dir: Convenience for ``cache=DiskCache(cache_dir)``.
        workers: Leased-worker thread count.
        retries: Per-job extra compilation attempts
            (:class:`CompilationEngine` retry-with-backoff).
        backoff: Base backoff seconds between attempts.
        completed_ttl: When set, the maintenance loop drops finished
            submissions older than this many seconds
            (:meth:`JobQueue.gc_completed`); live or leased jobs are
            never collected.
        announce: Coordinator address to self-register with
            (``repro serve --announce``); re-announced every
            :data:`ANNOUNCE_INTERVAL_S` so a coordinator restart
            re-learns this daemon.
        metrics_address: When set (``HOST:PORT``, ``:PORT`` or a bare
            port), serve the daemon's Prometheus exposition on a
            stdlib HTTP listener at ``GET /metrics``
            (:class:`repro.obs.metrics.MetricsServer`); the same state
            the ``metrics`` protocol op returns.
        max_line_bytes: Protocol line bound (oversized frames get a
            clean error instead of unbounded buffering).
        tenants: Tenants-file path or a ready
            :class:`~repro.service.tenancy.TenantRegistry`.  When set,
            the daemon enforces token auth, per-tenant namespaces,
            quotas and submit rate limits (protocol v2 required; see
            :mod:`repro.service.tenancy`); the maintenance loop hot
            reloads the file when its mtime changes.  ``None`` keeps
            today's open v1-compatible behaviour.
    """

    role = "daemon"

    def __init__(
        self,
        queue_dir: str,
        address: str = "127.0.0.1:0",
        *,
        cache: ProgramCache | str | None = None,
        cache_dir: str | None = None,
        workers: int = 2,
        retries: int = 1,
        backoff: float = 0.1,
        completed_ttl: float | None = None,
        announce: str | None = None,
        metrics_address: str | None = None,
        max_line_bytes: int = MAX_LINE_BYTES,
        tenants: TenantRegistry | str | None = None,
    ) -> None:
        super().__init__(
            address,
            max_line_bytes=max_line_bytes,
            name="repro-service",
            tenants=tenants,
        )
        if workers < 1:
            raise ValueError("need at least one worker")
        if cache is None:
            cache = (
                DiskCache(cache_dir)
                if cache_dir is not None
                else MemoryCache()
            )
        elif isinstance(cache, str):
            cache = make_cache(cache)
        self.queue = JobQueue(queue_dir)
        self.cache = cache
        # Answers plain cache hits at submit (``_enqueue``); it only
        # reads the cache, so concurrent submits share it.
        self._front = CompilationEngine(cache=cache, on_error="collect")
        self.workers = workers
        self.retries = retries
        self.backoff = backoff
        self.completed_ttl = completed_ttl
        self.announce = announce
        self.metrics_address = metrics_address
        if metrics_address is not None:
            _parse_metrics_listen(metrics_address)  # validate eagerly
        self._metrics_http: MetricsServer | None = None
        # Per-daemon registry.  Event counters are incremented at the
        # instrument points (workers, submit); snapshot-style series
        # (queue depth, connections, cache counters) are synced in at
        # collection time, so a scrape always reads current state.
        self._m_submissions = self.metrics.counter(
            "repro_submissions_total",
            "Manifest submissions accepted by this daemon.",
        )
        self._m_jobs_submitted = self.metrics.counter(
            "repro_jobs_submitted_total",
            "Jobs accepted into the queue.",
        )
        self._m_jobs_completed = self.metrics.counter(
            "repro_jobs_completed_total",
            "Job outcome records written, by backend and status.",
            ("backend", "status"),
        )
        self._m_job_retries = self.metrics.counter(
            "repro_job_retries_total",
            "Compilation attempts beyond each job's first.",
            ("backend",),
        )
        self._m_queue_depth = self.metrics.gauge(
            "repro_queue_depth",
            "Jobs currently in each queue state.",
            ("state",),
        )
        self._m_queue_oldest = self.metrics.gauge(
            "repro_queue_oldest_age_seconds",
            "Age of the oldest still-queued job (admission backlog).",
        )
        self._m_connections = self.metrics.gauge(
            "repro_connections",
            "Protocol connections: open and peak gauges, total ever "
            "accepted.",
            ("kind",),
        )
        self._m_queue_wait = self.metrics.histogram(
            "repro_queue_wait_seconds",
            "Seconds between enqueue and a worker lease.",
        )
        self._m_pass_duration = self.metrics.histogram(
            "repro_pass_duration_seconds",
            "Per-pass compile seconds (fresh compilations only).",
            ("pass",),
        )
        self._m_tenant_jobs_completed = self.metrics.counter(
            "repro_tenant_jobs_completed_total",
            "Job outcome records written, by tenant and status.",
            ("tenant", "status"),
        )
        self._m_tenant_quota_util = self.metrics.gauge(
            "repro_tenant_quota_utilization",
            "Fraction of a tenant's quota in use (queued/running), "
            "synced at scrape time.",
            ("tenant", "quota"),
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ServiceServer":
        """Recover the queue, bind the socket, spawn the threads."""
        recovered = self.queue.recover()
        if recovered:
            self._log(
                f"recovered {len(recovered)} job(s) from a previous run"
            )
        self.start_listener()
        self._threads = [self._spawn("maintenance", self._maintenance_loop)]
        self._threads += [
            self._spawn(worker_id, self._worker_loop, worker_id)
            for worker_id in (
                f"worker-{number}" for number in range(1, self.workers + 1)
            )
        ]
        if self.announce is not None:
            self._threads.append(
                self._spawn("announce", self._announce_loop)
            )
        if self.metrics_address is not None:
            host, port = _parse_metrics_listen(self.metrics_address)
            self._metrics_http = MetricsServer(
                self._render_metrics, host=host, port=port
            ).start()
            self._log(f"metrics at {self._metrics_http.url}")
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Shut the daemon down.

        Args:
            drain: Refuse new submissions, finish every queued job,
                then stop.  ``False`` stops after at most the
                in-flight jobs (leased work completes; queued work
                stays queued on disk for the next daemon).
            timeout: Bound on the drain wait.
        """
        self._draining.set()
        if drain:
            self.queue.wait(
                lambda: self.queue.unfinished() == 0, timeout=timeout
            )
        self._stopping.set()
        # Wake idle workers and followed result streams so they see
        # the stop flag.
        self.queue.poke()
        self.stop_listener()
        if self._metrics_http is not None:
            self._metrics_http.stop()
            self._metrics_http = None
        self._join_threads()
        self.queue.close()
        try:
            # Deferred write-back cache entries must survive the
            # daemon.  Workers flush on their own way out too (a slow
            # compile can outlive the bounded join above), so this is
            # the last flush, not the only one.
            self.cache.flush()
        finally:
            self._stopped.set()

    @property
    def metrics_url(self) -> str | None:
        """The ``GET /metrics`` URL, when the listener is running."""
        http = self._metrics_http
        return None if http is None else http.url

    # -- workers -------------------------------------------------------

    def _worker_loop(self, worker_id: str) -> None:
        engine = CompilationEngine(
            cache=self.cache,
            workers=1,
            on_error="collect",
            retries=self.retries,
            backoff=self.backoff,
        )
        try:
            while not self._stopping.is_set():
                record = self.queue.lease(
                    worker_id, running_caps=self._running_caps()
                )
                if record is None:
                    # The timeout covers a tenants reload, which changes
                    # the running caps without any queue change.
                    with self.queue.changed:
                        if self._stopping.is_set():
                            return
                        self.queue.changed.wait(timeout=0.2)
                    continue
                try:
                    self._execute(engine, record, worker_id)
                except Exception:
                    self._log(
                        f"{worker_id}: job {record['id']} failed; "
                        f"requeueing it\n{traceback.format_exc()}"
                    )
                    self.queue.requeue(record["id"])
        finally:
            # A compile outliving stop()'s bounded join would finish
            # *after* the shutdown flush; pushing this worker's own
            # deferred write-backs on the way out closes that window.
            try:
                self.cache.flush()
            except Exception as exc:  # never kill the thread teardown
                self._log(f"{worker_id}: exit cache flush failed: {exc}")

    def _running_caps(self) -> dict[str, int] | None:
        """Per-tenant ``max_running_jobs`` caps for the lease call."""
        if self.tenants is None:
            return None
        return {
            tenant.name: tenant.max_running_jobs
            for tenant in self.tenants.tenants().values()
            if tenant.max_running_jobs is not None
        }

    def _execute(
        self,
        engine: CompilationEngine,
        record: dict[str, Any],
        worker_id: str = "",
    ) -> None:
        """Run one leased job: trace it, meter it, complete it.

        The job's :class:`~repro.obs.trace.Trace` origin is back-dated
        to the enqueue instant (the lease's wall/monotonic clock pair
        anchors the rebasing), so offset ``0.0`` starts the queue-wait
        span and the engine's perf-counter spans land after it on one
        timeline.  The finished ``trace-v1`` document rides on the
        result record (volatile: ``strip_timing`` removes it).  An
        exception escaping here reaches the worker loop, which requeues
        the job.
        """
        lease_wall = time.time()
        lease_mono = time.perf_counter()
        job_doc = record.get("job", {})
        backend = (
            job_doc.get("backend") or job_doc.get("scenario") or "unknown"
        )
        enqueued = record.get("enqueued_at")
        queue_wait = (
            max(0.0, lease_wall - enqueued)
            if enqueued is not None
            else 0.0
        )
        result = None
        job = self.queue.compile_job(record)
        try:
            [result] = engine.run([job])
            result_record = job_record(result, record["index"])
        except Exception as exc:  # the job's fault: record it, no requeue
            result_record = error_record(
                job, record["index"], record["cache_key"],
                type(exc).__name__, str(exc),
            )
        result_record["trace"] = _trace_doc(
            record["id"], job_doc.get("benchmark"), backend, worker_id,
            lease_mono - queue_wait, queue_wait, result,
        )
        self._meter(
            backend, record.get("tenant"), result, result_record, queue_wait
        )
        self.queue.complete(record["id"], result_record)

    def _meter(
        self,
        backend: str,
        tenant: str | None,
        result: JobResult | None,
        result_record: dict[str, Any],
        queue_wait: float,
    ) -> None:
        """Count one finished job in ``/metrics`` (either path)."""
        status = result_record.get("status", "error")
        self._m_jobs_completed.inc(backend=backend, status=status)
        if tenant:
            self._m_tenant_jobs_completed.inc(tenant=tenant, status=status)
        attempts = result_record.get("attempts", 1)
        if attempts > 1:
            self._m_job_retries.inc(attempts - 1, backend=backend)
        self._m_queue_wait.observe(queue_wait)
        if result is not None and result.ok and not result.cache_hit:
            for name, duration in result.stats.get(
                "pass_timings", {}
            ).items():
                self._m_pass_duration.observe(
                    float(duration), **{"pass": name}
                )

    def _maintenance_loop(self) -> None:
        interval = MAINTENANCE_INTERVAL_S
        if self.completed_ttl is not None:
            # The sweep cadence bounds the TTL's resolution.
            interval = min(interval, max(self.completed_ttl / 2.0, 0.05))
        while not self._stopping.wait(timeout=interval):
            if self.completed_ttl is not None:
                removed = self.queue.gc_completed(self.completed_ttl)
                if removed:
                    self._log(
                        f"gc: dropped {len(removed)} expired "
                        "submission(s): " + ", ".join(removed)
                    )
            # Push write-back-deferred cache entries downstream (no-op
            # for every non-write-back cache).
            self.cache.flush()
            self._reload_tenants()

    def _announce_loop(self) -> None:
        # Imported here: client.py has no dependency on the server
        # module, keep it one-directional.
        from .client import ServiceClient, ServiceError

        assert self.announce is not None
        client = ServiceClient(
            self.announce,
            timeout=5.0,
            connect_retry_s=1.0,
            # A tenanted coordinator only accepts registrations from
            # fleet members; present the shared fleet token.
            token=self._fleet_token,
        )
        registered = False
        while not self._stopping.is_set():
            try:
                client.register(self.address)
                if not registered:
                    self._log(f"registered with {self.announce}")
                registered = True
            except ServiceError as exc:
                if registered:
                    self._log(
                        f"re-announce to {self.announce} failed: {exc}"
                    )
                registered = False
            if self._stopping.wait(timeout=ANNOUNCE_INTERVAL_S):
                return

    # -- protocol dispatch ---------------------------------------------

    async def dispatch_async(
        self, request: dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request through the shared front door.

        Every frame is written through this module's
        ``write_message_async``, looked up at call time.
        """
        async def send(message: dict[str, Any]) -> None:
            await write_message_async(writer, message)

        return await self.front_door(request, send)

    def op_table(self):
        return {
            # Off the loop: the cache stats snapshot can briefly block
            # behind a write-back flush holding the stats lock.
            "ping": (self._ping, True),
            "metrics": (self._metrics, True),
            # Manifest expansion + cache-key hashing can be slow for
            # big manifests.
            "submit": (self._submit, True),
            "status": (self._status, False),
            "trace": (self._trace, False),
        }

    def _ping(self, *_: Any) -> dict[str, Any]:
        return {
            "ok": True,
            "op": "ping",
            "protocol": PROTOCOL_VERSION,
            "role": self.role,
            "address": self.address,
            "workers": self.workers,
            "draining": self.draining,
            "uptime_s": time.time() - self.started_at,
            "counts": self.queue.counts(),
            "connections": self.connection_stats(),
            "cache": self.cache.stats_doc(),
            "metrics_url": self.metrics_url,
            "auth_required": self.tenants is not None,
        }

    def _metrics_doc(self) -> dict[str, Any]:
        """The daemon's full metrics document (scrape-time snapshot).

        Syncs the snapshot-style gauges (queue depth, backlog age,
        connection stats) into the registry, then merges in the cache
        counters (:func:`cache_stats_registry`) so one document covers
        the whole daemon.
        """
        for state, value in self.queue.counts().items():
            self._m_queue_depth.set(value, state=state)
        self._m_queue_oldest.set(self.queue.oldest_queued_age())
        for kind, value in self.connection_stats().items():
            self._m_connections.set(value, kind=kind)
        if self.tenants is not None:
            for tenant in self.tenants.tenants().values():
                counts = self.queue.counts(tenant=tenant.name)
                if tenant.max_queued_jobs is not None:
                    self._m_tenant_quota_util.set(
                        (counts["queued"] + counts["running"])
                        / tenant.max_queued_jobs,
                        tenant=tenant.name,
                        quota="queued",
                    )
                if tenant.max_running_jobs is not None:
                    self._m_tenant_quota_util.set(
                        counts["running"] / tenant.max_running_jobs,
                        tenant=tenant.name,
                        quota="running",
                    )
        return MetricsRegistry.from_docs(
            [
                self.metrics.to_doc(),
                cache_stats_registry(self.cache).to_doc(),
            ]
        ).to_doc()

    def _render_metrics(self) -> str:
        return render_prometheus_doc(self._metrics_doc())

    def _metrics(self, *_: Any) -> dict[str, Any]:
        doc = self._metrics_doc()
        return {
            "ok": True,
            "op": "metrics",
            "role": self.role,
            "address": self.address,
            "metrics": doc,
            "text": render_prometheus_doc(doc),
        }

    def _trace(
        self, request: dict[str, Any], ctx: AuthContext
    ) -> dict[str, Any]:
        job_id = request.get("job")
        if not job_id:
            return error_reply("bad_request", "trace needs a 'job' id")
        record = self.queue.get(job_id)
        if record is None or not ctx.can_see(record.get("tenant")):
            return error_reply("not_found", f"unknown job {job_id!r}")
        trace_doc = (record.get("record") or {}).get("trace")
        if trace_doc is None:
            return error_reply(
                "not_found",
                f"job {job_id} has no trace yet "
                f"(status {record['status']!r})",
            )
        return {
            "ok": True,
            "op": "trace",
            "job": job_id,
            "status": record["status"],
            "trace": trace_doc,
        }

    def _admit(
        self, ctx: AuthContext, num_jobs: int
    ) -> dict[str, Any] | None:
        if ctx.fleet:
            # A coordinator leg was already admitted at the fleet front
            # door; re-charging the tenant's rate bucket (or checking
            # one daemon's slice of its global quota) for dispatch,
            # stealing or loss re-dispatch would throttle work the
            # client was told was accepted.
            return None

        def outstanding() -> int:
            counts = self.queue.counts(tenant=ctx.name)
            return counts["queued"] + counts["running"]

        return admit_submit(
            self.tenants,
            ctx,
            num_jobs,
            outstanding,
            self._m_tenant_throttles,
        )

    def _enqueue(
        self,
        manifest_doc: Any,
        jobs: list[CompileJob],
        priority: int,
        ctx: AuthContext,
    ) -> dict[str, Any]:
        """Queue an admitted manifest, answering its plain cache hits.

        Each job the local cache tiers hold (a plain hit, see
        :meth:`CompilationEngine.cached_result`) finishes here, with a
        zero queue wait, and rides in the submission's fsynced submit
        line; only the rest reach the workers.  The hits are counted in
        ``/metrics`` once that line is durable.
        """
        answered: list[tuple[str, JobResult, dict[str, Any]]] = []

        def answer(
            job_id: str, index: int, job: CompileJob, key: str
        ) -> dict[str, Any] | None:
            start = time.perf_counter()
            result = self._front.cached_result(job, key, index)
            if result is None:
                return None
            backend = job.backend or job.scenario
            result_record = job_record(result, index)
            result_record["trace"] = _trace_doc(
                job_id, job.benchmark, backend, "submit", start, 0.0, result
            )
            answered.append((backend, result, result_record))
            return result_record

        submission = self.queue.submit(
            manifest_doc, priority=priority, tenant=ctx.name,
            jobs=jobs, answer=answer,
        )
        for backend, result, result_record in answered:
            self._meter(backend, ctx.name, result, result_record, 0.0)
        self._m_submissions.inc()
        self._m_jobs_submitted.inc(submission["total_jobs"])
        if ctx.name is not None and not ctx.fleet:
            # Fleet legs are not client submissions: the coordinator
            # counted the submission once at its own front door, and
            # the fleet metrics view sums both registries.
            self._m_tenant_submissions.inc(tenant=ctx.name)
        return {
            "ok": True,
            "op": "submit",
            "submission": submission["id"],
            "tenant": ctx.name,
            "manifest_digest": submission["manifest_digest"],
            "total_jobs": submission["total_jobs"],
            "job_ids": submission["job_ids"],
        }

    def _status(
        self, request: dict[str, Any], ctx: AuthContext
    ) -> dict[str, Any]:
        sub_id = request.get("submission")
        if sub_id is None:
            submissions = []
            for sid in self.queue.submission_ids():
                # Read once: gc_completed may collect a submission
                # between the id scan and this read.
                doc = self.queue.submission(sid)
                if doc is None or not ctx.can_see(doc.get("tenant")):
                    continue
                submissions.append(
                    {
                        "id": sid,
                        "total_jobs": doc["total_jobs"],
                        "counts": self.queue.counts(sid),
                    }
                )
            return {
                "ok": True,
                "op": "status",
                "draining": self.draining,
                "counts": (
                    self.queue.counts()
                    if ctx.fleet
                    else self.queue.counts(tenant=ctx.name)
                ),
                "submissions": submissions,
            }
        submission = self.queue.submission(sub_id)
        if submission is None or not ctx.can_see(submission.get("tenant")):
            # A foreign tenant's submission answers exactly like a
            # nonexistent one: the namespace must not leak ids.
            return error_reply(
                "not_found", f"unknown submission {sub_id!r}"
            )
        jobs = []
        for record in self.queue.records_for(sub_id):
            outcome = record.get("record") or {}
            trace_doc = outcome.get("trace")
            jobs.append(
                {
                    "id": record["id"],
                    "index": record["index"],
                    "status": record["status"],
                    # Attempts are known once an outcome exists (absent
                    # on the record means a single attempt sufficed).
                    "attempts": (
                        outcome.get("attempts", 1) if outcome else None
                    ),
                    "queue_wait_s": queue_wait_s(record),
                    "span_time_s": (
                        trace_doc.get("duration_s")
                        if isinstance(trace_doc, dict)
                        else None
                    ),
                }
            )
        return {
            "ok": True,
            "op": "status",
            "submission": sub_id,
            "manifest_digest": submission["manifest_digest"],
            "total_jobs": submission["total_jobs"],
            "counts": self.queue.counts(sub_id),
            "jobs": jobs,
        }

    def results_view(
        self, sub_id: str, ctx: AuthContext
    ) -> ResultsView | None:
        submission = self.queue.submission(sub_id)
        if submission is None or not ctx.can_see(submission.get("tenant")):
            return None
        queue = self.queue
        return ResultsView(
            manifest_digest=submission["manifest_digest"],
            total_jobs=submission["total_jobs"],
            submitted_at=submission["submitted_at"],
            feed=queue,
            finished=lambda offset: [
                (record["id"], record["record"])
                for record in queue.completed_records(sub_id, offset)
            ],
            finished_count=lambda: queue.completed_count(sub_id),
        )


__all__ = ["ServiceServer"]
