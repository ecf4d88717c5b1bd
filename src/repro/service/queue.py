"""Persistent on-disk job queue of the compilation service.

One :class:`JobQueue` owns a directory::

    <dir>/submissions/<sub-id>.json   one document per accepted manifest
    <dir>/jobs/<job-id>.json          one document per expanded job
    <dir>/submissions/<tenant>/...    tenant-namespaced submissions
    <dir>/jobs/<tenant>/...           tenant-namespaced jobs

Every document is written atomically (temp file + rename), so the
queue survives a daemon crash at any instant: on reopen,
:meth:`JobQueue.recover` returns every job the dead process was
running back to ``queued`` (its attempts so far are kept) and nothing
already ``done`` re-runs.

Job records carry the :func:`repro.engine.jobs.job_to_doc` form of the
job plus its scheduling state::

    {"format": "repro-service-job", "version": 1,
     "id": "s000001-00003", "submission": "s000001", "index": 3,
     "tenant": "acme" | null,
     "priority": 0, "seq": 17,
     "status": "queued" | "running" | "done" | "error",
     "cache_key": <64-hex job_cache_key>,
     "job": {<job_to_doc>},
     "lease": {"worker": ..., "expires_at": ...} | null,
     "requeues": 0,
     "enqueued_at": <unix seconds>, "first_leased_at": <...> | null,
     "completed_seq": 5 | null,
     "record": {<job_record, schema v2>} | null}

The two wall-clock stamps feed observability: ``first_leased_at -
enqueued_at`` is the job's queue wait (:func:`queue_wait_s`), surfaced
as the ``queue-wait`` trace span, the ``repro_queue_wait_seconds``
histogram and the ``repro status`` detail; ``first_leased_at`` survives
requeues (first value wins) so the wait reflects the original
admission, not the latest crash recovery.

**Tenancy.**  A submission made on behalf of a tenant carries the
tenant's name on its submission document and every job record
(``"tenant"``; ``None``/absent means the default, un-tenanted
namespace — records written by older daemons read back exactly so).
Tenanted documents live under per-tenant subdirectories and their ids
are prefixed (``acme-s000001``), so two tenants' ids can never
collide and an operator can ``ls`` one tenant's work.

Scheduling is priority-then-FIFO with **fair-share interleaving**
across tenants: :meth:`lease` hands out the queued job with the
highest ``priority``; among equal priorities, the tenant that has
been granted the fewest leases since this process started goes first
(ties: lowest submission ``seq``, then manifest ``index``).  A tenant
that floods the queue therefore shares the worker pool round-robin
with everyone else instead of starving them.  Work is **deduplicated by cache key**: two
queued jobs with the same content-addressed key are never leased
concurrently, so the first compiles while the second waits and is then
served from the shared program cache in microseconds -- the queue
plus cache together guarantee each distinct compilation runs once per
cache lifetime, no matter how many submissions ask for it.

Leases expire: the daemon heartbeats (:meth:`renew`) every job its
live worker threads are executing, so only a worker that stops
heartbeating (crashed thread, SIGKILLed daemon) loses its job to
:meth:`requeue_expired` -- bounded by ``max_requeues`` so a job that
kills its worker cannot cycle forever.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

from ..engine.cache import job_cache_key, write_json_atomic
from ..engine.jobs import CompileJob, job_from_doc, job_to_doc
from ..engine.manifest import (
    ManifestError,
    manifest_digest,
    parse_manifest,
)
from .aio import ChangeFeed

#: Schema identity of queue documents.
JOB_RECORD_FORMAT = "repro-service-job"
SUBMISSION_FORMAT = "repro-service-submission"
QUEUE_SCHEMA_VERSION = 1

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "error")

#: Crash-requeue bound: a job whose worker dies mid-run re-enters the
#: queue at most this many times before it is recorded as an error.
DEFAULT_MAX_REQUEUES = 3


class QueueError(RuntimeError):
    """Raised on structurally invalid queue operations or documents."""


#: Sentinel distinguishing "no tenant filter" from "the default
#: (None) tenant namespace" in :meth:`JobQueue.counts`.
_UNFILTERED = object()


def queue_wait_s(record: dict[str, Any]) -> float | None:
    """Seconds a job record spent queued before its first lease.

    ``None`` while the job is still waiting (or for records from
    queues written before the timestamps existed).
    """
    enqueued = record.get("enqueued_at")
    leased = record.get("first_leased_at")
    if enqueued is None or leased is None:
        return None
    return max(0.0, leased - enqueued)


class JobQueue(ChangeFeed):
    """Crash-safe priority queue of compilation jobs (see module doc).

    Thread-safe: every method may be called from any thread; every job
    state change (lease, completion, requeue, submission) is broadcast
    through the :class:`~repro.service.aio.ChangeFeed`, so streamers
    can wait for completions without polling the disk.

    Args:
        directory: Queue root (created on first use).
        max_requeues: Crash-requeue bound per job.
    """

    def __init__(
        self,
        directory: str,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
    ) -> None:
        self.directory = directory
        self.max_requeues = max_requeues
        self._jobs_dir = os.path.join(directory, "jobs")
        self._subs_dir = os.path.join(directory, "submissions")
        os.makedirs(self._jobs_dir, exist_ok=True)
        os.makedirs(self._subs_dir, exist_ok=True)
        super().__init__()
        self._records: dict[str, dict[str, Any]] = {}
        self._submissions: dict[str, dict[str, Any]] = {}
        # Leases granted per tenant since startup -- the fair-share
        # interleaving key.  In-memory by design: fairness is a
        # scheduling concern of the live process, not queue state.
        self._lease_grants: dict[str | None, int] = {}
        # Highest submission seq ever seen, GC'd ones included: a
        # collected submission's id must not be handed to a later
        # submit() while this process lives.
        self._seq_floor = 0
        self._load()

    # -- persistence ---------------------------------------------------

    @classmethod
    def _scan_docs(cls, root: str, fmt: str) -> list[dict[str, Any]]:
        """Read every queue document under ``root``: the flat default
        namespace plus one subdirectory per tenant."""
        docs = []
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            if os.path.isdir(path):
                for sub in sorted(os.listdir(path)):
                    if sub.endswith(".json"):
                        doc = cls._read_doc(os.path.join(path, sub))
                        if doc is not None and doc.get("format") == fmt:
                            docs.append(doc)
            elif name.endswith(".json"):
                doc = cls._read_doc(path)
                if doc is not None and doc.get("format") == fmt:
                    docs.append(doc)
        return docs

    def _load(self) -> None:
        for doc in self._scan_docs(self._subs_dir, SUBMISSION_FORMAT):
            self._submissions[doc["id"]] = doc
        for doc in self._scan_docs(self._jobs_dir, JOB_RECORD_FORMAT):
            self._records[doc["id"]] = doc

    @staticmethod
    def _read_doc(path: str) -> dict[str, Any] | None:
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            # A torn write can only be the .tmp file -- renamed files
            # are whole -- but tolerate stray garbage rather than
            # bricking the queue.
            return None

    def _doc_path(self, root: str, doc: dict[str, Any]) -> str:
        tenant = doc.get("tenant")
        if tenant:
            root = os.path.join(root, tenant)
        return os.path.join(root, f"{doc['id']}.json")

    def _persist_record(self, record: dict[str, Any]) -> None:
        path = self._doc_path(self._jobs_dir, record)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json_atomic(path, record)

    def _persist_submission(self, doc: dict[str, Any]) -> None:
        path = self._doc_path(self._subs_dir, doc)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json_atomic(path, doc)

    # -- submission ----------------------------------------------------

    def _next_seq(self) -> int:
        seqs = [doc.get("seq", 0) for doc in self._submissions.values()]
        return max(seqs + [self._seq_floor]) + 1

    def submit(
        self,
        manifest_doc: Any,
        priority: int = 0,
        tenant: str | None = None,
    ) -> dict[str, Any]:
        """Expand a manifest into queued jobs; returns the submission.

        The whole manifest is validated (:class:`ManifestError`
        propagates) and every job's cache key computed *before*
        anything is enqueued, so a malformed submission leaves the
        queue untouched.  ``tenant`` prefixes the submission id and
        namespaces the on-disk documents (see module doc).
        """
        jobs = parse_manifest(manifest_doc)  # raises ManifestError
        digest = manifest_digest(manifest_doc)
        keys = [job_cache_key(job) for job in jobs]
        with self.changed:
            seq = self._next_seq()
            sub_id = (
                f"{tenant}-s{seq:06d}" if tenant else f"s{seq:06d}"
            )
            job_ids = [
                f"{sub_id}-{index:05d}" for index in range(len(jobs))
            ]
            submission = {
                "format": SUBMISSION_FORMAT,
                "version": QUEUE_SCHEMA_VERSION,
                "id": sub_id,
                "seq": seq,
                "tenant": tenant,
                "manifest_digest": digest,
                "total_jobs": len(jobs),
                "priority": priority,
                "submitted_at": time.time(),
                "job_ids": job_ids,
            }
            self._persist_submission(submission)
            self._submissions[sub_id] = submission
            for index, (job, key, job_id) in enumerate(
                zip(jobs, keys, job_ids)
            ):
                record = {
                    "format": JOB_RECORD_FORMAT,
                    "version": QUEUE_SCHEMA_VERSION,
                    "id": job_id,
                    "submission": sub_id,
                    "index": index,
                    "tenant": tenant,
                    "priority": priority,
                    "seq": seq,
                    "status": "queued",
                    "cache_key": key,
                    "job": job_to_doc(job),
                    "lease": None,
                    "requeues": 0,
                    "enqueued_at": submission["submitted_at"],
                    "first_leased_at": None,
                    "completed_seq": None,
                    "record": None,
                }
                self._persist_record(record)
                self._records[job_id] = record
            self._notify_all()
            return submission

    # -- scheduling ----------------------------------------------------

    def lease(
        self,
        worker: str,
        lease_seconds: float = 300.0,
        running_caps: dict[str, int] | None = None,
    ) -> dict[str, Any] | None:
        """Claim the next runnable job for ``worker``; ``None`` if idle.

        Highest ``priority`` first; among equal priorities the tenant
        with the fewest leases granted so far goes first (fair-share
        interleaving), then submission order, then manifest index.  A
        job whose cache key is already running on another worker is
        skipped (work dedup): it becomes runnable again once the twin
        finishes and will then hit the shared program cache.

        ``running_caps`` maps tenant names to their ``max_running_jobs``
        quota: a tenant at its cap is skipped this round (its jobs stay
        queued), so in-flight concurrency is enforced at the moment a
        worker would start the job.
        """
        with self.changed:
            running_keys = set()
            running_by_tenant: dict[str | None, int] = {}
            for record in self._records.values():
                if record["status"] == "running":
                    running_keys.add(record["cache_key"])
                    tenant = record.get("tenant")
                    running_by_tenant[tenant] = (
                        running_by_tenant.get(tenant, 0) + 1
                    )
            candidates = [
                record
                for record in self._records.values()
                if record["status"] == "queued"
                and record["cache_key"] not in running_keys
                and not (
                    running_caps is not None
                    and record.get("tenant") in running_caps
                    and running_by_tenant.get(record.get("tenant"), 0)
                    >= running_caps[record.get("tenant")]
                )
            ]
            if not candidates:
                return None
            grants = self._lease_grants
            record = min(
                candidates,
                key=lambda r: (
                    -r["priority"],
                    grants.get(r.get("tenant"), 0),
                    r["seq"],
                    r["index"],
                ),
            )
            tenant = record.get("tenant")
            grants[tenant] = grants.get(tenant, 0) + 1
            record["status"] = "running"
            record["lease"] = {
                "worker": worker,
                "expires_at": time.time() + lease_seconds,
            }
            if record.get("first_leased_at") is None:
                record["first_leased_at"] = time.time()
            self._persist_record(record)
            self._notify_all()
            return dict(record)

    def compile_job(self, record: dict[str, Any]) -> CompileJob:
        """Rebuild the :class:`CompileJob` a leased record describes."""
        return job_from_doc(record["job"])

    def complete(self, job_id: str, result_record: dict[str, Any]) -> None:
        """Finish a leased job with its schema-v2 result record.

        ``result_record`` is a :func:`repro.engine.shard.job_record`
        dict; its ``status`` (``"ok"``/``"error"``) decides the queue
        state.  Completing an already-completed job is a no-op (a
        requeued twin may have finished first after a lease expiry);
        the first completion wins.
        """
        with self.changed:
            record = self._records.get(job_id)
            if record is None:
                raise QueueError(f"unknown job {job_id!r}")
            if record["status"] in ("done", "error"):
                return
            record["status"] = (
                "done" if result_record.get("status") == "ok" else "error"
            )
            record["lease"] = None
            record["completed_seq"] = self._next_completed_seq()
            record["completed_at"] = time.time()
            record["record"] = result_record
            self._persist_record(record)
            self._notify_all()

    def _next_completed_seq(self) -> int:
        seqs = [
            record["completed_seq"]
            for record in self._records.values()
            if record.get("completed_seq") is not None
        ]
        return (max(seqs) if seqs else 0) + 1

    def renew(self, job_id: str, lease_seconds: float = 300.0) -> bool:
        """Extend a running job's lease (the worker heartbeat).

        The daemon renews the lease of every job its worker threads
        are actively executing, so a healthy compile can outlive the
        lease duration arbitrarily; only a worker that stops
        heartbeating -- dead thread, dead process -- lets the lease
        expire.  Returns False when the job is not currently leased.
        """
        with self.changed:
            record = self._records.get(job_id)
            if (
                record is None
                or record["status"] != "running"
                or record["lease"] is None
            ):
                return False
            record["lease"]["expires_at"] = time.time() + lease_seconds
            self._persist_record(record)
            return True

    def release(self, job_id: str) -> None:
        """Return a leased job to the queue unfinished (worker shutdown)."""
        with self.changed:
            record = self._records.get(job_id)
            if record is None or record["status"] != "running":
                return
            record["status"] = "queued"
            record["lease"] = None
            self._persist_record(record)
            self._notify_all()

    def _fail_requeue_bound(self, record: dict[str, Any]) -> None:
        """Record a job that exhausted its crash-requeue budget."""
        job = job_from_doc(record["job"])
        record["status"] = "error"
        record["lease"] = None
        record["completed_seq"] = self._next_completed_seq()
        record["completed_at"] = time.time()
        record["record"] = {
            "index": record["index"],
            "status": "error",
            **job.identity(),
            "cache_key": record["cache_key"],
            "cache_hit": False,
            "compile_time_s": 0.0,
            "error": {
                "type": "WorkerLostError",
                "message": (
                    f"worker lease expired {record['requeues']} times; "
                    "giving up (the job may be crashing its worker)"
                ),
            },
        }
        self._persist_record(record)

    def requeue_expired(self, now: float | None = None) -> list[str]:
        """Return expired-lease jobs to the queue; list of affected ids.

        Jobs past ``max_requeues`` are completed as errors instead of
        cycling forever.
        """
        now = time.time() if now is None else now
        touched = []
        with self.changed:
            for record in self._records.values():
                if record["status"] != "running":
                    continue
                lease = record.get("lease")
                if lease is not None and lease["expires_at"] > now:
                    continue
                record["requeues"] += 1
                touched.append(record["id"])
                if record["requeues"] > self.max_requeues:
                    self._fail_requeue_bound(record)
                    continue
                record["status"] = "queued"
                record["lease"] = None
                self._persist_record(record)
            if touched:
                self._notify_all()
        return touched

    def recover(self) -> list[str]:
        """Startup pass: requeue every job a dead daemon left running.

        The daemon that owned this queue is gone, so *any* lease --
        expired or not -- is orphaned.
        """
        return self.requeue_expired(now=float("inf"))

    # -- inspection ----------------------------------------------------

    def get(self, job_id: str) -> dict[str, Any] | None:
        """A copy of one job record."""
        with self._lock:
            record = self._records.get(job_id)
            return None if record is None else dict(record)

    def submission(self, sub_id: str) -> dict[str, Any] | None:
        """A copy of one submission document."""
        with self._lock:
            doc = self._submissions.get(sub_id)
            return None if doc is None else dict(doc)

    def submission_ids(self) -> list[str]:
        """All submission ids, oldest first."""
        with self._lock:
            return sorted(
                self._submissions,
                key=lambda sid: self._submissions[sid]["seq"],
            )

    def records_for(self, sub_id: str) -> list[dict[str, Any]]:
        """Copies of a submission's job records, by manifest index."""
        with self._lock:
            records = [
                dict(record)
                for record in self._records.values()
                if record["submission"] == sub_id
            ]
        records.sort(key=lambda record: record["index"])
        return records

    def completed_records(self, sub_id: str) -> list[dict[str, Any]]:
        """A submission's finished records, in completion order."""
        with self._lock:
            records = [
                dict(record)
                for record in self._records.values()
                if record["submission"] == sub_id
                and record["status"] in ("done", "error")
            ]
        records.sort(key=lambda record: record["completed_seq"])
        return records

    def completed_count(self, sub_id: str) -> int:
        """How many of a submission's jobs have finished.

        Cheap (no record copies, no sort) -- meant for tight wait
        predicates such as the result-stream idle poll.
        """
        with self._lock:
            return sum(
                1
                for record in self._records.values()
                if record["submission"] == sub_id
                and record["status"] in ("done", "error")
            )

    def counts(
        self,
        sub_id: str | None = None,
        tenant: str | None | Any = _UNFILTERED,
    ) -> dict[str, int]:
        """Job totals per state (optionally for one submission and/or
        one tenant namespace — pass ``tenant=None`` for the default
        namespace; omit the argument for all tenants)."""
        totals = dict.fromkeys(JOB_STATES, 0)
        with self._lock:
            for record in self._records.values():
                if sub_id is not None and record["submission"] != sub_id:
                    continue
                if (tenant is not _UNFILTERED
                        and record.get("tenant") != tenant):
                    continue
                totals[record["status"]] += 1
        return totals

    def tenants_seen(self) -> set[str]:
        """Tenant names present on any record (live quota gauges)."""
        with self._lock:
            return {
                record["tenant"]
                for record in self._records.values()
                if record.get("tenant")
            }

    def unfinished(self, sub_id: str | None = None) -> int:
        """Jobs not yet done or errored."""
        totals = self.counts(sub_id)
        return totals["queued"] + totals["running"]

    def oldest_queued_age(self, now: float | None = None) -> float:
        """Age in seconds of the oldest still-queued job (0.0 if none).

        The saturation gauge: a growing value means admissions outpace
        the worker pool.
        """
        now = time.time() if now is None else now
        with self._lock:
            stamps = [
                record.get("enqueued_at")
                for record in self._records.values()
                if record["status"] == "queued"
                and record.get("enqueued_at") is not None
            ]
        return max(0.0, now - min(stamps)) if stamps else 0.0

    # -- garbage collection --------------------------------------------

    def gc_completed(
        self, ttl_seconds: float, now: float | None = None
    ) -> list[str]:
        """Drop submissions whose work finished over ``ttl_seconds`` ago.

        Collection is **submission-granular**: a submission is removed
        only once every one of its jobs is ``done``/``error`` and its
        newest completion is older than the TTL.  Pruning individual
        records would leave a submission whose result stream can never
        cover all its indices, so a submission with *any* live
        (queued/running) job -- and therefore any leased job -- is
        never touched.  Returns the removed submission ids.
        """
        now = time.time() if now is None else now
        removed: list[str] = []
        with self.changed:
            by_submission: dict[str, list[dict[str, Any]]] = {}
            for record in self._records.values():
                by_submission.setdefault(
                    record["submission"], []
                ).append(record)
            for sub_id, submission in list(self._submissions.items()):
                records = by_submission.get(sub_id, [])
                if len(records) < submission["total_jobs"]:
                    continue  # missing records never imply "finished"
                if any(
                    record["status"] not in ("done", "error")
                    for record in records
                ):
                    continue
                newest = max(
                    record.get("completed_at")
                    or submission.get("submitted_at", now)
                    for record in records
                )
                if newest > now - ttl_seconds:
                    continue
                for record in records:
                    self._remove_file(
                        self._doc_path(self._jobs_dir, record)
                    )
                    del self._records[record["id"]]
                self._remove_file(
                    self._doc_path(self._subs_dir, submission)
                )
                self._seq_floor = max(
                    self._seq_floor, submission.get("seq", 0)
                )
                del self._submissions[sub_id]
                removed.append(sub_id)
            if removed:
                self._notify_all()
        return removed

    @staticmethod
    def _remove_file(path: str) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


__all__ = [
    "DEFAULT_MAX_REQUEUES",
    "JOB_RECORD_FORMAT",
    "JOB_STATES",
    "JobQueue",
    "ManifestError",
    "QUEUE_SCHEMA_VERSION",
    "QueueError",
    "SUBMISSION_FORMAT",
    "queue_wait_s",
]
