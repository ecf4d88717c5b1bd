"""Persistent job queue of the compilation service.

One :class:`JobQueue` owns a directory::

    <dir>/queue.json                 format, schema version 2 and the
                                     submission-seq high-water mark
    <dir>/journal/<sub-id>.ndjson    one append-only journal per
                                     accepted manifest

**Journal.**  Every submission's journal is newline-delimited JSON.
Its first line holds the submission document and all of its job
records; it is written with one ``write`` and one ``fsync``, and the
journal directory is fsynced once the file exists, so an acknowledged
submission survives power loss.  Records in the submit line are
usually ``queued``, but a job the daemon answered at submit (a plain
cache hit, see :meth:`JobQueue.submit`'s ``answer``) is already
``done`` there, with its ``completed_seq`` and result record; replay
indexes it like any other finished record.  Every later state change
of one of its jobs appends one line::

    {"op": "submit", "submission": {...}, "jobs": [{<record>}, ...]}
    {"op": "lease", "id": ..., "worker": ..., "leased_at": ...}
    {"op": "requeue", "id": ..., "requeues": 2}
    {"op": "complete", "id": ..., "status": "done" | "error",
     "completed_seq": 5, "completed_at": ..., "record": {...},
     "requeues": 2}

Replay also accepts the ``renew`` and ``release`` lines and the
``expires_at`` lease field of earlier daemons: a renew changes
nothing, a release returns its job to ``queued`` like a requeue that
keeps the count.  Lease and requeue lines are not fsynced: the daemon
that owned them is gone after a crash, and :meth:`JobQueue.recover`
requeues every job it left running anyway.  A completion
line is appended under the queue lock and fsynced outside it; only
then does the record become visible to result streams
(:meth:`JobQueue.completed_records`) and are waiters notified, so a
record a stream has sent survives power loss.  Reopening the directory
replays (and fsyncs) every journal; a torn last line (a crash
mid-append) is cut off, and a journal whose submit line is torn was
never acknowledged and is dropped.  :meth:`JobQueue.gc_completed` unlinks a collected
submission's journal after raising the persisted ``seq_floor``, so no
submission id is ever issued twice.  A schema-v1 directory (one JSON
file per job under ``jobs/`` and ``submissions/``) is refused with a
:class:`QueueError`: drain it with the previous daemon first.

Job records carry the :func:`repro.engine.jobs.job_to_doc` form of the
job plus its scheduling state::

    {"format": "repro-service-job", "version": 2,
     "id": "s000001-00003", "submission": "s000001", "index": 3,
     "tenant": "acme" | null,
     "priority": 0, "seq": 17,
     "status": "queued" | "running" | "done" | "error",
     "cache_key": <64-hex job_cache_key>,
     "job": {<job_to_doc>},
     "lease": {"worker": ...} | null,
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
(``"tenant"``; ``None`` means the default, un-tenanted namespace).
Tenanted ids are prefixed (``acme-s000001``), so two tenants' ids can
never collide and an operator can ``ls journal/acme-*`` to see one
tenant's work.

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

**Indices.**  No operation scans the queue.  The queue keeps one id set
per status, per-submission and per-tenant status counts, each
submission's finished records in completion order, and one runnable
heap per tenant keyed ``(-priority, seq, index)``.  Grants are constant
within a tenant, so comparing the tenants' heap heads by ``(-priority,
grants, seq, index)`` picks the job a scan over every record would.  A
head whose cache key is running is parked beside its twin and returns
to its heap when the twin completes or is requeued.

**One owner.**  One process owns a queue directory: it replays the
journals once at open and never reads another process's writes.  A
job is ``running`` exactly while one of that process's workers holds
it, so leases carry no clock.  A worker that fails outside the engine
hands its job back through :meth:`JobQueue.requeue`, and at start-up
:meth:`JobQueue.recover` requeues every job a dead process left
running.  Both are bounded by ``max_requeues``, so a job that keeps
breaking its worker ends as one ``WorkerLostError`` record.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from collections import OrderedDict
from typing import Any, Callable

from ..engine.cache import job_cache_key
from ..engine.jobs import CompileJob, job_from_doc, job_to_doc
from ..engine.manifest import (
    ManifestError,
    manifest_digest,
    parse_manifest,
)
from ..engine.shard import error_record
from .aio import ChangeFeed

#: Schema identity of queue documents.
QUEUE_FORMAT = "repro-service-queue"
JOB_RECORD_FORMAT = "repro-service-job"
SUBMISSION_FORMAT = "repro-service-submission"
QUEUE_SCHEMA_VERSION = 2

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "error")
_FINISHED = ("done", "error")

#: Journal handles a queue keeps open between appends.
OPEN_JOURNALS = 64

#: Requeue bound: a job whose worker fails (or whose daemon dies)
#: mid-run re-enters the queue at most this many times before it is
#: recorded as an error.
DEFAULT_MAX_REQUEUES = 3


class QueueError(RuntimeError):
    """Raised on structurally invalid queue operations or documents."""


#: Sentinel distinguishing "no tenant filter" from "the default
#: (None) tenant namespace" in :meth:`JobQueue.counts`.
_UNFILTERED = object()


#: ``answer(job_id, index, job, cache_key)`` of :meth:`JobQueue.submit`:
#: a finished job's result record, or ``None`` to queue the job.
Answer = Callable[[str, int, CompileJob, str], "dict[str, Any] | None"]


def queue_wait_s(record: dict[str, Any]) -> float | None:
    """Seconds a job record spent queued before its first lease.

    ``None`` while the job is still waiting.
    """
    enqueued = record.get("enqueued_at")
    leased = record.get("first_leased_at")
    if enqueued is None or leased is None:
        return None
    return max(0.0, leased - enqueued)


def _apply(record: dict[str, Any], event: dict[str, Any]) -> None:
    """Apply one journal line to its job record (live and on replay)."""
    op = event["op"]
    if op == "lease":
        record["status"] = "running"
        record["lease"] = {"worker": event["worker"]}
        if record.get("first_leased_at") is None:
            record["first_leased_at"] = event["leased_at"]
    elif op == "renew":
        pass  # written by earlier daemons; leases carry no clock now
    elif op in ("release", "requeue"):
        record["status"] = "queued"
        record["lease"] = None
        record["requeues"] = event.get("requeues", record["requeues"])
    elif op == "complete":
        record["status"] = event["status"]
        record["lease"] = None
        record["requeues"] = event.get("requeues", record["requeues"])
        record["completed_seq"] = event["completed_seq"]
        record["completed_at"] = event["completed_at"]
        record["record"] = event["record"]
    else:
        raise QueueError(f"unknown journal op {op!r}")


def _line(doc: dict[str, Any]) -> bytes:
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _write_all(handle: Any, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[handle.write(view):]


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class JobQueue(ChangeFeed):
    """Crash-safe priority queue of compilation jobs (see module doc).

    Thread-safe: every method may be called from any thread; every job
    state change (lease, completion, requeue, submission) is broadcast
    through the :class:`~repro.service.aio.ChangeFeed`, so streamers
    can wait for completions without polling the disk.

    Args:
        directory: Queue root (created on first use).
        max_requeues: Requeue bound per job.
    """

    def __init__(
        self,
        directory: str,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
    ) -> None:
        self.directory = directory
        self.max_requeues = max_requeues
        self._journal_dir = os.path.join(directory, "journal")
        self._meta_path = os.path.join(directory, "queue.json")
        super().__init__()
        self._records: dict[str, dict[str, Any]] = {}
        self._submissions: dict[str, dict[str, Any]] = {}
        self._by_status: dict[str, set[str]] = {
            state: set() for state in JOB_STATES
        }
        self._sub_counts: dict[str, dict[str, int]] = {}
        self._tenant_counts: dict[str | None, dict[str, int]] = {}
        # Per submission: finished records in completion order, and the
        # newest completion stamp (the GC age).
        self._finished: dict[str, list[dict[str, Any]]] = {}
        self._last_finished_at: dict[str, float] = {}
        # Per submission: how many of its finished records are fsynced
        # and visible to result streams (a prefix of ``_finished``).
        self._visible: dict[str, int] = {}
        # Per tenant: heap of (-priority, seq, index, job id) over its
        # queued jobs.  Entries of jobs that left ``queued`` are
        # dropped lazily when they reach the head.
        self._runnable: dict[str | None, list[tuple]] = {}
        # Running jobs per cache key, and the queued twins parked
        # behind them (cache key -> job ids).
        self._running_keys: dict[str, int] = {}
        self._parked: dict[str, list[str]] = {}
        # Leases granted per tenant since startup -- the fair-share
        # interleaving key.  In-memory by design: fairness is a
        # scheduling concern of the live process, not queue state.
        self._lease_grants: dict[str | None, int] = {}
        self._completed_seq = 0
        # Highest seq of any collected submission, persisted in
        # queue.json: a collected id is never issued again, across
        # restarts too.
        self._seq_floor = 0
        self._next_seq = 1
        # Open journal handles, least recently used first, and the ones
        # a completion is fsyncing outside the lock (never closed).
        self._handles: OrderedDict[str, Any] = OrderedDict()
        self._pinned: dict[str, int] = {}
        self._open()

    # -- persistence ---------------------------------------------------

    def _open(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        if any(
            os.path.isdir(os.path.join(self.directory, name))
            for name in ("jobs", "submissions")
        ):
            raise QueueError(
                f"{self.directory} is a schema-v1 queue (one JSON file "
                "per job); drain it with the previous daemon, then "
                "start this one on a fresh directory"
            )
        os.makedirs(self._journal_dir, exist_ok=True)
        if not os.path.exists(self._meta_path):
            self._write_meta()
        try:
            with open(self._meta_path, encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise QueueError(f"unreadable {self._meta_path}: {exc}") from exc
        if (
            meta.get("format") != QUEUE_FORMAT
            or meta.get("version") != QUEUE_SCHEMA_VERSION
        ):
            raise QueueError(
                f"{self._meta_path} is not a schema-v"
                f"{QUEUE_SCHEMA_VERSION} queue; drain it with the daemon "
                "that wrote it"
            )
        self._seq_floor = meta.get("seq_floor", 0)
        loaded = []
        for name in sorted(os.listdir(self._journal_dir)):
            if name.endswith(".ndjson"):
                replayed = self._replay(os.path.join(self._journal_dir, name))
                if replayed is not None:
                    loaded.append(replayed)
        loaded.sort(key=lambda pair: pair[0]["seq"])
        for submission, records in loaded:
            self._add_submission(submission, records)
        for finished in self._finished.values():
            finished.sort(key=lambda record: record["completed_seq"])
        self._next_seq = max(
            [self._seq_floor] + [sub["seq"] for sub, _ in loaded]
        ) + 1

    def _replay(
        self, path: str
    ) -> tuple[dict[str, Any], list[dict[str, Any]]] | None:
        """Rebuild one submission from its journal; ``None`` if the
        submit line never became whole (the journal is removed)."""
        with open(path, "r+b") as handle:
            data = handle.read()
            whole = data.rfind(b"\n") + 1
            if whole < len(data):
                # A torn tail: the append never returned, so nothing was
                # acknowledged from it.  Cut it off so later appends
                # start on a line boundary.
                handle.truncate(whole)
            # Lines a crashed process wrote but never fsynced are read
            # back as whole; make them durable before streams see them.
            os.fsync(handle.fileno())
        lines = data[:whole].splitlines()
        if not lines:
            os.unlink(path)
            return None
        number = 1
        try:
            head = json.loads(lines[0])
            submission = head["submission"]
            records = {record["id"]: record for record in head["jobs"]}
            for number, line in enumerate(lines[1:], start=2):
                event = json.loads(line)
                _apply(records[event["id"]], event)
        except (ValueError, KeyError, TypeError) as exc:
            raise QueueError(
                f"corrupt queue journal {path} (line {number}): {exc}"
            ) from exc
        return submission, sorted(
            records.values(), key=lambda record: record["index"]
        )

    def _write_meta(self) -> None:
        """Durably replace ``queue.json`` (temp file, fsync, rename)."""
        tmp_path = self._meta_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "format": QUEUE_FORMAT,
                    "version": QUEUE_SCHEMA_VERSION,
                    "seq_floor": self._seq_floor,
                },
                handle,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self._meta_path)
        _fsync_dir(self.directory)

    def _journal_path(self, sub_id: str) -> str:
        return os.path.join(self._journal_dir, f"{sub_id}.ndjson")

    def _write(
        self, sub_id: str, data: bytes, sync: bool, create: bool = False
    ) -> None:
        """The queue's one journal I/O seam: append ``data`` to the
        submission's journal.

        ``create`` makes the journal (the submit line; the directory is
        fsynced once the file and its line are on disk).  ``sync``
        fsyncs the file before returning.  Appends reuse an open handle
        per journal; the least recently used one is closed beyond
        :data:`OPEN_JOURNALS`.
        """
        if create:
            with open(self._journal_path(sub_id), "xb", buffering=0) as fh:
                _write_all(fh, data)
                os.fsync(fh.fileno())
            _fsync_dir(self._journal_dir)
            return
        handle = self._handles.pop(sub_id, None)
        if handle is None:
            handle = open(self._journal_path(sub_id), "ab", buffering=0)
            if len(self._handles) >= OPEN_JOURNALS:
                for old in self._handles:
                    if old not in self._pinned:
                        self._handles.pop(old).close()
                        break
        self._handles[sub_id] = handle
        _write_all(handle, data)
        if sync:
            self._sync(handle)

    def _sync(self, handle: Any) -> None:
        """fsync one journal (the other half of the I/O seam)."""
        os.fsync(handle.fileno())

    def _commit(
        self, record: dict[str, Any], event: dict[str, Any],
        sync: bool = False,
    ) -> None:
        """Journal ``event``, then apply it to ``record`` and the indices."""
        self._write(record["submission"], _line(event), sync)
        before = record["status"]
        _apply(record, event)
        self._moved(record, before)

    def close(self) -> None:
        """Close the idle journal handles (the queue stays usable)."""
        with self._lock:
            for sub_id in [s for s in self._handles if s not in self._pinned]:
                self._handles.pop(sub_id).close()

    # -- indices -------------------------------------------------------

    def _add_submission(
        self, submission: dict[str, Any], records: list[dict[str, Any]]
    ) -> None:
        sub_id = submission["id"]
        self._submissions[sub_id] = submission
        self._sub_counts[sub_id] = dict.fromkeys(JOB_STATES, 0)
        self._finished[sub_id] = []
        self._tenant_counts.setdefault(
            submission.get("tenant"), dict.fromkeys(JOB_STATES, 0)
        )
        for record in records:
            self._records[record["id"]] = record
            self._enter(record)
        self._visible[sub_id] = len(self._finished[sub_id])

    def _enter(self, record: dict[str, Any]) -> None:
        """Index ``record`` under its current status."""
        status = record["status"]
        self._by_status[status].add(record["id"])
        self._sub_counts[record["submission"]][status] += 1
        self._tenant_counts[record.get("tenant")][status] += 1
        if status == "queued":
            self._push(record)
        elif status == "running":
            key = record["cache_key"]
            self._running_keys[key] = self._running_keys.get(key, 0) + 1
        else:
            sub_id = record["submission"]
            self._finished[sub_id].append(record)
            self._completed_seq = max(
                self._completed_seq, record["completed_seq"]
            )
            self._last_finished_at[sub_id] = max(
                self._last_finished_at.get(sub_id, 0.0),
                record.get("completed_at") or 0.0,
            )

    def _leave(self, record: dict[str, Any], status: str) -> None:
        """Drop ``record`` from the indices of ``status``."""
        self._by_status[status].discard(record["id"])
        self._sub_counts[record["submission"]][status] -= 1
        self._tenant_counts[record.get("tenant")][status] -= 1
        if status != "running":
            return
        key = record["cache_key"]
        left = self._running_keys.pop(key) - 1
        if left:
            self._running_keys[key] = left
            return
        for job_id in self._parked.pop(key, ()):
            twin = self._records.get(job_id)
            if twin is not None and twin["status"] == "queued":
                self._push(twin)

    def _push(self, record: dict[str, Any]) -> None:
        """Make a queued record a candidate in its tenant's heap."""
        heapq.heappush(
            self._runnable.setdefault(record.get("tenant"), []),
            (-record["priority"], record["seq"], record["index"],
             record["id"]),
        )

    def _moved(self, record: dict[str, Any], before: str) -> None:
        if record["status"] != before:
            self._leave(record, before)
            self._enter(record)

    def _head(self, tenant: str | None) -> tuple | None:
        """The tenant's best leasable heap entry, ``None`` if none.

        Pops entries of jobs that are no longer queued and parks jobs
        whose cache key is running beside their twin.
        """
        heap = self._runnable.get(tenant)
        while heap:
            entry = heap[0]
            record = self._records.get(entry[3])
            if record is None or record["status"] != "queued":
                heapq.heappop(heap)
                continue
            key = record["cache_key"]
            if key in self._running_keys:
                heapq.heappop(heap)
                self._parked.setdefault(key, []).append(entry[3])
                continue
            return entry
        return None

    # -- submission ----------------------------------------------------

    def submit(
        self,
        manifest_doc: Any,
        priority: int = 0,
        tenant: str | None = None,
        *,
        jobs: list[CompileJob] | None = None,
        answer: Answer | None = None,
    ) -> dict[str, Any]:
        """Expand a manifest into queued jobs; returns the submission.

        The whole manifest is validated (:class:`ManifestError`
        propagates) and every job's cache key computed *before*
        anything is enqueued, so a malformed submission leaves the
        queue untouched.  ``tenant`` prefixes the submission id (see
        module doc).  The submission is on disk (fsynced) on return.

        Args:
            manifest_doc: The manifest (its digest names the results).
            priority: Scheduling priority of every job.
            tenant: Owning tenant, ``None`` for the default namespace.
            jobs: ``parse_manifest(manifest_doc)``, when the caller
                already parsed it.
            answer: ``answer(job_id, index, job, cache_key)`` returns a
                finished job's result record, or ``None`` to queue the
                job.  Answered jobs enter the submit line already
                finished, with ``completed_seq`` values in index order,
                so they become visible to result streams -- ahead of
                every queued job -- only once that line is fsynced.
        """
        if jobs is None:
            jobs = parse_manifest(manifest_doc)  # raises ManifestError
        digest = manifest_digest(manifest_doc)
        keys = [job_cache_key(job) for job in jobs]
        job_docs = [job_to_doc(job) for job in jobs]
        with self._lock:
            seq = self._next_seq
            self._next_seq = seq + 1
        sub_id = f"{tenant}-s{seq:06d}" if tenant else f"s{seq:06d}"
        job_ids = [f"{sub_id}-{index:05d}" for index in range(len(jobs))]
        submitted_at = time.time()
        submission = {
            "format": SUBMISSION_FORMAT,
            "version": QUEUE_SCHEMA_VERSION,
            "id": sub_id,
            "seq": seq,
            "tenant": tenant,
            "manifest_digest": digest,
            "total_jobs": len(jobs),
            "priority": priority,
            "submitted_at": submitted_at,
            "job_ids": job_ids,
        }
        records = [
            {
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
                "job": job_doc,
                "lease": None,
                "requeues": 0,
                "enqueued_at": submitted_at,
                "first_leased_at": None,
                "completed_seq": None,
                "record": None,
            }
            for index, (job_doc, key, job_id) in enumerate(
                zip(job_docs, keys, job_ids)
            )
        ]
        if answer is not None:
            self._answer(records, jobs, answer)
        # The journal is this submission's own file, so it is written
        # and fsynced outside the lock; nobody sees the submission
        # before it is durable.
        self._write(
            sub_id,
            _line({"op": "submit", "submission": submission,
                   "jobs": records}),
            sync=True,
            create=True,
        )
        with self.changed:
            self._add_submission(submission, records)
            self._notify_all()
        return submission

    def _answer(
        self,
        records: list[dict[str, Any]],
        jobs: list[CompileJob],
        answer: Answer,
    ) -> None:
        """Finish the records ``answer`` returns a result record for."""
        answered = []
        for record, job in zip(records, jobs):
            outcome = answer(record["id"], record["index"], job,
                             record["cache_key"])
            if outcome is not None:
                answered.append((record, outcome))
        if not answered:
            return
        with self._lock:
            first = self._completed_seq + 1
            self._completed_seq += len(answered)
        now = time.time()
        for seq, (record, outcome) in enumerate(answered, start=first):
            record.update(
                status="done" if outcome.get("status") == "ok" else "error",
                first_leased_at=record["enqueued_at"],
                completed_seq=seq,
                completed_at=now,
                record=outcome,
            )

    # -- scheduling ----------------------------------------------------

    def lease(
        self,
        worker: str,
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
            grants = self._lease_grants
            best = None
            for tenant in self._runnable:
                if (
                    running_caps is not None
                    and tenant in running_caps
                    and self._tenant_counts[tenant]["running"]
                    >= running_caps[tenant]
                ):
                    continue
                entry = self._head(tenant)
                if entry is None:
                    continue
                rank = (entry[0], grants.get(tenant, 0), entry[1], entry[2])
                if best is None or rank < best[0]:
                    best = (rank, tenant, entry[3])
            if best is None:
                return None
            _, tenant, job_id = best
            record = self._records[job_id]
            self._commit(
                record,
                {"op": "lease", "id": job_id, "worker": worker,
                 "leased_at": time.time()},
            )
            heapq.heappop(self._runnable[tenant])
            grants[tenant] = grants.get(tenant, 0) + 1
            self._notify_all()
            return dict(record)

    def compile_job(self, record: dict[str, Any]) -> CompileJob:
        """Rebuild the :class:`CompileJob` a leased record describes."""
        return job_from_doc(record["job"])

    def complete(self, job_id: str, result_record: dict[str, Any]) -> None:
        """Finish a leased job with its schema-v2 result record.

        ``result_record`` is a :func:`repro.engine.shard.job_record`
        dict; its ``status`` (``"ok"``/``"error"``) decides the queue
        state.  Completing an already-completed job is a no-op; the
        first completion wins.

        The completion line is appended under the lock and fsynced
        outside it, so other queue calls never wait on the disk.  Only
        then does the record join the submission's visible prefix and
        wake the result streams: a record a stream has sent is durable.
        """
        with self.changed:
            record = self._records.get(job_id)
            if record is None:
                raise QueueError(f"unknown job {job_id!r}")
            if record["status"] in _FINISHED:
                return
            self._finish(
                record,
                "done" if result_record.get("status") == "ok" else "error",
                result_record,
            )
            sub_id = record["submission"]
            position = len(self._finished[sub_id])
            handle = self._handles[sub_id]
            self._pinned[sub_id] = self._pinned.get(sub_id, 0) + 1
        synced = False
        try:
            self._sync(handle)
            synced = True
        finally:
            with self.changed:
                pins = self._pinned.pop(sub_id) - 1
                if pins:
                    self._pinned[sub_id] = pins
                if synced:
                    # fsync covers every earlier line of the journal,
                    # so the whole prefix up to this record is durable.
                    self._visible[sub_id] = max(
                        self._visible[sub_id], position
                    )
                    self._notify_all()

    def _finish(
        self,
        record: dict[str, Any],
        status: str,
        result_record: dict[str, Any],
        requeues: int | None = None,
        sync: bool = False,
    ) -> None:
        event = {
            "op": "complete",
            "id": record["id"],
            "status": status,
            "completed_seq": self._completed_seq + 1,
            "completed_at": time.time(),
            "record": result_record,
        }
        if requeues is not None:
            event["requeues"] = requeues
        self._commit(record, event, sync=sync)

    def requeue(self, job_id: str) -> bool:
        """Return a running job to the queue (its worker failed).

        The requeue is bounded: past ``max_requeues`` the job is
        completed with a ``WorkerLostError`` record instead, so a job
        that keeps breaking its worker cannot cycle forever.  Returns
        False when the job is not running.
        """
        with self.changed:
            record = self._records.get(job_id)
            if record is None or record["status"] != "running":
                return False
            self._requeue(record)
            self._notify_all()
            return True

    def _requeue(self, record: dict[str, Any]) -> None:
        requeues = record["requeues"] + 1
        if requeues <= self.max_requeues:
            self._commit(
                record,
                {"op": "requeue", "id": record["id"], "requeues": requeues},
            )
            return
        self._finish(
            record,
            "error",
            error_record(
                job_from_doc(record["job"]),
                record["index"],
                record["cache_key"],
                "WorkerLostError",
                f"job lost its worker {requeues} times; giving up "
                "(the job may be crashing its worker)",
            ),
            requeues=requeues,
            sync=True,
        )
        sub_id = record["submission"]
        self._visible[sub_id] = len(self._finished[sub_id])

    def recover(self) -> list[str]:
        """Startup pass: requeue every job a dead daemon left running.

        Nothing else writes this directory, so every ``running`` record
        is an orphan.  Each gets the bounded :meth:`requeue`.  Returns
        the affected ids, oldest submission first.
        """
        with self.changed:
            running = sorted(
                (self._records[job_id] for job_id in
                 self._by_status["running"]),
                key=lambda record: (record["seq"], record["index"]),
            )
            for record in running:
                self._requeue(record)
            if running:
                self._notify_all()
        return [record["id"] for record in running]

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
            doc = self._submissions.get(sub_id)
            if doc is None:
                return []
            return [dict(self._records[job_id]) for job_id in doc["job_ids"]]

    def completed_records(
        self, sub_id: str, offset: int = 0
    ) -> list[dict[str, Any]]:
        """A submission's durable finished records, in completion order,
        from the ``offset``-th on."""
        with self._lock:
            finished = self._finished.get(sub_id, ())
            return [
                dict(record)
                for record in finished[offset:self._visible.get(sub_id, 0)]
            ]

    def completed_count(self, sub_id: str) -> int:
        """How many of a submission's jobs have durably finished."""
        with self._lock:
            return self._visible.get(sub_id, 0)

    def counts(
        self,
        sub_id: str | None = None,
        tenant: str | None | Any = _UNFILTERED,
    ) -> dict[str, int]:
        """Job totals per state (optionally for one submission and/or
        one tenant namespace — pass ``tenant=None`` for the default
        namespace; omit the argument for all tenants)."""
        with self._lock:
            if sub_id is not None:
                counts = self._sub_counts.get(sub_id)
                if counts is None or (
                    tenant is not _UNFILTERED
                    and self._submissions[sub_id].get("tenant") != tenant
                ):
                    return dict.fromkeys(JOB_STATES, 0)
                return dict(counts)
            if tenant is not _UNFILTERED:
                counts = self._tenant_counts.get(tenant)
                return (
                    dict(counts) if counts is not None
                    else dict.fromkeys(JOB_STATES, 0)
                )
            return {
                state: len(ids) for state, ids in self._by_status.items()
            }

    def tenants_seen(self) -> set[str]:
        """Tenant names present on any record (live quota gauges)."""
        with self._lock:
            return {
                tenant
                for tenant, counts in self._tenant_counts.items()
                if tenant and any(counts.values())
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
                self._records[job_id]["enqueued_at"]
                for job_id in self._by_status["queued"]
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
        never touched.  Its journal is unlinked after ``seq_floor`` is
        persisted.  Returns the removed submission ids.
        """
        now = time.time() if now is None else now
        with self.changed:
            removed = [
                sub_id
                for sub_id, submission in self._submissions.items()
                if self._visible[sub_id] == submission["total_jobs"]
                and sub_id not in self._pinned
                and self._last_finished_at.get(
                    sub_id, submission["submitted_at"]
                ) <= now - ttl_seconds
            ]
            if not removed:
                return []
            floor = max(self._submissions[sid]["seq"] for sid in removed)
            if floor > self._seq_floor:
                self._seq_floor = floor
                self._write_meta()
            for sub_id in removed:
                handle = self._handles.pop(sub_id, None)
                if handle is not None:
                    handle.close()
                try:
                    os.unlink(self._journal_path(sub_id))
                except FileNotFoundError:
                    pass
                submission = self._submissions.pop(sub_id)
                for job_id in submission["job_ids"]:
                    record = self._records.pop(job_id)
                    self._leave(record, record["status"])
                del self._sub_counts[sub_id]
                del self._finished[sub_id]
                del self._visible[sub_id]
                self._last_finished_at.pop(sub_id, None)
            self._notify_all()
        return removed


__all__ = [
    "DEFAULT_MAX_REQUEUES",
    "JOB_RECORD_FORMAT",
    "JOB_STATES",
    "JobQueue",
    "ManifestError",
    "QUEUE_FORMAT",
    "QUEUE_SCHEMA_VERSION",
    "QueueError",
    "SUBMISSION_FORMAT",
    "queue_wait_s",
]
