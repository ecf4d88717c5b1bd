"""The job queue's journal: replay, torn tails, schema refusal, id
high-water mark, and crash / power-loss fault injection.

The fault suite kills a queue before, in the middle of and after each
kind of journal append (submit, lease, requeue, complete) and each
completion fsync, at every such call of a seeded schedule, reopens the
directory,
runs ``recover()`` and drains what is left.  The power-loss variant also
cuts every journal back to its last fsynced length.
"""

import json
import os
import random
import sys
import threading
import time

import pytest

from repro.engine import (
    CompilationEngine,
    docs_equal_modulo_timing,
    job_record,
    manifest_digest,
    parse_manifest,
    results_doc,
)
from repro.engine.cache import job_cache_key
from repro.engine.jobs import job_to_doc
from repro.engine.shard import results_doc_from_records
from repro.service import JobQueue, QueueError

#: Four cheap jobs, two of them sharing a cache key.
MANIFEST = {
    "jobs": [
        {"benchmark": "BV-14", "backend": "powermove", "seed": 0},
        {"benchmark": "BV-14", "backend": "powermove", "seed": 1},
        {"benchmark": "BV-14", "backend": "powermove", "seed": 0},
        {"benchmark": "BV-14", "backend": "powermove-nonstorage"},
    ]
}


@pytest.fixture(scope="module")
def batch():
    """The `repro batch` records of MANIFEST (by index) and its doc."""
    jobs = parse_manifest(MANIFEST)
    results = CompilationEngine(on_error="collect").run(jobs)
    doc = results_doc(
        results,
        manifest_digest=manifest_digest(MANIFEST),
        total_jobs=len(jobs),
        wall_time_s=0.0,
        on_error="collect",
    )
    return [job_record(result, result.index) for result in results], doc


def drain(queue, records):
    """Lease and complete every runnable job with its batch record;
    returns the ids it ran."""
    ran = []
    while True:
        leased = queue.lease("drain")
        if leased is None:
            return ran
        queue.complete(leased["id"], records[leased["index"]])
        ran.append(leased["id"])


def service_doc(queue, sub_id):
    submission = queue.submission(sub_id)
    return results_doc_from_records(
        [record["record"] for record in queue.records_for(sub_id)],
        manifest_digest=submission["manifest_digest"],
        total_jobs=submission["total_jobs"],
        wall_time_s=0.0,
        on_error="collect",
    )


class TestJournal:
    def test_submission_ids_survive_gc_and_restart(self, tmp_path, batch):
        records, _ = batch
        directory = str(tmp_path / "queue")
        queue = JobQueue(directory)
        first = queue.submit(MANIFEST)["id"]
        second = queue.submit(MANIFEST)["id"]
        drain(queue, records)
        assert queue.gc_completed(0, now=time.time() + 10) == [
            first, second,
        ]
        queue.close()
        # A reissued id would hand a client holding the old one another
        # submission's results.
        reopened = JobQueue(directory)
        assert reopened.submit(MANIFEST)["id"] == "s000003"

    def test_gc_unlinks_the_journal(self, tmp_path, batch):
        records, _ = batch
        queue = JobQueue(str(tmp_path / "queue"))
        sub_id = queue.submit(MANIFEST)["id"]
        journal = tmp_path / "queue" / "journal" / f"{sub_id}.ndjson"
        assert journal.exists()
        drain(queue, records)
        assert queue.gc_completed(0, now=time.time() + 10) == [sub_id]
        assert not journal.exists()

    def test_v1_directory_is_refused(self, tmp_path):
        (tmp_path / "queue" / "jobs").mkdir(parents=True)
        with pytest.raises(QueueError, match="drain it with the previous"):
            JobQueue(str(tmp_path / "queue"))

    def test_foreign_schema_is_refused(self, tmp_path):
        (tmp_path / "queue").mkdir()
        (tmp_path / "queue" / "queue.json").write_text(
            '{"format": "repro-service-queue", "version": 3}'
        )
        with pytest.raises(QueueError, match="schema-v2"):
            JobQueue(str(tmp_path / "queue"))

    def test_replay_rebuilds_every_record(self, tmp_path, batch):
        records, _ = batch
        queue = JobQueue(str(tmp_path / "queue"))
        sub_id = queue.submit(MANIFEST, priority=2, tenant="acme")["id"]
        done = queue.lease("w1")
        queue.complete(done["id"], records[done["index"]])
        queue.lease("w2")
        requeued = queue.lease("w3")
        assert queue.requeue(requeued["id"])
        live = queue.records_for(sub_id)
        reopened = JobQueue(queue.directory)
        assert reopened.records_for(sub_id) == live
        assert reopened.completed_records(sub_id) == (
            queue.completed_records(sub_id)
        )
        assert reopened.counts(tenant="acme") == queue.counts(tenant="acme")

    def test_parent_format_journal_replays(self, tmp_path, batch):
        """A journal an earlier daemon wrote, with ``expires_at`` lease
        fields and ``renew``/``release`` lines, resumes unchanged."""
        records, _ = batch
        directory = tmp_path / "queue"
        (directory / "journal").mkdir(parents=True)
        (directory / "queue.json").write_text(json.dumps(
            {"format": "repro-service-queue", "version": 2,
             "seq_floor": 0}
        ))
        jobs = parse_manifest(MANIFEST)
        ids = [f"s000001-{index:05d}" for index in range(len(jobs))]
        submission = {
            "format": "repro-service-submission", "version": 2,
            "id": "s000001", "seq": 1, "tenant": None,
            "manifest_digest": manifest_digest(MANIFEST),
            "total_jobs": len(jobs), "priority": 0,
            "submitted_at": 100.0, "job_ids": ids,
        }
        submitted = [
            {
                "format": "repro-service-job", "version": 2,
                "id": job_id, "submission": "s000001", "index": index,
                "tenant": None, "priority": 0, "seq": 1,
                "status": "queued", "cache_key": job_cache_key(job),
                "job": job_to_doc(job), "lease": None, "requeues": 0,
                "enqueued_at": 100.0, "first_leased_at": None,
                "completed_seq": None, "record": None,
            }
            for index, (job_id, job) in enumerate(zip(ids, jobs))
        ]

        def lease(job_id, worker, at):
            return {"op": "lease", "id": job_id, "worker": worker,
                    "expires_at": at + 300.0, "leased_at": at}

        lines = [
            {"op": "submit", "submission": submission, "jobs": submitted},
            lease(ids[0], "w1", 101.0),
            {"op": "renew", "id": ids[0], "expires_at": 500.0},
            {"op": "complete", "id": ids[0], "status": "done",
             "completed_seq": 1, "completed_at": 102.0,
             "record": records[0]},
            lease(ids[1], "w2", 103.0),
            {"op": "renew", "id": ids[1], "expires_at": 600.0},
            lease(ids[3], "w3", 104.0),
            {"op": "release", "id": ids[3]},
            lease(ids[2], "w4", 105.0),
            {"op": "requeue", "id": ids[2], "requeues": 1},
        ]
        (directory / "journal" / "s000001.ndjson").write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        queue = JobQueue(str(directory))
        got = {record["id"]: record for record in queue.records_for("s000001")}
        assert [got[job_id]["status"] for job_id in ids] == [
            "done", "running", "queued", "queued",
        ]
        assert got[ids[0]]["record"] == records[0]
        assert got[ids[0]]["completed_seq"] == 1
        assert got[ids[1]]["lease"] == {"worker": "w2"}
        assert [got[job_id]["requeues"] for job_id in ids] == [0, 0, 1, 0]
        assert [got[job_id]["first_leased_at"] for job_id in ids] == [
            101.0, 103.0, 105.0, 104.0,
        ]
        assert queue.counts() == {
            "queued": 2, "running": 1, "done": 1, "error": 0,
        }
        assert queue.completed_records("s000001") == [got[ids[0]]]
        # Nothing of the old format is written back: the reopened queue
        # equals the first.
        queue.close()
        reopened = JobQueue(str(directory))
        assert reopened.records_for("s000001") == list(got.values())
        assert reopened.counts() == queue.counts()
        assert reopened.recover() == [ids[1]]
        assert reopened.get(ids[1])["requeues"] == 1
        drain(reopened, records)
        reopened.close()
        again = JobQueue(str(directory))
        assert again.counts()["done"] == len(jobs)
        assert docs_equal_modulo_timing(
            service_doc(again, "s000001"), batch[1]
        )

    def test_torn_tail_is_cut_and_appends_continue(self, tmp_path, batch):
        records, _ = batch
        queue = JobQueue(str(tmp_path / "queue"))
        sub_id = queue.submit(MANIFEST)["id"]
        leased = queue.lease("w1")
        journal = tmp_path / "queue" / "journal" / f"{sub_id}.ndjson"
        whole = journal.read_bytes()
        with open(journal, "ab") as handle:
            handle.write(b'{"op":"complete","id":"s0000')
        queue.close()
        reopened = JobQueue(queue.directory)
        assert journal.read_bytes() == whole
        assert reopened.get(leased["id"])["status"] == "running"
        assert reopened.recover() == [leased["id"]]
        drain(reopened, records)
        again = JobQueue(queue.directory)
        assert again.counts()["done"] == len(MANIFEST["jobs"])

    def test_corrupt_middle_line_is_an_error(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        sub_id = queue.submit(MANIFEST)["id"]
        queue.lease("w1")
        queue.close()
        journal = tmp_path / "queue" / "journal" / f"{sub_id}.ndjson"
        head, lease_line = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(head + b"garbage\n" + lease_line)
        with pytest.raises(QueueError, match="line 2"):
            JobQueue(queue.directory)

    def test_torn_submit_line_drops_the_submission(self, tmp_path):
        directory = tmp_path / "queue"
        JobQueue(str(directory)).close()
        (directory / "journal" / "s000001.ndjson").write_bytes(
            b'{"op":"submit","submission":{"id":'
        )
        reopened = JobQueue(str(directory))
        assert reopened.submission_ids() == []
        assert not (directory / "journal" / "s000001.ndjson").exists()
        assert reopened.submit(MANIFEST)["id"] == "s000001"


def test_concurrent_workers_finish_every_job_once(tmp_path):
    queue = JobQueue(str(tmp_path / "queue"))
    sub_ids = [queue.submit(MANIFEST)["id"] for _ in range(8)]
    finished = []

    def worker(name):
        while queue.unfinished():
            leased = queue.lease(name)
            if leased is None:  # the rest wait behind running twins
                with queue.changed:
                    queue.changed.wait(timeout=0.01)
                continue
            queue.complete(leased["id"], {"status": "ok"})
            finished.append(leased["id"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(f"w{n}",))
            for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    job_ids = [
        job_id for sub_id in sub_ids
        for job_id in queue.submission(sub_id)["job_ids"]
    ]
    assert sorted(finished) == sorted(job_ids)
    assert queue.counts() == {
        "queued": 0, "running": 0, "done": len(job_ids), "error": 0,
    }
    for sub_id in sub_ids:
        streamed = [r["id"] for r in queue.completed_records(sub_id)]
        assert sorted(streamed) == queue.submission(sub_id)["job_ids"]
        assert queue.completed_count(sub_id) == len(streamed)
    queue.close()
    reopened = JobQueue(queue.directory)
    for sub_id in sub_ids:
        assert reopened.completed_records(sub_id) == (
            queue.completed_records(sub_id)
        )


class Killed(BaseException):
    """The injected crash (a BaseException, so nothing swallows it)."""


class FaultyQueue(JobQueue):
    """A queue whose ``kill_at``-th journal I/O call crashes it.

    The I/O calls are the appends and the fsyncs.  ``mode`` says where
    an append dies: ``"before"`` its bytes reach the file, ``"mid"``
    after half of them (a torn tail) or ``"after"`` all of them; an
    fsync dies before or after it syncs.  ``durable`` tracks every
    journal's fsynced length for the power-loss variant.
    """

    def __init__(self, directory, kill_at, mode, durable):
        self.kill_at = kill_at
        self.mode = mode
        self.durable = durable
        self.calls = 0
        self.kinds = []
        super().__init__(directory)

    def _io(self, kind):
        self.calls += 1
        self.kinds.append(kind)
        return self.calls == self.kill_at

    def _write(self, sub_id, data, sync, create=False):
        kill = self._io(data[7:data.index(b'"', 7)].decode())
        path = self._journal_path(sub_id)
        if kill and self.mode == "before":
            raise Killed
        if kill and self.mode == "mid":
            with open(path, "xb" if create else "ab") as handle:
                handle.write(data[: len(data) // 2])
            raise Killed
        super()._write(sub_id, data, sync, create)
        if create:
            self.durable[path] = os.path.getsize(path)
        if kill:
            raise Killed

    def _sync(self, handle):
        kill = self._io("fsync")
        if kill and self.mode != "after":
            raise Killed
        super()._sync(handle)
        self.durable[handle.name] = os.path.getsize(handle.name)
        if kill:
            raise Killed


def answer_with(records, indices):
    """A submit-time ``answer`` finishing the jobs at ``indices`` with
    their batch records (the daemon's plain cache hits)."""
    def answer(job_id, index, job, key):
        return records[index] if index in indices else None

    return answer


def run_schedule(queue, seed, records, acked, sent, answered=()):
    """A seeded mix of every queue operation; records what clients saw.

    ``acked`` collects submission ids whose submit returned; ``sent``
    maps job ids to the records a result stream has read.  Every
    submission finishes the jobs at ``answered`` at submit.
    """
    rng = random.Random(seed)
    requeued = set()
    for _ in range(3):
        acked.append(
            queue.submit(
                MANIFEST, priority=rng.randrange(2),
                answer=answer_with(records, answered),
            )["id"]
        )
    for step in range(24):
        leased = queue.lease(f"w{step}")
        if leased is None:
            break
        if rng.random() < 0.5 and leased["id"] not in requeued:
            # The worker fails; the job goes back (once per job, inside
            # the requeue bound).
            requeued.add(leased["id"])
            queue.requeue(leased["id"])
        else:
            queue.complete(leased["id"], records[leased["index"]])
        for sub_id in acked:
            for record in queue.completed_records(sub_id):
                sent[record["id"]] = record["record"]
    drain(queue, records)


def check_recovered(directory, records, doc, acked, sent):
    queue = JobQueue(directory)
    queue.recover()
    rerun = drain(queue, records)
    # A completion a stream has read is final: it never runs again.
    assert not set(rerun) & set(sent)
    assert set(acked) <= set(queue.submission_ids())
    for sub_id in queue.submission_ids():
        finished = queue.completed_records(sub_id)
        ids = [record["id"] for record in finished]
        assert sorted(ids) == queue.submission(sub_id)["job_ids"]
        seqs = [record["completed_seq"] for record in finished]
        assert seqs == sorted(set(seqs))
        assert all(record["status"] == "done" for record in finished)
        assert docs_equal_modulo_timing(service_doc(queue, sub_id), doc)
    for job_id, record in sent.items():
        assert queue.get(job_id)["record"] == record
    return queue


@pytest.mark.parametrize("power_loss", [False, True], ids=["crash", "power"])
@pytest.mark.parametrize("seed", [0, 1])
def test_kill_at_every_append(tmp_path, batch, seed, power_loss):
    kill_everywhere(tmp_path, batch, seed, power_loss)


@pytest.mark.parametrize("power_loss", [False, True], ids=["crash", "power"])
@pytest.mark.parametrize("seed", [0, 1])
def test_kill_at_every_append_with_answered_submits(
    tmp_path, batch, seed, power_loss
):
    """Submit lines carrying finished records survive the same faults;
    every acked submission's answered records replay first, once."""
    answered = (1, 3)
    for queue, acked in kill_everywhere(
        tmp_path, batch, seed, power_loss, answered
    ):
        for sub_id in acked:
            first = [
                record["index"]
                for record in queue.completed_records(sub_id)[:2]
            ]
            assert first == list(answered)


def kill_everywhere(tmp_path, batch, seed, power_loss, answered=()):
    """Kill a schedule at every journal I/O call, before, during and
    after it; recover and check each.  Returns each recovered queue
    with the submissions acked before its kill."""
    records, doc = batch
    clean = FaultyQueue(str(tmp_path / "clean"), 0, None, {})
    run_schedule(clean, seed, records, [], {}, answered)
    # Every kind of append occurs in the schedule, so each is killed
    # before, during and after.
    assert set(clean.kinds) == {
        "submit", "lease", "requeue", "complete", "fsync",
    }
    outcomes = []
    for kill_at in range(1, clean.calls + 1):
        for mode in ("before", "mid", "after"):
            directory = str(tmp_path / f"{kill_at}-{mode}")
            durable = {}
            acked, sent = [], {}
            queue = FaultyQueue(directory, kill_at, mode, durable)
            with pytest.raises(Killed):
                run_schedule(queue, seed, records, acked, sent, answered)
            # What a stream could still read at the instant of death.
            for sub_id in acked:
                for record in queue.completed_records(sub_id):
                    sent[record["id"]] = record["record"]
            queue.close()
            if power_loss:
                journal_dir = os.path.join(directory, "journal")
                for name in os.listdir(journal_dir):
                    path = os.path.join(journal_dir, name)
                    os.truncate(path, durable.get(path, 0))
            outcomes.append(
                (check_recovered(directory, records, doc, acked, sent),
                 acked)
            )
    return outcomes


class TestAnsweredSubmit:
    """A submit line may carry finished records (submit-time hits)."""

    @pytest.mark.parametrize("power_loss", [False, True],
                             ids=["crash", "power"])
    @pytest.mark.parametrize("mode", ["before", "mid"])
    def test_kill_before_the_submit_fsync_leaves_nothing(
        self, tmp_path, batch, mode, power_loss
    ):
        records, _ = batch
        directory = str(tmp_path / "queue")
        durable = {}
        queue = FaultyQueue(directory, 1, mode, durable)
        with pytest.raises(Killed):
            queue.submit(MANIFEST, answer=answer_with(records, {0, 1, 3}))
        # Nothing was acked, and a stream sees nothing.
        assert queue.submission_ids() == []
        assert queue.completed_records("s000001") == []
        queue.close()
        journal = os.path.join(directory, "journal")
        if power_loss:
            for name in os.listdir(journal):
                path = os.path.join(journal, name)
                os.truncate(path, durable.get(path, 0))
        reopened = JobQueue(directory)
        assert reopened.submission_ids() == []
        assert os.listdir(journal) == []
        assert reopened.counts() == dict.fromkeys(
            ("queued", "running", "done", "error"), 0
        )
        assert reopened.submit(MANIFEST)["id"] == "s000001"

    def test_hits_replay_once_in_order_and_misses_still_append(
        self, tmp_path, batch
    ):
        records, doc = batch
        queue = JobQueue(str(tmp_path / "queue"))
        before = queue.submit(MANIFEST)["id"]
        drain(queue, records)
        sub_id = queue.submit(
            MANIFEST, answer=answer_with(records, {1, 3})
        )["id"]
        hits = queue.completed_records(sub_id)
        assert [record["index"] for record in hits] == [1, 3]
        assert [r["first_leased_at"] for r in hits] == [
            r["enqueued_at"] for r in hits
        ]
        assert queue.counts(sub_id) == {
            "queued": 2, "running": 0, "done": 2, "error": 0,
        }
        # Only the misses are leased; their completions append.
        assert sorted(drain(queue, records)) == [
            f"{sub_id}-00000", f"{sub_id}-00002",
        ]
        live = queue.completed_records(sub_id)
        queue.close()
        reopened = JobQueue(queue.directory)
        replayed = reopened.completed_records(sub_id)
        assert replayed == live
        assert [record["index"] for record in replayed[:2]] == [1, 3]
        seqs = [record["completed_seq"] for record in replayed]
        assert seqs == sorted(set(seqs))
        assert min(seqs) > max(
            r["completed_seq"] for r in reopened.completed_records(before)
        )
        assert docs_equal_modulo_timing(service_doc(reopened, sub_id), doc)
        # The completion counter resumes past the replayed seqs.
        third = reopened.submit(
            MANIFEST, answer=answer_with(records, {0})
        )["id"]
        [hit] = reopened.completed_records(third)
        assert hit["completed_seq"] == max(seqs) + 1
