"""Differential test: the indexed ``JobQueue.lease`` against a full scan.

``ReferenceLease.lease`` is the queue's scan-every-record lease from
before the runnable heaps, kept verbatim as the oracle.  Random
schedules of submit, lease, complete, release, ``requeue_expired`` and
restart + ``recover`` mix priorities, tenants, ``running_caps`` and
duplicate cache keys; before every lease the oracle sees a copy of the
queue's records and the grants so far, and both must pick the same job.
"""

import copy
import tempfile
import threading
import time
from typing import Any

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import JobQueue


class ReferenceLease:
    """The pre-index lease, verbatim, over a snapshot of the records."""

    def __init__(self, records, grants):
        self._records = records
        self._lease_grants = grants
        self.changed = threading.Condition()

    def _persist_record(self, record):
        pass

    def _notify_all(self):
        pass

    def lease(
        self,
        worker: str,
        lease_seconds: float = 300.0,
        running_caps: dict[str, int] | None = None,
    ) -> dict[str, Any] | None:
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


#: Job entries: two benchmarks' seeds under two backends, so manifests
#: repeat cache keys within and across submissions.
JOBS = st.fixed_dictionaries(
    {
        "benchmark": st.sampled_from(["BV-14", "QSIM-rand-0.3-10"]),
        "seed": st.integers(0, 1),
        "backend": st.sampled_from(["powermove", "powermove-nonstorage"]),
    }
)

CAPS = st.sampled_from(
    [None, {"a": 1}, {"a": 0, "b": 2}, {"b": 1}, {"a": 2, "b": 1}]
)

SUBMIT = st.tuples(
    st.just("submit"),
    st.lists(JOBS, min_size=1, max_size=3),
    st.integers(0, 2),
    st.sampled_from([None, "a", "b"]),
)
LEASE = st.tuples(st.just("lease"), CAPS, st.sampled_from([0.0, 3600.0]))

#: Submits and leases weighted up: the interesting states are deep
#: queues with several tenants leasing.
OPS = st.one_of(
    SUBMIT,
    SUBMIT,
    LEASE,
    LEASE,
    LEASE,
    st.tuples(st.just("complete"), st.integers(0, 50), st.booleans()),
    st.tuples(st.just("release"), st.integers(0, 50)),
    st.tuples(st.just("requeue_expired")),
    st.tuples(st.just("restart")),
)


def all_records(queue):
    return {
        record["id"]: record
        for sub_id in queue.submission_ids()
        for record in queue.records_for(sub_id)
    }


def pick(records, index, states):
    ids = sorted(i for i, r in records.items() if r["status"] in states)
    return ids[index % len(ids)] if ids else None


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(OPS, min_size=4, max_size=40))
def test_lease_picks_what_a_full_scan_picks(schedule):
    with tempfile.TemporaryDirectory() as directory:
        queue = JobQueue(directory, max_requeues=2)
        grants: dict[str | None, int] = {}
        try:
            for op in schedule:
                kind = op[0]
                if kind == "submit":
                    queue.submit(
                        {"jobs": op[1]}, priority=op[2], tenant=op[3]
                    )
                elif kind == "lease":
                    _, caps, seconds = op
                    oracle = ReferenceLease(
                        copy.deepcopy(all_records(queue)), dict(grants)
                    ).lease("w", seconds, caps)
                    leased = queue.lease("w", seconds, running_caps=caps)
                    assert (leased and leased["id"]) == (
                        oracle and oracle["id"]
                    )
                    if leased is not None:
                        tenant = leased["tenant"]
                        grants[tenant] = grants.get(tenant, 0) + 1
                elif kind == "complete":
                    # Running jobs, and now and then a queued one (a
                    # requeued twin's late completion).
                    states = ("running", "queued") if op[2] else (
                        "running",
                    )
                    job_id = pick(all_records(queue), op[1], states)
                    if job_id is not None:
                        queue.complete(job_id, {"status": "ok"})
                elif kind == "release":
                    job_id = pick(all_records(queue), op[1], ("running",))
                    if job_id is not None:
                        queue.release(job_id)
                elif kind == "requeue_expired":
                    queue.requeue_expired()
                else:
                    queue.close()
                    queue = JobQueue(directory, max_requeues=2)
                    queue.recover()
                    grants = {}
        finally:
            queue.close()
