"""Queue-scale rungs: job-queue op cost at 2k, 10k and 20k jobs.

One queue grows through the rungs.  ``test_queue_submit[N]`` submits
100-job manifests (each a submit line with one ``fsync``) until N jobs
have been submitted in all; ``test_queue_lease_complete[N]`` then
leases and completes a fixed sample of jobs with the rest of the queue
in place.  The queue keeps per-status, per-submission and per-tenant
indices and one runnable heap per tenant, so the per-job cost should
stay flat as the queue grows: the 20k rung within 2x of the 2k one.
"""

from __future__ import annotations

import pytest

from repro.service import JobQueue

#: Jobs per submitted manifest.
MANIFEST_JOBS = 100

#: Jobs leased and completed per lease rung.
SAMPLE = 500


def manifest(batch: int) -> dict:
    # 50 distinct (benchmark, seed) workloads, each twice per manifest,
    # so heads regularly wait behind a running twin.
    return {
        "jobs": [
            {
                "benchmark": "BV-14",
                "backend": "powermove",
                "seed": (batch * MANIFEST_JOBS + index) % 50,
            }
            for index in range(MANIFEST_JOBS)
        ]
    }


@pytest.fixture(scope="module")
def growing(tmp_path_factory):
    state = {
        "queue": JobQueue(str(tmp_path_factory.mktemp("queue"))),
        "submitted": 0,
    }
    yield state
    state["queue"].close()


@pytest.fixture(scope="module", params=[2000, 10000, 20000], ids=str)
def size(request):
    """The rung; module scope makes each rung's two tests run together."""
    return request.param


def grow(state: dict, size: int) -> None:
    batches = range(state["submitted"] // MANIFEST_JOBS, size // MANIFEST_JOBS)
    for batch in batches:
        state["queue"].submit(manifest(batch))
    state["submitted"] = size


def test_queue_submit(benchmark, growing, size):
    added = size - growing["submitted"]
    benchmark.pedantic(grow, args=(growing, size), rounds=1, iterations=1)
    assert sum(growing["queue"].counts().values()) == size
    benchmark.extra_info["jobs"] = size
    benchmark.extra_info["per_job_ms"] = (
        benchmark.stats.stats.mean / added * 1e3
    )


def test_queue_lease_complete(benchmark, growing, size):
    if growing["submitted"] < size:  # the submit rung was deselected
        grow(growing, size)
    queue = growing["queue"]
    done = queue.counts()["done"]
    record = {"status": "ok"}

    def lease_complete() -> None:
        for _ in range(SAMPLE):
            leased = queue.lease("bench")
            queue.complete(leased["id"], record)

    benchmark.pedantic(lease_complete, rounds=1, iterations=1)
    assert queue.counts()["done"] == done + SAMPLE
    benchmark.extra_info["jobs"] = size
    benchmark.extra_info["per_job_ms"] = (
        benchmark.stats.stats.mean / SAMPLE * 1e3
    )
