"""The daemon answers plain cache hits at submit.

A job whose artifact the local cache tiers already hold finishes inside
the submission's fsynced submit line; only the rest reach a worker.
The property test runs one schedule of mixed manifests (hits, misses,
duplicate twins, validating jobs on unvalidated entries, ``auto`` jobs,
tenants) against a daemon twice -- once as shipped and once with the
submit-time answer disabled, i.e. the worker path -- and checks that
both produce the batch documents, the same per-record ``cache_hit``
and the same ``/metrics`` counters.
"""

import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    CompilationEngine,
    docs_equal_modulo_timing,
    manifest_digest,
    parse_manifest,
    results_doc,
)
from repro.engine.cache import DiskCache, MemoryCache, job_cache_key
from repro.engine.cachestore import RemoteCache, RemoteCacheServer, TieredCache
from repro.engine.jobs import CompileJob
from repro.service import ServiceClient, ServiceServer
from repro.service import aio as aio_module
from repro.service import queue as queue_module

#: Cheap entries: two seeds, an unvalidated twin of the first, another
#: backend, and an ``auto`` job the cost model resolves to a twin.
POOL = [
    {"benchmark": "BV-14", "backend": "powermove"},
    {"benchmark": "BV-14", "backend": "powermove", "seed": 1},
    {"benchmark": "BV-14", "backend": "powermove", "validate": False},
    {"benchmark": "BV-14", "backend": "powermove-nonstorage"},
    {"benchmark": "BV-14", "backend": "auto"},
]

#: Metric families the two execution paths must agree on.
COUNTERS = (
    "repro_jobs_completed_total",
    "repro_tenant_jobs_completed_total",
    "repro_cache_requests_total",
    "repro_cache_writes_total",
    "repro_queue_wait_seconds",
)

_BATCH_CACHE = MemoryCache()


def batch_doc(manifest):
    jobs = parse_manifest(manifest)
    results = CompilationEngine(cache=_BATCH_CACHE, on_error="collect").run(
        jobs
    )
    return results_doc(
        results,
        manifest_digest=manifest_digest(manifest),
        total_jobs=len(jobs),
        wall_time_s=0.0,
        on_error="collect",
    )


def write_tenants(directory):
    path = os.path.join(directory, "tenants.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "format": "repro-tenants",
                "version": 1,
                "tenants": {
                    name: {"token": f"{name}-secret"}
                    for name in ("alice", "bob")
                },
            },
            handle,
        )
    return path


def counters(server):
    """The compared metric samples, keyed by (family, labels)."""
    out = {}
    for family in server._metrics_doc()["families"]:
        if family["name"] not in COUNTERS:
            continue
        for sample in family["samples"]:
            labels = tuple(sorted(sample["labels"].items()))
            if family["name"] == "repro_queue_wait_seconds":
                # The observation count; the waits themselves are timing.
                out[(family["name"], labels)] = sample.get("count")
            else:
                out[(family["name"], labels)] = sample["value"]
    return out


def run_schedule(directory, schedule, tenanted):
    """Submit each manifest and follow it to the end; returns the docs,
    which records were answered at submit, and the counters."""
    tenants = write_tenants(directory) if tenanted else None
    server = ServiceServer(
        os.path.join(directory, "queue"), "127.0.0.1:0",
        workers=2, tenants=tenants,
    ).start()
    try:
        docs, answered = [], []
        for tenant, entries in schedule:
            client = ServiceClient(
                server.address,
                token=f"{tenant}-secret" if tenanted else None,
            )
            receipt = client.submit({"jobs": entries})
            doc = client.results_document(receipt.submission)
            docs.append(doc)
            answered.append([
                record["trace"]["spans"][0]["attrs"]["worker"] == "submit"
                for record in doc["results"]
            ])
        return docs, answered, counters(server)
    finally:
        server.stop(drain=False)


def worker_path():
    """Disable the submit-time answer: every job goes to a worker."""
    return mock.patch.object(
        CompilationEngine, "cached_result",
        lambda self, job, key, index=0: None,
    )


schedules = st.lists(
    st.tuples(
        st.sampled_from(["alice", "bob"]),
        st.lists(st.sampled_from(POOL), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=3,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=schedules, tenanted=st.booleans())
def test_submit_hits_match_the_worker_path_and_batch(schedule, tenanted):
    with tempfile.TemporaryDirectory() as directory:
        os.makedirs(os.path.join(directory, "front"))
        os.makedirs(os.path.join(directory, "workers"))
        front_docs, answered, front_counters = run_schedule(
            os.path.join(directory, "front"), schedule, tenanted
        )
        with worker_path():
            worker_docs, unanswered, worker_counters = run_schedule(
                os.path.join(directory, "workers"), schedule, tenanted
            )
    assert answered == plain_hits(schedule)
    assert not any(any(flags) for flags in unanswered)
    for (_, entries), front, workers in zip(
        schedule, front_docs, worker_docs
    ):
        reference = batch_doc({"jobs": entries})
        assert docs_equal_modulo_timing(front, reference)
        assert docs_equal_modulo_timing(workers, reference)
        hits = [record["cache_hit"] for record in front["results"]]
        assert hits == [record["cache_hit"] for record in workers["results"]]
    assert front_counters == worker_counters


def plain_hits(schedule):
    """Per submission, which jobs the cache answers at submit: not
    ``auto``, and an entry is stored that the job may take as-is.  An
    entry is validated once any job with its key validated (a compile
    or a hit-path revalidation)."""
    validated = {}
    flags = []
    for _, entries in schedule:
        jobs = parse_manifest({"jobs": entries})
        keys = [job_cache_key(job) for job in jobs]
        flags.append([
            job.backend != "auto"
            and key in validated
            and (validated[key] or not job.validate)
            for job, key in zip(jobs, keys)
        ])
        for job, key in zip(jobs, keys):
            validated[key] = validated.get(key, False) or job.validate
    return flags


def test_all_hit_resubmission_is_one_journal_line(tmp_path):
    manifest = {"jobs": POOL[:2] + [POOL[3]]}
    server = ServiceServer(
        str(tmp_path / "queue"), "127.0.0.1:0", workers=1
    ).start()
    try:
        client = ServiceClient(server.address)
        client.wait_ready()
        cold = client.submit(manifest)
        client.results_document(cold.submission)
        warm = client.submit(manifest)
        doc = client.results_document(warm.submission)
        assert [r["cache_hit"] for r in doc["results"]] == [True] * 3
        journal = tmp_path / "queue" / "journal" / f"{warm.submission}.ndjson"
        [line] = journal.read_bytes().splitlines()
        head = json.loads(line)
        assert [r["status"] for r in head["jobs"]] == ["done"] * 3
        assert [r["completed_seq"] for r in head["jobs"]] == sorted(
            r["completed_seq"] for r in head["jobs"]
        )
        status = client.status(warm.submission)
        assert [job["queue_wait_s"] for job in status["jobs"]] == [0.0] * 3
    finally:
        server.stop(drain=False)


def test_manifest_is_parsed_once_per_submit(tmp_path, monkeypatch):
    calls = []
    real = aio_module.parse_manifest

    def spy(doc):
        calls.append(doc)
        return real(doc)

    monkeypatch.setattr(aio_module, "parse_manifest", spy)
    monkeypatch.setattr(queue_module, "parse_manifest", spy)
    server = ServiceServer(
        str(tmp_path / "queue"), "127.0.0.1:0", workers=1
    ).start()
    try:
        client = ServiceClient(server.address)
        client.wait_ready()
        receipt = client.submit({"jobs": [POOL[0]]})
        client.results_document(receipt.submission)
        assert len(calls) == 1
    finally:
        server.stop(drain=False)


class TestProbe:
    """``ProgramCache.probe`` counts a lookup only when it serves."""

    JOB = CompileJob(backend="powermove", benchmark="BV-14")

    @staticmethod
    def artifact(validated=True):
        [result] = CompilationEngine().run([TestProbe.JOB])
        return {
            "program": json.dumps({}),
            "summary": result.summary,
            "compile_time": result.compile_time,
            "validated": validated,
        }

    def test_declined_and_missing_probes_count_nothing(self):
        cache = MemoryCache()
        key = job_cache_key(self.JOB)
        engine = CompilationEngine(cache=cache)
        assert engine.cached_result(self.JOB, key) is None
        cache.put(key, self.artifact(validated=False))
        assert engine.cached_result(self.JOB, key) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)

    def test_a_serving_probe_counts_as_get_would(self, tmp_path):
        key = job_cache_key(self.JOB)
        directory = str(tmp_path / "disk")
        DiskCache(directory).put(key, self.artifact())
        probed = TieredCache([MemoryCache(), DiskCache(directory)])
        result = CompilationEngine(cache=probed).cached_result(
            self.JOB, key, index=4
        )
        assert result.cache_hit and result.index == 4
        assert result.stats["cache_tier"] == "disk"
        [lookup] = result.stats["spans"]
        assert lookup["attrs"] == {"hit": True, "tier": "disk"}
        assert [name for name, *_ in lookup["children"]] == [
            "cache.memory", "cache.disk",
        ]
        fetched = TieredCache([MemoryCache(), DiskCache(directory)])
        fetched.get(key)
        assert probed.stats_doc()["stats"] == fetched.stats_doc()["stats"]
        assert [t["stats"] for t in probed.stats_doc()["tiers"]] == [
            t["stats"] for t in fetched.stats_doc()["tiers"]
        ]

    @pytest.mark.parametrize(
        "damage",
        [b"\xff garbage", b'{"summary": {"tot', b"[1, 2]\n{}"],
        ids=["not-utf8", "torn-header", "list-header"],
    )
    def test_a_foreign_disk_entry_is_left_to_a_worker(
        self, tmp_path, damage
    ):
        """A foreign entry under the key is a miss at submit: the probe
        counts nothing, and the daemon's worker recompiles the job."""
        manifest = {"jobs": [POOL[0]]}
        [job] = parse_manifest(manifest)
        key = job_cache_key(job)
        directory = tmp_path / "disk"
        DiskCache(str(directory)).put(key, self.artifact())
        (directory / f"{key}.json").write_bytes(damage)
        probed = TieredCache([MemoryCache(), DiskCache(str(directory))])
        assert CompilationEngine(cache=probed).cached_result(job, key) is None
        assert [t["stats"] for t in probed.stats_doc()["tiers"]] == [
            MemoryCache().stats_doc()["stats"]
        ] * 2
        server = ServiceServer(
            str(tmp_path / "queue"), "127.0.0.1:0", workers=1,
            cache=f"tiered:memory,disk:{directory}",
        ).start()
        try:
            client = ServiceClient(server.address)
            receipt = client.submit(manifest)
            doc = client.results_document(receipt.submission)
        finally:
            server.stop(drain=False)
        assert [r["cache_hit"] for r in doc["results"]] == [False]
        assert docs_equal_modulo_timing(doc, batch_doc(manifest))
        assert DiskCache(str(directory)).get(key)["summary"] == (
            self.artifact()["summary"]
        )

    def test_a_remote_only_hit_is_left_to_a_worker(self, tmp_path):
        key = job_cache_key(self.JOB)
        store = MemoryCache()
        store.put(key, self.artifact())
        server = RemoteCacheServer(store).start()
        try:
            remote = RemoteCache(server.url)
            tiered = TieredCache([MemoryCache(), remote])
            for cache in (remote, tiered):
                assert CompilationEngine(cache=cache).cached_result(
                    self.JOB, key
                ) is None
            assert store.stats.hits == 0  # no request reached the server
            assert tiered.stats_doc()["tiers"][0]["stats"]["misses"] == 0
            assert tiered.get(key) is not None  # the worker's lookup
        finally:
            server.stop()
