"""A cache hit builds no circuit.

Spies on ``BenchmarkSpec.build`` and ``Circuit.digest`` show that once a
(benchmark, seed) workload has been seen in a process, a warm
``repro batch`` and a warm daemon submission key and answer its jobs
without building or hashing the circuit.  ``auto`` jobs (the cost model
reads the circuit) and validating hits on unvalidated entries still
build it.
"""

import json

import pytest

from repro.benchsuite import PAPER_ORDER, SUITE
from repro.benchsuite.suite import BenchmarkSpec
from repro.circuits.circuit import Circuit
from repro.cli import main
from repro.engine import CompilationEngine, CompileJob
from repro.engine.cache import MemoryCache
from repro.engine.jobs import benchmark_digest
from repro.service import ServiceClient, ServiceServer

MANIFEST = {
    "jobs": [
        {"benchmark": "BV-14", "backend": "powermove", "seed": 3},
        {"benchmark": "BV-14", "backend": "powermove-nonstorage",
         "seed": 3},
        {"benchmark": "QSIM-rand-0.3-10", "backend": "powermove",
         "seed": 3},
    ]
}


@pytest.fixture
def spies(monkeypatch):
    calls = {"build": 0, "digest": 0}
    build, digest = BenchmarkSpec.build, Circuit.digest

    def spy_build(self, *args, **kwargs):
        calls["build"] += 1
        return build(self, *args, **kwargs)

    def spy_digest(self):
        calls["digest"] += 1
        return digest(self)

    monkeypatch.setattr(BenchmarkSpec, "build", spy_build)
    monkeypatch.setattr(Circuit, "digest", spy_digest)
    return calls


def test_warm_batch_builds_no_circuit(tmp_path, spies):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(MANIFEST))
    argv = ["batch", str(manifest), "--cache-dir", str(tmp_path / "cache"),
            "--output", str(tmp_path / "out.json")]
    benchmark_digest.cache_clear()
    assert main(argv) == 0
    assert spies["build"] > 0  # the cold run compiles
    spies.update(build=0, digest=0)
    assert main(argv) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["cache_misses"] == 0
    assert spies == {"build": 0, "digest": 0}


def test_first_sighting_builds_each_workload_once(spies):
    cache = MemoryCache()
    jobs = [
        CompileJob(backend=backend, benchmark="BV-14", seed=5)
        for backend in ("powermove", "powermove-nonstorage", "enola")
    ]
    CompilationEngine(cache=cache).run(jobs[:2])
    benchmark_digest.cache_clear()
    spies.update(build=0, digest=0)
    # Both hits share one (benchmark, seed) memo entry.
    results = CompilationEngine(cache=cache).run(jobs[:2])
    assert all(result.cache_hit for result in results)
    assert spies == {"build": 1, "digest": 1}


def test_warm_daemon_submission_builds_no_circuit(tmp_path, spies):
    server = ServiceServer(
        str(tmp_path / "queue"), "127.0.0.1:0", workers=1
    ).start()
    try:
        client = ServiceClient(server.address)
        client.wait_ready()
        cold = client.submit(MANIFEST)
        client.results_document(cold["submission"])
        spies.update(build=0, digest=0)
        warm = client.submit(MANIFEST)
        doc = client.results_document(warm["submission"])
        assert doc["cache_misses"] == 0
        assert spies == {"build": 0, "digest": 0}
    finally:
        server.stop(drain=False)


def test_auto_jobs_still_build(spies):
    cache = MemoryCache()
    job = CompileJob(backend="auto", benchmark="BV-14", seed=3)
    CompilationEngine(cache=cache).run([job])
    spies.update(build=0, digest=0)
    [result] = CompilationEngine(cache=cache).run([job])
    assert result.cache_hit
    assert spies["build"] >= 1


def test_validating_hit_on_unvalidated_entry_builds(spies):
    cache = MemoryCache()
    unchecked = CompileJob(
        backend="powermove", benchmark="BV-14", seed=4, validate=False
    )
    CompilationEngine(cache=cache).run([unchecked])
    spies.update(build=0, digest=0)
    checked = CompileJob(backend="powermove", benchmark="BV-14", seed=4)
    [result] = CompilationEngine(cache=cache).run([checked])
    assert result.cache_hit
    assert spies["build"] == 1
    # The check was written back: the next validating hit builds nothing.
    spies.update(build=0, digest=0)
    CompilationEngine(cache=cache).run([checked])
    assert spies == {"build": 0, "digest": 0}


@pytest.mark.parametrize("key", PAPER_ORDER)
def test_memoised_digest_equals_a_fresh_build(key):
    for seed in range(3):
        assert benchmark_digest(key, seed) == SUITE[key].build(seed).digest()
