"""Summary-first results: records read the artifact's stored summary.

An artifact carries its program as JSON text plus a five-number
``summary`` (Eq. (1) ``total``, T_exe and the stage / CollMove /
transfer counts), computed by the worker from the program it has just
compiled.  A :class:`JobResult` builds ``program`` and ``fidelity``
only when they are read.  These tests pin the summary to the code it
replaces -- ``FidelityModel(params).evaluate(program_from_dict(...))``
-- bit for bit, prove that the record path of ``repro batch`` and of the
daemon never builds a program, and cover the hit path's handling of
tampered and malformed entries.
"""

import json
import os
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.engine as engine_module
from repro.circuits.generators import bernstein_vazirani, qaoa_regular
from repro.cli import main
from repro.engine import (
    CompilationEngine,
    CompileJob,
    DiskCache,
    MemoryCache,
    TieredCache,
    docs_equal_modulo_timing,
)
from repro.engine.jobs import SUMMARY_FIELDS, execute_job_on_circuit
from repro.engine.shard import job_record
from repro.fidelity.model import FidelityModel
from repro.hardware.params import DEFAULT_PARAMS
from repro.schedule.serialize import (
    program_digest,
    program_from_dict,
    program_to_dict,
)
from repro.schedule.tracker import PositionTracker
from repro.schedule.validator import ValidationError
from repro.service import ServiceClient, ServiceServer

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
sys.path.insert(0, GOLDEN_DIR)

from gen_backend_digests import FAST_OVERRIDES, WORKLOADS  # noqa: E402

with open(os.path.join(GOLDEN_DIR, "backend_digests_v1.json")) as _handle:
    _GOLDEN = json.load(_handle)["digests"]

#: Every scalar of a FidelityReport (the timeline is compared through
#: them and through ``execution_time``).
REPORT_SCALARS = (
    "one_qubit",
    "two_qubit",
    "excitation",
    "transfer",
    "decoherence",
    "total",
    "total_with_1q",
    "execution_time",
)

#: Cheap two-job manifest for the CLI and daemon round trips.
MANIFEST = {
    "defaults": {
        "enola": {"mis_restarts": 1, "sa_iterations_per_qubit": 0}
    },
    "jobs": [
        {"benchmark": "BV-14"},
        {"benchmark": "QSIM-rand-0.3-10", "scenario": "pm_non_storage"},
    ],
}


def bv_job(**overrides):
    fields = dict(scenario="pm_with_storage", benchmark="BV-14")
    fields.update(overrides)
    return CompileJob(**fields)


def assert_summary_matches(artifact, params):
    """The stored summary equals the replay of the decoded program."""
    program = program_from_dict(json.loads(artifact["program"]))
    report = FidelityModel(params).evaluate(program)
    summary = artifact["summary"]
    assert set(summary) == set(SUMMARY_FIELDS)
    assert summary["total"] == report.total
    assert summary["execution_time"] == report.execution_time
    assert summary["num_stages"] == program.num_stages
    assert summary["num_coll_moves"] == program.num_coll_moves
    assert summary["num_transfers"] == program.num_transfers
    return program


def golden_job(backend, workload, seed):
    """The CompileJob that compiles one golden-digest cell."""
    circuit = WORKLOADS[workload]()
    override = FAST_OVERRIDES.get(backend)
    if override is not None and seed != override.seed:
        override = replace(override, seed=seed)
    fields = {}
    if override is not None:
        name = (
            "atomique_config"
            if backend == "atomique"
            else "enola_config"
        )
        fields[name] = override
    job = CompileJob(backend=backend, circuit=circuit, seed=seed, **fields)
    return job, circuit


class SpyCalls:
    """Counts program builds and program replays in this process.

    A replay is one walk over a program: validation with its Eq. (1)
    timeline, or ``FidelityModel.evaluate``.  Each walk builds one
    ``PositionTracker``.
    """

    def __init__(self, monkeypatch):
        self.builds = 0
        self.replays = 0
        real_build = engine_module.program_from_dict
        real_tracker = PositionTracker.from_layout.__func__

        def build(doc):
            self.builds += 1
            return real_build(doc)

        def from_layout(cls, layout):
            self.replays += 1
            return real_tracker(cls, layout)

        monkeypatch.setattr(engine_module, "program_from_dict", build)
        monkeypatch.setattr(
            PositionTracker, "from_layout", classmethod(from_layout)
        )

    def reset(self):
        self.builds = self.replays = 0


# ----------------------------------------------------------------------
# The summary equals the replay it replaces
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "backend,workload,seed,digest",
    [(c["backend"], c["workload"], c["seed"], c["digest"]) for c in _GOLDEN],
    ids=[f"{c['backend']}-{c['workload']}-s{c['seed']}" for c in _GOLDEN],
)
def test_golden_cell_summary_is_the_replay(backend, workload, seed, digest):
    job, circuit = golden_job(backend, workload, seed)
    artifact = execute_job_on_circuit(job, circuit)
    program = assert_summary_matches(artifact, DEFAULT_PARAMS)
    assert program_digest(program) == digest


@pytest.mark.parametrize(
    "backend,workload,seed",
    [(c["backend"], c["workload"], c["seed"]) for c in _GOLDEN],
    ids=[f"{c['backend']}-{c['workload']}-s{c['seed']}" for c in _GOLDEN],
)
def test_golden_cell_hits_equal_the_worker_artifact(
    backend, workload, seed, tmp_path
):
    """A disk hit (decoded from the two-line layout) and a memory hit
    serve exactly the artifact the worker returned."""
    job, _ = golden_job(backend, workload, seed)
    memory, directory = MemoryCache(), str(tmp_path / "cache")
    [cold] = CompilationEngine(
        cache=TieredCache([memory, DiskCache(directory)])
    ).run([job])
    artifact = memory.get(cold.key)
    assert artifact["program"] == cold.program_text
    disk = DiskCache(directory)
    assert disk.get(cold.key) == artifact
    for tier in (disk, memory):
        [hit] = CompilationEngine(cache=tier).run([job])
        assert hit.cache_hit and hit.stats["cache_tier"] == tier.kind
        assert hit.program_text == artifact["program"]
        assert hit.summary == artifact["summary"]
        assert hit.compile_time == artifact["compile_time"]
        assert tier.get(cold.key)["validated"] is artifact["validated"]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    backend=st.sampled_from(
        ["powermove", "powermove-nonstorage", "enola", "atomique"]
    ),
    family=st.sampled_from(["qaoa", "bv"]),
    num_qubits=st.integers(min_value=4, max_value=10),
    seed=st.integers(min_value=0, max_value=50),
    fidelity_cz=st.floats(min_value=0.95, max_value=0.9999),
    fidelity_transfer=st.floats(min_value=0.99, max_value=0.99999),
    duration_transfer=st.floats(min_value=5e-6, max_value=40e-6),
    acceleration=st.floats(min_value=1000.0, max_value=5000.0),
    t2=st.floats(min_value=0.1, max_value=3.0),
)
def test_sampled_summary_is_the_replay(
    backend, family, num_qubits, seed, fidelity_cz, fidelity_transfer,
    duration_transfer, acceleration, t2,
):
    if family == "qaoa":
        circuit = qaoa_regular(num_qubits - num_qubits % 2, 3, seed=seed)
    else:
        circuit = bernstein_vazirani(num_qubits, seed=seed)
    params = replace(
        DEFAULT_PARAMS,
        fidelity_cz=fidelity_cz,
        fidelity_transfer=fidelity_transfer,
        duration_transfer=duration_transfer,
        acceleration=acceleration,
        t2=t2,
    )
    fields = {}
    if backend == "enola":
        fields["enola_config"] = FAST_OVERRIDES["enola"]
    elif backend == "atomique":
        fields["atomique_config"] = FAST_OVERRIDES["atomique"]
    job = CompileJob(
        backend=backend, circuit=circuit, seed=seed, params=params,
        **fields,
    )
    assert_summary_matches(execute_job_on_circuit(job, circuit), params)


# ----------------------------------------------------------------------
# Lazy program / fidelity: warm == cold, pool == serial
# ----------------------------------------------------------------------


class TestLazyResult:
    def test_warm_program_and_fidelity_equal_cold(self, tmp_path):
        jobs = [
            bv_job(),
            bv_job(scenario="pm_non_storage", benchmark="QSIM-rand-0.3-10"),
        ]
        cold = CompilationEngine(cache=DiskCache(str(tmp_path))).run(jobs)
        warm = CompilationEngine(cache=DiskCache(str(tmp_path))).run(jobs)
        for before, after in zip(cold, warm):
            assert not before.cache_hit and after.cache_hit
            assert after.summary == before.summary
            assert job_record(after, 0) == {
                **job_record(before, 0),
                "cache_hit": True,
                "compile_time_s": after.compile_time,
            }
            assert program_to_dict(after.program) == program_to_dict(
                before.program
            )
            for name in REPORT_SCALARS:
                assert getattr(after.fidelity, name) == getattr(
                    before.fidelity, name
                )

    def test_program_text_is_dropped_once_built(self):
        [result] = CompilationEngine(cache=MemoryCache()).run([bv_job()])
        assert isinstance(result.program_text, str)
        program = result.program
        assert result.program_text is None
        assert result.program is program
        assert result.fidelity is result.fidelity

    def test_failed_result_has_no_program(self):
        failed = engine_module.JobResult(
            job=bv_job(), index=0, key="k", compile_time=0.0,
            cache_hit=False,
            error=engine_module.JobFailure(0, "l", "k", "m", "E"),
        )
        assert failed.program is None and failed.fidelity is None
        assert failed.summary is None

    def test_pool_artifacts_equal_serial(self):
        jobs = [bv_job(seed=seed) for seed in range(3)]
        serial, pooled = MemoryCache(), MemoryCache()
        results = CompilationEngine(cache=serial, workers=1).run(jobs)
        CompilationEngine(cache=pooled, workers=2).run(jobs)
        assert len(serial) == len(pooled) == len(jobs)
        # compile_time and pass_timings are wall-clock measurements.
        for result in results:
            for field in ("program", "summary", "validated"):
                assert (
                    serial.get(result.key)[field]
                    == pooled.get(result.key)[field]
                )


# ----------------------------------------------------------------------
# The record path never materialises a program
# ----------------------------------------------------------------------


class TestRecordPathNeverMaterialises:
    def test_warm_batch_cli(self, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(MANIFEST))
        cache_dir = str(tmp_path / "cache")
        spy = SpyCalls(monkeypatch)
        outputs, calls = [], []
        for run in ("cold", "warm"):
            out = str(tmp_path / f"{run}.json")
            spy.reset()
            assert main([
                "batch", str(manifest), "--cache-dir", cache_dir,
                "--output", out,
            ]) == 0
            calls.append((spy.builds, spy.replays))
            with open(out, encoding="utf-8") as handle:
                outputs.append(json.load(handle))
        cold, warm = outputs
        # The cold run replayed each program once, in the compile step;
        # the warm run read only stored summaries.
        assert calls == [(0, len(cold["results"])), (0, 0)]
        assert warm["cache_misses"] == 0
        assert all(r["cache_hit"] for r in warm["results"])
        assert docs_equal_modulo_timing(cold, warm)

    def test_warm_daemon_job(self, tmp_path, monkeypatch):
        spy = SpyCalls(monkeypatch)
        server = ServiceServer(
            str(tmp_path / "queue"), "127.0.0.1:0", workers=1
        ).start()
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            first = client.submit(MANIFEST)
            cold = client.results_document(first["submission"])
            assert (spy.builds, spy.replays) == (0, len(cold["results"]))
            spy.reset()
            second = client.submit(MANIFEST)
            warm = client.results_document(second["submission"])
        finally:
            server.stop(drain=False)
        assert (spy.builds, spy.replays) == (0, 0)
        assert all(r["cache_hit"] for r in warm["results"])
        assert docs_equal_modulo_timing(cold, warm)


# ----------------------------------------------------------------------
# Hit-path revalidation and malformed entries
# ----------------------------------------------------------------------


def _tampered_unvalidated_cache():
    cache = MemoryCache()
    [cold] = CompilationEngine(cache=cache).run([bv_job(validate=False)])
    doc = cache.get(cold.key)
    summary = {**doc["summary"], "total": doc["summary"]["total"] / 2}
    cache.put(cold.key, {**doc, "summary": summary})
    return cache, cold.key


class TestRevalidation:
    def test_tampered_summary_raises(self):
        cache, key = _tampered_unvalidated_cache()
        with pytest.raises(ValidationError, match="summary"):
            CompilationEngine(cache=cache).run([bv_job()])
        assert cache.get(key)["validated"] is False
        assert cache.stats.revalidations == 0

    def test_tampered_summary_collected(self):
        cache, key = _tampered_unvalidated_cache()
        engine = CompilationEngine(cache=cache, on_error="collect")
        [failed] = engine.run([bv_job()])
        assert not failed.ok
        assert failed.error.error_type == "ValidationError"
        record = job_record(failed, 0)
        assert record["status"] == "error"
        assert record["error"]["type"] == "ValidationError"
        assert cache.get(key)["validated"] is False

    def test_untampered_entry_revalidates_and_writes_back(self):
        cache = MemoryCache()
        engine = CompilationEngine(cache=cache)
        [cold] = engine.run([bv_job(validate=False)])
        [hit] = engine.run([bv_job()])
        assert hit.cache_hit and hit.summary == cold.summary
        assert cache.get(hit.key)["validated"] is True
        assert cache.stats.revalidations == 1


@pytest.fixture(params=["memory", "disk"])
def tier(request, tmp_path):
    if request.param == "memory":
        return MemoryCache()
    return DiskCache(str(tmp_path / "cache"))


class TestMalformedEntries:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: {k: v for k, v in doc.items() if k != "summary"},
            lambda doc: {**doc, "program": json.loads(doc["program"])},
            lambda doc: {**doc, "summary": {"total": 0.5}},
            lambda doc: {**doc, "summary": "0.5"},
            lambda doc: [doc],
        ],
        ids=["no-summary", "program-not-text", "partial-summary",
             "summary-not-object", "not-an-object"],
    )
    def test_malformed_entry_is_recompiled_and_overwritten(
        self, tier, damage
    ):
        [cold] = CompilationEngine(cache=tier).run([bv_job()])
        good = tier.get(cold.key)
        tier.put(cold.key, damage(good))
        [again] = CompilationEngine(cache=tier).run([bv_job()])
        assert again.ok and not again.cache_hit
        assert again.summary == cold.summary
        repaired = tier.get(cold.key)
        assert repaired["program"] == good["program"]
        assert repaired["summary"] == good["summary"]
        [hit] = CompilationEngine(cache=tier).run([bv_job()])
        assert hit.cache_hit and hit.summary == cold.summary
