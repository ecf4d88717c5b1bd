"""Fail-soft engine execution: error policies, streaming, failure payloads.

The poison job used throughout compiles a circuit holding an
out-of-range gate (appended past the bounds check), which raises a
``CircuitError`` inside the compile path -- in-process and inside
process-pool workers alike, since the circuit pickles cleanly.
"""

import json

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.engine import (
    CompilationEngine,
    CompileJob,
    EngineError,
    MemoryCache,
)
from repro.schedule.serialize import program_to_dict


def poison_circuit() -> Circuit:
    """A circuit that digests and pickles fine but cannot compile."""
    circuit = Circuit(4, name="poison")
    circuit.h(0)
    circuit.cz(0, 1)
    circuit._ops.append(Gate("cz", (0, 9)))  # bypass the bounds check
    circuit._cached_digest = None
    return circuit


def poison_job() -> CompileJob:
    return CompileJob(scenario="pm_with_storage", circuit=poison_circuit())


def good_job(seed: int = 0) -> CompileJob:
    return CompileJob(
        scenario="pm_with_storage", benchmark="BV-14", seed=seed
    )


class TestCollectPolicy:
    def test_serial_batch_completes_around_failure(self):
        jobs = [good_job(0), poison_job(), good_job(1)]
        engine = CompilationEngine(on_error="collect")
        results = engine.run(jobs)
        assert len(results) == 3
        assert [r.index for r in results] == [0, 1, 2]
        assert results[0].ok and results[2].ok
        assert results[0].program is not None

        failed = results[1]
        assert not failed.ok
        assert failed.program is None
        assert failed.fidelity is None
        assert failed.error.index == 1
        assert failed.error.error_type == "CircuitError"
        assert "out of range" in failed.error.message
        assert len(failed.error.key) == 64
        assert failed.error.label == failed.job.label
        assert "job 1" in failed.error.describe()
        assert failed.error.key[:16] in failed.error.describe()

    def test_parallel_survivors_bit_identical_to_clean_serial(self):
        good = [good_job(seed) for seed in range(4)]
        jobs = good[:2] + [poison_job()] + good[2:]
        engine = CompilationEngine(workers=3, on_error="collect")
        results = engine.run(jobs)
        assert sum(1 for r in results if not r.ok) == 1
        assert not results[2].ok

        clean = CompilationEngine().run(good)
        survivors = [r for r in results if r.ok]
        for survivor, reference in zip(survivors, clean):
            assert program_to_dict(survivor.program) == program_to_dict(
                reference.program
            )
            assert survivor.fidelity.total == reference.fidelity.total
            assert survivor.key == reference.key

    def test_hit_path_validation_failure_collected(self):
        cache = MemoryCache()
        engine = CompilationEngine(cache=cache, on_error="collect")
        unvalidated = CompileJob(
            scenario="pm_with_storage", benchmark="BV-14", validate=False
        )
        [cold] = engine.run([unvalidated])
        doc = cache.get(cold.key)
        program = json.loads(doc["program"])
        program["instructions"] = [
            entry
            for entry in program["instructions"]
            if entry["kind"] != "rydberg"
        ]
        doc = {**doc, "program": json.dumps(program), "validated": False}
        cache.put(cold.key, doc)
        validated = CompileJob(
            scenario="pm_with_storage", benchmark="BV-14", validate=True
        )
        [failed, ok] = engine.run([validated, good_job(5)])
        assert not failed.ok
        assert failed.error.error_type == "ValidationError"
        assert ok.ok

    def test_progress_events_flag_failures(self):
        events = []
        engine = CompilationEngine(
            on_error="collect", progress=events.append
        )
        engine.run([good_job(0), poison_job()])
        assert [e.failed for e in sorted(events, key=lambda e: e.index)] == [
            False,
            True,
        ]


class TestRaisePolicy:
    def test_serial_error_names_index_and_key(self):
        jobs = [good_job(0), good_job(1), poison_job()]
        engine = CompilationEngine()
        with pytest.raises(EngineError, match="job 2") as excinfo:
            engine.run(jobs)
        failure = excinfo.value.failure
        assert failure.index == 2
        assert len(failure.key) == 64
        assert failure.key[:16] in str(excinfo.value)
        assert "poison" in str(excinfo.value)

    def test_parallel_failure_cancels_pending_futures(self):
        cache = MemoryCache()
        engine = CompilationEngine(cache=cache, workers=2)
        jobs = [poison_job()] + [good_job(seed) for seed in range(8)]
        with pytest.raises(EngineError, match="job 0") as excinfo:
            engine.run(jobs)
        assert excinfo.value.failure.index == 0
        # The poison job fails in microseconds while at most one real
        # compilation has started; everything queued behind it must be
        # cancelled, never compiled, never stored.
        assert cache.stats.stores <= 2

    def test_engine_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="on_error"):
            CompilationEngine(on_error="ignore")
        with pytest.raises(ValueError, match="on_error"):
            CompilationEngine().run([good_job()], on_error="ignore")
        # stream() must fail at the call site, not at the first next().
        with pytest.raises(ValueError, match="on_error"):
            CompilationEngine().stream([good_job()], on_error="ignore")

    def test_run_level_policy_overrides_engine_default(self):
        engine = CompilationEngine()  # default: raise
        results = engine.run(
            [poison_job(), good_job(0)], on_error="collect"
        )
        assert not results[0].ok
        assert results[1].ok


class TestStream:
    def test_stream_yields_every_job_with_indices(self):
        jobs = [good_job(seed) for seed in range(4)]
        engine = CompilationEngine(workers=2)
        streamed = list(engine.stream(jobs))
        assert {r.index for r in streamed} == {0, 1, 2, 3}
        for result in streamed:
            assert result.job is jobs[result.index]
            assert result.ok

    def test_stream_cache_hits_come_first(self):
        cache = MemoryCache()
        engine = CompilationEngine(cache=cache)
        warm = good_job(3)
        engine.run([warm])
        jobs = [good_job(0), good_job(1), warm]
        streamed = list(engine.stream(jobs))
        assert streamed[0].index == 2
        assert streamed[0].cache_hit
        assert not streamed[1].cache_hit

    def test_stream_collect_interleaves_failures(self):
        engine = CompilationEngine(on_error="collect")
        streamed = list(
            engine.stream([poison_job(), good_job(0), poison_job()])
        )
        assert len(streamed) == 3
        assert [r.ok for r in streamed] == [False, True, False]
        assert [r.error.index for r in streamed if not r.ok] == [0, 2]

    def test_run_equals_reordered_stream(self):
        jobs = [good_job(seed) for seed in range(3)]
        engine = CompilationEngine(workers=2)
        run_results = engine.run(jobs)
        streamed = sorted(engine.stream(jobs), key=lambda r: r.index)
        for a, b in zip(run_results, streamed):
            assert program_to_dict(a.program) == program_to_dict(b.program)
            assert a.key == b.key
