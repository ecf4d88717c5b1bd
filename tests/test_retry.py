"""Engine retry-with-backoff: attempts, delays, policies, records.

Transient failures are injected by monkeypatching the engine module's
``execute_job_on_circuit`` reference (the serial path resolves it per
call); permanent failures reuse the poison circuit from
``test_failsoft``, which also crashes inside process-pool workers.
"""

import time

import pytest

import repro.engine.engine as engine_module
from repro.engine import CompilationEngine, CompileJob, EngineError
from repro.engine.jobs import execute_job_on_circuit
from repro.engine.shard import job_record, strip_timing

from test_failsoft import good_job, poison_job


class _Flaky:
    """Stand-in worker failing the first ``failures`` calls per job."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls: dict[str, int] = {}

    def __call__(self, job, circuit):
        count = self.calls.get(job.label, 0) + 1
        self.calls[job.label] = count
        if count <= self.failures:
            raise RuntimeError(f"transient failure {count}")
        return execute_job_on_circuit(job, circuit)


class TestSerialRetries:
    def test_transient_failure_recovers(self, monkeypatch):
        flaky = _Flaky(failures=2)
        monkeypatch.setattr(
            engine_module, "execute_job_on_circuit", flaky
        )
        engine = CompilationEngine(retries=2, backoff=0.0)
        [result] = engine.run([good_job(0)])
        assert result.ok
        assert result.attempts == 3
        assert result.retry_wait_s == 0.0
        assert flaky.calls[result.job.label] == 3

    def test_failure_surfaces_only_after_final_attempt(
        self, monkeypatch
    ):
        flaky = _Flaky(failures=2)
        monkeypatch.setattr(
            engine_module, "execute_job_on_circuit", flaky
        )
        # One retry is not enough for two transient failures.
        engine = CompilationEngine(retries=1, backoff=0.0)
        with pytest.raises(EngineError, match="transient failure 2"):
            engine.run([good_job(0)])
        assert flaky.calls[good_job(0).label] == 2

    def test_collect_records_attempt_count(self):
        engine = CompilationEngine(
            on_error="collect", retries=2, backoff=0.0
        )
        [failed, ok] = engine.run([poison_job(), good_job(1)])
        assert not failed.ok
        assert failed.attempts == 3
        assert ok.ok and ok.attempts == 1

    def test_backoff_delays_are_exponential_and_recorded(
        self, monkeypatch
    ):
        flaky = _Flaky(failures=2)
        monkeypatch.setattr(
            engine_module, "execute_job_on_circuit", flaky
        )
        engine = CompilationEngine(retries=2, backoff=0.02)
        start = time.perf_counter()
        [result] = engine.run([good_job(0)])
        elapsed = time.perf_counter() - start
        assert result.ok and result.attempts == 3
        # 0.02 after attempt 1, 0.04 after attempt 2.
        assert result.retry_wait_s == pytest.approx(0.06)
        assert elapsed >= 0.06

    def test_zero_retries_preserves_single_attempt(self):
        engine = CompilationEngine(on_error="collect")
        [failed] = engine.run([poison_job()])
        assert failed.attempts == 1
        assert failed.retry_wait_s == 0.0

    def test_constructor_rejects_bad_values(self):
        with pytest.raises(ValueError, match="retries"):
            CompilationEngine(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            CompilationEngine(backoff=-0.5)


class TestPoolRetries:
    def test_pool_failure_retried_then_collected(self):
        engine = CompilationEngine(
            workers=2, on_error="collect", retries=2, backoff=0.0
        )
        results = engine.run(
            [poison_job(), good_job(0), good_job(1)]
        )
        failed = results[0]
        assert not failed.ok
        assert failed.attempts == 3
        assert all(r.ok and r.attempts == 1 for r in results[1:])

    def test_pool_raise_after_final_attempt(self):
        engine = CompilationEngine(workers=2, retries=1, backoff=0.0)
        with pytest.raises(EngineError, match="out of range"):
            engine.run([poison_job(), good_job(0), good_job(1)])


class _Scripted:
    """Stand-in worker recording every call: the first call of each
    ``flaky`` job fails, every other call returns the job's artifact,
    compiled once up front so the calls themselves take microseconds."""

    def __init__(self, jobs, flaky=()):
        self.artifacts = {
            job.label: execute_job_on_circuit(job, job.resolve_circuit())
            for job in jobs
        }
        self.flaky = {job.label for job in flaky}
        self.calls: list[str] = []

    def __call__(self, job, circuit):
        self.calls.append(job.label)
        if job.label in self.flaky and self.calls.count(job.label) == 1:
            raise RuntimeError("transient failure")
        return dict(self.artifacts[job.label])


class TestOneDispatcher:
    """Serial and pool misses run through one dispatcher loop."""

    def test_zero_backoff_retry_runs_before_the_next_job(
        self, monkeypatch
    ):
        jobs = [good_job(seed) for seed in range(3)]
        worker = _Scripted(jobs, flaky=jobs[:1])
        monkeypatch.setattr(
            engine_module, "execute_job_on_circuit", worker
        )
        engine = CompilationEngine(retries=1, backoff=0.0)
        streamed = list(engine.stream(jobs))
        assert [r.index for r in streamed] == [0, 1, 2]
        labels = [job.label for job in jobs]
        assert worker.calls == [labels[0], *labels]
        assert streamed[0].attempts == 2
        assert streamed[0].retry_wait_s == 0.0

    def test_serial_backoff_lets_other_jobs_run(self, monkeypatch):
        jobs = [good_job(seed) for seed in range(3)]
        worker = _Scripted(jobs, flaky=jobs[:1])
        monkeypatch.setattr(
            engine_module, "execute_job_on_circuit", worker
        )
        engine = CompilationEngine(retries=1, backoff=0.3)
        streamed = list(engine.stream(jobs))
        # Both good jobs finish during the flaky job's backoff; its
        # retry runs once nothing else can.
        assert [r.index for r in streamed] == [1, 2, 0]
        labels = [job.label for job in jobs]
        assert worker.calls == [*labels, labels[0]]
        assert all(r.ok for r in streamed)
        assert streamed[-1].attempts == 2
        assert streamed[-1].retry_wait_s == 0.3

    def test_pool_holds_at_most_workers_attempts(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        jobs = [good_job(seed) for seed in range(9)]
        worker = _Scripted(jobs)
        counts = {"submitted": 0, "read": 0, "peak": 0}

        class CountingPool(ThreadPoolExecutor):
            """Counts attempts submitted but not yet streamed back."""

            def submit(self, fn, *args):
                counts["submitted"] += 1
                counts["peak"] = max(
                    counts["peak"], counts["submitted"] - counts["read"]
                )
                return super().submit(fn, *args)

        monkeypatch.setattr(
            engine_module, "execute_job_on_circuit", worker
        )
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", CountingPool)
        engine = CompilationEngine(workers=2)
        for result in engine.stream(jobs):
            assert result.ok
            counts["read"] += 1
        assert counts["read"] == counts["submitted"] == 9
        assert counts["peak"] == 2


class TestDaemonEngine:
    def test_one_engine_per_daemon(self, tmp_path, monkeypatch):
        from repro.service import ServiceClient, ServiceServer

        built = []
        real_init = CompilationEngine.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(CompilationEngine, "__init__", spy)
        server = ServiceServer(
            str(tmp_path / "queue"), "127.0.0.1:0", workers=2
        ).start()
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            submitted = client.submit(
                {"jobs": [{"benchmark": "BV-14", "backend": "powermove"}]}
            )
            records = list(
                client.results(submitted["submission"], follow=True)
            )
            assert [r["status"] for r in records] == ["ok"]
        finally:
            server.stop(drain=False)
        # Submit-time hits and both worker threads share it.
        assert len(built) == 1
        assert built[0] is server.engine


class TestRecordSchema:
    def test_attempts_absent_on_single_attempt_records(self):
        engine = CompilationEngine()
        [result] = engine.run([good_job(0)])
        record = job_record(result, 0)
        assert "attempts" not in record
        assert "retry_wait_s" not in record

    def test_attempts_recorded_and_stripped_as_volatile(self):
        engine = CompilationEngine(
            on_error="collect", retries=1, backoff=0.0
        )
        [result] = engine.run([poison_job()])
        record = job_record(result, 0)
        assert record["attempts"] == 2
        assert record["retry_wait_s"] == 0.0
        doc = {
            "results": [record],
            "wall_time_s": 1.0,
            "cache_hits": 0,
            "cache_misses": 1,
        }
        stripped = strip_timing(doc)
        assert "attempts" not in stripped["results"][0]
        assert "retry_wait_s" not in stripped["results"][0]


class TestBatchCli:
    def test_batch_parses_retry_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["batch", "m.json", "--retries", "3", "--backoff", "0.5"]
        )
        assert args.retries == 3
        assert args.backoff == 0.5

    def test_batch_retry_defaults_off(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["batch", "m.json"])
        assert args.retries == 0
