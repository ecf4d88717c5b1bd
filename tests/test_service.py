"""The long-running compilation service: queue, protocol, lifecycle.

In-process servers (worker threads in this test process) cover the
full lifecycle -- submit, stream, retries, drain, restart recovery --
so failure injection can monkeypatch the engine's worker function.  A
subprocess test exercises the real ``repro serve`` daemon end to end.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import repro.engine.engine as engine_module
from repro.engine import (
    CompilationEngine,
    docs_equal_modulo_timing,
    manifest_digest,
    parse_manifest,
    results_doc,
)
from repro.engine.jobs import execute_job_on_circuit, job_from_doc
from repro.service import (
    JobQueue,
    ProtocolError,
    ServiceClient,
    ServiceError,
    ServiceServer,
    parse_address,
)

#: Cheap two-benchmark manifest (enola knobs dialled down).
MANIFEST = {
    "defaults": {
        "enola": {"mis_restarts": 1, "sa_iterations_per_qubit": 0}
    },
    "jobs": [
        {"benchmark": "BV-14"},
        {
            "benchmark": "QSIM-rand-0.3-10",
            "scenarios": ["pm_non_storage", "pm_with_storage"],
        },
    ],
}

SECOND_MANIFEST = {
    "jobs": [
        {"benchmark": "QSIM-rand-0.3-10", "backend": "powermove", "seed": 2}
    ]
}


def batch_document(manifest):
    """The reference `repro batch --on-error collect` document."""
    jobs = parse_manifest(manifest)
    results = CompilationEngine(on_error="collect").run(jobs)
    return results_doc(
        results,
        manifest_digest=manifest_digest(manifest),
        total_jobs=len(jobs),
        wall_time_s=0.0,
        on_error="collect",
    )


@pytest.fixture
def queue(tmp_path):
    queue = JobQueue(str(tmp_path / "queue"))
    yield queue
    queue.close()


def start_server(tmp_path, **kwargs):
    server = ServiceServer(
        str(tmp_path / "queue"), "127.0.0.1:0", **kwargs
    )
    return server.start()


class TestParseAddress:
    def test_tcp(self):
        assert parse_address("127.0.0.1:7431") == (
            "tcp",
            ("127.0.0.1", 7431),
        )

    def test_unix_paths(self):
        assert parse_address("/tmp/s.sock") == ("unix", "/tmp/s.sock")
        assert parse_address("./q/s.sock") == ("unix", "./q/s.sock")

    @pytest.mark.parametrize(
        "spec", ["", "localhost", "host:notaport", "host:70000"]
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ProtocolError):
            parse_address(spec)


class TestJobQueue:
    def test_submit_expands_and_persists(self, queue):
        submission = queue.submit(MANIFEST)
        assert submission["total_jobs"] == 5
        assert submission["manifest_digest"] == manifest_digest(MANIFEST)
        assert queue.counts() == {
            "queued": 5,
            "running": 0,
            "done": 0,
            "error": 0,
        }
        reopened = JobQueue(queue.directory)
        assert reopened.counts()["queued"] == 5
        record = reopened.get(submission["job_ids"][0])
        assert record["status"] == "queued"
        assert job_from_doc(record["job"]).benchmark == "BV-14"

    def test_arch_and_strategies_survive_queue_round_trip(self, queue):
        manifest = {
            "jobs": [
                {
                    "benchmark": "BV-14",
                    "backend": "powermove",
                    "arch": "wide-storage",
                    "strategies": {"placement": "spiral"},
                },
                {"benchmark": "BV-14", "backend": "auto"},
            ]
        }
        submission = queue.submit(manifest)
        # Reopen from disk: the persisted job documents must rebuild
        # equal jobs, arch and strategies included.
        reopened = JobQueue(queue.directory)
        first = job_from_doc(
            reopened.get(submission["job_ids"][0])["job"]
        )
        assert first.arch == "wide-storage"
        assert first.strategies_map == {"placement": "spiral"}
        second = job_from_doc(
            reopened.get(submission["job_ids"][1])["job"]
        )
        assert second.backend == "auto"
        # The exact-inverse contract, on a strategy-carrying job.
        from repro.engine.jobs import job_to_doc

        assert job_from_doc(job_to_doc(first)) == first

    def test_bad_manifest_leaves_queue_untouched(self, queue):
        from repro.engine import ManifestError

        with pytest.raises(ManifestError):
            queue.submit({"jobs": [{"benchmark": "NOPE-1"}]})
        assert queue.counts()["queued"] == 0
        assert queue.submission_ids() == []

    def test_lease_priority_then_fifo(self, queue):
        low = queue.submit(SECOND_MANIFEST, priority=0)
        high = queue.submit(
            {"jobs": [{"benchmark": "BV-14", "backend": "powermove"}]},
            priority=5,
        )
        first = queue.lease("w1")
        assert first["submission"] == high["id"]
        second = queue.lease("w2")
        assert second["submission"] == low["id"]

    def test_lease_dedups_running_cache_keys(self, queue):
        queue.submit(SECOND_MANIFEST)
        queue.submit(SECOND_MANIFEST)  # identical job, twin cache key
        first = queue.lease("w1")
        assert first is not None
        # The twin is queued but shares the running cache key: skipped.
        assert queue.lease("w2") is None
        job = job_from_doc(first["job"])
        [result] = CompilationEngine().run([job])
        from repro.engine import job_record

        queue.complete(first["id"], job_record(result, first["index"]))
        twin = queue.lease("w2")
        assert twin is not None
        assert twin["cache_key"] == first["cache_key"]

    def test_completed_count_matches_completed_records(self, queue):
        submission = queue.submit(MANIFEST)
        sub_id = submission["id"]
        assert queue.completed_count(sub_id) == 0
        done = 0
        while True:
            leased = queue.lease("w1")
            if leased is None:
                break
            queue.complete(
                leased["id"],
                {"status": "ok", "index": leased["index"]},
            )
            done += 1
            assert queue.completed_count(sub_id) == done
            assert queue.completed_count(sub_id) == len(
                queue.completed_records(sub_id)
            )
        assert done == submission["total_jobs"]
        assert queue.completed_count("no-such-submission") == 0

    def test_complete_first_wins(self, queue):
        queue.submit(SECOND_MANIFEST)
        leased = queue.lease("w1")
        record_ok = {"status": "ok", "index": 0, "cache_hit": False}
        queue.complete(leased["id"], record_ok)
        queue.complete(
            leased["id"], {"status": "error", "index": 0}
        )  # no-op
        assert queue.get(leased["id"])["record"] == record_ok
        assert queue.counts()["done"] == 1

    def test_expired_lease_requeues_with_count(self, queue):
        queue.submit(SECOND_MANIFEST)
        leased = queue.lease("w1", lease_seconds=0.0)
        assert queue.requeue_expired() == [leased["id"]]
        record = queue.get(leased["id"])
        assert record["status"] == "queued"
        assert record["requeues"] == 1
        assert record["lease"] is None

    def test_requeue_bound_records_worker_lost_error(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q"), max_requeues=1)
        queue.submit(SECOND_MANIFEST)
        for _ in range(2):
            leased = queue.lease("w1", lease_seconds=0.0)
            assert leased is not None
            queue.requeue_expired()
        record = queue.get(leased["id"])
        assert record["status"] == "error"
        assert record["record"]["error"]["type"] == "WorkerLostError"

    def test_renew_extends_a_running_lease(self, queue):
        queue.submit(SECOND_MANIFEST)
        leased = queue.lease("w1", lease_seconds=0.0)
        # Heartbeat: the expired lease is pushed into the future, so
        # the maintenance sweep leaves the job alone.
        assert queue.renew(leased["id"], lease_seconds=3600.0)
        assert queue.requeue_expired() == []
        assert queue.get(leased["id"])["status"] == "running"
        assert not queue.renew("s999999-00000")

    def test_recover_requeues_even_fresh_leases(self, queue):
        queue.submit(SECOND_MANIFEST)
        leased = queue.lease("w1", lease_seconds=3600.0)
        reopened = JobQueue(queue.directory)
        assert reopened.recover() == [leased["id"]]
        assert reopened.counts()["queued"] == 1


class TestServiceLifecycle:
    def test_submit_stream_drain_shutdown(self, tmp_path):
        server = start_server(tmp_path, workers=2)
        try:
            client = ServiceClient(server.address)
            ping = client.wait_ready()
            assert ping["protocol"] >= 1

            first = client.submit(MANIFEST)
            second = client.submit(SECOND_MANIFEST)
            assert first["total_jobs"] == 5
            assert second["total_jobs"] == 1

            records = list(
                client.results(first["submission"], follow=True)
            )
            assert len(records) == 5
            assert {r["status"] for r in records} == {"ok"}
            # Completion order on the wire; manifest order recoverable.
            assert sorted(r["index"] for r in records) == list(range(5))

            doc = client.results_document(first["submission"])
            assert docs_equal_modulo_timing(doc, batch_document(MANIFEST))
            doc2 = client.results_document(second["submission"])
            assert docs_equal_modulo_timing(
                doc2, batch_document(SECOND_MANIFEST)
            )

            status = client.status(first["submission"])
            assert status["counts"]["done"] == 5
            overall = client.status()
            assert [s["id"] for s in overall["submissions"]] == [
                first["submission"],
                second["submission"],
            ]

            client.shutdown(drain=True)
            assert server.wait_stopped(timeout=30.0)
            dead = ServiceClient(server.address, connect_retry_s=0.0)
            with pytest.raises(ServiceError):
                dead.ping()
        finally:
            if not server.wait_stopped(timeout=0.0):
                server.stop(drain=False)

    def test_poison_job_retried_then_collected(
        self, tmp_path, monkeypatch
    ):
        calls: dict[str, int] = {}

        def flaky(job, circuit):
            count = calls.get(job.label, 0) + 1
            calls[job.label] = count
            if job.benchmark == "QSIM-rand-0.3-10" and count <= 1:
                raise RuntimeError("transient worker hiccup")
            if job.benchmark == "BV-14" and job.backend == "atomique":
                raise RuntimeError("permanently poisoned")
            return execute_job_on_circuit(job, circuit)

        monkeypatch.setattr(
            engine_module, "execute_job_on_circuit", flaky
        )
        server = start_server(
            tmp_path, workers=2, retries=2, backoff=0.0
        )
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            submitted = client.submit(
                {
                    "jobs": [
                        {
                            "benchmark": "QSIM-rand-0.3-10",
                            "backend": "powermove",
                        },
                        {"benchmark": "BV-14", "backend": "atomique"},
                    ]
                }
            )
            records = {
                r["benchmark"]: r
                for r in client.results(
                    submitted["submission"], follow=True
                )
            }
            flaked = records["QSIM-rand-0.3-10"]
            assert flaked["status"] == "ok"
            assert flaked["attempts"] == 2  # retried then succeeded
            poisoned = records["BV-14"]
            assert poisoned["status"] == "error"
            assert poisoned["attempts"] == 3  # all attempts exhausted
            assert "poisoned" in poisoned["error"]["message"]
        finally:
            server.stop(drain=False)

    def test_abrupt_restart_resumes_queued_jobs(
        self, tmp_path, monkeypatch
    ):
        real = execute_job_on_circuit

        def slow(job, circuit):
            time.sleep(0.1)
            return real(job, circuit)

        monkeypatch.setattr(engine_module, "execute_job_on_circuit", slow)
        server = start_server(tmp_path, workers=1)
        client = ServiceClient(server.address)
        try:
            client.wait_ready()
            submitted = client.submit(MANIFEST)
            # Let some (not all) jobs finish, then stop without drain:
            # in-flight work completes, the rest stays queued on disk.
            server.queue.wait(
                lambda: server.queue.counts()["done"] >= 1,
                timeout=30.0,
            )
        finally:
            server.stop(drain=False)
        assert server.queue.unfinished() > 0

        monkeypatch.setattr(engine_module, "execute_job_on_circuit", real)
        revived = start_server(tmp_path, workers=2)
        try:
            client = ServiceClient(revived.address)
            client.wait_ready()
            doc = client.results_document(submitted["submission"])
            assert doc["num_failed"] == 0
            assert docs_equal_modulo_timing(doc, batch_document(MANIFEST))
        finally:
            revived.stop(drain=False)

    def test_compile_outliving_lease_is_heartbeaten_not_requeued(
        self, tmp_path, monkeypatch
    ):
        real = execute_job_on_circuit
        calls = []

        def slow(job, circuit):
            calls.append(job.label)
            time.sleep(0.4)  # several lease durations
            return real(job, circuit)

        monkeypatch.setattr(engine_module, "execute_job_on_circuit", slow)
        server = start_server(
            tmp_path, workers=2, lease_seconds=0.1, retries=0
        )
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            submitted = client.submit(SECOND_MANIFEST)
            records = list(
                client.results(submitted["submission"], follow=True)
            )
            assert [r["status"] for r in records] == ["ok"]
            # The slow compile ran exactly once: its lease was renewed
            # by the heartbeat, never expired onto a second worker.
            assert len(calls) == 1
            job = server.queue.get(submitted["job_ids"][0])
            assert job["requeues"] == 0
        finally:
            server.stop(drain=False)

    def test_crashed_daemon_lease_recovered_on_start(self, tmp_path):
        # Simulate a daemon killed mid-compile: a submitted queue with
        # one job leased and never completed.
        queue = JobQueue(str(tmp_path / "queue"))
        submitted = queue.submit(MANIFEST)
        assert queue.lease("dead-worker", lease_seconds=3600.0)

        server = start_server(tmp_path, workers=2)
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            doc = client.results_document(submitted["id"])
            assert doc["num_jobs"] == submitted["total_jobs"]
            assert docs_equal_modulo_timing(doc, batch_document(MANIFEST))
        finally:
            server.stop(drain=False)

    def test_submit_rejects_bad_manifest_and_unknown_ops(self, tmp_path):
        server = start_server(tmp_path)
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            with pytest.raises(ServiceError, match="bad manifest"):
                client.submit({"jobs": [{"benchmark": "NOPE-1"}]})
            with pytest.raises(ServiceError, match="unknown submission"):
                list(client.results("s999999"))
            with pytest.raises(ServiceError, match="unknown op"):
                client._request({"op": "frobnicate"})
        finally:
            server.stop(drain=False)


class TestIdlePolling:
    """Bounded backoff on the service's two idle-poll loops.

    Both tests assert properties of the backoff *ladder* (first value,
    doubling, cap, reset) rather than measuring wall-clock time, so
    they stay stable on slow or noisy CI machines.
    """

    def test_wait_ready_backoff_doubles_to_a_bound(self, monkeypatch):
        class FakeTime:
            def __init__(self):
                self.now = 0.0
                self.sleeps = []

            def monotonic(self):
                return self.now

            def sleep(self, seconds):
                self.sleeps.append(seconds)
                self.now += seconds

        import repro.service.client as client_module

        fake = FakeTime()
        monkeypatch.setattr(client_module, "time", fake)
        # Nothing listens on port 1, so every ping fails fast and the
        # retry loop runs against the fake clock alone.  Connect
        # retries are off so only wait_ready's ladder sleeps.
        client = ServiceClient(
            "127.0.0.1:1", timeout=0.05, connect_retry_s=0.0
        )
        with pytest.raises(ServiceError):
            client.wait_ready(timeout=5.0)
        sleeps = fake.sleeps
        assert sleeps[0] == pytest.approx(0.05)
        assert max(sleeps) <= 1.0 + 1e-9
        # Doubling up to the 1 s bound; only the final sleep may be
        # shorter (clamped to the remaining budget).
        for previous, current in zip(sleeps[:-1], sleeps[1:-1]):
            assert current == pytest.approx(min(previous * 2.0, 1.0))
        assert sum(sleeps) == pytest.approx(5.0)

    def test_followed_stream_idle_ladder_doubles_to_a_bound(self):
        # The asyncio result stream is primarily event-driven (a queue
        # listener wakes it on every state change); the poll timeout is
        # only the safety net.  Its ladder starts at the minimum,
        # doubles, and saturates at the cap.
        from repro.service.aio import (
            RESULTS_POLL_MAX_S,
            RESULTS_POLL_MIN_S,
            _next_idle_timeout,
        )

        timeout = RESULTS_POLL_MIN_S
        seen = [timeout]
        for _ in range(12):
            timeout = _next_idle_timeout(timeout)
            seen.append(timeout)
        assert seen[0] == pytest.approx(RESULTS_POLL_MIN_S)
        for previous, current in zip(seen, seen[1:]):
            assert current == pytest.approx(
                min(previous * 2.0, RESULTS_POLL_MAX_S)
            )
        assert seen[-1] == pytest.approx(RESULTS_POLL_MAX_S)
        assert _next_idle_timeout(RESULTS_POLL_MAX_S) == pytest.approx(
            RESULTS_POLL_MAX_S
        )

    def test_connect_retry_waits_for_late_listener(self, tmp_path):
        import socket as socket_module
        import threading

        # Reserve a port, then bind a listener on it only after the
        # client has started connecting: the bounded connect-retry
        # ladder bridges the gap (a client started alongside a daemon
        # must not lose the bind race).
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        def serve_one_ping():
            time.sleep(0.3)
            listener = socket_module.socket()
            listener.setsockopt(
                socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1
            )
            listener.bind(("127.0.0.1", port))
            listener.listen(1)
            conn, _ = listener.accept()
            stream = conn.makefile("rwb")
            stream.readline()
            stream.write(b'{"ok": true, "op": "ping", "protocol": 1}\n')
            stream.flush()
            stream.close()
            conn.close()
            listener.close()

        thread = threading.Thread(target=serve_one_ping, daemon=True)
        thread.start()
        client = ServiceClient(
            f"127.0.0.1:{port}", timeout=5.0, connect_retry_s=5.0
        )
        assert client.ping()["ok"] is True
        thread.join(timeout=5.0)

        # With retrying disabled the same refusal surfaces at once.
        eager = ServiceClient(
            f"127.0.0.1:{port}", timeout=0.5, connect_retry_s=0.0
        )
        started = time.monotonic()
        with pytest.raises(ServiceError, match="cannot reach"):
            eager.ping()
        assert time.monotonic() - started < 2.0


class TestProtocolBounds:
    def test_oversized_frame_is_refused_cleanly(self, tmp_path):
        import socket as socket_module

        server = start_server(tmp_path, max_line_bytes=4096)
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            host, port = parse_address(server.address)[1]
            with socket_module.create_connection(
                (host, port), timeout=10.0
            ) as sock:
                stream = sock.makefile("rwb")
                huge = (
                    b'{"op": "submit", "manifest": "'
                    + b"x" * 8192
                    + b'"}\n'
                )
                stream.write(huge)
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["ok"] is False
                assert "size bound" in reply["error"]
                # The server closes the connection after the error.
                # The unread remainder of the oversized line may turn
                # the close into a TCP reset; either way no further
                # reply arrives.
                try:
                    assert stream.readline() == b""
                except ConnectionResetError:
                    pass
                stream.close()
            # The daemon itself is unharmed and still serves work.
            submitted = client.submit(SECOND_MANIFEST)
            doc = client.results_document(submitted["submission"])
            assert doc["num_failed"] == 0
        finally:
            server.stop(drain=False)

    def test_client_rejects_oversized_manifest_against_bound(
        self, tmp_path
    ):
        server = start_server(tmp_path, max_line_bytes=4096)
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            big = {"jobs": [{"benchmark": "BV-14", "note": "y" * 8192}]}
            with pytest.raises(ServiceError, match="size bound"):
                client.submit(big)
        finally:
            server.stop(drain=False)


class TestManyConnections:
    def test_hundreds_of_idle_connections_without_threads(
        self, tmp_path
    ):
        import socket as socket_module
        import threading

        try:
            import resource

            soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            if soft < 1200:
                resource.setrlimit(
                    resource.RLIMIT_NOFILE, (min(1200, hard), hard)
                )
        except (ImportError, ValueError, OSError):
            pytest.skip("cannot raise RLIMIT_NOFILE high enough")

        server = start_server(tmp_path, workers=1)
        sockets = []
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            threads_before = threading.active_count()
            host, port = parse_address(server.address)[1]
            for _ in range(500):
                sock = socket_module.create_connection(
                    (host, port), timeout=10.0
                )
                sockets.append(sock)
            ping = client.ping()
            assert ping["connections"]["open"] >= 500
            # The asyncio front end holds every connection as a
            # coroutine on one event loop: no thread per connection.
            assert threading.active_count() <= threads_before + 2
            # Compilation still proceeds underneath the idle load.
            submitted = client.submit(SECOND_MANIFEST)
            doc = client.results_document(submitted["submission"])
            assert doc["num_failed"] == 0
        finally:
            for sock in sockets:
                try:
                    sock.close()
                except OSError:
                    pass
            server.stop(drain=False)


class TestCompletedTtl:
    def test_gc_collects_only_fully_finished_old_submissions(
        self, queue
    ):
        from repro.engine import job_record

        submitted = queue.submit(SECOND_MANIFEST)
        sub_id = submitted["id"]
        # Live submission: never collected, however old.
        assert queue.gc_completed(0.0) == []

        leased = queue.lease("w1")
        # Leased (running) job: still never collected.
        assert queue.gc_completed(0.0) == []

        job = job_from_doc(leased["job"])
        [result] = CompilationEngine().run([job])
        queue.complete(leased["id"], job_record(result, leased["index"]))
        # Finished but fresh: survives a generous TTL.
        assert queue.gc_completed(3600.0) == []
        assert queue.submission_ids() == [sub_id]
        # Finished and older than a zero TTL: collected.
        assert queue.gc_completed(0.0) == [sub_id]
        assert queue.submission_ids() == []
        assert queue.counts() == {
            "queued": 0,
            "running": 0,
            "done": 0,
            "error": 0,
        }

    def test_gc_does_not_recycle_submission_ids(self, queue):
        from repro.engine import job_record

        first = queue.submit(SECOND_MANIFEST)
        leased = queue.lease("w1")
        job = job_from_doc(leased["job"])
        [result] = CompilationEngine().run([job])
        queue.complete(leased["id"], job_record(result, leased["index"]))
        assert queue.gc_completed(0.0) == [first["id"]]
        second = queue.submit(SECOND_MANIFEST)
        # A recycled id would alias the collected submission for any
        # client still holding the old handle.
        assert second["id"] != first["id"]

    def test_server_ttl_sweep_prunes_finished_submissions(
        self, tmp_path
    ):
        # lease_seconds=0.4 makes the maintenance sweep run every
        # ~0.1 s, so a zero TTL collects promptly after completion.
        server = start_server(
            tmp_path, workers=1, lease_seconds=0.4, completed_ttl=0.0
        )
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            submitted = client.submit(SECOND_MANIFEST)
            doc = client.results_document(submitted["submission"])
            assert doc["num_failed"] == 0
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not server.queue.submission_ids():
                    break
                time.sleep(0.05)
            assert server.queue.submission_ids() == []
            with pytest.raises(ServiceError, match="unknown submission"):
                list(client.results(submitted["submission"]))
        finally:
            server.stop(drain=False)


class TestServiceCli:
    def test_cli_round_trip_against_in_process_server(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        server = start_server(tmp_path)
        try:
            manifest_path = tmp_path / "manifest.json"
            manifest_path.write_text(json.dumps(SECOND_MANIFEST))
            assert (
                main(
                    [
                        "submit",
                        str(manifest_path),
                        "--connect",
                        server.address,
                        "--json",
                    ]
                )
                == 0
            )
            submitted = json.loads(capsys.readouterr().out)

            out_path = tmp_path / "doc.json"
            code = main(
                [
                    "results",
                    submitted["submission"],
                    "--connect",
                    server.address,
                    "--follow",
                    "--output",
                    str(out_path),
                ]
            )
            assert code == 0
            lines = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
                if line
            ]
            assert len(lines) == 1 and lines[0]["status"] == "ok"
            doc = json.loads(out_path.read_text())
            assert docs_equal_modulo_timing(
                doc, batch_document(SECOND_MANIFEST)
            )

            assert (
                main(["status", "--connect", server.address]) == 0
            )
            assert "finished" in capsys.readouterr().out

            # Exit 2 when the fetch is partial: an unfinished (here:
            # unknown-free, already-done) submission fetched without
            # --follow is complete, so exercise the partial path with a
            # fresh submission raced before completion is unreliable --
            # instead assert the complete fetch exits 0 without follow.
            assert (
                main(
                    [
                        "results",
                        submitted["submission"],
                        "--connect",
                        server.address,
                    ]
                )
                == 0
            )
            capsys.readouterr()

            assert (
                main(["shutdown", "--connect", server.address]) == 0
            )
            assert server.wait_stopped(timeout=30.0)
        finally:
            if not server.wait_stopped(timeout=0.0):
                server.stop(drain=False)


    def test_partial_fetch_without_follow_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        real = execute_job_on_circuit

        def slow(job, circuit):
            time.sleep(0.5)
            return real(job, circuit)

        monkeypatch.setattr(engine_module, "execute_job_on_circuit", slow)
        server = start_server(tmp_path, workers=1)
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            submitted = client.submit(SECOND_MANIFEST)
            # No --follow while the job still compiles: the stream is
            # honest about the gap and the exit code is non-zero, so
            # `results ... && analyze` pipelines cannot treat a partial
            # fetch as a finished sweep.
            code = main(
                [
                    "results",
                    submitted["submission"],
                    "--connect",
                    server.address,
                ]
            )
            assert code == 2
            assert "remaining" in capsys.readouterr().err
        finally:
            server.stop(drain=False)


class TestServeSubprocess:
    def test_daemon_round_trip_over_unix_socket(self, tmp_path):
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        socket_path = str(queue_dir / "service.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(queue_dir),
                "--workers",
                "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            client = ServiceClient(socket_path)
            client.wait_ready(timeout=30.0)
            submitted = client.submit(MANIFEST)
            doc = client.results_document(submitted["submission"])
            assert docs_equal_modulo_timing(doc, batch_document(MANIFEST))
            client.shutdown(drain=True)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)


class TestObservability:
    """End-to-end traces + metrics through a live daemon."""

    def test_traces_and_metrics_across_a_submission(self, tmp_path):
        import urllib.request

        from repro.obs.trace import (
            span_seconds,
            validate_trace_doc,
        )
        from repro.service.loadgen import parse_prometheus_text

        server = start_server(
            tmp_path, workers=2, metrics_address="127.0.0.1:0"
        )
        try:
            client = ServiceClient(server.address)
            ping = client.wait_ready()
            assert ping["metrics_url"] == server.metrics_url

            submitted = client.submit(MANIFEST)
            records = list(
                client.results(submitted["submission"], follow=True)
            )
            assert len(records) == 5

            # Every result record carries a valid trace whose root
            # starts at the enqueue instant (offset 0.0) and covers
            # queue wait plus at least one compile attempt.
            for record in records:
                doc = record["trace"]
                validate_trace_doc(doc)
                root = [
                    s for s in doc["spans"] if s["parent"] is None
                ][0]
                assert root["start_s"] == 0.0
                names = {s["name"] for s in doc["spans"]}
                assert "queue.wait" in names
                assert "compile" in names
                assert "cache.lookup" in names
                # Span time is bounded by the traced wall time.
                assert span_seconds(doc, "compile") <= (
                    doc["duration_s"] + 1e-6
                )

            # A compiled (non-hit) job records per-pass child spans
            # under its compile attempt.
            compiled = [
                r for r in records if not r.get("cache_hit")
            ]
            assert compiled
            compile_children = set()
            for record in compiled:
                doc = record["trace"]
                (attempt,) = [
                    s for s in doc["spans"] if s["name"] == "compile"
                ]
                compile_children |= {
                    s["name"]
                    for s in doc["spans"]
                    if s["parent"] == attempt["id"]
                }
            assert compile_children  # the pipeline's pass names

            # The trace op returns the same document by job id.
            job_id = submitted["job_ids"][0]
            reply = client.trace(job_id)
            validate_trace_doc(reply["trace"])
            assert reply["trace"]["job"] == job_id
            with pytest.raises(ServiceError, match="unknown job"):
                client.trace("s999999-00000")

            # Status drills into per-job attempts / waits / span time.
            status = client.status(submitted["submission"])
            assert len(status["jobs"]) == 5
            for job in status["jobs"]:
                assert job["status"] == "done"
                assert job["attempts"] == 1
                assert job["queue_wait_s"] >= 0.0
                assert job["span_time_s"] > 0.0

            # The metrics op and GET /metrics agree with the workload.
            metrics = client.metrics()
            assert metrics["role"] == "daemon"
            with urllib.request.urlopen(
                server.metrics_url, timeout=5.0
            ) as scrape:
                series = parse_prometheus_text(
                    scrape.read().decode("utf-8")
                )
            completed = sum(
                value
                for name, value in series.items()
                if name.startswith("repro_jobs_completed_total")
            )
            assert completed == 5
            assert series["repro_submissions_total"] == 1
            assert series["repro_jobs_submitted_total"] == 5
            assert series["repro_queue_wait_seconds_count"] == 5
            pass_samples = sum(
                value
                for name, value in series.items()
                if name.startswith("repro_pass_duration_seconds_count")
            )
            assert pass_samples > 0
            assert any(
                name.startswith("repro_cache_requests_total")
                for name in series
            )
            # The op's JSON document renders to the same exposition.
            assert (
                sum(
                    sample["value"]
                    for family in metrics["metrics"]["families"]
                    if family["name"] == "repro_jobs_completed_total"
                    for sample in family["samples"]
                )
                == 5
            )
        finally:
            server.stop(drain=False)

    def test_warm_resubmission_traces_the_cache_hit_tier(
        self, tmp_path
    ):
        server = start_server(tmp_path, workers=1)
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            first = client.submit(SECOND_MANIFEST)
            client.results_document(first["submission"])
            second = client.submit(SECOND_MANIFEST)
            [record] = list(
                client.results(second["submission"], follow=True)
            )
            assert record["cache_hit"] is True
            doc = record["trace"]
            (lookup,) = [
                s for s in doc["spans"] if s["name"] == "cache.lookup"
            ]
            assert lookup["attrs"]["hit"] is True
            assert lookup["attrs"]["tier"] == "memory"
            tier_probes = [
                s
                for s in doc["spans"]
                if s["parent"] == lookup["id"]
            ]
            assert [s["name"] for s in tier_probes] == ["cache.memory"]
            # A cache hit never replays a stale compile timeline.
            assert "compile" not in {
                s["name"] for s in doc["spans"]
            }
        finally:
            server.stop(drain=False)

    def test_retried_job_traces_every_attempt(
        self, tmp_path, monkeypatch
    ):
        calls = {}
        real = execute_job_on_circuit

        def flaky(job, circuit):
            count = calls.get(job.label, 0) + 1
            calls[job.label] = count
            if count == 1:
                raise RuntimeError("transient")
            return real(job, circuit)

        monkeypatch.setattr(
            engine_module, "execute_job_on_circuit", flaky
        )
        server = start_server(
            tmp_path, workers=1, retries=2, backoff=0.0
        )
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            submitted = client.submit(SECOND_MANIFEST)
            [record] = list(
                client.results(submitted["submission"], follow=True)
            )
            assert record["status"] == "ok"
            assert record["attempts"] == 2
            doc = record["trace"]
            attempts = [
                s for s in doc["spans"] if s["name"] == "compile"
            ]
            assert [s["attrs"]["attempt"] for s in attempts] == [1, 2]
            assert attempts[0]["attrs"]["error"] == "RuntimeError"
            assert "error" not in attempts[1]["attrs"]
            status = client.status(submitted["submission"])
            assert status["jobs"][0]["attempts"] == 2
            metrics = client.metrics()
            retry_total = sum(
                sample["value"]
                for family in metrics["metrics"]["families"]
                if family["name"] == "repro_job_retries_total"
                for sample in family["samples"]
            )
            assert retry_total == 1
        finally:
            server.stop(drain=False)

    def test_trace_cli_renders_a_tree(self, tmp_path, capsys):
        from repro.cli import main

        server = start_server(tmp_path, workers=1)
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            submitted = client.submit(SECOND_MANIFEST)
            client.results_document(submitted["submission"])
            job_id = submitted["job_ids"][0]
            assert (
                main(["trace", job_id, "--connect", server.address])
                == 0
            )
            out = capsys.readouterr().out
            assert out.startswith(f"trace {job_id}")
            assert "queue.wait" in out
            assert "compile" in out
            assert (
                main(
                    [
                        "trace",
                        job_id,
                        "--connect",
                        server.address,
                        "--json",
                    ]
                )
                == 0
            )
            doc = json.loads(capsys.readouterr().out)
            assert doc["job"] == job_id
            assert (
                main(
                    [
                        "status",
                        submitted["submission"],
                        "--connect",
                        server.address,
                    ]
                )
                == 0
            )
            status_out = capsys.readouterr().out
            assert job_id in status_out
            assert "attempts 1" in status_out
        finally:
            server.stop(drain=False)

    def test_bad_metrics_listen_spec_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="metrics listen"):
            ServiceServer(
                str(tmp_path / "queue"),
                "127.0.0.1:0",
                metrics_address="not-a-port",
            )
