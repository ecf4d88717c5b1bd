"""One protocol, two servers: the daemon and the fleet coordinator.

Every test here runs against both a tenanted ``repro serve`` daemon and
a tenanted coordinator in front of one such daemon, with the same
assertions.  Both answer through the shared front door of
:class:`repro.service.aio.AsyncServerCore`, so auth, error codes, id
validation and the results-stream event shapes must agree.  Raw
sockets cover what :class:`ServiceClient` (always v2, always typed)
cannot express.
"""

import json
import socket
import threading
import time

import pytest

import repro.engine.engine as engine_module
from repro.engine.jobs import execute_job_on_circuit
from repro.service import (
    AuthError,
    Coordinator,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    read_message,
    write_message,
)

ONE_JOB = {"jobs": [{"benchmark": "BV-14", "backend": "powermove"}]}
THREE_JOBS = {
    "jobs": [
        {"benchmark": "BV-14", "backend": "powermove", "seed": seed}
        for seed in range(3)
    ]
}

START_KEYS = {"ok", "event", "submission", "manifest_digest", "total_jobs"}
RECORD_KEYS = {"ok", "event", "job_id", "record"}
END_KEYS = {
    "ok",
    "event",
    "submission",
    "num_done",
    "num_failed",
    "remaining",
    "wall_time_s",
}


def write_tenants(tmp_path):
    doc = {
        "format": "repro-tenants",
        "version": 1,
        "fleet_token": "fleet-secret",
        "tenants": {
            "alice": {"token": "alice-secret"},
            "bob": {"token": "bob-secret"},
            "ops": {"token": "ops-secret", "admin": True},
        },
    }
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps(doc))
    return str(path)


class Front:
    """The server under test plus whatever stands behind it."""

    def __init__(self, server, backends=()):
        self.server = server
        self.backends = list(backends)
        self.address = server.address

    def close(self):
        for server in [self.server, *self.backends]:
            if not server.wait_stopped(timeout=0.0):
                server.stop(drain=False)


@pytest.fixture(params=["daemon", "coordinator"])
def front(request, tmp_path):
    tenants = write_tenants(tmp_path)
    daemon = ServiceServer(
        str(tmp_path / "queue"), "127.0.0.1:0", workers=1, tenants=tenants
    ).start()
    if request.param == "daemon":
        front = Front(daemon)
    else:
        coordinator = Coordinator(
            "127.0.0.1:0",
            daemons=(daemon.address,),
            poll_interval=0.1,
            steal_batch=0,
            tenants=tenants,
        ).start()
        front = Front(coordinator, backends=[daemon])
    ServiceClient(front.address).wait_ready()
    yield front
    front.close()


def raw_request(address, payload):
    """One request/response round trip, without the v2 client."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        stream = sock.makefile("rwb")
        try:
            write_message(stream, payload)
            return read_message(stream)
        finally:
            stream.close()


def authed(token, **payload):
    return {"v": PROTOCOL_VERSION, "auth": token, **payload}


class TestFrontDoor:
    def test_ping_answers_without_a_token(self, front):
        pong = raw_request(front.address, {"op": "ping"})
        assert pong["ok"] is True
        assert pong["auth_required"] is True
        assert pong["protocol"] == PROTOCOL_VERSION

    def test_auth_required_and_upgrade_required(self, front):
        with pytest.raises(AuthError) as rejected:
            ServiceClient(front.address).submit(ONE_JOB)
        assert rejected.value.code == "auth_required"
        for op in ("submit", "status", "results", "trace", "shutdown"):
            reply = raw_request(front.address, {"op": op})
            assert reply["ok"] is False
            assert reply["code"] == "upgrade_required"

    def test_unknown_op(self, front):
        reply = raw_request(
            front.address, authed("alice-secret", op="frobnicate")
        )
        assert reply["ok"] is False
        assert reply["code"] == "unknown_op"

    def test_non_admin_shutdown_is_forbidden(self, front):
        with pytest.raises(AuthError) as denied:
            ServiceClient(front.address, token="alice-secret").shutdown()
        assert denied.value.code == "forbidden"
        assert not front.server.wait_stopped(timeout=0.0)

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "status", "submission": ["x"]},
            {"op": "results", "submission": {"a": 1}},
            {"op": "results", "submission": 7, "follow": True},
            {"op": "trace", "job": ["x"]},
        ],
    )
    def test_non_string_ids_get_bad_request(self, front, payload):
        reply = raw_request(front.address, authed("alice-secret", **payload))
        assert reply["ok"] is False
        assert reply["code"] == "bad_request"
        # The connection handler survived and keeps serving.
        assert raw_request(front.address, {"op": "ping"})["ok"] is True

    def test_foreign_submissions_are_not_found(self, front):
        alice = ServiceClient(front.address, token="alice-secret")
        receipt = alice.submit(ONE_JOB)
        alice.results_document(receipt.submission)
        assert alice.trace(receipt.job_ids[0])["trace"]["spans"]

        bob = ServiceClient(front.address, token="bob-secret")
        with pytest.raises(ServiceError) as missing:
            bob.status(receipt.submission)
        assert missing.value.code == "not_found"
        with pytest.raises(ServiceError) as missing:
            list(bob.results(receipt.submission))
        assert missing.value.code == "not_found"
        with pytest.raises(ServiceError) as missing:
            bob.trace(receipt.job_ids[0])
        assert missing.value.code == "not_found"

    def test_result_event_key_sets(self, front):
        alice = ServiceClient(front.address, token="alice-secret")
        receipt = alice.submit(ONE_JOB)
        events = list(alice.raw_events(receipt.submission, follow=True))
        assert [event["event"] for event in events] == [
            "start",
            "record",
            "end",
        ]
        start, record, end = events
        assert set(start) == START_KEYS
        assert set(record) == RECORD_KEYS
        assert set(end) == END_KEYS
        assert start["submission"] == end["submission"]
        assert start["total_jobs"] == 1
        assert record["job_id"] == receipt.job_ids[0]
        assert (end["num_done"], end["num_failed"], end["remaining"]) == (
            1,
            0,
            0,
        )

    def test_followed_stream_ends_with_remaining_on_shutdown(
        self, front, monkeypatch
    ):
        real = execute_job_on_circuit

        def slow(job, circuit):
            time.sleep(1.0)
            return real(job, circuit)

        monkeypatch.setattr(engine_module, "execute_job_on_circuit", slow)
        alice = ServiceClient(front.address, token="alice-secret")
        receipt = alice.submit(THREE_JOBS)
        events = []
        started = threading.Event()

        def follow():
            try:
                for event in alice.raw_events(
                    receipt.submission, follow=True
                ):
                    events.append(event)
                    started.set()
            except ServiceError as exc:
                events.append(exc)

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()
        assert started.wait(timeout=10.0)
        ServiceClient(front.address, token="ops-secret").shutdown(
            drain=False
        )
        follower.join(timeout=30.0)
        assert not follower.is_alive()
        assert front.server.wait_stopped(timeout=30.0)
        end = events[-1]
        assert isinstance(end, dict) and end["event"] == "end", events
        assert set(end) == END_KEYS
        assert end["remaining"] > 0
        assert end["num_done"] + end["remaining"] == 3
        records = [e for e in events[1:-1] if e["event"] == "record"]
        assert len(records) == end["num_done"]


class TestDaemonStatus:
    def test_whole_queue_status_skips_a_collected_submission(
        self, tmp_path
    ):
        # gc_completed (completed_ttl) may collect a submission between
        # the status op's id scan and its per-submission read.
        server = ServiceServer(
            str(tmp_path / "queue"), "127.0.0.1:0", workers=1
        ).start()
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            done = client.submit(ONE_JOB)
            client.results_document(done.submission)
            queue = server.queue
            scan = queue.submission_ids

            def scan_then_collect():
                ids = scan()
                queue.gc_completed(0.0, now=time.time() + 1.0)
                return ids

            queue.submission_ids = scan_then_collect
            report = client.status()
            assert report.submissions == []
            assert queue.submission(done.submission) is None
            assert client.ping()["ok"] is True
        finally:
            server.stop(drain=False)
