"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They cover the percentile rule, due-time accounting of the open-loop
submitter against a stalling fake daemon, and a tiny smoke run of every
workload that must print every metric ``BENCHMARK.json`` names.  The
file is not named ``test_*.py``, so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import batch  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
from measure import percentile  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


# -- percentile rule ---------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([4, 1, 3, 2], 50) == 2
    assert percentile(list(range(10)), 90) == 8


def test_percentile_returns_a_sample_and_handles_small_inputs():
    assert percentile([7.5], 99) == 7.5
    assert percentile([3.0, 1.0], 99) == 3.0
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# -- due-time accounting -----------------------------------------------


class StallingDaemon(threading.Thread):
    """Answers submit/results like a daemon; stalls one submit reply."""

    def __init__(self, stall_on: int, stall_s: float) -> None:
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self.listener.getsockname()[1]
        self.stall_on = stall_on
        self.stall_s = stall_s

    def run(self) -> None:
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rwb") as stream:
            submitted = 0
            for line in stream:
                msg = json.loads(line)
                if msg["op"] == "submit":
                    if submitted == self.stall_on:
                        time.sleep(self.stall_s)
                    submitted += 1
                    replies = [{"ok": True, "submission": f"s{submitted}",
                                "manifest_digest": "d", "total_jobs": 1}]
                else:
                    replies = [
                        {"ok": True, "event": "start"},
                        {"ok": True, "event": "record",
                         "record": {"status": "ok"}},
                        {"ok": True, "event": "end"},
                    ]
                for reply in replies:
                    stream.write((json.dumps(reply) + "\n").encode())
                stream.flush()
        self.listener.close()


def test_a_stall_raises_the_latency_of_later_requests():
    fake = StallingDaemon(stall_on=1, stall_s=0.4)
    fake.start()
    submitter = service.Submitter(fake.address, connections=1)
    try:
        manifests = [{"jobs": [{}]} for _ in range(6)]
        requests = service.open_loop(
            submitter, manifests, rate=20.0, start=time.monotonic() + 0.05
        )
    finally:
        submitter.close()
    fake.join(timeout=10)
    assert not fake.is_alive()
    latency = [r.latency for r in requests]
    assert latency[0] < 0.1
    assert latency[1] >= 0.4
    # Request 2 was due 50 ms after request 1 but could only be sent
    # when the stall ended: it pays the wait although the daemon served
    # it quickly once sent.
    assert latency[2] >= 0.3
    assert requests[2].last_record - requests[2].sent < 0.1
    # The generator itself was never late: it sent as soon as the
    # connection came free.
    assert max(r.lag for r in requests) < 0.05


# -- BENCHMARK.json and smoke runs -------------------------------------


def test_benchmark_json_names_the_printed_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        PER_LAYER
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few small jobs."""
    monkeypatch.setattr(corpus, "TABLE2_ROWS", ("BV-14", "QFT-18"))
    monkeypatch.setattr(corpus, "TABLE2_SEEDS_PER_ROW", 1)
    monkeypatch.setattr(
        corpus, "LADDER", ((64, ("powermove", "enola-windowed")),)
    )
    monkeypatch.setattr(corpus, "SERVICE_ROWS", ("BV-14",))
    monkeypatch.setattr(corpus, "SERVICE_SEED_POOL", 2)
    monkeypatch.setattr(service, "ROUNDS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "2",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in section
    ]
    assert set(report["machine"]) == {"nproc", "python", "numpy", "commit"}
    if workload in batch.BATCHES and not trace:
        # A fixed count, however fast the batches ran.
        assert report["batches"] == batch.BATCHES[workload]


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "compile-cold"]) != 0
    assert capsys.readouterr().out == ""
