"""Tenant admission at the fleet coordinator: the two quota paths.

The coordinator is the only place that sees a tenant's work on every
daemon, so it runs admission against the fleet-wide outstanding count
and its daemons skip admission for fleet legs.  The rate-limit path is
covered in test_fleet.py; this module covers ``max_jobs_per_submission``
and a ``max_queued_jobs`` cap that only the summed fleet count crosses,
and checks that the merged fleet metrics count each rejection once.
"""

import json
import time

import pytest

import repro.engine.engine as engine_module
from repro.engine.jobs import execute_job_on_circuit
from repro.service import (
    Coordinator,
    QuotaExceeded,
    ServiceClient,
    ServiceServer,
)


def bv14_jobs(*seeds):
    return {
        "jobs": [
            {"benchmark": "BV-14", "backend": "powermove", "seed": seed}
            for seed in seeds
        ]
    }


def write_tenants(tmp_path):
    doc = {
        "format": "repro-tenants",
        "version": 1,
        "fleet_token": "fleet-secret",
        "tenants": {
            "alice": {
                "token": "alice-secret",
                "max_jobs_per_submission": 2,
                "max_queued_jobs": 3,
            },
        },
    }
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps(doc))
    return str(path)


def throttle_counts(client):
    """``repro_tenant_throttles_total`` samples of the merged fleet view."""
    return {
        (sample["labels"]["tenant"], sample["labels"]["reason"]): sample[
            "value"
        ]
        for family in client.metrics()["metrics"]["families"]
        if family["name"] == "repro_tenant_throttles_total"
        for sample in family["samples"]
    }


def test_quota_paths_are_enforced_fleet_wide(tmp_path, monkeypatch):
    real = execute_job_on_circuit

    def slow(job, circuit):
        time.sleep(1.5)
        return real(job, circuit)

    monkeypatch.setattr(engine_module, "execute_job_on_circuit", slow)
    tenants = write_tenants(tmp_path)
    daemons = [
        ServiceServer(
            str(tmp_path / name), "127.0.0.1:0", workers=1, tenants=tenants
        ).start()
        for name in ("a", "b")
    ]
    # spill_depth=1: a daemon already holding one job spills the next
    # one, so a two-job submission lands one job on each daemon.
    coordinator = Coordinator(
        "127.0.0.1:0",
        daemons=[daemon.address for daemon in daemons],
        spill_depth=1,
        poll_interval=0.1,
        steal_batch=0,
        tenants=tenants,
    ).start()
    try:
        alice = ServiceClient(coordinator.address, token="alice-secret")
        alice.wait_ready()
        with pytest.raises(QuotaExceeded) as oversized:
            alice.submit(bv14_jobs(0, 1, 2))
        assert oversized.value.code == "quota_exceeded"

        first = alice.submit(bv14_jobs(0, 1))
        placements = {
            daemon["address"]: daemon["placements"]
            for daemon in alice.ping()["daemons"]
        }
        assert sorted(placements.values()) == [1, 1]
        # Each daemon alone holds one outstanding job, so a per-daemon
        # check (1 + 2 <= 3) would admit the next submission; the fleet
        # sum (2 + 2 > 3) must not.
        for daemon in daemons:
            counts = ServiceClient(
                daemon.address, token="fleet-secret"
            ).status().counts
            assert counts["queued"] + counts["running"] == 1
        with pytest.raises(QuotaExceeded) as queued:
            alice.submit(bv14_jobs(2, 3))
        assert queued.value.code == "quota_exceeded"
        assert "across the fleet" in str(queued.value)

        ops = ServiceClient(coordinator.address, token="fleet-secret")
        assert throttle_counts(ops) == {
            ("alice", "submission_quota"): 1,
            ("alice", "queued_quota"): 1,
        }
        doc = alice.results_document(first.submission)
        assert doc["num_failed"] == 0
    finally:
        for server in (coordinator, *daemons):
            server.stop(drain=False)
