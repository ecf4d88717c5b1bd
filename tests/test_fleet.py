"""The multi-daemon fleet: placement, affinity, stealing, loss.

Placement is tested as pure functions (rendezvous ranking, spill);
fleet behaviour runs real in-process daemons under one in-process
coordinator so failure injection (slow compiles, daemon kills) can
monkeypatch the engine and stop servers at will.
"""

import json
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
from repro.engine.cache import job_cache_key
from repro.engine.jobs import execute_job_on_circuit
from repro.service import (
    AuthError,
    Coordinator,
    RateLimited,
    ServiceClient,
    ServiceError,
    ServiceServer,
    plan_placement,
    rendezvous_rank,
)

#: Six cheap jobs (two benchmarks x three backends, enola knobs
#: dialled down) -- enough spread for placement to use both daemons.
FLEET_MANIFEST = {
    "defaults": {
        "enola": {"mis_restarts": 1, "sa_iterations_per_qubit": 0}
    },
    "jobs": [
        {
            "benchmark": "BV-14",
            "backends": ["enola", "powermove-nonstorage", "powermove"],
        },
        {
            "benchmark": "QSIM-rand-0.3-10",
            "backends": ["enola", "powermove-nonstorage", "powermove"],
        },
    ],
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


def start_daemon(tmp_path, name, **kwargs):
    kwargs.setdefault("workers", 2)
    server = ServiceServer(
        str(tmp_path / name), "127.0.0.1:0", **kwargs
    )
    return server.start()


def start_split_pair(tmp_path, cache_keys):
    """Two daemons whose rendezvous ranking splits ``cache_keys``.

    Daemons listen on random ports, and the ranking hashes the
    addresses, so a pair may rank every key to one daemon (about one
    pair in 32 for six keys).  Daemon b is restarted on a fresh port
    until the keys split.  Returns both daemons and ``{address: number
    of keys it wins}``.
    """
    daemon_a = start_daemon(tmp_path, "a")
    for attempt in range(20):
        daemon_b = start_daemon(tmp_path, f"b{attempt}")
        addresses = [daemon_a.address, daemon_b.address]
        wins = dict.fromkeys(addresses, 0)
        for key in cache_keys:
            wins[rendezvous_rank(addresses, key)[0]] += 1
        if all(wins.values()):
            return daemon_a, daemon_b, wins
        stop_all(daemon_b)
    stop_all(daemon_a)
    pytest.fail("no port pair split the keys in 20 tries")


def start_coordinator(daemon_addresses, **kwargs):
    kwargs.setdefault("poll_interval", 0.1)
    coordinator = Coordinator(
        "127.0.0.1:0", daemons=tuple(daemon_addresses), **kwargs
    )
    return coordinator.start()


def stop_all(*servers):
    for server in servers:
        try:
            server.stop(drain=False)
        except Exception:
            pass


class TestPlacement:
    KEYS = [f"cache-key-{i}" for i in range(40)]
    DAEMONS = ["127.0.0.1:7601", "127.0.0.1:7602", "127.0.0.1:7603"]

    def test_rank_is_deterministic_and_total(self):
        for key in self.KEYS:
            first = rendezvous_rank(self.DAEMONS, key)
            assert first == rendezvous_rank(self.DAEMONS, key)
            assert sorted(first) == sorted(self.DAEMONS)

    def test_removing_a_loser_keeps_the_winner(self):
        # The rendezvous property: a daemon leaving only remaps keys
        # *it* owned; every other key keeps its winner.
        removed = self.DAEMONS[-1]
        survivors = self.DAEMONS[:-1]
        for key in self.KEYS:
            winner = rendezvous_rank(self.DAEMONS, key)[0]
            if winner == removed:
                continue
            assert rendezvous_rank(survivors, key)[0] == winner

    def test_affinity_places_each_key_on_its_winner(self):
        depths = {address: 0 for address in self.DAEMONS}
        assignment = plan_placement(list(self.KEYS), depths, 100)
        for key, address in zip(self.KEYS, assignment):
            assert address == rendezvous_rank(self.DAEMONS, key)[0]
        assert sum(depths.values()) == len(self.KEYS)

    def test_deep_winner_spills_to_next_choice(self):
        key = self.KEYS[0]
        ranked = rendezvous_rank(self.DAEMONS, key)
        depths = {address: 0 for address in self.DAEMONS}
        depths[ranked[0]] = 5  # winner already at the spill bound
        [chosen] = plan_placement([key], depths, 5)
        assert chosen == ranked[1]

    def test_planned_jobs_count_toward_depth(self):
        # Forty copies of one key with spill_depth=4: the first four
        # land on the winner, then placement spills -- one submission
        # cannot pile onto a single daemon.
        key = self.KEYS[0]
        ranked = rendezvous_rank(self.DAEMONS, key)
        depths = {address: 0 for address in self.DAEMONS}
        assignment = plan_placement([key] * 40, depths, 4)
        assert assignment[:4] == [ranked[0]] * 4
        assert len(set(assignment)) == len(self.DAEMONS)
        # Past every spill bound the least-loaded daemon takes over,
        # so the final depths are balanced.
        assert max(depths.values()) - min(depths.values()) <= 1

    def test_no_daemons_is_an_error(self):
        with pytest.raises(ServiceError, match="at least one daemon"):
            plan_placement(["k"], {}, 4)


class TestFleet:
    def test_affinity_doc_equality_and_warm_resubmission(
        self, tmp_path
    ):
        daemon_a, daemon_b, expected = start_split_pair(
            tmp_path,
            [job_cache_key(job) for job in parse_manifest(FLEET_MANIFEST)],
        )
        # steal_batch=0: placement stays pure affinity, so the second
        # run's placements are exactly reproducible.
        coordinator = start_coordinator(
            [daemon_a.address, daemon_b.address], steal_batch=0
        )
        try:
            client = ServiceClient(coordinator.address)
            ping = client.wait_ready()
            assert ping["role"] == "coordinator"
            assert len(ping["daemons"]) == 2

            first = client.submit(FLEET_MANIFEST)
            assert first["total_jobs"] == 6
            doc = client.results_document(first["submission"])
            reference = batch_document(FLEET_MANIFEST)
            assert docs_equal_modulo_timing(doc, reference)

            placements = {
                entry["address"]: entry["placements"]
                for entry in client.ping()["daemons"]
            }
            assert sum(placements.values()) == 6
            assert all(count > 0 for count in placements.values())
            # Six jobs stay under the spill depth, so each lands on its
            # rendezvous winner.
            assert placements == expected

            # Identical resubmission: same cache keys, same rendezvous
            # winners -- every job returns to the daemon whose cache
            # is warm, and every record is a cache hit.
            second = client.submit(FLEET_MANIFEST)
            records = list(
                client.results(second["submission"], follow=True)
            )
            assert len(records) == 6
            assert all(r["cache_hit"] for r in records)
            doubled = {
                entry["address"]: entry["placements"]
                for entry in client.ping()["daemons"]
            }
            assert doubled == {
                address: 2 * count
                for address, count in placements.items()
            }
            doc2 = client.results_document(second["submission"])
            assert docs_equal_modulo_timing(doc2, reference)
        finally:
            stop_all(coordinator, daemon_a, daemon_b)

    def test_daemon_loss_redispatches_to_survivor(
        self, tmp_path, monkeypatch
    ):
        real = execute_job_on_circuit

        def slow(job, circuit):
            time.sleep(0.25)
            return real(job, circuit)

        monkeypatch.setattr(engine_module, "execute_job_on_circuit", slow)
        daemon_a = start_daemon(tmp_path, "a")
        daemon_b = start_daemon(tmp_path, "b")
        coordinator = start_coordinator(
            [daemon_a.address, daemon_b.address], steal_batch=0
        )
        try:
            client = ServiceClient(coordinator.address)
            client.wait_ready()
            submitted = client.submit(FLEET_MANIFEST)
            # Kill one daemon while its share of the work is still
            # compiling; the coordinator must notice, re-dispatch the
            # lost jobs to the survivor and deliver a complete doc.
            time.sleep(0.3)
            daemon_b.stop(drain=False)
            doc = client.results_document(submitted["submission"])
            assert doc["num_jobs"] == 6
            assert doc["num_failed"] == 0
            monkeypatch.setattr(
                engine_module, "execute_job_on_circuit", real
            )
            assert docs_equal_modulo_timing(
                doc, batch_document(FLEET_MANIFEST)
            )
            alive = {
                entry["address"]: entry["alive"]
                for entry in client.ping()["daemons"]
            }
            assert alive[daemon_a.address] is True
            assert alive[daemon_b.address] is False
        finally:
            stop_all(coordinator, daemon_a, daemon_b)

    def test_idle_daemon_steals_from_straggler(
        self, tmp_path, monkeypatch
    ):
        real = execute_job_on_circuit

        def slow(job, circuit):
            time.sleep(0.3)
            return real(job, circuit)

        monkeypatch.setattr(engine_module, "execute_job_on_circuit", slow)
        # One single-worker daemon gets all six jobs; a second daemon
        # joins at runtime and the monitor moves the queue's tail over.
        daemon_a = start_daemon(tmp_path, "a", workers=1)
        coordinator = start_coordinator(
            [daemon_a.address], steal_batch=2
        )
        daemon_b = None
        try:
            client = ServiceClient(coordinator.address)
            client.wait_ready()
            submitted = client.submit(FLEET_MANIFEST)

            daemon_b = start_daemon(tmp_path, "b", workers=2)
            reply = client.register(daemon_b.address)
            assert reply["daemons"] == 2

            doc = client.results_document(submitted["submission"])
            assert doc["num_jobs"] == 6
            assert doc["num_failed"] == 0
            steals = {
                entry["address"]: entry["steals"]
                for entry in client.ping()["daemons"]
            }
            assert steals[daemon_b.address] >= 2
        finally:
            stop_all(coordinator, daemon_a, *(
                [daemon_b] if daemon_b is not None else []
            ))

    def test_daemon_announces_itself_to_the_coordinator(
        self, tmp_path
    ):
        coordinator = start_coordinator([])
        daemon = None
        try:
            client = ServiceClient(coordinator.address)
            client.wait_ready()
            # No daemons yet: submissions are refused, not parked.
            with pytest.raises(ServiceError, match="dispatch failed"):
                client.submit(FLEET_MANIFEST)

            daemon = start_daemon(
                tmp_path, "a", announce=coordinator.address
            )
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if client.ping()["daemons"]:
                    break
                time.sleep(0.05)
            [entry] = client.ping()["daemons"]
            assert entry["address"] == daemon.address
            assert entry["alive"] is True

            submitted = client.submit(
                {"jobs": [{"benchmark": "BV-14", "backend": "powermove"}]}
            )
            doc = client.results_document(submitted["submission"])
            assert doc["num_failed"] == 0
        finally:
            stop_all(coordinator, *([daemon] if daemon else []))

    def test_fleet_shutdown_stops_every_daemon(self, tmp_path):
        daemon_a = start_daemon(tmp_path, "a")
        daemon_b = start_daemon(tmp_path, "b")
        coordinator = start_coordinator(
            [daemon_a.address, daemon_b.address]
        )
        try:
            client = ServiceClient(coordinator.address)
            client.wait_ready()
            client.shutdown(drain=True, fleet=True)
            assert coordinator.wait_stopped(timeout=30.0)
            assert daemon_a.wait_stopped(timeout=30.0)
            assert daemon_b.wait_stopped(timeout=30.0)
        finally:
            stop_all(coordinator, daemon_a, daemon_b)


class TestFleetObservability:
    def test_fleet_metrics_merge_and_trace_lookup(self, tmp_path):
        from repro.obs.trace import validate_trace_doc

        first = start_daemon(tmp_path, "d1")
        second = start_daemon(tmp_path, "d2")
        coordinator = start_coordinator(
            [first.address, second.address]
        )
        try:
            client = ServiceClient(coordinator.address)
            client.wait_ready()
            submitted = client.submit(FLEET_MANIFEST)
            doc = client.results_document(submitted["submission"])
            assert doc["num_failed"] == 0

            # Fleet metrics are the arithmetic total of the daemons
            # plus the coordinator's own placement counters.
            reply = client.metrics()
            assert reply["role"] == "coordinator"
            assert sorted(reply["daemons"]) == sorted(
                [first.address, second.address]
            )
            families = {
                family["name"]: family
                for family in reply["metrics"]["families"]
            }
            completed = sum(
                sample["value"]
                for sample in families["repro_jobs_completed_total"][
                    "samples"
                ]
            )
            assert completed == 6
            placements = sum(
                sample["value"]
                for sample in families["repro_placements_total"][
                    "samples"
                ]
            )
            assert placements == 6
            daemon_totals = sum(
                ServiceClient(address)
                .metrics()["metrics"]["families"][0]["samples"][0][
                    "value"
                ]
                is not None  # touch both daemons: they answer too
                for address in (first.address, second.address)
            )
            assert daemon_totals == 2

            # Per-job status detail + trace lookup through the fleet
            # front door, by coordinator job id.
            status = client.status(submitted["submission"])
            assert len(status["jobs"]) == 6
            for job in status["jobs"]:
                assert job["status"] == "ok"
                assert job["span_time_s"] > 0.0
            job_id = submitted["job_ids"][0]
            trace_reply = client.trace(job_id)
            validate_trace_doc(trace_reply["trace"])
            names = {
                span["name"]
                for span in trace_reply["trace"]["spans"]
            }
            assert "queue.wait" in names
            with pytest.raises(ServiceError, match="unknown"):
                client.trace("c999999-00000")
        finally:
            stop_all(coordinator, first, second)


class TestTenantedFleet:
    """The coordinator as the fleet's tenancy front door."""

    @staticmethod
    def write_tenants(tmp_path):
        doc = {
            "format": "repro-tenants",
            "version": 1,
            "fleet_token": "fleet-secret",
            "tenants": {
                "alice": {
                    "token": "alice-secret",
                    # Refill so slow the test never sees one: the
                    # burst alone decides which submit is throttled.
                    "rate": {"burst": 2, "per_second": 0.001},
                },
                "bob": {"token": "bob-secret"},
            },
        }
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_auth_isolation_and_metrics_across_the_fleet(
        self, tmp_path
    ):
        tenants = self.write_tenants(tmp_path)
        daemon_a = start_daemon(tmp_path, "a", tenants=tenants)
        daemon_b = start_daemon(tmp_path, "b", tenants=tenants)
        coordinator = start_coordinator(
            [daemon_a.address, daemon_b.address],
            steal_batch=0,
            tenants=tenants,
        )
        try:
            anon = ServiceClient(coordinator.address)
            ping = anon.wait_ready()
            assert ping["auth_required"] is True
            with pytest.raises(AuthError) as rejected:
                anon.submit(FLEET_MANIFEST)
            assert rejected.value.code == "auth_required"

            # alice's work flows through the whole fleet: the legs
            # carry the fleet token plus her tenant attribution, and
            # the merged document equals the batch reference.
            alice = ServiceClient(
                coordinator.address, token="alice-secret"
            )
            receipt = alice.submit(FLEET_MANIFEST)
            assert receipt.submission.startswith("alice-c")
            doc = alice.results_document(receipt.submission)
            assert docs_equal_modulo_timing(
                doc, batch_document(FLEET_MANIFEST)
            )

            # Cross-tenant isolation holds at the coordinator...
            bob = ServiceClient(coordinator.address, token="bob-secret")
            with pytest.raises(ServiceError) as missing:
                bob.status(receipt.submission)
            assert missing.value.code == "not_found"
            with pytest.raises(ServiceError):
                bob.trace(receipt.job_ids[0])
            assert bob.status().submissions == []
            # ...and at the daemons alice's legs landed on.
            for address in (daemon_a.address, daemon_b.address):
                direct = ServiceClient(address, token="bob-secret")
                assert direct.status().counts["done"] == 0

            # Rate limit enforced once, globally, at the front door
            # (burst 2: the first submit spent one token).
            second = alice.submit(FLEET_MANIFEST)
            with pytest.raises(RateLimited) as throttled:
                alice.submit(FLEET_MANIFEST)
            assert throttled.value.retry_after_s > 0.0
            alice.results_document(second.submission)

            # Fleet-summed per-tenant metrics: exactly one client
            # submission counted (daemon legs must not double-count),
            # six placements, one rate-limit throttle.
            ops = ServiceClient(
                coordinator.address, token="fleet-secret"
            )
            families = {
                family["name"]: family
                for family in ops.metrics()["metrics"]["families"]
            }

            def series(name):
                return {
                    tuple(sorted(s["labels"].items())): s["value"]
                    for s in families[name]["samples"]
                }

            submissions = series("repro_tenant_submissions_total")
            assert submissions[(("tenant", "alice"),)] == 2
            placements = series("repro_tenant_placements_total")
            assert placements[(("tenant", "alice"),)] == 12
            throttles = series("repro_tenant_throttles_total")
            assert throttles[
                (("reason", "rate_limit"), ("tenant", "alice"))
            ] == 1
            completed = series("repro_tenant_jobs_completed_total")
            assert completed[
                (("status", "ok"), ("tenant", "alice"))
            ] == 12
        finally:
            stop_all(coordinator, daemon_a, daemon_b)
