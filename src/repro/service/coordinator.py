"""Fleet coordinator: one front door over N compilation daemons.

``repro coordinate`` runs a :class:`Coordinator` -- an asyncio NDJSON
front end speaking the *same* wire protocol as ``repro serve``
(``submit`` / ``status`` / ``results`` / ``ping`` / ``metrics`` /
``trace`` / ``shutdown``), so every existing client --
``repro submit``, ``repro results --follow``, :class:`ServiceClient`,
the load generator -- talks to a fleet exactly as it talks to one
daemon.  Daemons are listed statically (``--daemon``) or register
themselves (``repro serve --announce``, the ``register`` op).

The protocol itself -- auth, id checks, ``shutdown``, the ``submit``
preamble and the ``results`` stream -- is the front door shared with
the daemon (:class:`~repro.service.aio.AsyncServerCore`); the
coordinator supplies its op table (``metrics``/``submit`` off the
loop), a results view over its in-memory fleet submissions, and
placement, legs and stealing.  It is also the
:class:`~repro.service.aio.ChangeFeed` its result streams and drain
wait on: every record arrival or fleet change notifies it.

**Cache-affinity placement.**  Every expanded job routes to a daemon
by rendezvous (highest-random-weight) hashing of its content-addressed
cache key: the daemon with the highest ``sha256(daemon|key)`` score
wins (:func:`rendezvous_rank`).  Resubmissions of identical work
therefore land on the daemon whose program cache / tiered store is
already warm, and adding or removing a daemon only remaps the keys
that daemon owned -- no global reshuffle.  Placement is load-aware:
when the winner's queue depth is at or past ``spill_depth``, the job
spills to the next-ranked daemon (:func:`plan_placement`).

**Work stealing.**  A monitor thread polls the fleet; when a daemon
sits idle while another still has queued work, the tail of the
straggler's outstanding jobs is duplicate-dispatched to the idle
daemon.  Jobs are deterministic and the coordinator keeps the *first*
completion per job, so duplicate dispatch is safe and costs at most
one redundant compile per stolen job; the straggler's own copy is
deduplicated by the daemons' cache-key work dedup whenever both land
on the same queue.

**Daemon loss.**  Each dispatched leg is followed by a collector
thread streaming its records back.  When a leg's stream dies and the
daemon stops answering pings, every job it still owed is re-dispatched
to the survivors (records it delivered before dying are kept); if no
survivor exists yet, the jobs park until a daemon registers.  The
coordinator itself is a stateless front door over the daemons'
persistent queues: restarting it forgets coordinator submission ids
but loses no daemon-side work.

**Tenancy.**  Started with ``--tenants FILE`` the coordinator is the
fleet's policy front door: it authenticates every request
(:func:`~repro.service.tenancy.authorize_request`), runs tenant
admission (:func:`~repro.service.tenancy.admit_submit`: rate limit,
per-submission size quota, outstanding-jobs quota) *globally* against
the fleet-wide outstanding count (the per-daemon slices of a tenant's
work cannot see each other, so daemons skip admission for fleet-token
legs), and namespaces fleet submission ids per tenant.
Outbound legs carry the shared fleet token plus a ``tenant`` field,
so daemon-side records, queues and metrics keep per-tenant
attribution end to end.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Iterable

from ..engine.cache import job_cache_key
from ..engine.jobs import CompileJob, job_to_doc
from ..engine.manifest import manifest_digest
from ..obs.metrics import MetricsRegistry, render_prometheus_doc
from .aio import AsyncServerCore, ChangeFeed, ResultsView
from .client import ServiceClient, ServiceError
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    error_reply,
    parse_address,
)
from .tenancy import OPEN_CONTEXT, AuthContext, TenantRegistry, admit_submit

#: Queue depth (queued + running) at which affinity placement spills
#: to the next rendezvous choice.
DEFAULT_SPILL_DEPTH = 16

#: Fleet poll cadence of the monitor thread (liveness + steal scan).
DEFAULT_POLL_INTERVAL_S = 0.5

#: Jobs moved per steal; small so a recovering straggler is not
#: stripped bare in one tick.
DEFAULT_STEAL_BATCH = 2


def rendezvous_rank(
    daemons: Iterable[str], cache_key: str
) -> list[str]:
    """Daemon addresses ranked by highest-random-weight score.

    Stable: a daemon leaving only re-ranks the keys it owned; every
    other key keeps its winner.
    """

    def score(address: str) -> bytes:
        return hashlib.sha256(
            f"{address}|{cache_key}".encode("utf-8")
        ).digest()

    return sorted(daemons, key=score, reverse=True)


def plan_placement(
    cache_keys: list[str],
    depths: dict[str, int],
    spill_depth: int,
    stats: dict[str, int] | None = None,
) -> list[str]:
    """Assign each cache key a daemon: affinity first, spill on load.

    Args:
        cache_keys: Job cache keys, in manifest order.
        depths: Mutable ``{address: queued+running}`` map; planned
            assignments are counted into it as they are made, so one
            submission cannot pile onto a single daemon.
        spill_depth: A daemon at or past this depth spills to the next
            rendezvous choice; when every choice is past it, the
            least-loaded ranked daemon takes the job.
        stats: Optional tally dict; every placement that landed off its
            first rendezvous choice adds one to ``stats["spills"]``.

    Returns one address per key.
    """
    daemons = sorted(depths)
    if not daemons:
        raise ServiceError("placement needs at least one daemon")
    assignment = []
    for key in cache_keys:
        ranked = rendezvous_rank(daemons, key)
        chosen = next(
            (
                address
                for address in ranked
                if depths[address] < spill_depth
            ),
            None,
        )
        if chosen is None:
            chosen = min(ranked, key=lambda address: depths[address])
        if stats is not None and chosen != ranked[0]:
            stats["spills"] = stats.get("spills", 0) + 1
        depths[chosen] += 1
        assignment.append(chosen)
    return assignment


def _trace_queue_wait(trace_doc: dict[str, Any]) -> float | None:
    """The ``queue.wait`` span's duration from a trace document."""
    for span in trace_doc.get("spans", ()):
        if span.get("name") == "queue.wait":
            return span["end_s"] - span["start_s"]
    return None


class _Daemon:
    """Coordinator-side view of one registered daemon."""

    __slots__ = (
        "address",
        "alive",
        "counts",
        "placements",
        "steals",
        "last_error",
    )

    def __init__(self, address: str) -> None:
        self.address = address
        self.alive = True
        self.counts: dict[str, int] = {}
        self.placements = 0  # jobs placed here by affinity/spill
        self.steals = 0  # jobs stolen *onto* this daemon
        self.last_error: str | None = None


class _Leg:
    """One sub-submission dispatched to one daemon.

    ``global_indices[i]`` is the coordinator-side index of the leg's
    ``i``-th job -- the mapping that rewrites daemon-local record
    indices back into the client's manifest order.
    """

    __slots__ = ("daemon", "sub_id", "global_indices", "stolen")

    def __init__(
        self,
        daemon: str,
        sub_id: str,
        global_indices: list[int],
        stolen: bool = False,
    ) -> None:
        self.daemon = daemon
        self.sub_id = sub_id
        self.global_indices = list(global_indices)
        self.stolen = stolen


class _FleetSubmission:
    """Coordinator-side state of one client submission."""

    def __init__(
        self,
        sub_id: str,
        digest: str,
        job_docs: list[dict[str, Any]],
        cache_keys: list[str],
        priority: int,
        tenant: str | None = None,
    ) -> None:
        self.id = sub_id
        self.manifest_digest = digest
        self.jobs = job_docs
        self.cache_keys = cache_keys
        self.priority = priority
        self.tenant = tenant
        self.submitted_at = time.time()
        self.total_jobs = len(job_docs)
        #: global index -> first-wins record (index already rewritten).
        self.records: dict[int, dict[str, Any]] = {}
        #: Global indices in completion order (stream order).
        self.completion: list[int] = []
        self.legs: list[_Leg] = []
        #: Indices already duplicate-dispatched by the stealer.
        self.stolen: set[int] = set()
        #: Indices whose re-dispatch is parked until a daemon lives.
        self.pending: set[int] = set()

    def done(self) -> bool:
        return len(self.records) >= self.total_jobs


class Coordinator(AsyncServerCore, ChangeFeed):
    """The fleet front door (see module docstring).

    Args:
        address: Listen spec (``host:port`` or Unix socket path).
        daemons: Static daemon addresses; more can join at runtime via
            the ``register`` op / ``repro serve --announce``.
        spill_depth: Queue depth at which affinity placement spills.
        poll_interval: Monitor cadence (liveness + steal scan).
        steal_batch: Jobs moved per steal (``0`` disables stealing).
        max_line_bytes: Protocol line bound.
        tenants: Tenants file path or a
            :class:`~repro.service.tenancy.TenantRegistry`; enables
            token auth and global per-tenant quota / rate-limit
            enforcement at the fleet front door.  ``None`` keeps the
            open v1-compatible behaviour.
    """

    role = "coordinator"

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        *,
        daemons: Iterable[str] = (),
        spill_depth: int = DEFAULT_SPILL_DEPTH,
        poll_interval: float = DEFAULT_POLL_INTERVAL_S,
        steal_batch: int = DEFAULT_STEAL_BATCH,
        max_line_bytes: int = MAX_LINE_BYTES,
        tenants: TenantRegistry | str | None = None,
    ) -> None:
        super().__init__(
            address,
            max_line_bytes=max_line_bytes,
            name="repro-coordinator",
            tenants=tenants,
        )
        # Notified on every record arrival / fleet change.
        ChangeFeed.__init__(self)
        self.spill_depth = spill_depth
        self.poll_interval = poll_interval
        self.steal_batch = steal_batch
        self._daemons: dict[str, _Daemon] = {}
        for daemon_address in daemons:
            parse_address(daemon_address)  # validate eagerly
            self._daemons[daemon_address] = _Daemon(daemon_address)
        self._submissions: dict[str, _FleetSubmission] = {}
        # Coordinator-level registry: placement decisions only (the
        # per-daemon compile/queue/cache series come from the daemons'
        # own registries; the ``metrics`` op merges everything).
        self._m_placements = self.metrics.counter(
            "repro_placements_total",
            "Jobs placed on each daemon by affinity placement.",
            ("daemon",),
        )
        self._m_steals = self.metrics.counter(
            "repro_steals_total",
            "Jobs duplicate-dispatched onto an idle daemon.",
            ("daemon",),
        )
        self._m_spills = self.metrics.counter(
            "repro_placement_spills_total",
            "Placements that landed off their first rendezvous choice.",
        )
        self._m_redispatches = self.metrics.counter(
            "repro_redispatches_total",
            "Jobs re-placed after a daemon loss.",
        )
        self._m_tenant_placements = self.metrics.counter(
            "repro_tenant_placements_total",
            "Jobs placed on daemons, per owning tenant.",
            ("tenant",),
        )
        self._seq = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Coordinator":
        """Bind the front door and spawn the fleet monitor."""
        self.start_listener()
        self._threads.append(self._spawn("monitor", self._monitor_loop))
        return self

    def stop(
        self,
        drain: bool = True,
        timeout: float | None = None,
        fleet: bool = False,
    ) -> None:
        """Shut the coordinator down.

        Args:
            drain: Wait until every known submission has all its
                records before stopping.
            timeout: Bound on the drain wait.
            fleet: Also shut down (draining per ``drain``) every live
                daemon -- the whole-fleet teardown behind
                ``repro shutdown --fleet``.
        """
        self._draining.set()
        if drain:
            self.wait(
                lambda: all(
                    submission.done()
                    for submission in self._submissions.values()
                ),
                timeout=timeout,
            )
        self._stopping.set()
        self.poke()
        if fleet:
            for daemon in self._alive_daemons():
                try:
                    self._client(daemon.address).shutdown(drain=drain)
                except ServiceError as exc:
                    self._log(
                        f"fleet shutdown of {daemon.address} failed: "
                        f"{exc}"
                    )
        self.stop_listener()
        self._join_threads()
        self._stopped.set()

    # -- fleet bookkeeping ---------------------------------------------

    def _client(self, address: str) -> ServiceClient:
        return ServiceClient(
            address,
            timeout=10.0,
            connect_retry_s=1.0,
            token=self._fleet_token,
        )

    def _alive_daemons(self) -> list[_Daemon]:
        with self._lock:
            return [
                daemon
                for daemon in self._daemons.values()
                if daemon.alive
            ]

    def _mark_dead(self, address: str, exc: Exception) -> None:
        with self.changed:
            daemon = self._daemons.get(address)
            if daemon is None or not daemon.alive:
                return
            daemon.alive = False
            daemon.last_error = str(exc)
            self._notify_all()
        self._log(f"daemon {address} is down: {exc}")

    # -- submission + placement ----------------------------------------

    def _admit(
        self, ctx: AuthContext, num_jobs: int
    ) -> dict[str, Any] | None:
        def outstanding() -> int:
            # Jobs the tenant submitted that still lack a record.
            with self._lock:
                return sum(
                    entry.total_jobs - len(entry.records)
                    for entry in self._submissions.values()
                    if entry.tenant == ctx.name
                )

        return admit_submit(
            self.tenants,
            ctx,
            num_jobs,
            outstanding,
            self._m_tenant_throttles,
            scope=" across the fleet",
        )

    def _enqueue(
        self,
        manifest_doc: Any,
        jobs: list[CompileJob],
        priority: int,
        ctx: AuthContext,
    ) -> dict[str, Any]:
        cache_keys = [job_cache_key(job) for job in jobs]
        job_docs = [job_to_doc(job) for job in jobs]
        digest = manifest_digest(manifest_doc)
        tenant_name = ctx.name
        with self.changed:
            self._seq += 1
            sub_id = (
                f"{tenant_name}-c{self._seq:06d}"
                if tenant_name
                else f"c{self._seq:06d}"
            )
            submission = _FleetSubmission(
                sub_id,
                digest,
                job_docs,
                cache_keys,
                priority,
                tenant=tenant_name,
            )
            self._submissions[sub_id] = submission
        try:
            self._dispatch_jobs(
                submission, list(range(submission.total_jobs))
            )
        except ServiceError as exc:
            # Nothing accepted the work: refuse honestly rather than
            # park a submission no daemon has ever seen.
            with self.changed:
                del self._submissions[sub_id]
                self._notify_all()
            return error_reply(
                "unavailable", f"fleet dispatch failed: {exc}"
            )
        if tenant_name is not None:
            self._m_tenant_submissions.inc(tenant=tenant_name)
        return {
            "ok": True,
            "op": "submit",
            "submission": sub_id,
            "tenant": tenant_name,
            "manifest_digest": digest,
            "total_jobs": submission.total_jobs,
            "job_ids": [
                f"{sub_id}-{index:05d}"
                for index in range(submission.total_jobs)
            ],
        }

    def _dispatch_jobs(
        self,
        submission: _FleetSubmission,
        indices: list[int],
        *,
        stolen: bool = False,
    ) -> None:
        """Place ``indices`` on live daemons and start collectors.

        Raises :class:`ServiceError` when no live daemon accepted any
        of the work.
        """
        depths: dict[str, int] = {}
        for daemon in self._alive_daemons():
            try:
                ping = self._client(daemon.address).ping()
            except ServiceError as exc:
                self._mark_dead(daemon.address, exc)
                continue
            counts = ping.get("counts", {})
            with self._lock:
                daemon.counts = counts
            depths[daemon.address] = counts.get(
                "queued", 0
            ) + counts.get("running", 0)
        if not depths:
            raise ServiceError(
                "no live daemon is registered with the coordinator"
            )
        cache_keys = [submission.cache_keys[i] for i in indices]
        placement_stats: dict[str, int] = {}
        assignment = plan_placement(
            cache_keys, depths, self.spill_depth, stats=placement_stats
        )
        if placement_stats.get("spills"):
            self._m_spills.inc(placement_stats["spills"])
        groups: dict[str, list[int]] = {}
        for index, address in zip(indices, assignment):
            groups.setdefault(address, []).append(index)
        failed: list[int] = []
        dispatched = 0
        for address, group in groups.items():
            if self._dispatch_leg(submission, address, group, stolen):
                dispatched += len(group)
            else:
                failed.extend(group)
        if failed:
            if dispatched == 0 and not self._alive_daemons():
                raise ServiceError(
                    "every registered daemon died during dispatch"
                )
            # Daemons died between the depth probe and the submit:
            # replan the leftovers over the survivors.
            self._dispatch_jobs(submission, failed, stolen=stolen)

    def _dispatch_leg(
        self,
        submission: _FleetSubmission,
        address: str,
        indices: list[int],
        stolen: bool,
    ) -> bool:
        """Submit one sub-manifest to one daemon; False if it died."""
        manifest = {"jobs": [submission.jobs[i] for i in indices]}
        try:
            reply = self._client(address).submit(
                manifest,
                priority=submission.priority,
                tenant=submission.tenant,
            )
        except ServiceError as exc:
            self._mark_dead(address, exc)
            return False
        leg = _Leg(address, reply["submission"], indices, stolen)
        with self.changed:
            submission.legs.append(leg)
            daemon = self._daemons.get(address)
            if daemon is not None:
                if stolen:
                    daemon.steals += len(indices)
                else:
                    daemon.placements += len(indices)
            self._notify_all()
        if stolen:
            self._m_steals.inc(len(indices), daemon=address)
        else:
            self._m_placements.inc(len(indices), daemon=address)
        if submission.tenant is not None:
            self._m_tenant_placements.inc(
                len(indices), tenant=submission.tenant
            )
        self._spawn(
            f"collect-{submission.id}-{address}",
            self._collect,
            submission,
            leg,
        )
        return True

    def _redispatch(
        self, submission: _FleetSubmission, indices: list[int]
    ) -> None:
        """Re-place lost jobs; park them if no daemon is alive."""
        still_missing = [
            index
            for index in indices
            if index not in submission.records
        ]
        if not still_missing:
            return
        self._m_redispatches.inc(len(still_missing))
        try:
            self._dispatch_jobs(submission, still_missing)
        except ServiceError as exc:
            self._log(
                f"{submission.id}: re-dispatch of "
                f"{len(still_missing)} job(s) stalled ({exc}); "
                "waiting for a daemon to register"
            )
            with self.changed:
                submission.pending.update(still_missing)
                self._notify_all()

    # -- collectors ----------------------------------------------------

    def _collect(
        self, submission: _FleetSubmission, leg: _Leg
    ) -> None:
        """Stream one leg's records back; survive the daemon dying.

        Runs until the leg has delivered everything it owes (directly
        or via records that arrived from a duplicate dispatch), the
        daemon is declared dead and the leftovers re-dispatched, or
        the coordinator stops.
        """
        client = self._client(leg.daemon)
        while not self._stopping.is_set():
            try:
                summary: dict[str, Any] | None = None
                for event in client.raw_events(leg.sub_id, follow=True):
                    if event["event"] == "record":
                        self._store_record(
                            submission, leg, event["record"]
                        )
                    elif event["event"] == "end":
                        summary = event
                if summary is not None and not summary.get("remaining"):
                    return  # leg fully delivered
            except ServiceError:
                pass  # stream died mid-flight; probe the daemon below
            with self._lock:
                missing = [
                    index
                    for index in leg.global_indices
                    if index not in submission.records
                ]
            if not missing:
                return  # duplicates elsewhere covered the leftovers
            try:
                client.ping()
            except ServiceError as exc:
                self._mark_dead(leg.daemon, exc)
                self._log(
                    f"{submission.id}: re-dispatching {len(missing)} "
                    f"job(s) from lost daemon {leg.daemon}"
                )
                self._redispatch(submission, missing)
                return
            # Daemon alive but the stream ended early (drain-stop with
            # work left, restart): its queue is persistent and the
            # daemon-local submission id survives, so just re-follow.
            if self._stopping.wait(timeout=0.2):
                return

    def _store_record(
        self,
        submission: _FleetSubmission,
        leg: _Leg,
        record: dict[str, Any],
    ) -> None:
        local_index = record.get("index")
        if (
            not isinstance(local_index, int)
            or not 0 <= local_index < len(leg.global_indices)
        ):
            self._log(
                f"{leg.daemon}: record with unknown index "
                f"{local_index!r} ignored"
            )
            return
        global_index = leg.global_indices[local_index]
        rewritten = dict(record, index=global_index)
        with self.changed:
            if global_index in submission.records:
                return  # first completion wins (duplicate dispatch)
            submission.records[global_index] = rewritten
            submission.completion.append(global_index)
            submission.pending.discard(global_index)
            self._notify_all()

    # -- monitor: liveness, parked re-dispatch, stealing ---------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(timeout=self.poll_interval):
            self._refresh_daemons()
            self._retry_pending()
            if self.steal_batch > 0:
                self._steal_round()
            self._reload_tenants()

    def _refresh_daemons(self) -> None:
        for daemon in list(self._daemons.values()):
            try:
                ping = ServiceClient(
                    daemon.address, timeout=5.0, connect_retry_s=0.0
                ).ping()
            except ServiceError as exc:
                self._mark_dead(daemon.address, exc)
                continue
            with self.changed:
                revived = not daemon.alive
                daemon.alive = True
                daemon.counts = ping.get("counts", {})
                daemon.last_error = None
                if revived:
                    self._notify_all()
            if revived:
                self._log(f"daemon {daemon.address} is back")

    def _retry_pending(self) -> None:
        if not self._alive_daemons():
            return
        with self._lock:
            parked = [
                (submission, sorted(submission.pending))
                for submission in self._submissions.values()
                if submission.pending
            ]
            for submission, _ in parked:
                submission.pending.clear()
        for submission, indices in parked:
            self._redispatch(submission, indices)

    def _steal_round(self) -> None:
        """Duplicate-dispatch a straggler's tail onto an idle daemon."""
        with self._lock:
            idle = [
                daemon.address
                for daemon in self._daemons.values()
                if daemon.alive
                and daemon.counts.get("queued", 0)
                + daemon.counts.get("running", 0)
                == 0
            ]
        if not idle:
            return
        for thief in idle:
            plan = self._plan_steal(thief)
            if plan is None:
                return
            submission, victim, indices = plan
            self._log(
                f"{submission.id}: stealing {len(indices)} job(s) "
                f"{victim} -> {thief}"
            )
            if not self._dispatch_leg(
                submission, thief, indices, stolen=True
            ):
                with self.changed:
                    submission.stolen.difference_update(indices)

    def _plan_steal(
        self, thief: str
    ) -> tuple[_FleetSubmission, str, list[int]] | None:
        """Pick the jobs to move onto ``thief`` (marks them stolen)."""
        with self.changed:
            for submission in self._submissions.values():
                for leg in submission.legs:
                    if leg.daemon == thief:
                        continue
                    victim = self._daemons.get(leg.daemon)
                    if victim is None or not victim.alive:
                        continue
                    if victim.counts.get("queued", 0) <= 0:
                        continue  # nothing waiting: not a straggler
                    outstanding = [
                        index
                        for index in leg.global_indices
                        if index not in submission.records
                        and index not in submission.stolen
                    ]
                    # Leave the head alone -- it is (about to be)
                    # running on the victim; steal from the tail,
                    # which a FIFO queue would reach last.
                    if len(outstanding) <= 1:
                        continue
                    take = outstanding[-self.steal_batch:]
                    submission.stolen.update(take)
                    return (submission, leg.daemon, take)
        return None

    # -- protocol dispatch ---------------------------------------------

    def op_table(self):
        return {
            "ping": (self._ping, False),
            # Polls every live daemon: keep it off the event loop.
            "metrics": (self._metrics, True),
            # Manifest expansion, cache-key hashing and the daemon
            # round-trips all block: keep them off the event loop.
            "submit": (self._submit, True),
            "status": (self._status, False),
            "trace": (self._trace, False),
            "register": (self._register, False),
        }

    def shutdown_options(self, request: dict[str, Any]) -> dict[str, Any]:
        return {
            "drain": bool(request.get("drain", True)),
            "fleet": bool(request.get("fleet", False)),
        }

    def _register(
        self, request: dict[str, Any], ctx: AuthContext
    ) -> dict[str, Any]:
        if not ctx.admin:
            # Fleet members register with the fleet token; a plain
            # tenant must not be able to splice a daemon into the
            # fleet and receive other tenants' jobs.
            return error_reply(
                "forbidden",
                "register requires the fleet token or the admin "
                "capability",
            )
        address = request.get("address")
        if not isinstance(address, str) or not address.strip():
            return error_reply(
                "bad_request", "register needs an 'address'"
            )
        try:
            parse_address(address)
        except ProtocolError as exc:
            return error_reply("bad_request", str(exc))
        with self.changed:
            daemon = self._daemons.get(address)
            if daemon is None:
                self._daemons[address] = daemon = _Daemon(address)
                known = len(self._daemons)
                self._notify_all()
            else:
                # Re-registration revives a daemon marked dead (e.g.
                # it was restarted on the same address).
                daemon.alive = True
                daemon.last_error = None
                known = len(self._daemons)
                self._notify_all()
        return {
            "ok": True,
            "op": "register",
            "address": address,
            "daemons": known,
        }

    def _metrics(self, *_: Any) -> dict[str, Any]:
        """The fleet-wide metrics document.

        The coordinator's own placement counters merged with every
        live daemon's ``metrics`` payload
        (:meth:`MetricsRegistry.from_docs` sums counters, gauges and
        histogram buckets element-wise), so the fleet view is the
        arithmetic total of the fleet.
        """
        docs = [self.metrics.to_doc()]
        polled: list[str] = []
        for daemon in self._alive_daemons():
            try:
                reply = self._client(daemon.address).metrics()
            except ServiceError as exc:
                self._mark_dead(daemon.address, exc)
                continue
            doc = reply.get("metrics")
            if doc:
                docs.append(doc)
                polled.append(daemon.address)
        merged = MetricsRegistry.from_docs(docs).to_doc()
        return {
            "ok": True,
            "op": "metrics",
            "role": self.role,
            "address": self.address,
            "daemons": polled,
            "metrics": merged,
            "text": render_prometheus_doc(merged),
        }

    def _trace(
        self, request: dict[str, Any], ctx: AuthContext
    ) -> dict[str, Any]:
        """Look one job's trace up by its coordinator job id.

        Fleet job ids are ``SUBMISSION-INDEX`` (``c000001-00007``,
        tenant-prefixed under tenancy); the trace document arrived
        with the job's record from whichever daemon compiled it.
        """
        job_id = request.get("job")
        if not job_id or "-" not in job_id:
            return error_reply(
                "bad_request",
                "trace needs a 'job' id (SUBMISSION-INDEX)",
            )
        sub_id, _, index_str = job_id.rpartition("-")
        try:
            index = int(index_str)
        except ValueError:
            return error_reply(
                "bad_request",
                f"bad job id {job_id!r}: index is not a number",
            )
        with self._lock:
            submission = self._submissions.get(sub_id)
            record = (
                None
                if submission is None
                else submission.records.get(index)
            )
        if submission is None or not ctx.can_see(submission.tenant):
            # Foreign tenants' submissions answer exactly like
            # nonexistent ones: ids must not leak across namespaces.
            return error_reply(
                "not_found", f"unknown submission {sub_id!r}"
            )
        trace_doc = None if record is None else record.get("trace")
        if trace_doc is None:
            return error_reply(
                "not_found", f"job {job_id} has no trace yet"
            )
        return {
            "ok": True,
            "op": "trace",
            "job": job_id,
            "status": record.get("status"),
            "trace": trace_doc,
        }

    def _counts(
        self,
        submission: _FleetSubmission | None = None,
        ctx: AuthContext = OPEN_CONTEXT,
    ) -> dict[str, int]:
        """Queue-style counts; outstanding fleet work reads as queued.

        Whole-fleet counts only aggregate the submissions ``ctx`` may
        see, so a tenant's status never reflects other tenants' load.
        """
        with self._lock:
            submissions = (
                [submission]
                if submission is not None
                else [
                    entry
                    for entry in self._submissions.values()
                    if ctx.can_see(entry.tenant)
                ]
            )
            done = 0
            error = 0
            total = 0
            for entry in submissions:
                total += entry.total_jobs
                for record in entry.records.values():
                    if record.get("status") == "error":
                        error += 1
                    else:
                        done += 1
        return {
            "queued": total - done - error,
            "running": 0,
            "done": done,
            "error": error,
        }

    def _ping(self, *_: Any) -> dict[str, Any]:
        with self._lock:
            daemons = [
                {
                    "address": daemon.address,
                    "alive": daemon.alive,
                    "counts": dict(daemon.counts),
                    "placements": daemon.placements,
                    "steals": daemon.steals,
                    "error": daemon.last_error,
                }
                for daemon in self._daemons.values()
            ]
            num_submissions = len(self._submissions)
        return {
            "ok": True,
            "op": "ping",
            "protocol": PROTOCOL_VERSION,
            "role": self.role,
            "address": self.address,
            "auth_required": self.tenants is not None,
            "draining": self.draining,
            "uptime_s": time.time() - self.started_at,
            "counts": self._counts(),
            "connections": self.connection_stats(),
            "daemons": daemons,
            "submissions": num_submissions,
            "spill_depth": self.spill_depth,
            "steal_batch": self.steal_batch,
        }

    def _status(
        self, request: dict[str, Any], ctx: AuthContext
    ) -> dict[str, Any]:
        sub_id = request.get("submission")
        if sub_id is None:
            with self._lock:
                submissions = [
                    entry
                    for entry in self._submissions.values()
                    if ctx.can_see(entry.tenant)
                ]
            return {
                "ok": True,
                "op": "status",
                "draining": self.draining,
                "counts": self._counts(ctx=ctx),
                "submissions": [
                    {
                        "id": entry.id,
                        "tenant": entry.tenant,
                        "total_jobs": entry.total_jobs,
                        "counts": self._counts(entry),
                    }
                    for entry in submissions
                ],
            }
        with self._lock:
            submission = self._submissions.get(sub_id)
        if submission is None or not ctx.can_see(submission.tenant):
            # Invisible reads as nonexistent: no cross-tenant id probe.
            return error_reply(
                "not_found", f"unknown submission {sub_id!r}"
            )
        with self._lock:
            jobs = []
            for index in sorted(submission.records):
                record = submission.records[index]
                trace_doc = record.get("trace") or {}
                jobs.append(
                    {
                        "id": f"{sub_id}-{index:05d}",
                        "index": index,
                        "status": record.get("status"),
                        "attempts": record.get("attempts", 1),
                        "queue_wait_s": _trace_queue_wait(trace_doc),
                        "span_time_s": trace_doc.get("duration_s"),
                    }
                )
        return {
            "ok": True,
            "op": "status",
            "submission": sub_id,
            "tenant": submission.tenant,
            "manifest_digest": submission.manifest_digest,
            "total_jobs": submission.total_jobs,
            "counts": self._counts(submission),
            "jobs": jobs,
        }

    def results_view(
        self, sub_id: str, ctx: AuthContext
    ) -> ResultsView | None:
        with self._lock:
            submission = self._submissions.get(sub_id)
        if submission is None or not ctx.can_see(submission.tenant):
            return None

        def finished(offset: int) -> list[tuple[str, dict[str, Any]]]:
            with self._lock:
                return [
                    (f"{sub_id}-{index:05d}", submission.records[index])
                    for index in submission.completion[offset:]
                ]

        return ResultsView(
            manifest_digest=submission.manifest_digest,
            total_jobs=submission.total_jobs,
            submitted_at=submission.submitted_at,
            feed=self,
            finished=finished,
            finished_count=lambda: len(submission.completion),
        )


__all__ = [
    "Coordinator",
    "DEFAULT_POLL_INTERVAL_S",
    "DEFAULT_SPILL_DEPTH",
    "DEFAULT_STEAL_BATCH",
    "plan_placement",
    "rendezvous_rank",
]
