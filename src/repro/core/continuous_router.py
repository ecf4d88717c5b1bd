"""Continuous Router (paper Sec. 5).

Unlike Enola, which reverts to a fixed initial layout after every Rydberg
stage, the continuous router computes a *direct* transition from the
current layout into a layout executing the next stage.  It runs in two
steps:

1. **Single-qubit movement decision** (Sec. 5.2) -- assign every qubit a
   target site for the next stage:

   * Step 1: non-interacting qubits resident in the computation zone are
     parked in storage, processed in descending-y order (qubits farther
     from storage choose first) and sent to the nearest empty storage site.
   * Step 2: interacting qubits are labelled ``static`` / ``mobile`` /
     ``undecided`` through the four location cases of Fig. 4 (both in
     storage; one in storage; both in computation).  A qubit can be static
     only if its site holds no *blocking* occupant -- a previously
     labelled static qubit, an already-routed arrival, or (non-storage
     mode) a non-interacting qubit that stays put.
   * Step 3: every ``undecided`` qubit gets the nearest empty
     computation-zone site around its current location; its mobile partner
     follows it there.

2. **Coll-Move grouping** (Sec. 5.3) -- the resulting 1Q moves are grouped
   into AOD-compatible collective moves by the distance-aware greedy
   algorithm in :func:`repro.hardware.moves.group_moves`.

The *non-storage* variant additionally de-clusters leftover co-located
pairs whose qubits no longer interact (with storage they simply retire to
the storage zone; without it one of them must step aside, or the Rydberg
blockade would execute an unwanted CZ).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field

from ..hardware.geometry import Site, Zone, ZonedArchitecture
from ..hardware.layout import Layout
from ..hardware.moves import Move

#: Relative slack on the nearest-empty stopping rule: a row is skipped
#: only when its |dy| exceeds the best distance by more than any
#: ``math.hypot`` rounding could, so float error never stops the search
#: before the exact winner is seen.
_STOP_MARGIN = 1e-9


class RoutingError(RuntimeError):
    """Raised when no legal target site exists for a required move."""


#: Router labels (Sec. 5.2).
STATIC = "static"
MOBILE = "mobile"
UNDECIDED = "undecided"


@dataclass
class RoutedStage:
    """Routing outcome for one stage transition.

    Attributes:
        moves: The decided 1Q movements (unordered).
        labels: Final label per interacting qubit (static/mobile/undecided).
        targets: Destination site per moved qubit.
    """

    moves: list[Move] = field(default_factory=list)
    labels: dict[int, str] = field(default_factory=dict)
    targets: dict[int, Site] = field(default_factory=dict)

    @property
    def num_moves(self) -> int:
        """Number of 1Q movements."""
        return len(self.moves)


class ContinuousRouter:
    """Stateless-per-stage router over a zoned architecture.

    Args:
        architecture: The machine floor plan.
        use_storage: Park non-interacting qubits in the storage zone.
        rng: Source for the case-4 random mobile choice (Sec. 5.2 step 2,
            case 4 picks the mobile qubit of an in-compute pair randomly).
    """

    def __init__(
        self,
        architecture: ZonedArchitecture,
        use_storage: bool,
        rng: random.Random | None = None,
    ) -> None:
        if use_storage and not architecture.has_storage:
            raise ValueError("use_storage=True requires a storage zone")
        self._arch = architecture
        self._use_storage = use_storage
        self._rng = rng or random.Random(0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def route_stage(
        self, layout: Layout, pairs: list[tuple[int, int]]
    ) -> RoutedStage:
        """Decide the 1Q movements realising ``pairs`` from ``layout``.

        Args:
            layout: Current placement (not modified).
            pairs: Interacting qubit pairs of the next stage; pairwise
                disjoint.

        Returns:
            The routed stage; applying its moves to ``layout`` yields a
            placement where every pair is co-located on a computation-zone
            site and no unwanted co-location remains.
        """
        self._check_pairs(layout, pairs)
        plan = _StagePlan(self._arch, layout, pairs)
        if self._use_storage:
            self._park_noninteracting(plan)
        else:
            self._decluster(plan)
        self._label_interacting(plan)
        self._resolve_undecided(plan)
        return plan.build_result()

    # ------------------------------------------------------------------
    # Step 1 (with storage): park non-interacting qubits
    # ------------------------------------------------------------------

    def _park_noninteracting(self, plan: "_StagePlan") -> None:
        resting = [
            q
            for q in plan.layout.qubits
            if q not in plan.interacting
            and plan.layout.zone_of(q) is Zone.COMPUTE
        ]
        # Descending y: qubits farther from the storage zone pick first
        # (Sec. 5.2 step 1), which shortens the total travel.
        resting.sort(key=lambda q: (-plan.layout.position_of(q)[1], q))
        for q in resting:
            plan.depart(q)
            site = plan.nearest_empty(
                plan.layout.position_of(q), Zone.STORAGE
            )
            if site is None:
                raise RoutingError(
                    f"storage zone full: cannot park qubit {q}"
                )
            plan.arrive(q, site)

    # ------------------------------------------------------------------
    # Step 1' (non-storage): split leftover co-located non-pairs
    # ------------------------------------------------------------------

    def _decluster(self, plan: "_StagePlan") -> None:
        handled: set[Site] = set()
        for q in plan.layout.qubits:
            site = plan.layout.site_of(q)
            if site in handled:
                continue
            tenants = sorted(plan.layout.occupants(site))
            if len(tenants) < 2:
                continue
            handled.add(site)
            idle = [t for t in tenants if t not in plan.interacting]
            if len(idle) < 2:
                # At most one idle co-tenant: the interacting tenant(s)
                # will be forced away (or stay as a new pair) by step 2.
                continue
            # Both tenants idle this stage: keep the first, step the
            # second aside to the nearest empty computation site.
            for mover in idle[1:]:
                plan.depart(mover)
                target = plan.nearest_empty(
                    plan.layout.position_of(mover), Zone.COMPUTE
                )
                if target is None:
                    raise RoutingError(
                        f"computation zone full: cannot de-cluster {mover}"
                    )
                plan.arrive(mover, target)

    # ------------------------------------------------------------------
    # Step 2: label interacting qubits (Fig. 4 case analysis)
    # ------------------------------------------------------------------

    def _label_interacting(self, plan: "_StagePlan") -> None:
        for a, b in plan.ordered_pairs:
            zone_a = plan.layout.zone_of(a)
            zone_b = plan.layout.zone_of(b)
            if zone_a is Zone.STORAGE and zone_b is Zone.STORAGE:
                self._case_both_storage(plan, a, b)
            elif zone_a is Zone.STORAGE or zone_b is Zone.STORAGE:
                inside = a if zone_a is Zone.STORAGE else b
                outside = b if zone_a is Zone.STORAGE else a
                self._case_one_storage(plan, inside, outside)
            else:
                self._case_both_compute(plan, a, b)

    def _case_both_storage(self, plan: "_StagePlan", a: int, b: int) -> None:
        """Fig. 4(b): both partners start in storage.

        One becomes ``undecided`` (its interaction site is fixed in step 3),
        the other ``mobile`` following it.  We pick the partner nearer the
        computation zone (larger y) as the undecided anchor so the site
        search starts closer to the boundary.
        """
        ya = plan.layout.position_of(a)[1]
        yb = plan.layout.position_of(b)[1]
        anchor, follower = (a, b) if (ya, -a) >= (yb, -b) else (b, a)
        plan.mark(anchor, UNDECIDED)
        plan.mark(follower, MOBILE)
        plan.follow(anchor, follower)

    def _case_one_storage(
        self, plan: "_StagePlan", inside: int, outside: int
    ) -> None:
        """Fig. 4(c): one partner in storage, one in computation.

        The storage-resident partner is always mobile (it must leave
        storage anyway).  The computation-resident partner stays static if
        its site is unblocked (case 1), else goes undecided (case 2).
        """
        plan.mark(inside, MOBILE)
        if plan.blocked(outside):
            plan.mark(outside, UNDECIDED)
            plan.follow(outside, inside)
        else:
            plan.mark(outside, STATIC)
            plan.arrive(inside, plan.layout.site_of(outside))

    def _case_both_compute(self, plan: "_StagePlan", a: int, b: int) -> None:
        """Fig. 4(d): both partners already in the computation zone.

        Already co-located pairs stay put (both static).  Otherwise one
        partner is chosen mobile at random; the other stays static when
        its site is unblocked (case 1) or goes undecided (case 2).
        """
        if plan.layout.site_of(a) == plan.layout.site_of(b):
            plan.mark(a, STATIC)
            plan.mark(b, STATIC)
            return
        mobile = self._rng.choice((a, b))
        stayer = b if mobile == a else a
        plan.mark(mobile, MOBILE)
        if plan.blocked(stayer):
            plan.mark(stayer, UNDECIDED)
            plan.follow(stayer, mobile)
        else:
            plan.mark(stayer, STATIC)
            plan.arrive(mobile, plan.layout.site_of(stayer))

    # ------------------------------------------------------------------
    # Step 3: fix targets for undecided qubits
    # ------------------------------------------------------------------

    def _resolve_undecided(self, plan: "_StagePlan") -> None:
        for anchor in plan.undecided_order:
            site = plan.nearest_empty(
                plan.layout.position_of(anchor), Zone.COMPUTE
            )
            if site is None:
                raise RoutingError(
                    f"computation zone full: cannot place qubit {anchor}"
                )
            plan.arrive(anchor, site)
            for follower in plan.followers_of(anchor):
                plan.arrive(follower, site)

    # ------------------------------------------------------------------
    # Validation of inputs
    # ------------------------------------------------------------------

    def _check_pairs(
        self, layout: Layout, pairs: list[tuple[int, int]]
    ) -> None:
        seen: set[int] = set()
        placed = set(layout.qubits)
        for a, b in pairs:
            if a == b:
                raise ValueError(f"pair ({a},{b}) is degenerate")
            for q in (a, b):
                if q in seen:
                    raise ValueError(f"qubit {q} appears in two pairs")
                if q not in placed:
                    raise ValueError(f"qubit {q} is not placed")
                seen.add(q)
        if not self._use_storage:
            for q in placed:
                if layout.zone_of(q) is Zone.STORAGE:
                    raise ValueError(
                        "non-storage routing with a qubit in storage"
                    )


class _StagePlan:
    """Mutable working state of one stage-routing pass."""

    def __init__(
        self,
        architecture: ZonedArchitecture,
        layout: Layout,
        pairs: list[tuple[int, int]],
    ) -> None:
        self.arch = architecture
        self.layout = layout
        self.ordered_pairs = sorted(
            (min(a, b), max(a, b)) for a, b in pairs
        )
        self.interacting: set[int] = {q for pair in pairs for q in pair}
        self.labels: dict[int, str] = {}
        self.targets: dict[int, Site] = {}
        self._followers: dict[int, list[int]] = {}
        self.undecided_order: list[int] = []
        # Planned end-state occupancy; updated as departures/arrivals are
        # decided.  Transient over-occupancy is fine -- interacting
        # co-tenants that have not been labelled yet are guaranteed to
        # depart later (they can never turn static next to a static).
        self._end_occ: dict[Site, set[int]] = {}
        for q in layout.qubits:
            self._end_occ.setdefault(layout.site_of(q), set()).add(q)
        # Nearest-empty search index, built lazily per zone on first use
        # and kept in sync by depart()/arrive().
        self._free: dict[Zone, _FreeSites] = {}

    # -- bookkeeping -----------------------------------------------------

    def depart(self, qubit: int) -> None:
        """Remove ``qubit`` from its current site in the planned end state."""
        site = self.layout.site_of(qubit)
        occupants = self._end_occ[site]
        occupants.discard(qubit)
        if not occupants:
            self._mark_free(site, True)

    def arrive(self, qubit: int, site: Site) -> None:
        """Fix ``site`` as ``qubit``'s destination."""
        self.targets[qubit] = site
        self._end_occ.setdefault(site, set()).add(qubit)
        self._mark_free(site, False)

    def mark(self, qubit: int, label: str) -> None:
        """Assign a routing label; mobile/undecided qubits depart."""
        self.labels[qubit] = label
        if label in (MOBILE, UNDECIDED):
            self.depart(qubit)
        if label == UNDECIDED:
            self.undecided_order.append(qubit)

    def follow(self, anchor: int, follower: int) -> None:
        """Route ``follower`` to wherever ``anchor`` ends up (step 3)."""
        self._followers.setdefault(anchor, []).append(follower)

    def followers_of(self, anchor: int) -> list[int]:
        """Mobile partners awaiting ``anchor``'s site."""
        return self._followers.get(anchor, [])

    def blocked(self, qubit: int) -> bool:
        """Is ``qubit``'s site unavailable for it to stay static?

        Any remaining co-occupant blocks except an interacting qubit that
        has not been labelled yet (such a qubit is guaranteed to move away:
        it can never become static on a site that already has one).
        """
        site = self.layout.site_of(qubit)
        for other in self._end_occ.get(site, ()):  # departed are gone
            if other == qubit:
                continue
            if other in self.interacting and other not in self.labels:
                continue
            return True
        return False

    def _mark_free(self, site: Site, free: bool) -> None:
        """Sync the zone's search index, if it has been built."""
        index = self._free.get(site.zone)
        if index is not None:
            index.mark(site, free)

    def nearest_empty(
        self, position: tuple[float, float], zone: Zone
    ) -> Site | None:
        """Closest planned-empty site of ``zone`` to ``position``.

        Euclidean distance; ties prefer the same column, then low row/col.
        """
        index = self._free.get(zone)
        if index is None:
            index = _FreeSites(self.arch, zone, self._end_occ)
            self._free[zone] = index
        return index.nearest(*position)

    # -- result ------------------------------------------------------------

    def build_result(self) -> RoutedStage:
        moves: list[Move] = []
        for qubit in sorted(self.targets):
            source = self.layout.site_of(qubit)
            destination = self.targets[qubit]
            if source != destination:
                moves.append(Move(qubit, source, destination))
        return RoutedStage(
            moves=moves, labels=dict(self.labels), targets=dict(self.targets)
        )


class _FreeSites:
    """Planned-free sites of one zone, indexed for nearest-empty queries.

    A zone is a regular grid: every site of a row shares its y and every
    site of a column its x.  The index keeps one sorted list of free
    columns per row.  A query visits rows in order of |dy| from the
    query point; in each row a ``bisect`` finds the nearest free column
    on either side, the only candidates that row can offer.  The search
    stops at the first row whose |dy| exceeds the best distance so far,
    since no site there or further out can be closer.

    The winner minimises the key ``(hypot, |dx|, row, col)`` over the
    same floats as a scan of every free site, so it is that scan's
    winner exactly, at a cost of a few rows instead of the whole zone.
    """

    def __init__(
        self,
        architecture: ZonedArchitecture,
        zone: Zone,
        occupancy: dict[Site, set[int]],
    ) -> None:
        cols, rows = (
            architecture.compute_shape
            if zone is Zone.COMPUTE
            else architecture.storage_shape
        )
        self._sites = architecture.sites_in(zone)
        self._cols = cols
        self._col_xs = [self._sites[c].x for c in range(cols)]
        by_y = sorted((self._sites[r * cols].y, r) for r in range(rows))
        self._ys = [y for y, _ in by_y]
        self._rows = [r for _, r in by_y]
        taken: list[set[int]] = [set() for _ in range(rows)]
        for site, occupants in occupancy.items():
            if occupants and site.zone is zone:
                taken[site.row].add(site.col)
        self._free_cols = [
            [c for c in range(cols) if c not in row_taken]
            for row_taken in taken
        ]

    def mark(self, site: Site, free: bool) -> None:
        """Record that ``site`` became planned-free (or occupied)."""
        cols = self._free_cols[site.row]
        k = bisect_left(cols, site.col)
        present = k < len(cols) and cols[k] == site.col
        if free and not present:
            cols.insert(k, site.col)
        elif not free and present:
            del cols[k]

    def nearest(self, px: float, py: float) -> Site | None:
        """The free site minimising ``(hypot, |dx|, row, col)``."""
        ys, rows, col_xs = self._ys, self._rows, self._col_xs
        free_cols = self._free_cols
        split = bisect_left(col_xs, px)  # columns left of px: [0, split)
        hi = bisect_left(ys, py)
        lo = hi - 1
        best_key: tuple | None = None
        limit = math.inf
        while lo >= 0 or hi < len(ys):
            if hi >= len(ys) or (lo >= 0 and py - ys[lo] <= ys[hi] - py):
                i = lo
                lo -= 1
            else:
                i = hi
                hi += 1
            dy = ys[i] - py
            if abs(dy) > limit:
                break
            row = rows[i]
            cols = free_cols[row]
            if not cols:
                continue
            k = bisect_left(cols, split)
            for col in cols[k - 1:k + 1] if k else cols[:1]:
                dx = col_xs[col] - px
                key = (math.hypot(dx, dy), abs(dx), row, col)
                if best_key is None or key < best_key:
                    best_key = key
                    limit = key[0] * (1.0 + _STOP_MARGIN)
        if best_key is None:
            return None
        _, _, row, col = best_key
        return self._sites[row * self._cols + col]


__all__ = [
    "ContinuousRouter",
    "MOBILE",
    "RoutedStage",
    "RoutingError",
    "STATIC",
    "UNDECIDED",
]
