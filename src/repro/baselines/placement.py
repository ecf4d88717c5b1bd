"""Initial qubit placement.

Enola optimises an initial layout with simulated annealing and keeps
returning to it; PowerMove adopts the same initial layout (Sec. 4.2) but
its continuous router never returns to it, so the layout's quality matters
much less -- PowerMove defaults to the fast row-major grid, Enola to the
annealed one (one of the reasons its compile time is orders of magnitude
larger, Table 3's ``T_comp`` columns).

The annealing objective is the summed Euclidean distance between the
partners of every two-qubit gate (weighted by multiplicity), the standard
interaction-proximity objective used by movement-based NAQC compilers.
The annealing loop keeps each qubit's share of that sum cached until a
move touches the qubit or a partner, so a proposal mostly pays only for
its "after" sums; every cached value is the same ordered sum a fresh
recomputation makes, so the layout is bit-identical to recomputing.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from ..circuits.circuit import Circuit
from ..hardware.geometry import Zone, ZonedArchitecture
from ..hardware.layout import Layout


def interaction_weights(circuit: Circuit) -> dict[tuple[int, int], int]:
    """Multiplicity of each (min, max) interacting qubit pair."""
    return dict(Counter(circuit.interaction_pairs()))


def row_major_layout(
    architecture: ZonedArchitecture,
    num_qubits: int,
    zone: Zone = Zone.COMPUTE,
) -> Layout:
    """Fast default: qubit ``i`` on the i-th site of ``zone``."""
    return Layout.row_major(architecture, num_qubits, zone)


def spiral_layout(
    architecture: ZonedArchitecture,
    circuit: Circuit,
    zone: Zone = Zone.COMPUTE,
) -> Layout:
    """Interaction-weighted centre-out placement (no randomness).

    Sites of ``zone`` are ordered centre-out (squared distance from the
    zone centroid, ties broken row-major) and qubits are ordered by
    total interaction weight descending (ties by qubit id), so the most
    heavily interacting qubits land nearest the zone centre where every
    partner is cheap to reach -- a deterministic, O(n log n) alternative
    to the annealed placement in the spirit of routing-aware placement
    (Stade et al., arXiv:2505.22715).
    """
    n = circuit.num_qubits
    sites = architecture.sites_in(zone)
    if n > len(sites):
        raise ValueError(f"{n} qubits exceed {len(sites)} {zone.value} sites")
    load = {q: 0 for q in range(n)}
    for (a, b), weight in interaction_weights(circuit).items():
        load[a] += weight
        load[b] += weight
    cx = sum(site.x for site in sites) / len(sites)
    cy = sum(site.y for site in sites) / len(sites)
    centre_out = sorted(
        sites,
        key=lambda s: ((s.x - cx) ** 2 + (s.y - cy) ** 2, s.row, s.col),
    )
    hot_first = sorted(range(n), key=lambda q: (-load[q], q))
    return Layout(
        architecture,
        {q: centre_out[rank] for rank, q in enumerate(hot_first)},
    )


def annealed_layout(
    architecture: ZonedArchitecture,
    circuit: Circuit,
    zone: Zone = Zone.COMPUTE,
    rng: random.Random | None = None,
    iterations_per_qubit: int = 150,
    initial_temperature: float | None = None,
    cooling: float = 0.999,
) -> Layout:
    """Simulated-annealing placement minimising weighted pair distance.

    Args:
        architecture: Target machine.
        circuit: Source circuit whose interaction pairs drive the cost.
        zone: Zone to place into.
        rng: Random source (fresh seed-0 generator when omitted).
        iterations_per_qubit: Annealing steps scale as
            ``iterations_per_qubit * num_qubits`` -- deliberately
            super-linear in circuit size, mirroring Enola's heavier
            compile-time profile.
        initial_temperature: Starting temperature; ``None`` means two
            site pitches of cost, and ``0.0`` anneals greedily.
        cooling: Geometric cooling factor per step.

    Returns:
        The annealed layout; falls back to row-major ordering for
        gate-free circuits.
    """
    rng = rng or random.Random(0)
    n = circuit.num_qubits
    sites = architecture.sites_in(zone)
    if n > len(sites):
        raise ValueError(f"{n} qubits exceed {len(sites)} {zone.value} sites")
    weights = interaction_weights(circuit)
    if not weights:
        return row_major_layout(architecture, n, zone)

    slot_xs = [site.x for site in sites]
    slot_ys = [site.y for site in sites]
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (a, b), weight in weights.items():
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))
    neighbours = [{other for other, _ in terms} for terms in adjacency]
    assignment = list(range(n))
    free_slots = list(range(n, len(sites)))
    num_free = len(free_slots)
    xs = slot_xs[:n]
    ys = slot_ys[:n]
    # local[q] is None or the cost of q's interaction terms summed over
    # adjacency[q] in order -- the very additions a fresh recomputation
    # makes, so a cached value is bit-equal to one.  An accepted move
    # stores the moved qubits' fresh "after" sums and clears their
    # neighbours, the only other sums that read a moved coordinate.
    local: list[float | None] = [None] * n
    if initial_temperature is None:
        temperature = 2.0 * architecture.params.site_pitch
    else:
        temperature = initial_temperature
    random_ = rng.random
    randrange = rng.randrange
    hypot = math.hypot
    exp = math.exp

    def local_cost(q: int) -> float:
        x = xs[q]
        y = ys[q]
        total = 0.0
        for other, weight in adjacency[q]:
            total += weight * hypot(x - xs[other], y - ys[other])
        return total

    for _ in range(iterations_per_qubit * n):
        a = randrange(n)
        if num_free and random_() < 0.3:
            # Relocate a to a free slot: only a's own terms change.
            slot_index = randrange(num_free)
            slot = free_slots[slot_index]
            before = local[a]
            if before is None:
                before = local[a] = local_cost(a)
            x = slot_xs[slot]
            y = slot_ys[slot]
            after = 0.0
            for other, weight in adjacency[a]:
                after += weight * hypot(x - xs[other], y - ys[other])
            delta = after - before
            if delta <= 0 or random_() < exp(
                -delta / max(temperature, 1e-15)
            ):
                free_slots[slot_index] = assignment[a]
                assignment[a] = slot
                xs[a] = x
                ys[a] = y
                for other, _ in adjacency[a]:
                    local[other] = None
                local[a] = after
        elif (b := randrange(n)) != a:
            # Swap a and b.  The cost change is a's terms plus b's terms
            # other than the a-b term, which a's terms already hold and
            # whose length the swap keeps.
            xa = xs[a]
            ya = ys[a]
            xb = xs[b]
            yb = ys[b]
            before_a = local[a]
            if before_a is None:
                before_a = local[a] = local_cost(a)
            after_a = 0.0
            after_b = 0.0
            linked = b in neighbours[a]
            if linked:
                before_b = 0.0
                for other, weight in adjacency[b]:
                    if other != a:
                        before_b += weight * hypot(
                            xb - xs[other], yb - ys[other]
                        )
                        after_b += weight * hypot(
                            xa - xs[other], ya - ys[other]
                        )
                for other, weight in adjacency[a]:
                    if other == b:
                        after_a += weight * hypot(xb - xa, yb - ya)
                    else:
                        after_a += weight * hypot(
                            xb - xs[other], yb - ys[other]
                        )
            else:
                before_b = local[b]
                if before_b is None:
                    before_b = local[b] = local_cost(b)
                for other, weight in adjacency[b]:
                    after_b += weight * hypot(xa - xs[other], ya - ys[other])
                for other, weight in adjacency[a]:
                    after_a += weight * hypot(xb - xs[other], yb - ys[other])
            delta = (after_a + after_b) - (before_a + before_b)
            if delta <= 0 or random_() < exp(
                -delta / max(temperature, 1e-15)
            ):
                assignment[a], assignment[b] = assignment[b], assignment[a]
                xs[a] = xb
                ys[a] = yb
                xs[b] = xa
                ys[b] = ya
                for other, _ in adjacency[a]:
                    local[other] = None
                for other, _ in adjacency[b]:
                    local[other] = None
                local[a] = after_a
                # Linked, after_b lacks the a-b term: not b's full sum.
                local[b] = None if linked else after_b
        temperature *= cooling

    return Layout(architecture, {q: sites[assignment[q]] for q in range(n)})


__all__ = [
    "annealed_layout",
    "interaction_weights",
    "row_major_layout",
    "spiral_layout",
]
