"""QAOA benchmark circuits (Sec. 7.1 of the paper).

Two families are used in the evaluation:

* **QAOA-regular-d** -- MaxCut QAOA on a random *d*-regular graph; one
  ``rzz`` per graph edge per layer.
* **QAOA-random** -- "randomly placed ZZ gates between qubit pairs (50%
  probability)", i.e. the interaction graph is Erdos-Renyi G(n, p).

Both produce the canonical p-layer QAOA template: a Hadamard wall, then per
layer the commuting ZZ cost block followed by the RX mixer wall.  All ZZ
gates within a layer commute, so each layer contributes exactly one CZ
block -- the dense-stage regime the paper's Fig. 6(a) analyses.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from ...utils.rng import make_rng
from ..circuit import Circuit


def random_regular_edges(
    degree: int, n: int, seed: int | None = 0
) -> set[tuple[int, int]]:
    """Edges ``(a, b)``, ``a < b``, of a random ``degree``-regular graph.

    The pairing model of A. Steger and N. Wormald, "Generating random
    regular graphs quickly", Combinatorics, Probability and Computing 8
    (1999) 377-396, exactly as NetworkX 3.x implements it
    (``random_regular_graph`` in ``networkx.generators.random_graphs``):
    the same seed gives the same edge set.  Each round shuffles the
    unpaired stubs, pairs them off in order and keeps every pair that
    is neither a self-loop nor an existing edge; the stubs of the
    rejected pairs, in first-seen order, are the next round's.  A round
    whose leftover stubs admit no new edge abandons the attempt, and
    the next attempt continues the same random stream.
    ``tests/test_regular_graphs.py`` pins the equality, against NetworkX
    where it is installed and against a table of edge-list hashes
    everywhere.

    Args:
        degree: Degree of every node, ``0 <= degree < n``.
        n: Number of nodes ``0 .. n-1``; ``n * degree`` must be even.
        seed: Seed of a private ``random.Random``; ``None`` draws from
            the global ``random`` stream, as NetworkX does.

    Raises:
        ValueError: ``degree`` is out of range or ``n * degree`` is odd.
    """
    if (n * degree) % 2 != 0:
        raise ValueError(f"no {degree}-regular graph on {n} nodes exists")
    if not 0 <= degree < n:
        raise ValueError(
            f"need 0 <= degree < n, got n={n}, degree={degree}"
        )
    shuffle = random.shuffle if seed is None else random.Random(seed).shuffle
    if degree == 0:
        return set()
    while True:
        edges = _pairing_attempt(n, degree, shuffle)
        if edges is not None:
            return edges


def _pairing_attempt(
    n: int, degree: int, shuffle: Callable[[list[int]], None]
) -> set[tuple[int, int]] | None:
    """One attempt of :func:`random_regular_edges`; ``None`` if stuck."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * degree
    while stubs:
        leftover: dict[int, int] = {}
        shuffle(stubs)
        pairs = iter(stubs)
        for a, b in zip(pairs, pairs):
            if a > b:
                a, b = b, a
            if a != b and (a, b) not in edges:
                edges.add((a, b))
            else:
                leftover[a] = leftover.get(a, 0) + 1
                leftover[b] = leftover.get(b, 0) + 1
        if not _admits_edge(edges, leftover):
            return None
        stubs = [
            node for node, count in leftover.items() for _ in range(count)
        ]
    return edges


def _admits_edge(
    edges: set[tuple[int, int]], leftover: dict[int, int]
) -> bool:
    """Whether ``leftover`` still admits a new edge: NetworkX's
    ``_suitable`` check, kept verbatim.

    Its inner loop swaps ``s1`` in place, so a later ``s2`` is compared
    with the smaller node of the previous pair, and the pairs it checks
    are not every pair of leftover nodes.  Its verdict decides which
    attempt succeeds, so the quirk stays: a plain test over every pair
    gives a different graph for, e.g., ``(n, degree, seed) =
    (10, 4, 14)``.
    """
    if not leftover:
        return True
    for s1 in leftover:
        for s2 in leftover:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _qaoa_from_edges(
    n: int,
    edges: list[tuple[int, int]],
    layers: int,
    gamma: float,
    beta: float,
    name: str,
) -> Circuit:
    circuit = Circuit(n, name=name)
    for q in range(n):
        circuit.h(q)
    for layer in range(layers):
        angle = gamma * (layer + 1)
        for a, b in edges:
            circuit.rzz(angle, a, b)
        for q in range(n):
            circuit.rx(2.0 * beta * (layer + 1), q)
    return circuit


def qaoa_regular(
    n: int,
    degree: int = 3,
    layers: int = 1,
    seed: int | None = 0,
    gamma: float = 0.7,
    beta: float = 0.3,
) -> Circuit:
    """QAOA on a random ``degree``-regular graph with ``n`` nodes.

    Args:
        n: Number of qubits (graph nodes); ``n * degree`` must be even.
        degree: Graph regularity (3 and 4 in the paper),
            ``0 <= degree < n``.
        layers: QAOA depth p.
        seed: Seed for the random regular graph
            (:func:`random_regular_edges`).
        gamma: Cost-layer angle.
        beta: Mixer-layer angle.
    """
    edges = sorted(random_regular_edges(degree, n, seed))
    return _qaoa_from_edges(
        n, edges, layers, gamma, beta, name=f"QAOA-regular{degree}-{n}"
    )


def qaoa_random(
    n: int,
    edge_probability: float = 0.5,
    layers: int = 1,
    seed: int | None = 0,
    gamma: float = 0.7,
    beta: float = 0.3,
) -> Circuit:
    """QAOA with ZZ gates on random qubit pairs (paper default p = 0.5)."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = make_rng(seed)
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < edge_probability
    ]
    return _qaoa_from_edges(
        n, edges, layers, gamma, beta, name=f"QAOA-random-{n}"
    )


__all__ = ["qaoa_random", "qaoa_regular"]
