"""Differential test: ``annealed_layout`` against the loop it replaced.

``_AnnealingState`` and ``reference_annealed_layout`` are the previous
body of :func:`repro.baselines.placement.annealed_layout`, kept verbatim:
every proposal recomputes both qubits' interaction sums through the
``assignment -> positions`` indirection.  The flat loop with cached local
costs must return the same layout and leave the random generator in the
same state, so every ``math.hypot`` term, sum and acceptance draw agrees.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pipeline.strategies as strategies
from repro.baselines.atomique import AtomiqueConfig
from repro.baselines.enola import EnolaConfig
from repro.baselines.placement import (
    annealed_layout,
    interaction_weights,
    row_major_layout,
)
from repro.benchsuite.suite import PAPER_ORDER, SUITE
from repro.circuits import Circuit
from repro.circuits.generators import qaoa_regular
from repro.hardware import Zone, ZonedArchitecture
from repro.hardware.layout import Layout
from repro.pipeline.registry import create_compiler, get_backend


class _AnnealingState:
    """Assignment with incremental (per-qubit delta) cost evaluation."""

    def __init__(
        self,
        positions: list[tuple[float, float]],
        num_qubits: int,
        num_slots: int,
        weights: dict[tuple[int, int], int],
    ) -> None:
        self.positions = positions
        self.assignment = list(range(num_qubits))
        self.free_slots = list(range(num_qubits, num_slots))
        self.adjacency: dict[int, list[tuple[int, int]]] = {
            q: [] for q in range(num_qubits)
        }
        for (a, b), weight in weights.items():
            self.adjacency[a].append((b, weight))
            self.adjacency[b].append((a, weight))
        self.cost = sum(
            weight * self._distance(a, b) for (a, b), weight in weights.items()
        )

    def _distance(self, a: int, b: int) -> float:
        xa, ya = self.positions[self.assignment[a]]
        xb, yb = self.positions[self.assignment[b]]
        return math.hypot(xa - xb, ya - yb)

    def local_cost(self, qubit: int, skip: int | None = None) -> float:
        """Cost of all interaction terms incident to ``qubit``."""
        total = 0.0
        for other, weight in self.adjacency[qubit]:
            if other == skip:
                continue
            total += weight * self._distance(qubit, other)
        return total

    def swap_delta(self, a: int, b: int) -> float:
        """Cost change if qubits ``a`` and ``b`` traded slots."""
        before = self.local_cost(a) + self.local_cost(b, skip=a)
        self.assignment[a], self.assignment[b] = (
            self.assignment[b],
            self.assignment[a],
        )
        after = self.local_cost(a) + self.local_cost(b, skip=a)
        self.assignment[a], self.assignment[b] = (
            self.assignment[b],
            self.assignment[a],
        )
        return after - before

    def swap(self, a: int, b: int, delta: float) -> None:
        """Commit a previously evaluated swap."""
        self.assignment[a], self.assignment[b] = (
            self.assignment[b],
            self.assignment[a],
        )
        self.cost += delta

    def relocate_delta(self, qubit: int, slot_index: int) -> float:
        """Cost change if ``qubit`` moved to ``free_slots[slot_index]``."""
        before = self.local_cost(qubit)
        old_slot = self.assignment[qubit]
        self.assignment[qubit] = self.free_slots[slot_index]
        after = self.local_cost(qubit)
        self.assignment[qubit] = old_slot
        return after - before

    def relocate(self, qubit: int, slot_index: int, delta: float) -> None:
        """Commit a previously evaluated relocation."""
        old_slot = self.assignment[qubit]
        self.assignment[qubit] = self.free_slots[slot_index]
        self.free_slots[slot_index] = old_slot
        self.cost += delta


def reference_annealed_layout(
    architecture: ZonedArchitecture,
    circuit: Circuit,
    zone: Zone = Zone.COMPUTE,
    rng: random.Random | None = None,
    iterations_per_qubit: int = 150,
    initial_temperature: float | None = None,
    cooling: float = 0.999,
) -> Layout:
    rng = rng or random.Random(0)
    n = circuit.num_qubits
    sites = architecture.sites_in(zone)
    if n > len(sites):
        raise ValueError(f"{n} qubits exceed {len(sites)} {zone.value} sites")
    weights = interaction_weights(circuit)
    if not weights:
        return row_major_layout(architecture, n, zone)

    positions = [site.position for site in sites]
    state = _AnnealingState(positions, n, len(sites), weights)
    temperature = initial_temperature or 2.0 * architecture.params.site_pitch
    steps = iterations_per_qubit * n

    def accept(delta: float) -> bool:
        if delta <= 0:
            return True
        return rng.random() < math.exp(-delta / max(temperature, 1e-15))

    for _ in range(steps):
        qubit = rng.randrange(n)
        if state.free_slots and rng.random() < 0.3:
            slot_index = rng.randrange(len(state.free_slots))
            delta = state.relocate_delta(qubit, slot_index)
            if accept(delta):
                state.relocate(qubit, slot_index, delta)
        else:
            other = rng.randrange(n)
            if other != qubit:
                delta = state.swap_delta(qubit, other)
                if accept(delta):
                    state.swap(qubit, other, delta)
        temperature *= cooling

    return Layout(
        architecture, {q: sites[state.assignment[q]] for q in range(n)}
    )


def assert_same_anneal(architecture, circuit, zone, state, **kwargs):
    got_rng = random.Random()
    got_rng.setstate(state)
    want_rng = random.Random()
    want_rng.setstate(state)
    got = annealed_layout(
        architecture, circuit, zone=zone, rng=got_rng, **kwargs
    )
    want = reference_annealed_layout(
        architecture, circuit, zone=zone, rng=want_rng, **kwargs
    )
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()


# ---------------------------------------------------------------------------
# Small weighted graphs
# ---------------------------------------------------------------------------


@st.composite
def anneal_cases(draw):
    """A dense multigraph on a small zone, often filling it exactly.

    With at most 12 qubits and up to 30 gates most random swaps pick two
    interacting qubits, and repeated pairs give weights above one.
    """
    cols = draw(st.integers(1, 4))
    rows = draw(st.integers(2, 3))
    zone = draw(st.sampled_from([Zone.COMPUTE, Zone.STORAGE]))
    architecture = ZonedArchitecture(cols, rows, cols, rows)
    capacity = cols * rows
    # Half the cases fill the zone: no free slots, swaps only.
    n = capacity if draw(st.booleans()) else draw(st.integers(2, capacity))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    circuit = Circuit(n)
    for a, b in draw(st.lists(pair, min_size=1, max_size=30)):
        circuit.cz(a, b)
    return architecture, circuit, zone


@given(
    anneal_cases(),
    st.integers(0, 2**32 - 1),
    st.integers(0, 40),
    st.sampled_from([0.5, 0.9, 0.999, 1.0]),
    st.one_of(
        st.none(),
        st.floats(min_value=1e-20, max_value=1e-3, allow_subnormal=False),
    ),
)
@settings(max_examples=300, deadline=None)
def test_small_graphs_match_reference(
    case, seed, iterations, cooling, initial_temperature
):
    architecture, circuit, zone = case
    assert_same_anneal(
        architecture,
        circuit,
        zone,
        random.Random(seed).getstate(),
        iterations_per_qubit=iterations,
        cooling=cooling,
        initial_temperature=initial_temperature,
    )


# ---------------------------------------------------------------------------
# Real calls: Table-2 rows and the 1024-qubit windowed ladder rung
# ---------------------------------------------------------------------------

#: A reduced annealing budget keeps replaying every real call quick.
REAL_ITERATIONS = 6


class _Captured(Exception):
    """Stops a compile once its annealing call is recorded."""


def capture_anneal_calls(runs):
    """``(architecture, circuit, zone, rng state, kwargs)`` per compile."""
    calls = []

    def record(architecture, circuit, zone, rng, **kwargs):
        calls.append((architecture, circuit, zone, rng.getstate(), kwargs))
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(strategies, "annealed_layout", record)
        for backend, config, circuit in runs:
            spec = get_backend(backend)
            compiler = create_compiler(
                backend, spec.effective_config(config, 0, 1)
            )
            with pytest.raises(_Captured):
                compiler.compile(circuit)
    return calls


@pytest.fixture(scope="module")
def real_anneal_calls():
    runs = []
    for key in PAPER_ORDER:
        circuit = SUITE[key].build(0)
        enola = EnolaConfig(sa_iterations_per_qubit=REAL_ITERATIONS)
        atomique = AtomiqueConfig(sa_iterations_per_qubit=REAL_ITERATIONS)
        runs.append(("enola", enola, circuit))
        runs.append(("atomique", atomique, circuit))
    runs.append(
        (
            "enola-windowed",
            EnolaConfig(sa_iterations_per_qubit=REAL_ITERATIONS),
            qaoa_regular(1024, degree=3, seed=0),
        )
    )
    return capture_anneal_calls(runs)


def test_real_calls_cover_every_row(real_anneal_calls):
    assert len(real_anneal_calls) == 2 * len(PAPER_ORDER) + 1
    assert all(
        kwargs == {"iterations_per_qubit": REAL_ITERATIONS}
        for *_, kwargs in real_anneal_calls
    )
    assert real_anneal_calls[-1][1].num_qubits == 1024


def test_real_calls_match_reference(real_anneal_calls):
    for architecture, circuit, zone, state, kwargs in real_anneal_calls:
        assert_same_anneal(architecture, circuit, zone, state, **kwargs)
