"""Unit tests for initial placement (row-major and annealed)."""

import random

import pytest

from repro.baselines.placement import (
    annealed_layout,
    interaction_weights,
    row_major_layout,
)
from repro.circuits import Circuit
from repro.circuits.generators import qaoa_regular
from repro.hardware import Zone, ZonedArchitecture


@pytest.fixture
def arch():
    return ZonedArchitecture(4, 4, 4, 8)


def layout_cost(layout, weights):
    import math

    total = 0.0
    for (a, b), w in weights.items():
        xa, ya = layout.position_of(a)
        xb, yb = layout.position_of(b)
        total += w * math.hypot(xa - xb, ya - yb)
    return total


class TestInteractionWeights:
    def test_counts_multiplicity(self):
        qc = Circuit(3)
        qc.cz(0, 1)
        qc.cz(1, 0)
        qc.cz(1, 2)
        weights = interaction_weights(qc)
        assert weights[(0, 1)] == 2
        assert weights[(1, 2)] == 1

    def test_empty_for_1q_circuit(self):
        qc = Circuit(2)
        qc.h(0)
        assert interaction_weights(qc) == {}


class TestRowMajor:
    def test_places_in_requested_zone(self, arch):
        layout = row_major_layout(arch, 5, Zone.STORAGE)
        assert all(layout.zone_of(q) is Zone.STORAGE for q in range(5))


class TestAnnealed:
    def test_all_qubits_placed_distinctly(self, arch):
        qc = qaoa_regular(10, degree=3, seed=0)
        layout = annealed_layout(
            arch, qc, rng=random.Random(0), iterations_per_qubit=30
        )
        assert layout.num_qubits == 10
        sites = [layout.site_of(q) for q in range(10)]
        assert len(set(sites)) == 10
        layout.validate()

    def test_annealing_improves_over_row_major(self, arch):
        """On a structured instance annealing should not be worse."""
        qc = Circuit(16)
        # A ring: row-major placement leaves the wrap-around edge long.
        for q in range(16):
            qc.cz(q, (q + 1) % 16)
        weights = interaction_weights(qc)
        base = layout_cost(row_major_layout(arch, 16), weights)
        annealed = layout_cost(
            annealed_layout(
                arch, qc, rng=random.Random(1), iterations_per_qubit=200
            ),
            weights,
        )
        assert annealed <= base

    def test_gate_free_circuit_falls_back(self, arch):
        qc = Circuit(4)
        qc.h(0)
        layout = annealed_layout(arch, qc, rng=random.Random(0))
        assert layout == row_major_layout(arch, 4)

    def test_too_many_qubits_rejected(self):
        arch = ZonedArchitecture(2, 2)
        qc = Circuit(9)
        qc.cz(0, 1)
        with pytest.raises(ValueError):
            annealed_layout(arch, qc)

    def test_deterministic_with_seed(self, arch):
        qc = qaoa_regular(8, degree=3, seed=2)
        a = annealed_layout(
            arch, qc, rng=random.Random(5), iterations_per_qubit=20
        )
        b = annealed_layout(
            arch, qc, rng=random.Random(5), iterations_per_qubit=20
        )
        assert a == b

    @pytest.mark.parametrize("seed", range(8))
    def test_zero_temperature_is_greedy(self, arch, seed):
        """``initial_temperature=0.0`` rejects every uphill move.

        Zero must not fall back to the two-pitch default: at that
        temperature this ring ends above its row-major start for most
        seeds.  The tolerance only covers rounding in the per-move
        deltas.
        """
        qc = Circuit(12)
        for q in range(11):
            qc.cz(q, q + 1)
        qc.cz(0, 11)
        weights = interaction_weights(qc)
        base = layout_cost(row_major_layout(arch, 12), weights)
        layout = annealed_layout(
            arch,
            qc,
            rng=random.Random(seed),
            iterations_per_qubit=20,
            initial_temperature=0.0,
        )
        assert layout_cost(layout, weights) <= base * (1 + 1e-12)
