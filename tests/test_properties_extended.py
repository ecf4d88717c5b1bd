"""Extended property-based tests: serialisation, colouring, waveforms,
annealing and the fidelity model."""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, partition_into_blocks
from repro.core.stage_scheduler import partition_stages
from repro.fidelity import ExecutionTimeline, FidelityModel
from repro.hardware import (
    DEFAULT_PARAMS,
    HardwareParams,
    Move,
    ZonedArchitecture,
    group_moves,
)
from repro.hardware.kinematics import BangBangProfile, PaperProfile

ARCH = ZonedArchitecture(4, 4, 4, 8)
ALL_SITES = list(ARCH.all_sites)

sites = st.sampled_from(ALL_SITES)


@st.composite
def moves(draw, qubit=None):
    src = draw(sites)
    dst = draw(sites.filter(lambda s: s != src))
    q = qubit if qubit is not None else draw(st.integers(0, 63))
    return Move(q, src, dst)


def cz_block(num_qubits, pairs):
    """The first commuting block of a circuit of CZ ``pairs``."""
    qc = Circuit(num_qubits)
    for a, b in pairs:
        qc.cz(a, b)
    return partition_into_blocks(qc).blocks[0]


@st.composite
def random_cz_blocks(draw):
    """A commuting block as a list of random CZ pairs."""
    n = draw(st.integers(2, 10))
    pairs = []
    for _ in range(draw(st.integers(1, 25))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1).filter(lambda x, a=a: x != a))
        pairs.append((a, b))
    return cz_block(n, pairs)


#: A 21-gate block on 8 qubits where DSATUR needs 8 stages and the
#: static degree order 6.
DSATUR_LOSES = cz_block(
    8,
    [
        (6, 3), (7, 2), (0, 4), (0, 7), (1, 3), (6, 5), (4, 2),
        (6, 1), (7, 6), (6, 7), (2, 3), (1, 0), (7, 3), (4, 0),
        (5, 3), (5, 4), (0, 2), (4, 2), (0, 2), (5, 4), (6, 3),
    ],
)


class TestColoringProperties:
    @given(random_cz_blocks(), st.sampled_from(["saturation", "degree"]))
    @settings(max_examples=60)
    def test_coloring_is_proper(self, block, ordering):
        """No two gates of one stage share a qubit, either ordering."""
        stages = partition_stages(block, ordering=ordering)
        for stage in stages:
            stage.validate()
        total = sum(s.num_gates for s in stages)
        assert total == block.num_gates

    @given(random_cz_blocks())
    @settings(max_examples=60)
    def test_stage_count_at_least_max_multiplicity(self, block):
        """Lower bound: a qubit in k gates forces >= k stages."""
        counts: dict[int, int] = {}
        for gate in block.gates:
            for q in gate.qubits:
                counts[q] = counts.get(q, 0) + 1
        stages = partition_stages(block)
        assert len(stages) >= max(counts.values())

    @given(random_cz_blocks())
    @example(DSATUR_LOSES)
    @settings(max_examples=60)
    def test_both_orderings_stay_within_the_greedy_bound(self, block):
        """Each ordering is a proper greedy colouring, so it uses at
        most max degree + 1 stages of the gates' conflict graph.
        Neither ordering bounds the other (see ``DSATUR_LOSES``)."""
        qubits = [set(gate.qubits) for gate in block.gates]
        max_degree = max(
            sum(
                1
                for j, other in enumerate(qubits)
                if j != i and mine & other
            )
            for i, mine in enumerate(qubits)
        )
        for ordering in ("saturation", "degree"):
            stages = partition_stages(block, ordering=ordering)
            for stage in stages:
                stage.validate()
            assert sum(s.num_gates for s in stages) == block.num_gates
            assert len(stages) <= max_degree + 1

    def test_dsatur_can_need_more_stages_than_degree_order(self):
        sat = len(partition_stages(DSATUR_LOSES, ordering="saturation"))
        deg = len(partition_stages(DSATUR_LOSES, ordering="degree"))
        assert (DSATUR_LOSES.num_gates, sat, deg) == (21, 8, 6)


class TestSerializationProperty:
    # Unique sources too: the initial layout places every qubit at its
    # move's source, and a site holds at most two qubits -- three moves
    # sharing a source would build an invalid Layout, not a program.
    @given(
        st.lists(
            moves(),
            min_size=1,
            max_size=8,
            unique_by=(lambda m: m.qubit, lambda m: m.source),
        )
    )
    @settings(max_examples=40)
    def test_program_round_trip(self, move_list):
        from repro.hardware import Layout
        from repro.schedule import MoveBatch, NAProgram
        from repro.schedule.serialize import (
            program_from_dict,
            program_to_dict,
        )

        layout = Layout(
            ARCH, {m.qubit: m.source for m in move_list}
        )
        groups = group_moves(move_list)
        program = NAProgram(
            architecture=ARCH,
            initial_layout=layout,
            instructions=[
                MoveBatch(coll_moves=[group]) for group in groups
            ],
        )
        rebuilt = program_from_dict(program_to_dict(program))
        assert rebuilt.num_single_moves == program.num_single_moves
        assert rebuilt.initial_layout == program.initial_layout
        assert (
            rebuilt.total_move_distance()
            == program.total_move_distance()
        )


class TestKinematicsProperties:
    @given(
        st.floats(min_value=1e-6, max_value=1e-3),
        st.floats(min_value=100.0, max_value=10000.0),
    )
    @settings(max_examples=60)
    def test_profiles_reach_target(self, distance, acceleration):
        for profile_cls in (BangBangProfile, PaperProfile):
            profile = profile_cls(distance, acceleration)
            assert profile.position_at(profile.duration) == (
                __import__("pytest").approx(distance, rel=1e-9)
            )
            assert profile.position_at(0.0) == 0.0

    @given(
        st.floats(min_value=1e-6, max_value=1e-3),
        st.floats(min_value=100.0, max_value=10000.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_position_monotone_nondecreasing(
        self, distance, acceleration, frac
    ):
        for profile_cls in (BangBangProfile, PaperProfile):
            profile = profile_cls(distance, acceleration)
            t = frac * profile.duration
            later = min(t + profile.duration * 0.05, profile.duration)
            assert profile.position_at(later) >= profile.position_at(t) - 1e-15

    @given(
        st.floats(min_value=1e-6, max_value=1e-3),
        st.floats(min_value=100.0, max_value=10000.0),
    )
    @settings(max_examples=60)
    def test_paper_profile_matches_params_law(self, distance, acceleration):
        import pytest

        profile = PaperProfile(distance, acceleration)
        params = HardwareParams(acceleration=acceleration)
        assert profile.duration == pytest.approx(
            params.move_duration(distance)
        )


class TestFidelityModelProperties:
    @given(
        st.integers(0, 200),
        st.integers(0, 200),
        st.integers(0, 400),
        st.lists(
            st.floats(min_value=0.0, max_value=0.1), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=60)
    def test_total_in_unit_interval(self, g2, exc, trans, exposures):
        timeline = ExecutionTimeline(
            num_two_qubit_gates=g2,
            idle_excitations=exc,
            num_transfers=trans,
            exposure={i: e for i, e in enumerate(exposures)},
        )
        report = FidelityModel(DEFAULT_PARAMS).from_timeline(timeline)
        assert 0.0 <= report.total <= 1.0
        assert report.total <= report.two_qubit

    @given(st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=40)
    def test_monotone_in_gate_count(self, g2a, g2b):
        lo, hi = sorted((g2a, g2b))
        model = FidelityModel(DEFAULT_PARAMS)
        fa = model.from_timeline(
            ExecutionTimeline(num_two_qubit_gates=lo)
        ).total
        fb = model.from_timeline(
            ExecutionTimeline(num_two_qubit_gates=hi)
        ).total
        assert fb <= fa


class TestAnnealingProperty:
    @given(st.integers(0, 2**16), st.integers(4, 10))
    @settings(max_examples=20, deadline=None)
    def test_annealed_layout_always_valid(self, seed, n):
        from repro.baselines.placement import annealed_layout
        from repro.circuits.generators import qaoa_random

        qc = qaoa_random(n, seed=seed % 100)
        layout = annealed_layout(
            ARCH, qc, rng=random.Random(seed), iterations_per_qubit=15
        )
        layout.validate()
        assert layout.num_qubits == n
        sites = {layout.site_of(q) for q in range(n)}
        assert len(sites) == n
