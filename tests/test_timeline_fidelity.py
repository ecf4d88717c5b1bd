"""Unit tests for the timeline simulator and the Eq. (1) fidelity model."""

import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.gates import Gate
from repro.fidelity import (
    COMPONENT_NAMES,
    ExecutionTimeline,
    FidelityModel,
    evaluate_program,
    simulate_timeline,
)
from repro.hardware import (
    DEFAULT_PARAMS,
    CollMove,
    Layout,
    Move,
    Zone,
    ZonedArchitecture,
)
from repro.schedule import (
    MoveBatch,
    NAProgram,
    OneQubitLayer,
    PositionTracker,
    RydbergStage,
    TrackerError,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))

import gen_backend_digests as golden  # noqa: E402


@pytest.fixture
def arch():
    return ZonedArchitecture(3, 3, 3, 6)


def build_program(arch, instructions, n=2, zone=Zone.COMPUTE):
    return NAProgram(
        architecture=arch,
        initial_layout=Layout.row_major(arch, n, zone),
        instructions=instructions,
    )


class TestTimelineOneQubitLayer:
    def test_gate_time_not_idle(self, arch):
        layer = OneQubitLayer([Gate("h", (0,)), Gate("h", (1,))])
        timeline = simulate_timeline(build_program(arch, [layer]))
        assert timeline.total_time == pytest.approx(1e-6)
        assert timeline.exposure[0] == pytest.approx(0.0)
        assert timeline.num_one_qubit_gates == 2

    def test_ungated_compute_qubit_exposed(self, arch):
        layer = OneQubitLayer([Gate("h", (0,))])
        timeline = simulate_timeline(build_program(arch, [layer], n=2))
        assert timeline.exposure[1] == pytest.approx(1e-6)

    def test_storage_qubit_protected(self, arch):
        layer = OneQubitLayer([Gate("h", (0,))])
        program = build_program(arch, [layer], n=2, zone=Zone.STORAGE)
        timeline = simulate_timeline(program)
        assert timeline.exposure[1] == pytest.approx(0.0)
        assert timeline.storage_dwell[1] == pytest.approx(1e-6)


class TestTimelineRydberg:
    def test_idle_counting_compute(self, arch):
        stage = RydbergStage([Gate("cz", (0, 1))])
        timeline = simulate_timeline(
            build_program(
                arch,
                [
                    MoveBatch(
                        coll_moves=[
                            CollMove(
                                moves=[
                                    Move(
                                        1,
                                        arch.site(Zone.COMPUTE, 1, 0),
                                        arch.site(Zone.COMPUTE, 0, 0),
                                    )
                                ]
                            )
                        ]
                    ),
                    stage,
                ],
                n=4,
            )
        )
        # Qubits 2 and 3 idle in compute during one excitation.
        assert timeline.idle_excitations == 2
        assert timeline.idle_per_stage == [2]
        assert timeline.num_stages == 1
        assert timeline.num_two_qubit_gates == 1

    def test_storage_qubits_not_excited(self, arch):
        s0 = arch.site(Zone.COMPUTE, 0, 0)
        mapping = {
            0: s0,
            1: s0,
            2: arch.site(Zone.STORAGE, 0, 0),
            3: arch.site(Zone.STORAGE, 1, 0),
        }
        program = NAProgram(
            architecture=arch,
            initial_layout=Layout(arch, mapping),
            instructions=[RydbergStage([Gate("cz", (0, 1))])],
        )
        timeline = simulate_timeline(program)
        assert timeline.idle_excitations == 0
        assert timeline.storage_dwell[2] > 0


class TestTimelineMoves:
    def test_movers_and_bystanders_exposed(self, arch):
        s1 = arch.site(Zone.COMPUTE, 1, 0)
        d1 = arch.site(Zone.COMPUTE, 2, 2)
        batch = MoveBatch(coll_moves=[CollMove(moves=[Move(1, s1, d1)])])
        program = build_program(arch, [batch], n=3)
        timeline = simulate_timeline(program)
        duration = batch.duration(DEFAULT_PARAMS)
        assert timeline.total_time == pytest.approx(duration)
        for q in range(3):
            assert timeline.exposure[q] == pytest.approx(duration)
        assert timeline.num_transfers == 2
        assert timeline.move_time == pytest.approx(duration)

    def test_storage_resident_protected_during_move(self, arch):
        mapping = {
            0: arch.site(Zone.COMPUTE, 0, 0),
            1: arch.site(Zone.STORAGE, 0, 0),
        }
        batch = MoveBatch(
            coll_moves=[
                CollMove(
                    moves=[
                        Move(
                            0,
                            arch.site(Zone.COMPUTE, 0, 0),
                            arch.site(Zone.COMPUTE, 1, 0),
                        )
                    ]
                )
            ]
        )
        program = NAProgram(
            architecture=arch,
            initial_layout=Layout(arch, mapping),
            instructions=[batch],
        )
        timeline = simulate_timeline(program)
        assert timeline.exposure[1] == 0.0
        assert timeline.storage_dwell[1] == pytest.approx(
            batch.duration(DEFAULT_PARAMS)
        )


class TestFidelityModel:
    def test_two_qubit_component(self, arch):
        s0 = arch.site(Zone.COMPUTE, 0, 0)
        program = NAProgram(
            architecture=arch,
            initial_layout=Layout(arch, {0: s0, 1: s0}),
            instructions=[RydbergStage([Gate("cz", (0, 1))])],
        )
        report = evaluate_program(program)
        assert report.two_qubit == pytest.approx(0.995)

    def test_excitation_component(self, arch):
        s0 = arch.site(Zone.COMPUTE, 0, 0)
        mapping = {0: s0, 1: s0, 2: arch.site(Zone.COMPUTE, 1, 1)}
        program = NAProgram(
            architecture=arch,
            initial_layout=Layout(arch, mapping),
            instructions=[RydbergStage([Gate("cz", (0, 1))])],
        )
        report = evaluate_program(program)
        assert report.excitation == pytest.approx(0.9975)

    def test_transfer_component(self, arch):
        batch = MoveBatch(
            coll_moves=[
                CollMove(
                    moves=[
                        Move(
                            0,
                            arch.site(Zone.COMPUTE, 0, 0),
                            arch.site(Zone.COMPUTE, 1, 1),
                        )
                    ]
                )
            ]
        )
        program = build_program(arch, [batch], n=1)
        report = evaluate_program(program)
        assert report.transfer == pytest.approx(0.999**2)

    def test_decoherence_component(self, arch):
        batch = MoveBatch(
            coll_moves=[
                CollMove(
                    moves=[
                        Move(
                            0,
                            arch.site(Zone.COMPUTE, 0, 0),
                            arch.site(Zone.COMPUTE, 2, 2),
                        )
                    ]
                )
            ]
        )
        program = build_program(arch, [batch], n=1)
        report = evaluate_program(program)
        expected = 1.0 - batch.duration(DEFAULT_PARAMS) / 1.5
        assert report.decoherence == pytest.approx(expected)

    def test_total_is_product_without_1q(self, arch):
        program = build_program(
            arch,
            [OneQubitLayer([Gate("h", (0,))])],
            n=1,
        )
        report = evaluate_program(program)
        assert report.total == pytest.approx(
            report.two_qubit
            * report.excitation
            * report.transfer
            * report.decoherence
        )
        assert report.total_with_1q == pytest.approx(
            report.total * report.one_qubit
        )
        assert report.one_qubit == pytest.approx(0.9999)

    def test_breakdown_names(self, arch):
        program = build_program(arch, [], n=1)
        report = evaluate_program(program)
        breakdown = report.infidelity_breakdown()
        assert set(breakdown) == set(COMPONENT_NAMES)
        assert all(v == pytest.approx(0.0) for v in breakdown.values())

    def test_log_breakdown_additivity(self, arch):
        s0 = arch.site(Zone.COMPUTE, 0, 0)
        mapping = {0: s0, 1: s0, 2: arch.site(Zone.COMPUTE, 1, 1)}
        program = NAProgram(
            architecture=arch,
            initial_layout=Layout(arch, mapping),
            instructions=[RydbergStage([Gate("cz", (0, 1))])],
        )
        report = evaluate_program(program)
        logs = report.log_breakdown()
        assert sum(logs.values()) == pytest.approx(
            -math.log10(report.total)
        )

    def test_decoherence_clamped_at_zero(self, arch):
        timeline = ExecutionTimeline(exposure={0: 99.0})
        report = FidelityModel().from_timeline(timeline)
        assert report.decoherence == 0.0
        assert report.total == 0.0

    def test_component_lookup_and_errors(self, arch):
        program = build_program(arch, [], n=1)
        report = evaluate_program(program)
        assert report.component("transfer") == report.transfer
        with pytest.raises(KeyError):
            report.component("bogus")

    def test_execution_time_units(self, arch):
        layer = OneQubitLayer([Gate("h", (0,))])
        report = evaluate_program(build_program(arch, [layer], n=1))
        assert report.execution_time_us == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Differential test: the touched-qubit replay against the per-qubit loop
# ----------------------------------------------------------------------


def reference_timeline(program: NAProgram) -> ExecutionTimeline:
    """The per-qubit, per-instruction replay ``simulate_timeline`` replaced.

    Kept verbatim so the lazy charge is checked for exact (bit-level)
    agreement, not approximate agreement.
    """
    params = program.architecture.params
    layout = PositionTracker.from_layout(program.initial_layout)
    timeline = ExecutionTimeline()
    qubits = layout.qubits
    timeline.exposure = {q: 0.0 for q in qubits}
    timeline.storage_dwell = {q: 0.0 for q in qubits}

    def expose_resting(duration: float, busy: dict[int, float]) -> None:
        """Charge ``duration`` to every qubit, minus protection and work."""
        for q in qubits:
            work = busy.get(q, 0.0)
            if layout.zone_of(q) is Zone.STORAGE:
                timeline.storage_dwell[q] += duration - work
            else:
                timeline.exposure[q] += duration - work

    for instr in program.instructions:
        if isinstance(instr, OneQubitLayer):
            duration = instr.duration(params)
            busy = {
                q: count * params.duration_1q
                for q, count in instr.pulse_counts().items()
            }
            expose_resting(duration, busy)
            timeline.total_time += duration
            timeline.num_one_qubit_gates += instr.num_gates
        elif isinstance(instr, MoveBatch):
            duration = instr.duration(params)
            movers = set(instr.moved_qubits)
            # Movers are in flight for the full batch: exposed regardless of
            # their start/end zone.  Resting qubits are protected iff parked
            # in storage.
            for q in qubits:
                if q in movers:
                    timeline.exposure[q] += duration
                elif layout.zone_of(q) is Zone.STORAGE:
                    timeline.storage_dwell[q] += duration
                else:
                    timeline.exposure[q] += duration
            layout.apply_moves(instr.all_moves)
            timeline.total_time += duration
            timeline.move_time += duration
            timeline.num_transfers += instr.num_transfers
        elif isinstance(instr, RydbergStage):
            duration = instr.duration(params)
            interacting = instr.interacting_qubits()
            idle_here = 0
            for q in qubits:
                if q in interacting:
                    continue
                if layout.zone_of(q) is Zone.STORAGE:
                    timeline.storage_dwell[q] += duration
                else:
                    timeline.exposure[q] += duration
                    idle_here += 1
            timeline.total_time += duration
            timeline.num_stages += 1
            timeline.num_two_qubit_gates += instr.num_gates
            timeline.idle_excitations += idle_here
            timeline.idle_per_stage.append(idle_here)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction {instr!r}")

    return timeline


def _bits(values):
    return [float(v).hex() for v in values]


def assert_same_replay(program: NAProgram) -> None:
    """``simulate_timeline`` equals the reference bit for bit."""
    got = simulate_timeline(program)
    want = reference_timeline(program)
    assert got == want
    assert list(got.exposure) == list(want.exposure)
    assert list(got.storage_dwell) == list(want.storage_dwell)
    # ``==`` treats 0.0 and -0.0 alike; compare the bit patterns too.
    assert _bits(got.exposure.values()) == _bits(want.exposure.values())
    assert _bits(got.storage_dwell.values()) == _bits(
        want.storage_dwell.values()
    )
    assert _bits([got.total_time, got.move_time]) == _bits(
        [want.total_time, want.move_time]
    )
    model = FidelityModel(program.architecture.params)
    assert _bits([model.from_timeline(got).total]) == _bits(
        [model.from_timeline(want).total]
    )


@pytest.mark.parametrize(
    "backend,workload,seed",
    list(golden.cells()),
    ids=[f"{b}-{w}-s{s}" for b, w, s in golden.cells()],
)
def test_replay_matches_reference_on_golden_cells(backend, workload, seed):
    assert_same_replay(golden.compile_cell(backend, workload, seed))


#: 3x3 compute sites and 3x6 storage sites; up to 8 qubits.
_ARCH = ZonedArchitecture(3, 3, 3, 6)
_SITES = _ARCH.sites_in(Zone.COMPUTE) + _ARCH.sites_in(Zone.STORAGE)
#: Gate operands may name these qubits, which are never in the layout.
_ABSENT = 2


@st.composite
def random_programs(draw):
    """Programs over a mixed compute/storage layout with valid moves."""
    n = draw(st.integers(1, 8))
    sites = draw(st.permutations(_SITES))[:n]
    positions = dict(enumerate(sites))
    operand = st.integers(0, n - 1 + _ABSENT)
    instructions = []
    for kind in draw(st.lists(st.sampled_from("1mr"), max_size=12)):
        if kind == "1":
            # Repeats make multi-pulse chains on one qubit.
            qubits = draw(st.lists(operand, max_size=6))
            instructions.append(
                OneQubitLayer([Gate("h", (q,)) for q in qubits])
            )
        elif kind == "m":
            movers = draw(
                st.lists(st.integers(0, n - 1), unique=True, max_size=n)
            )
            moves = []
            for q in movers:
                # Any other site, either zone: crossings both ways.
                dest = draw(
                    st.sampled_from(
                        [s for s in _SITES if s != positions[q]]
                    )
                )
                moves.append(Move(q, positions[q], dest))
                positions[q] = dest
            split = draw(st.integers(0, len(moves)))
            coll_moves = [
                CollMove(moves=part)
                for part in (moves[:split], moves[split:])
                if part
            ]
            instructions.append(MoveBatch(coll_moves=coll_moves))
        else:
            pairs = draw(
                st.lists(st.tuples(operand, operand), max_size=4)
            )
            instructions.append(
                RydbergStage(
                    [Gate("cz", (a, b)) for a, b in pairs if a != b]
                )
            )
    return NAProgram(
        architecture=_ARCH,
        initial_layout=Layout(_ARCH, dict(enumerate(sites))),
        instructions=instructions,
    )


@settings(max_examples=300, deadline=None)
@given(random_programs())
def test_replay_matches_reference_on_random_programs(program):
    assert_same_replay(program)


class TestReplayErrorParity:
    """Both replays reject the same malformed programs the same way."""

    @staticmethod
    def raised(replay, program):
        try:
            replay(program)
        except Exception as exc:  # noqa: BLE001 - the type is the point
            return type(exc)
        return None

    def assert_parity(self, program, expected):
        assert self.raised(simulate_timeline, program) is expected
        assert self.raised(reference_timeline, program) is expected

    def test_source_mismatch(self, arch):
        wrong = Move(
            0, arch.site(Zone.COMPUTE, 2, 2), arch.site(Zone.COMPUTE, 1, 1)
        )
        batch = MoveBatch(coll_moves=[CollMove(moves=[wrong])])
        program = build_program(arch, [batch], n=2)
        self.assert_parity(program, TrackerError)

    def test_qubit_moved_twice_in_one_batch(self, arch):
        src = arch.site(Zone.COMPUTE, 0, 0)
        batch = MoveBatch(
            coll_moves=[
                CollMove(moves=[Move(0, src, arch.site(Zone.COMPUTE, 2, 0))]),
                CollMove(moves=[Move(0, src, arch.site(Zone.STORAGE, 0, 0))]),
            ]
        )
        program = build_program(arch, [batch], n=2)
        self.assert_parity(program, TrackerError)

    def test_unknown_instruction(self, arch):
        program = build_program(
            arch, [OneQubitLayer([Gate("h", (0,))]), object()], n=2
        )
        self.assert_parity(program, TypeError)
