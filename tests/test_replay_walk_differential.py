"""Differential test: the single replay walk against the two replays it
replaced.

``validate_program`` and ``simulate_timeline`` below are the previous
validator and the previous Eq. (1) replay, each of which built its own
``PositionTracker`` and applied every move of a program again.  They are
kept verbatim (with the classes and helpers they use) under their old
names; the walk under test is reached as ``walk.validate_program`` and
``walk.simulate_timeline``.  Over hypothesis programs, valid and invalid,
and over the 37 golden cells the walk must give the same verdict, the
same violation list (count, order and text), the same exception (type
and message) and, on valid programs, a bit-identical timeline.

``TestOneWalkPerJob`` pins the point of the merge: the engine replays a
program once per validating compile and once per validating hit.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.circuits.transpile import transpile_to_native
from repro.engine import CompilationEngine, CompileJob, MemoryCache
from repro.engine.cache import job_cache_key
from repro.hardware.geometry import Site, Zone, ZonedArchitecture
from repro.hardware.layout import Layout
from repro.hardware.moves import CollMove, Move, moves_conflict
from repro.schedule import validator as walk
from repro.schedule.instructions import MoveBatch, OneQubitLayer, RydbergStage
from repro.schedule.program import NAProgram
from repro.schedule.tracker import PositionTracker, TrackerError
from repro.schedule.validator import ValidationError

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))

import gen_backend_digests as golden  # noqa: E402

# ----------------------------------------------------------------------
# The previous validator, verbatim
# ----------------------------------------------------------------------


@dataclass
class ValidationReport:
    """Outcome of a validation run.

    Attributes:
        ok: True when no violations were found.
        errors: Human-readable violation descriptions (empty when ok).
        num_instructions_checked: Instructions examined.
    """

    ok: bool = True
    errors: list[str] = field(default_factory=list)
    num_instructions_checked: int = 0

    def fail(self, message: str) -> None:
        """Record one violation."""
        self.ok = False
        self.errors.append(message)

    def raise_if_failed(self) -> None:
        """Raise :class:`ValidationError` when violations were recorded."""
        if not self.ok:
            raise ValidationError(
                f"{len(self.errors)} violation(s):\n" + "\n".join(self.errors)
            )


def _gate_key(gate: Gate) -> tuple:
    qubits = tuple(sorted(gate.qubits)) if gate.is_two_qubit else gate.qubits
    params = tuple(round(p, 9) for p in gate.params)
    return (gate.name, qubits, params)


def _check_move_batch(
    report: ValidationReport, program: NAProgram, index: int, batch: MoveBatch
) -> None:
    arch = program.architecture
    if batch.num_coll_moves == 0:
        report.fail(f"instr {index}: empty MoveBatch")
    if batch.num_coll_moves > arch.num_aods:
        report.fail(
            f"instr {index}: {batch.num_coll_moves} CollMoves exceed "
            f"{arch.num_aods} AOD array(s)"
        )
    aod_indices = [cm.aod_index for cm in batch.coll_moves]
    if len(set(aod_indices)) != len(aod_indices):
        report.fail(f"instr {index}: duplicate AOD index in batch")
    for aod in aod_indices:
        if not 0 <= aod < arch.num_aods:
            report.fail(f"instr {index}: AOD index {aod} out of range")
    for cm in batch.coll_moves:
        for i, a in enumerate(cm.moves):
            for b in cm.moves[i + 1:]:
                if moves_conflict(a, b):
                    report.fail(
                        f"instr {index}: AOD order violation within "
                        f"CollMove: ({a}) vs ({b})"
                    )
    for move in batch.all_moves:
        if not arch.contains(move.source) or not arch.contains(
            move.destination
        ):
            report.fail(f"instr {index}: move off-machine: {move}")


def _check_rydberg_stage(
    report: ValidationReport,
    index: int,
    stage: RydbergStage,
    tracker: PositionTracker,
) -> None:
    if stage.num_gates == 0:
        report.fail(f"instr {index}: empty RydbergStage")
    seen: set[int] = set()
    pair_sites = {}
    for gate in stage.gates:
        if not gate.is_cz_class:
            report.fail(f"instr {index}: non-CZ-class gate {gate} in stage")
            continue
        a, b = gate.qubits
        if a in seen or b in seen:
            report.fail(
                f"instr {index}: stage gates overlap on qubit "
                f"{a if a in seen else b}"
            )
        seen.update((a, b))
        site_a = tracker.site_of(a)
        site_b = tracker.site_of(b)
        if site_a != site_b:
            report.fail(
                f"instr {index}: gate {gate} pair not co-located "
                f"({site_a} vs {site_b})"
            )
            continue
        if site_a.zone is not Zone.COMPUTE:
            report.fail(
                f"instr {index}: gate {gate} executed outside the "
                f"computation zone ({site_a})"
            )
        pair_sites[site_a] = set(gate.qubits)
    # Site rules at excitation time: capacity everywhere; clustering in the
    # computation zone (any co-located group must be a gate pair of THIS
    # stage, otherwise the blockade produces an unwanted interaction).
    for site, tenants in tracker.occupancy().items():
        if len(tenants) > 2:
            report.fail(
                f"instr {index}: site {site} holds {len(tenants)} qubits "
                f"at excitation time"
            )
        if site.zone is Zone.COMPUTE and len(tenants) > 1:
            if tenants != pair_sites.get(site):
                report.fail(
                    f"instr {index}: clustering -- qubits {sorted(tenants)} "
                    f"share {site} but are not an interacting pair of this "
                    f"stage"
                )
        if site.zone is Zone.STORAGE and len(tenants) > 1:
            report.fail(
                f"instr {index}: storage site {site} holds "
                f"{sorted(tenants)} (storage sites are single-occupancy)"
            )


def validate_program(
    program: NAProgram,
    source_circuit: Circuit | None = None,
    raise_on_error: bool = True,
) -> ValidationReport:
    """Replay ``program`` and check every hardware constraint.

    Args:
        program: The compiled program.
        source_circuit: When given, additionally require that the executed
            gate multiset equals the circuit's native gate multiset.
        raise_on_error: Raise :class:`ValidationError` instead of returning
            a failing report.

    Returns:
        The :class:`ValidationReport` (always ``ok`` if ``raise_on_error``).
    """
    report = ValidationReport()
    tracker = PositionTracker.from_layout(program.initial_layout)

    for index, instr in enumerate(program.instructions):
        report.num_instructions_checked += 1
        if isinstance(instr, OneQubitLayer):
            for gate in instr.gates:
                if gate.is_two_qubit:
                    report.fail(
                        f"instr {index}: two-qubit gate {gate} in 1Q layer"
                    )
        elif isinstance(instr, MoveBatch):
            _check_move_batch(report, program, index, instr)
            try:
                tracker.apply_moves(instr.all_moves)
            except TrackerError as exc:
                report.fail(f"instr {index}: replay failed: {exc}")
        elif isinstance(instr, RydbergStage):
            _check_rydberg_stage(report, index, instr, tracker)
        else:  # pragma: no cover - defensive
            report.fail(f"instr {index}: unknown instruction {instr!r}")

    for site, tenants in tracker.occupancy().items():
        if len(tenants) > 2:
            report.fail(
                f"final layout: site {site} holds {len(tenants)} qubits"
            )

    if source_circuit is not None:
        expected_2q = Counter(
            _gate_key(g) for g in source_circuit.two_qubit_gates
        )
        executed_2q = Counter(
            _gate_key(g)
            for stage in program.rydberg_stages
            for g in stage.gates
        )
        if expected_2q != executed_2q:
            missing = expected_2q - executed_2q
            extra = executed_2q - expected_2q
            report.fail(
                f"2Q gate multiset mismatch: missing={dict(missing)} "
                f"extra={dict(extra)}"
            )
        expected_1q = Counter(
            _gate_key(g) for g in source_circuit.one_qubit_gates
        )
        executed_1q = Counter(
            _gate_key(g)
            for layer in program.one_qubit_layers
            for g in layer.gates
        )
        if expected_1q != executed_1q:
            report.fail("1Q gate multiset mismatch against source circuit")

    if raise_on_error:
        report.raise_if_failed()
    return report


# ----------------------------------------------------------------------
# The previous Eq. (1) replay, verbatim
# ----------------------------------------------------------------------


@dataclass
class ExecutionTimeline:
    """Aggregates produced by replaying a program.

    Attributes:
        total_time: Execution time ``T_exe`` in seconds.
        exposure: Per-qubit decoherence exposure ``T_q`` in seconds.
        num_one_qubit_gates: ``g1``.
        num_two_qubit_gates: ``g2``.
        num_transfers: ``N_trans``.
        idle_excitations: ``sum_i n_i`` across all Rydberg stages.
        idle_per_stage: ``n_i`` for each stage, in order.
        num_stages: Number of Rydberg excitations ``S``.
        move_time: Seconds spent in movement batches (incl. transfers).
        storage_dwell: Per-qubit seconds protected in the storage zone.
    """

    total_time: float = 0.0
    exposure: dict[int, float] = field(default_factory=dict)
    num_one_qubit_gates: int = 0
    num_two_qubit_gates: int = 0
    num_transfers: int = 0
    idle_excitations: int = 0
    idle_per_stage: list[int] = field(default_factory=list)
    num_stages: int = 0
    move_time: float = 0.0
    storage_dwell: dict[int, float] = field(default_factory=dict)

    def max_exposure(self) -> float:
        """Largest per-qubit exposure (seconds)."""
        return max(self.exposure.values(), default=0.0)

    def total_exposure(self) -> float:
        """Sum of per-qubit exposures (seconds)."""
        return sum(self.exposure.values())


def simulate_timeline(program: NAProgram) -> ExecutionTimeline:
    """Replay ``program`` and accumulate the Eq. (1) inputs.

    Per instruction, every tracked qubit is charged one term: a qubit
    pulsed in a 1Q layer gets ``duration - pulses * duration_1q``, a
    mover gets the batch duration as exposure, an interacting qubit of a
    Rydberg stage gets nothing, and every other (*resting*) qubit gets
    the instruction's duration -- as storage dwell when parked in
    storage, as exposure otherwise.  A resting qubit's zone cannot
    change (only moves change zones, and movers are not resting), so
    its charges between two instructions that touch it are a run of
    consecutive durations into one bucket.

    The replay therefore does per-instruction work only for the qubits
    an instruction touches.  Each qubit remembers its bucket and the
    index of its first uncharged instruction; when it is next touched,
    and once at the end, the pending run is charged as a left fold
    ``reduce(add, durations[start:k], acc)``.  That fold performs
    exactly the ``acc + d`` additions of a per-qubit, per-instruction
    loop, in the same order, so every float -- and hence Eq. (1) -- is
    bit-identical to it.  Prefix sums, ``math.fsum``, numpy reductions
    and the built-in ``sum`` are deliberately not used for the charges:
    they round differently (``sum`` of floats is compensated on Python
    >= 3.12).
    """
    params = program.architecture.params
    layout = PositionTracker.from_layout(program.initial_layout)
    timeline = ExecutionTimeline()
    qubits = layout.qubits
    exposure = timeline.exposure = {q: 0.0 for q in qubits}
    dwell = timeline.storage_dwell = {q: 0.0 for q in qubits}
    bucket = {
        q: dwell if layout.zone_of(q) is Zone.STORAGE else exposure
        for q in qubits
    }
    start = dict.fromkeys(qubits, 0)
    exposed = sum(b is exposure for b in bucket.values())
    durations: list[float] = []

    def settle(q: int, k: int) -> dict[int, float]:
        """Charge ``q``'s resting run before instruction ``k``; its bucket."""
        b = bucket[q]
        if start[q] < k:
            b[q] = reduce(add, durations[start[q]:k], b[q])
        start[q] = k + 1
        return b

    for k, instr in enumerate(program.instructions):
        if isinstance(instr, OneQubitLayer):
            duration = instr.duration(params)
            for q, count in instr.pulse_counts().items():
                if q in bucket:
                    settle(q, k)[q] += duration - count * params.duration_1q
            timeline.total_time += duration
            timeline.num_one_qubit_gates += instr.num_gates
        elif isinstance(instr, MoveBatch):
            duration = instr.duration(params)
            moves = instr.all_moves
            # Validates sources and duplicate movers before any charge.
            layout.apply_moves(moves)
            # Movers are in flight for the full batch: exposed regardless of
            # their start/end zone.  Resting qubits are protected iff parked
            # in storage.
            for move in moves:
                q = move.qubit
                if settle(q, k) is exposure:
                    exposed -= 1
                exposure[q] += duration
                if move.destination.zone is Zone.STORAGE:
                    bucket[q] = dwell
                else:
                    bucket[q] = exposure
                    exposed += 1
            timeline.total_time += duration
            timeline.move_time += duration
            timeline.num_transfers += instr.num_transfers
        elif isinstance(instr, RydbergStage):
            duration = instr.duration(params)
            idle_here = exposed
            for q in instr.interacting_qubits():
                if q in bucket and settle(q, k) is exposure:
                    idle_here -= 1
            timeline.total_time += duration
            timeline.num_stages += 1
            timeline.num_two_qubit_gates += instr.num_gates
            timeline.idle_excitations += idle_here
            timeline.idle_per_stage.append(idle_here)
        else:
            raise TypeError(f"unknown instruction {instr!r}")
        durations.append(duration)

    end = len(durations)
    for q in qubits:
        settle(q, end)
    return timeline


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def outcome(call, *args, **kwargs):
    """``("ok", value)`` or ``("raised", (type, message))``."""
    try:
        return "ok", call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raised", (type(exc), str(exc))


def timeline_bits(timeline) -> list[tuple]:
    """Every field, floats as ``float.hex`` and dicts in their order."""
    out = []
    for f in dataclasses.fields(timeline):
        value = getattr(timeline, f.name)
        if isinstance(value, float):
            value = value.hex()
        elif isinstance(value, dict):
            value = [(k, v.hex()) for k, v in value.items()]
        out.append((f.name, value))
    return out


def assert_same_walk(program: NAProgram, source: Circuit | None) -> None:
    """The walk agrees with both previous replays on ``program``."""
    want_t = outcome(simulate_timeline, program)
    got_t = outcome(walk.simulate_timeline, program)
    if want_t[0] == "raised":
        assert got_t == want_t
    else:
        assert got_t[0] == "ok"
        assert timeline_bits(got_t[1]) == timeline_bits(want_t[1])

    for raise_on_error in (False, True):
        kwargs = dict(source_circuit=source, raise_on_error=raise_on_error)
        want = outcome(validate_program, program, **kwargs)
        got = outcome(walk.validate_program, program, **kwargs)
        if want[0] == "raised":
            assert got == want
            continue
        assert got[0] == "ok"
        report = got[1]
        assert (report.ok, report.errors) == (want[1].ok, want[1].errors)
        if report.ok:
            # A valid program replays without error, so want_t is a value.
            assert timeline_bits(report.timeline) == timeline_bits(
                want_t[1]
            )
        else:
            assert report.timeline is None


# ----------------------------------------------------------------------
# Programs, valid and invalid
# ----------------------------------------------------------------------

#: 3x3 compute sites, 3x6 storage sites and two AOD arrays.
_ARCH = ZonedArchitecture(3, 3, 3, 6, num_aods=2)
_COMPUTE = _ARCH.sites_in(Zone.COMPUTE)
_SITES = _COMPUTE + _ARCH.sites_in(Zone.STORAGE)
#: A computation-zone site beyond the machine's 3x3 grid.
_OFF_MACHINE = Site(
    Zone.COMPUTE,
    5,
    5,
    5 * _ARCH.params.site_pitch,
    _ARCH.params.zone_gap + 5 * _ARCH.params.site_pitch,
)
#: Gate operands may name these qubits, which are never in the layout.
_ABSENT = 2
#: Rotation angles; the second rounds to the first in the gate multiset.
_ANGLES = (0.25, 0.25 + 1e-12, 1.5)

#: Faults a drawn program may contain (the empty set draws valid ones).
FAULTS = (
    "source",        # a move departs from a site its qubit is not on
    "twice",         # a qubit moved twice in one batch
    "aod_dup",       # two CollMoves of a batch on one AOD array
    "aod_range",     # an AOD index the machine does not have
    "aod_excess",    # more CollMoves in a batch than AOD arrays
    "conflict",      # AOD order violated inside a CollMove
    "off_machine",   # a move lands off the machine
    "crowd",         # a move onto an occupied site (storage or a pair's)
    "empty",         # an empty MoveBatch or RydbergStage
    "apart",         # a stage gate whose pair is not co-located
    "storage_gate",  # a stage gate on a pair co-located in storage
    "cluster",       # a co-located compute pair left out of a stage
    "overlap",       # two stage gates sharing a qubit
    "non_cz",        # a 1Q or non-CZ-class gate in a stage
    "two_q_layer",   # a 2Q gate in a 1Q layer
    "absent",        # gates or moves on qubits the layout does not track
    "unknown",       # an instruction of no known kind
    "multiset",      # the source circuit's gates differ from the program's
)


def _one_qubit_layer(draw, n, fault):
    span = n - 1 + (_ABSENT if fault("absent") else 0)
    gates = []
    for q in draw(st.lists(st.integers(0, span), max_size=6)):
        if draw(st.booleans()):
            gates.append(Gate("h", (q,)))
        else:
            gates.append(Gate("rz", (q,), (draw(st.sampled_from(_ANGLES)),)))
    if n >= 2 and fault("two_q_layer"):
        a, b = draw(st.permutations(range(n)))[:2]
        gates.insert(draw(st.integers(0, len(gates))), Gate("cz", (a, b)))
    return OneQubitLayer(gates)


def _move_batch(draw, positions, fault):
    """A batch over ``positions`` (updated in place when it applies)."""
    n = len(positions)
    tenants = Counter(positions.values())
    coll_moves: list[CollMove] = []
    moves: list[Move] = []
    for q in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        src = positions[q]
        if fault("off_machine"):
            choices = [_OFF_MACHINE]
        elif fault("crowd"):
            choices = [s for s in tenants if tenants[s] > 0]
        else:
            # A compute site joining a lone tenant (half the time, when
            # there is one), or a free site.
            choices = [
                s for s in _COMPUTE if tenants[s] == 1 and s != src
            ]
            if not choices or draw(st.booleans()):
                choices = [s for s in _SITES if tenants[s] == 0]
        choices = [s for s in choices if s != src]
        if not choices:
            continue
        move = Move(q, src, draw(st.sampled_from(choices)))
        if coll_moves and fault("conflict"):
            coll_moves[-1].moves.append(move)
        else:
            target = next((cm for cm in coll_moves if cm.accepts(move)), None)
            if target is not None:
                target.moves.append(move)
            elif len(coll_moves) < _ARCH.num_aods or fault("aod_excess"):
                coll_moves.append(
                    CollMove(moves=[move], aod_index=len(coll_moves))
                )
            else:
                continue
        tenants[src] -= 1
        tenants[move.destination] += 1
        moves.append(move)
    applies = True
    if moves and fault("source"):
        bad = draw(st.sampled_from(moves))
        wrong = [
            s for s in _SITES if s not in (bad.source, bad.destination)
        ]
        for cm in coll_moves:
            cm.moves = [
                Move(m.qubit, draw(st.sampled_from(wrong)), m.destination)
                if m is bad
                else m
                for m in cm.moves
            ]
        applies = False
    if moves and fault("twice"):
        again = draw(st.sampled_from(moves))
        cm = draw(st.sampled_from(coll_moves))
        cm.moves.append(again)
        applies = False
    if coll_moves and fault("absent"):
        # A mover the layout does not track.
        src, dest = draw(st.permutations(_SITES))[:2]
        ghost = n + draw(st.integers(0, 1))
        coll_moves[-1].moves.append(Move(ghost, src, dest))
        applies = False
    if len(coll_moves) >= 2 and fault("aod_dup"):
        coll_moves[1].aod_index = coll_moves[0].aod_index
    if coll_moves and fault("aod_range"):
        cm = draw(st.sampled_from(coll_moves))
        cm.aod_index = draw(st.sampled_from([-1, _ARCH.num_aods, 7]))
    if fault("empty"):
        coll_moves = []
        applies = False
    if applies:
        positions.update((m.qubit, m.destination) for m in moves)
    return MoveBatch(coll_moves=coll_moves)


def _cz(draw, a, b):
    name = draw(st.sampled_from(["cz", "cp", "rzz"]))
    params = () if name == "cz" else (draw(st.sampled_from(_ANGLES)),)
    pair = (a, b) if draw(st.booleans()) else (b, a)
    return Gate(name, pair, params)


def _rydberg_stage(draw, positions, fault):
    """Every co-located compute pair as a gate, plus drawn faults; or
    ``None`` when there is nothing valid to excite."""
    n = len(positions)
    by_site: dict[Site, list[int]] = {}
    for q, site in positions.items():
        by_site.setdefault(site, []).append(q)
    gates = [
        _cz(draw, *qs)
        for site, qs in by_site.items()
        if len(qs) == 2 and site.zone is Zone.COMPUTE
    ]
    if gates and fault("cluster"):
        gates.pop(draw(st.integers(0, len(gates) - 1)))
    if n >= 2 and fault("apart"):
        a, b = draw(st.permutations(range(n)))[:2]
        if positions[a] != positions[b]:
            gates.append(_cz(draw, a, b))
    stored = [
        qs for site, qs in by_site.items()
        if len(qs) >= 2 and site.zone is Zone.STORAGE
    ]
    if stored and fault("storage_gate"):
        qs = draw(st.sampled_from(stored))
        gates.append(_cz(draw, qs[0], qs[1]))
    if gates and n >= 3 and fault("overlap"):
        a = gates[0].qubits[0]
        others = [q for q in range(n) if q not in gates[0].qubits]
        b = draw(st.sampled_from(others))
        gates.append(_cz(draw, a, b))
    if fault("non_cz"):
        if n >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(range(n)))[:2]
            gates.append(Gate("cx", (a, b)))
        else:
            gates.append(Gate("h", (draw(st.integers(0, n - 1)),)))
    if fault("absent"):
        gates.append(
            _cz(draw, draw(st.integers(0, n - 1)), n + draw(st.integers(0, 1)))
        )
    if fault("empty"):
        gates = []
    elif not gates:
        return None
    return RydbergStage(draw(st.permutations(gates)))


def _source_circuit(draw, program, fault):
    """``None``, or a circuit holding the program's gates (perturbed
    under the ``multiset`` fault)."""
    if draw(st.booleans()):
        return None
    gates = [
        g
        for instr in program.instructions
        if isinstance(instr, (OneQubitLayer, RydbergStage))
        for g in instr.gates
    ]
    if fault("multiset"):
        kind = draw(st.sampled_from(["drop", "extra", "angle"]))
        if kind == "drop" and gates:
            gates.pop(draw(st.integers(0, len(gates) - 1)))
        elif kind == "extra":
            gates.append(
                draw(st.sampled_from([Gate("h", (0,)), Gate("cz", (0, 1))]))
            )
        else:
            gates = [
                Gate(g.name, g.qubits, tuple(p + 1e-3 for p in g.params))
                for g in gates
            ]
    width = max((q + 1 for g in gates for q in g.qubits), default=1)
    circuit = Circuit(max(width, 2))
    for gate in draw(st.permutations(gates)):
        circuit.append(gate)
    return circuit


@st.composite
def programs(draw, faults=None):
    """``(program, source circuit or None)``: valid when no fault is
    enabled, otherwise with each enabled fault of :data:`FAULTS` drawn
    at some of its chances.  ``faults`` fixes the enabled set; by
    default it is empty or any non-empty subset."""
    if faults is None:
        faults = draw(
            st.one_of(
                st.just(frozenset()),
                st.frozensets(st.sampled_from(FAULTS), min_size=1),
            )
        )

    def fault(name: str) -> bool:
        return name in faults and draw(st.booleans())

    n = draw(st.integers(1, 8))
    sites = draw(st.permutations(_SITES))[:n]
    positions = dict(enumerate(sites))
    instructions: list = []
    for kind in draw(st.lists(st.sampled_from("1mr"), max_size=12)):
        if kind == "1":
            instructions.append(_one_qubit_layer(draw, n, fault))
        elif kind == "m":
            instructions.append(_move_batch(draw, positions, fault))
        else:
            stage = _rydberg_stage(draw, positions, fault)
            if stage is not None:
                instructions.append(stage)
        if fault("unknown"):
            instructions.append("barrier")
    program = NAProgram(
        architecture=_ARCH,
        initial_layout=Layout(_ARCH, dict(enumerate(sites))),
        instructions=instructions,
    )
    return program, _source_circuit(draw, program, fault)


@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(programs())
def test_walk_matches_previous_replays_on_random_programs(drawn):
    assert_same_walk(*drawn)


def _errors(drawn) -> list[str] | None:
    """The previous validator's violations, or ``None`` if it raised."""
    program, source = drawn
    try:
        return validate_program(program, source, raise_on_error=False).errors
    except TrackerError:
        return None


#: Violation kind -> (faults to enable, a substring of its message).
#: ``None`` stands for the validator raising ``TrackerError``; ``""``
#: for a valid program.
_VIOLATIONS = {
    "valid": ((), ""),
    "source": (("source",), "move source mismatch"),
    "twice": (("twice",), "moved twice"),
    "aod_dup": (("aod_dup",), "duplicate AOD index"),
    "aod_range": (("aod_range",), "out of range"),
    "aod_excess": (("aod_excess",), "AOD array(s)"),
    "conflict": (("conflict",), "AOD order violation"),
    "off_machine": (("off_machine",), "move off-machine"),
    "empty_batch": (("empty",), "empty MoveBatch"),
    "empty_stage": (("empty",), "empty RydbergStage"),
    "apart": (("apart",), "not co-located"),
    "storage_gate": (("crowd", "storage_gate"), "outside the computation"),
    "cluster": (("cluster",), "clustering"),
    "storage_crowd": (("crowd",), "single-occupancy"),
    "excess_tenants": (("crowd",), "at excitation time"),
    "final_layout": (("crowd",), "final layout"),
    "overlap": (("overlap",), "overlap on qubit"),
    "non_cz": (("non_cz",), "non-CZ-class"),
    "two_q_layer": (("two_q_layer",), "in 1Q layer"),
    "unknown": (("unknown",), "unknown instruction"),
    "multiset_2q": (("multiset",), "2Q gate multiset mismatch"),
    "multiset_1q": (("multiset",), "1Q gate multiset mismatch"),
    "untracked": (("absent",), None),
    "untracked_mover": (("absent",), "is not tracked"),
}


@pytest.mark.parametrize("kind", sorted(_VIOLATIONS))
def test_programs_reach_every_violation(kind):
    """The strategy draws programs the previous validator flags with
    each kind of violation (and valid ones), so the differential test
    above compares every check."""
    faults, text = _VIOLATIONS[kind]

    def reached(drawn) -> bool:
        errors = _errors(drawn)
        if text is None or errors is None:
            return text is errors
        if not text:
            return errors == []
        return any(text in e for e in errors)

    find(
        programs(frozenset(faults)),
        reached,
        settings=settings(
            max_examples=2000,
            database=None,
            deadline=None,
            phases=[Phase.generate],
        ),
    )


# ----------------------------------------------------------------------
# The golden cells
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _native(workload: str) -> Circuit:
    return transpile_to_native(golden.WORKLOADS[workload]())


@pytest.mark.parametrize(
    "backend,workload,seed",
    list(golden.cells()),
    ids=[f"{b}-{w}-s{s}" for b, w, s in golden.cells()],
)
def test_walk_matches_previous_replays_on_golden_cells(
    backend, workload, seed
):
    program = golden.compile_cell(backend, workload, seed)
    assert_same_walk(program, None)
    # Against the transpiled source too: the gate-stream-preserving
    # backends pass, the others fail the multiset check identically.
    assert_same_walk(program, _native(workload))


# ----------------------------------------------------------------------
# The engine replays a program once per validating job
# ----------------------------------------------------------------------


class TestOneWalkPerJob:
    """A validating cold compile and a validating hit on an entry stored
    unvalidated each build one ``PositionTracker``: the validator's walk
    also yields the Eq. (1) timeline of the summary."""

    @staticmethod
    def spy(monkeypatch) -> list:
        built = []
        real = PositionTracker.from_layout.__func__

        def from_layout(cls, layout):
            built.append(layout)
            return real(cls, layout)

        monkeypatch.setattr(
            PositionTracker, "from_layout", classmethod(from_layout)
        )
        return built

    def test_validating_cold_compile(self, monkeypatch):
        built = self.spy(monkeypatch)
        job = CompileJob(scenario="pm_with_storage", benchmark="BV-14")
        (result,) = CompilationEngine(cache=MemoryCache()).run([job])
        assert not result.cache_hit
        assert len(built) == 1

    def test_validating_hit_on_unvalidated_entry(self, monkeypatch):
        cache = MemoryCache()
        engine = CompilationEngine(cache=cache)
        cold = CompileJob(
            scenario="pm_with_storage", benchmark="BV-14", validate=False
        )
        (stored,) = engine.run([cold])
        key = job_cache_key(cold)
        assert cache.get(key)["validated"] is False

        built = self.spy(monkeypatch)
        job = CompileJob(scenario="pm_with_storage", benchmark="BV-14")
        (result,) = engine.run([job])
        assert result.cache_hit
        assert result.fidelity.total == stored.summary["total"]
        assert len(built) == 1
        assert cache.get(key)["validated"] is True
