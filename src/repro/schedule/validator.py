"""One replay of a compiled NAQC program: validation and the Eq. (1) timeline.

:func:`validate_program` replays a program against its machine and checks
every physical constraint the paper's hardware model imposes:

* AOD order preservation inside each CollMove (Fig. 5 conflict rule);
* at most one CollMove per AOD array per batch, distinct AOD indices, and
  no qubit moved twice within a batch;
* every move departs from the qubit's actual current site and lands on a
  real site of the machine;
* at each Rydberg stage: gates are CZ-class and pairwise qubit-disjoint,
  both partners of each gate are co-located on one *computation-zone* site,
  no site holds more than two qubits, and no two qubits share a site unless
  they are a gate pair of this stage (the "clustering" rule -- co-located
  non-pairs would blockade-interact);
* at program end, no site holds more than two qubits.

Site capacity is deliberately *not* checked between batches of one layout
transition: while a transition is in flight a destination may be reached
before its previous tenant departs (see :mod:`repro.schedule.tracker`).

The same walk accumulates the inputs of the paper's fidelity formula
(Eq. 1), an :class:`ExecutionTimeline`.  A qubit's decoherence exposure
``T_q`` is the wall-clock time it spends neither in the storage zone nor
being gated: movement and transfers count (the qubit is in flight),
storage dwell does not (Sec. 2.2).  A passing report carries the timeline,
so a caller that validates a program -- the engine does for every job
unless it opts out -- scores it without a second replay;
:func:`simulate_timeline` is the same walk with the checks off.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..hardware.geometry import Zone
from ..hardware.moves import moves_conflict
from .instructions import MoveBatch, OneQubitLayer, RydbergStage
from .program import NAProgram
from .tracker import PositionTracker, TrackerError


class ValidationError(AssertionError):
    """Raised when a compiled program violates a hardware constraint."""


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


@dataclass
class ValidationReport:
    """Outcome of a validation run.

    Attributes:
        ok: True when no violations were found.
        errors: Human-readable violation descriptions (empty when ok).
        timeline: The walk's :class:`ExecutionTimeline`; ``None`` unless
            ``ok``.
    """

    ok: bool = True
    errors: list[str] = field(default_factory=list)
    timeline: ExecutionTimeline | None = None

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


def _walk(
    program: NAProgram, report: ValidationReport | None
) -> ExecutionTimeline:
    """Replay ``program`` once and accumulate its Eq. (1) inputs.

    With a ``report``, every hardware check of the module docstring runs
    in the same pass and a bad move or an unknown instruction is recorded
    there; without one nothing is checked and they raise
    (:class:`TrackerError`, ``TypeError``).  The tracker applies a batch
    whole or not at all, so a recorded bad batch charges no mover.

    Per instruction, every tracked qubit is charged one term: a qubit
    pulsed in a 1Q layer gets ``duration - pulses * duration_1q``, a
    mover gets the batch duration as exposure, an interacting qubit of a
    Rydberg stage gets nothing, and every other (*resting*) qubit gets
    the duration -- as storage dwell when parked in storage, as exposure
    otherwise.  Only moves change zones, so a resting qubit's charges
    between two instructions that touch it are a run of consecutive
    durations into one bucket.  Work per instruction is therefore only
    for the qubits it touches: each remembers its bucket and its first
    uncharged instruction, and the pending run is charged when it is next
    touched (and at the end) as the left fold ``reduce(add,
    durations[start:k], acc)``.  That fold performs exactly the ``acc +
    d`` additions of a per-qubit, per-instruction loop, in the same
    order, so every float -- and Eq. (1) -- is bit-identical to it.
    Prefix sums, ``math.fsum``, numpy and the built-in ``sum`` round
    differently (``sum`` of floats is compensated on Python >= 3.12).
    """
    params = program.architecture.params
    tracker = PositionTracker.from_layout(program.initial_layout)
    timeline = ExecutionTimeline()
    qubits = tracker.qubits
    exposure = timeline.exposure = {q: 0.0 for q in qubits}
    dwell = timeline.storage_dwell = {q: 0.0 for q in qubits}
    bucket = {
        q: dwell if tracker.zone_of(q) is Zone.STORAGE else exposure
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
            if report is not None:
                for gate in instr.gates:
                    if gate.is_two_qubit:
                        report.fail(
                            f"instr {k}: two-qubit gate {gate} in 1Q layer"
                        )
            duration = instr.duration(params)
            for q, count in instr.pulse_counts().items():
                if q in bucket:
                    settle(q, k)[q] += duration - count * params.duration_1q
            timeline.total_time += duration
            timeline.num_one_qubit_gates += instr.num_gates
        elif isinstance(instr, MoveBatch):
            if report is not None:
                _check_move_batch(report, program, k, instr)
            duration = instr.duration(params)
            moves = instr.all_moves
            # Validates sources and duplicate movers before any charge.
            try:
                tracker.apply_moves(moves)
            except TrackerError as exc:
                if report is None:
                    raise
                report.fail(f"instr {k}: replay failed: {exc}")
                moves = []
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
            if report is not None:
                _check_rydberg_stage(report, k, instr, tracker)
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
        elif report is None:
            raise TypeError(f"unknown instruction {instr!r}")
        else:
            report.fail(f"instr {k}: unknown instruction {instr!r}")
            duration = 0.0
        durations.append(duration)

    end = len(durations)
    for q in qubits:
        settle(q, end)
    if report is not None:
        for site, tenants in tracker.occupancy().items():
            if len(tenants) > 2:
                report.fail(
                    f"final layout: site {site} holds {len(tenants)} qubits"
                )
    return timeline


def simulate_timeline(program: NAProgram) -> ExecutionTimeline:
    """Replay ``program`` without checks and accumulate the Eq. (1) inputs."""
    return _walk(program, None)


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
        The :class:`ValidationReport` (always ``ok`` if ``raise_on_error``);
        an ``ok`` report carries the replay's timeline.
    """
    report = ValidationReport()
    timeline = _walk(program, report)

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

    if report.ok:
        report.timeline = timeline
    if raise_on_error:
        report.raise_if_failed()
    return report


__all__ = [
    "ExecutionTimeline",
    "ValidationError",
    "ValidationReport",
    "simulate_timeline",
    "validate_program",
]
