"""Timeline simulation of a compiled program.

Replays the instruction stream to produce everything the paper's fidelity
formula (Eq. 1) consumes:

* the execution time ``T_exe`` (1Q layers + movement batches + excitations);
* per-qubit *decoherence exposure* ``T_q``: wall-clock time during which the
  qubit is neither in the storage zone nor actively being gated.  Movement
  and transfer time counts as exposure (the qubit is in flight); storage
  dwell does not (Sec. 2.2: coherence decay in storage is negligible);
* the idle-excitation count ``sum_i n_i``: how many times a non-interacting
  qubit sat in the computation zone during a Rydberg excitation;
* gate and transfer counts (``g1``, ``g2``, ``N_trans``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add

from ..hardware.geometry import Zone
from ..schedule.instructions import MoveBatch, OneQubitLayer, RydbergStage
from ..schedule.program import NAProgram
from ..schedule.tracker import PositionTracker


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


__all__ = ["ExecutionTimeline", "simulate_timeline"]
