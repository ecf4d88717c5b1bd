"""Compiler-quality metrics over compiled programs.

Quantifies *why* one schedule beats another, feeding the ablation
studies: movement parallelism (moves per CollMove), storage dwell
fraction (the quantity Sec. 6.1 maximises), per-stage Rydberg
utilisation, and movement-time decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..schedule.program import NAProgram
from ..schedule.validator import simulate_timeline


@dataclass(frozen=True)
class ProgramMetrics:
    """Aggregate quality metrics of one compiled program.

    Attributes:
        num_stages: Rydberg excitation count ``S``.
        num_coll_moves: Total collective moves.
        num_single_moves: Total 1Q moves.
        moves_per_coll_move: Mean movement parallelism (higher = the
            grouper packed more 1Q moves per AOD shot).
        mean_move_distance: Mean 1Q travel distance (metres).
        total_move_distance: Summed 1Q travel distance (metres).
        transfer_time_fraction: Share of movement wall-clock spent in
            SLM<->AOD transfers rather than travel.
        storage_dwell_fraction: Mean over qubits of (protected storage
            time) / (total execution time); 0 without a storage zone.
        mean_stage_utilization: Mean over stages of (qubits in gates) /
            (placed qubits) -- low values mean many idle spectators.
        idle_excitations_per_stage: Mean ``n_i`` (excitation-error
            events per Rydberg shot).
        execution_time: ``T_exe`` seconds.
        movement_time_fraction: Share of ``T_exe`` spent in MoveBatches.
    """

    num_stages: int
    num_coll_moves: int
    num_single_moves: int
    moves_per_coll_move: float
    mean_move_distance: float
    total_move_distance: float
    transfer_time_fraction: float
    storage_dwell_fraction: float
    mean_stage_utilization: float
    idle_excitations_per_stage: float
    execution_time: float
    movement_time_fraction: float


def compute_metrics(program: NAProgram) -> ProgramMetrics:
    """Measure :class:`ProgramMetrics` for ``program``."""
    params = program.architecture.params
    timeline = simulate_timeline(program)

    num_moves = program.num_single_moves
    num_cm = program.num_coll_moves
    total_distance = program.total_move_distance()

    transfer_time = 0.0
    for batch in program.move_batches:
        if batch.num_coll_moves:
            transfer_time += 2.0 * params.duration_transfer

    num_qubits = program.initial_layout.num_qubits
    total_time = timeline.total_time
    if num_qubits and total_time > 0.0:
        dwell = sum(timeline.storage_dwell.values())
        storage_fraction = dwell / (num_qubits * total_time)
    else:
        storage_fraction = 0.0

    stages = program.rydberg_stages
    if stages and num_qubits:
        utilization = sum(
            len(stage.interacting_qubits()) / num_qubits for stage in stages
        ) / len(stages)
    else:
        utilization = 0.0

    idle_per_stage = (
        timeline.idle_excitations / timeline.num_stages
        if timeline.num_stages
        else 0.0
    )

    return ProgramMetrics(
        num_stages=program.num_stages,
        num_coll_moves=num_cm,
        num_single_moves=num_moves,
        moves_per_coll_move=(num_moves / num_cm) if num_cm else 0.0,
        mean_move_distance=(
            total_distance / num_moves if num_moves else 0.0
        ),
        total_move_distance=total_distance,
        transfer_time_fraction=(
            transfer_time / timeline.move_time
            if timeline.move_time > 0.0
            else 0.0
        ),
        storage_dwell_fraction=storage_fraction,
        mean_stage_utilization=utilization,
        idle_excitations_per_stage=idle_per_stage,
        execution_time=total_time,
        movement_time_fraction=(
            timeline.move_time / total_time if total_time > 0.0 else 0.0
        ),
    )


def compare_metrics(
    ours: ProgramMetrics, baseline: ProgramMetrics
) -> dict[str, float]:
    """Headline ratios of ``ours`` against ``baseline`` (>1 = better/us).

    Returns speedup, movement-reduction and parallelism ratios; values of
    ``inf`` indicate the baseline quantity was zero.
    """

    def ratio(a: float, b: float) -> float:
        return float("inf") if a == 0.0 else b / a

    return {
        "execution_speedup": ratio(ours.execution_time, baseline.execution_time),
        "move_count_reduction": ratio(
            float(ours.num_single_moves), float(baseline.num_single_moves)
        ),
        "distance_reduction": ratio(
            ours.total_move_distance, baseline.total_move_distance
        ),
        "parallelism_gain": (
            float("inf")
            if baseline.moves_per_coll_move == 0.0
            else ours.moves_per_coll_move / baseline.moves_per_coll_move
        ),
    }


__all__ = ["ProgramMetrics", "compare_metrics", "compute_metrics"]
