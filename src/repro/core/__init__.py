"""PowerMove core: the paper's three components and the compiler facade.

The algorithmic pieces (stage scheduler, continuous router, coll-move
scheduler) live here; :class:`PowerMoveCompiler` composes them through
the pass pipeline in :mod:`repro.pipeline`.
"""

from .collmove_scheduler import (
    order_coll_moves,
    schedule_coll_moves,
    transition_duration,
)
from .compiler import CompilationResult, PowerMoveCompiler, compile_circuit
from .config import PowerMoveConfig
from .metrics import ProgramMetrics, compare_metrics, compute_metrics
from .continuous_router import (
    ContinuousRouter,
    RoutedStage,
    RoutingError,
)
from .stage_scheduler import (
    Stage,
    order_stages,
    partition_stages,
    schedule_block,
    transition_cost,
)

__all__ = [
    "CompilationResult",
    "ContinuousRouter",
    "PowerMoveCompiler",
    "PowerMoveConfig",
    "ProgramMetrics",
    "RoutedStage",
    "RoutingError",
    "Stage",
    "compare_metrics",
    "compile_circuit",
    "compute_metrics",
    "order_coll_moves",
    "order_stages",
    "partition_stages",
    "schedule_block",
    "schedule_coll_moves",
    "transition_cost",
    "transition_duration",
]
