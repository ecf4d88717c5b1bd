"""Fidelity and execution-time analysis (paper Sec. 2.2, Eq. 1)."""

from ..schedule.validator import ExecutionTimeline, simulate_timeline
from .model import (
    COMPONENT_NAMES,
    FidelityModel,
    FidelityReport,
    evaluate_program,
)
from .montecarlo import (
    MonteCarloResult,
    crosscheck_fidelity,
    sample_program_fidelity,
)

__all__ = [
    "COMPONENT_NAMES",
    "ExecutionTimeline",
    "FidelityModel",
    "FidelityReport",
    "MonteCarloResult",
    "crosscheck_fidelity",
    "evaluate_program",
    "sample_program_fidelity",
    "simulate_timeline",
]
