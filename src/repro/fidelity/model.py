"""The paper's output-fidelity model (Eq. 1, Sec. 2.2).

    f_output = f1^g1 * f2^g2 * f_exc^(sum_i n_i) * f_trans^N_trans
               * prod_q (1 - T_q / T2)

The one-qubit term is computed but excluded from ``total`` by default,
matching the paper's convention ("the 1Q term is often omitted in fidelity
comparisons").  Component infidelities feed the Fig. 6 ablation plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..schedule.program import NAProgram
from ..schedule.validator import ExecutionTimeline, simulate_timeline

#: Order in which Fig. 6 stacks the fidelity components.
COMPONENT_NAMES = ("two_qubit", "excitation", "transfer", "decoherence")


@dataclass(frozen=True)
class FidelityReport:
    """Fidelity components and the quantities they derive from.

    Attributes:
        one_qubit: ``f1^g1`` (excluded from ``total`` by convention).
        two_qubit: ``f2^g2``.
        excitation: ``f_exc^(sum n_i)``.
        transfer: ``f_trans^N_trans``.
        decoherence: ``prod_q (1 - T_q/T2)``, clamped at 0.
        total: Product of all components except ``one_qubit``.
        total_with_1q: Product including the 1Q term.
        execution_time: ``T_exe`` in seconds.
        timeline: The full replay aggregate for deeper inspection.
    """

    one_qubit: float
    two_qubit: float
    excitation: float
    transfer: float
    decoherence: float
    total: float
    total_with_1q: float
    execution_time: float
    timeline: ExecutionTimeline

    @property
    def execution_time_us(self) -> float:
        """``T_exe`` in microseconds (the unit Table 3 reports)."""
        return self.execution_time * 1e6

    def component(self, name: str) -> float:
        """Fidelity component by Fig. 6 name."""
        if name not in COMPONENT_NAMES:
            raise KeyError(f"unknown component {name!r}")
        return getattr(self, name)

    def infidelity_breakdown(self) -> dict[str, float]:
        """Per-component infidelity ``1 - f_component`` (Fig. 6 areas)."""
        return {name: 1.0 - self.component(name) for name in COMPONENT_NAMES}

    def log_breakdown(self) -> dict[str, float]:
        """Per-component ``-log10`` contribution; additive on Fig. 6's
        log-scale stacks and robust when components underflow toward 0."""
        import math

        out: dict[str, float] = {}
        for name in COMPONENT_NAMES:
            value = self.component(name)
            out[name] = math.inf if value <= 0.0 else -math.log10(value)
        return out


class FidelityModel:
    """Evaluates Eq. (1) for compiled programs.

    Args:
        params: Hardware constants; defaults to the paper's Table 1.
    """

    def __init__(self, params: HardwareParams = DEFAULT_PARAMS) -> None:
        self._params = params

    @property
    def params(self) -> HardwareParams:
        """Hardware constants in force."""
        return self._params

    def evaluate(self, program: NAProgram) -> FidelityReport:
        """Replay ``program`` and compute all fidelity components."""
        timeline = simulate_timeline(program)
        return self.from_timeline(timeline)

    def from_timeline(self, timeline: ExecutionTimeline) -> FidelityReport:
        """Compute Eq. (1) from a pre-computed timeline."""
        p = self._params
        one_qubit = p.fidelity_1q**timeline.num_one_qubit_gates
        two_qubit = p.fidelity_cz**timeline.num_two_qubit_gates
        excitation = p.fidelity_excitation**timeline.idle_excitations
        transfer = p.fidelity_transfer**timeline.num_transfers
        decoherence = 1.0
        for exposure in timeline.exposure.values():
            decoherence *= max(0.0, 1.0 - exposure / p.t2)
        total = two_qubit * excitation * transfer * decoherence
        return FidelityReport(
            one_qubit=one_qubit,
            two_qubit=two_qubit,
            excitation=excitation,
            transfer=transfer,
            decoherence=decoherence,
            total=total,
            total_with_1q=total * one_qubit,
            execution_time=timeline.total_time,
            timeline=timeline,
        )


def evaluate_program(
    program: NAProgram, params: HardwareParams | None = None
) -> FidelityReport:
    """One-shot convenience: Eq. (1) for ``program``.

    Uses the program's own architecture parameters unless overridden.
    """
    effective = params or program.architecture.params
    return FidelityModel(effective).evaluate(program)


__all__ = [
    "COMPONENT_NAMES",
    "FidelityModel",
    "FidelityReport",
    "evaluate_program",
]
