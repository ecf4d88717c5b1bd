"""Monte-Carlo cross-validation of the analytic fidelity model.

Eq. (1) multiplies per-event success probabilities.  An equivalent
stochastic reading samples every error event independently:

* each executed 1Q / CZ gate fails with probability ``1 - f``;
* each idle compute-zone qubit at a Rydberg shot fails with
  probability ``1 - f_exc``;
* each trap transfer fails with probability ``1 - f_trans``;
* each qubit suffers a decoherence event with probability
  ``T_q / T2`` (the paper's linear decay model).

A run *succeeds* when no event fired; the success rate over many shots
estimates ``f_output``.  Agreement between the sampled rate and the
analytic product is a strong end-to-end check that the timeline
accounting (exposure, idle counts, transfer counts) feeds Eq. (1)
consistently -- any double-counting or missed term shows up as a
systematic gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..schedule.program import NAProgram
from ..schedule.validator import ExecutionTimeline, simulate_timeline
from ..utils.rng import make_rng
from .model import FidelityModel


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of a sampling run.

    Attributes:
        shots: Number of sampled executions.
        successes: Shots with zero error events.
        estimate: ``successes / shots``.
        std_error: Binomial standard error of the estimate.
        analytic: The Eq. (1) fidelity it estimates.
    """

    shots: int
    successes: int
    estimate: float
    std_error: float
    analytic: float

    def within(self, num_sigmas: float = 4.0) -> bool:
        """Is the analytic value inside ``num_sigmas`` of the estimate?"""
        slack = max(self.std_error, 1e-12) * num_sigmas
        return abs(self.estimate - self.analytic) <= slack


def _success_probability_events(
    timeline: ExecutionTimeline, model: FidelityModel
) -> list[tuple[float, int]]:
    """(per-event success probability, event count) pairs of a program."""
    p = model.params
    events = [
        (p.fidelity_cz, timeline.num_two_qubit_gates),
        (p.fidelity_excitation, timeline.idle_excitations),
        (p.fidelity_transfer, timeline.num_transfers),
    ]
    for exposure in timeline.exposure.values():
        survival = max(0.0, 1.0 - exposure / p.t2)
        events.append((survival, 1))
    return events


def sample_program_fidelity(
    program: NAProgram,
    shots: int = 20000,
    seed: int = 0,
    include_1q: bool = False,
) -> MonteCarloResult:
    """Estimate Eq. (1) by independent per-event Bernoulli sampling.

    Args:
        program: The compiled program.
        shots: Sampled executions (binomial error ~ 1/sqrt(shots)).
        seed: RNG seed.
        include_1q: Also sample 1Q-gate failures (off to match the
            paper's comparison convention).

    Returns:
        The :class:`MonteCarloResult`; ``analytic`` carries the matching
        closed-form value.
    """
    if shots <= 0:
        raise ValueError("need a positive number of shots")
    model = FidelityModel(program.architecture.params)
    timeline = simulate_timeline(program)
    report = model.from_timeline(timeline)
    analytic = report.total_with_1q if include_1q else report.total

    events = _success_probability_events(timeline, model)
    if include_1q:
        events.append(
            (model.params.fidelity_1q, timeline.num_one_qubit_gates)
        )

    rng = make_rng(seed)
    successes = 0
    for _ in range(shots):
        ok = True
        for probability, count in events:
            if count == 0 or probability >= 1.0:
                continue
            if probability <= 0.0:
                ok = False
                break
            # Sample "no failure among `count` iid events" directly from
            # the binomial survival: faster and exactly equivalent.
            if rng.random() >= probability**count:
                ok = False
                break
        if ok:
            successes += 1

    estimate = successes / shots
    std_error = math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / shots)
    return MonteCarloResult(
        shots=shots,
        successes=successes,
        estimate=estimate,
        std_error=std_error,
        analytic=analytic,
    )


def crosscheck_fidelity(
    program: NAProgram,
    shots: int = 20000,
    seed: int = 0,
    num_sigmas: float = 4.0,
) -> MonteCarloResult:
    """Run the sampler and assert agreement with Eq. (1).

    Raises:
        AssertionError: When the analytic value falls outside the
            ``num_sigmas`` confidence band.
    """
    result = sample_program_fidelity(program, shots=shots, seed=seed)
    assert result.within(num_sigmas), (
        f"Monte-Carlo {result.estimate:.5f} +/- {result.std_error:.5f} "
        f"disagrees with analytic {result.analytic:.5f}"
    )
    return result


__all__ = [
    "MonteCarloResult",
    "crosscheck_fidelity",
    "sample_program_fidelity",
]
