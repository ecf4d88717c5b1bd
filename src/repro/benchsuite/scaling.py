"""The compile-time scaling ladder (``repro bench --scaling``).

Enola's own harness demonstrates compiler scalability by sweeping random
3-regular QAOA graphs up to 10,000 qubits; this module reproduces that
ladder for our backends.  Each rung compiles one
``qaoa_regular(N, degree=3)`` instance and records the wall-clock
compile time plus the per-pass breakdown the pipeline already measures.

The ladder doubles as a regression gate: :func:`scaling_doc` renders the
timings in the slim ``benchmarks/compare_bench.py`` format
(``{"benchmarks": {name: seconds}}``, plus an ungated ``"passes"``
breakdown), and a committed baseline in
``benchmarks/scaling_baseline.json`` lets CI fail on >2x compile-time
regressions of the small rungs the same way the smoke bench is gated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..circuits.generators import qaoa_regular
from ..pipeline.registry import create_compiler, get_backend

#: The ladder's default rungs (Enola's harness sweeps to 10,000).
SCALING_SIZES = (64, 256, 1024, 4096, 10000)

#: Default backends: the paper compiler and the baseline in the mode its
#: own harness uses at scale (sliding-window MIS).
SCALING_BACKENDS = ("powermove", "enola-windowed")


@dataclass
class ScalingPoint:
    """One rung of the ladder: a backend at one circuit size."""

    backend: str
    num_qubits: int
    compile_s: float
    pass_timings: dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The compare_bench benchmark name of this rung."""
        return f"scaling/{self.backend}/{self.num_qubits:05d}"


def scaling_workload(num_qubits: int, seed: int = 0):
    """The ladder's workload: one random 3-regular QAOA instance."""
    return qaoa_regular(num_qubits, degree=3, seed=seed)


def run_scaling(
    sizes: Sequence[int] = SCALING_SIZES,
    backends: Sequence[str] = SCALING_BACKENDS,
    seed: int = 0,
    progress: Callable[[ScalingPoint], None] | None = None,
    arch: str | None = None,
) -> list[ScalingPoint]:
    """Compile every (backend, size) rung and time it.

    Backends are resolved through the registry with their default
    configuration at the given seed; unknown names raise the registry's
    usual :class:`~repro.pipeline.registry.BackendError` before any
    work starts.  ``arch`` names an architecture-catalog entry every
    rung targets instead of the backend default floor plan.
    ``progress`` is called after each rung (the big rungs take a while;
    callers stream a line per rung).
    """
    for backend in backends:
        get_backend(backend)  # validate eagerly
    if arch is not None:
        from ..hardware.catalog import ARCHITECTURES

        ARCHITECTURES.get(arch)  # validate eagerly
    points: list[ScalingPoint] = []
    for num_qubits in sizes:
        circuit = scaling_workload(num_qubits, seed)
        for backend in backends:
            spec = get_backend(backend)
            config = spec.effective_config(None, seed, 1)
            compiler = create_compiler(backend, config)
            start = time.perf_counter()
            result = compiler.compile(circuit, arch=arch)
            elapsed = time.perf_counter() - start
            point = ScalingPoint(
                backend=backend,
                num_qubits=num_qubits,
                compile_s=elapsed,
                pass_timings=dict(
                    result.stats.get("pass_timings", {})
                ),
            )
            points.append(point)
            if progress is not None:
                progress(point)
    return points


def scaling_doc(points: Sequence[ScalingPoint]) -> dict[str, Any]:
    """Render rungs as a slim compare_bench document.

    ``"benchmarks"`` holds each rung's compile seconds, the only key
    compare_bench gates on; ``"passes"`` keeps each rung's per-pass
    seconds beside it, for reading where a slow rung spent its time.
    """
    return {
        "benchmarks": {
            point.name: point.compile_s for point in points
        },
        "passes": {
            point.name: dict(point.pass_timings) for point in points
        },
    }


__all__ = [
    "SCALING_BACKENDS",
    "SCALING_SIZES",
    "ScalingPoint",
    "run_scaling",
    "scaling_doc",
    "scaling_workload",
]
