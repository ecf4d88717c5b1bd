"""The typed state threaded through a compiler pipeline.

:class:`CompileContext` is the single mutable object a
:class:`~repro.pipeline.base.Pipeline` threads through its passes.
Early passes populate the front half (native circuit, block partition,
architecture, initial layout); backend-specific schedule/route passes
fill the middle (stages, routed moves, per-block instruction streams);
the shared emit pass assembles the final
:class:`~repro.schedule.program.NAProgram`.

The field groups, in the order they are normally produced:

==================  ====================================================
``circuit``         The source circuit (input).
``config``          The backend's config dataclass (input).
``params``          Hardware constants (input).
``arch_name``       Optional architecture-catalog entry name (input;
                    resolved by ArchitecturePass).
``strategies``      Axis -> entry strategy overrides (input; resolved
                    by the placement/schedule/route passes through
                    :mod:`repro.pipeline.strategies`).
``rng``             Backend-wide RNG stream seeded from ``config.seed``
                    (Enola's annealing and MIS share it; PowerMove's
                    passes derive their own streams for historical
                    bit-compatibility).
``native``          Transpiled circuit (TranspilePass).
``partition``       Commuting CZ blocks + 1Q gaps (BlockPartitionPass).
``architecture``    Machine floor plan (ArchitecturePass; honoured
                    verbatim when supplied by the caller).
``initial_layout``  Starting placement (InitialLayoutPass; honoured
                    verbatim when supplied by the caller).
``block_stages``    Per block: ordered Rydberg stages (schedule pass).
``routed_stages``   Per block: routing outcome per stage (route pass).
``block_instructions``  Per block: movement + Rydberg instructions.
``gap_layers``      Optional per-gap 1Q layers (index ``i`` precedes
                    block ``i``; the last entry trails the program) for
                    backends that retarget 1Q gates (Atomique).
``counters``        Free-form pass counters feeding program metadata.
``pass_timings``    Per-pass wall-clock seconds (filled by Pipeline).
``program``         The final program (EmitProgramPass).
==================  ====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from ..circuits.blocks import BlockPartition
from ..circuits.circuit import Circuit
from ..hardware.geometry import ZonedArchitecture
from ..hardware.layout import Layout
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..schedule.instructions import Instruction
from ..schedule.program import NAProgram


@dataclass
class CompileContext:
    """Mutable compilation state shared by a pipeline's passes."""

    circuit: Circuit
    config: Any
    params: HardwareParams = DEFAULT_PARAMS
    compiler_name: str = ""
    rng: random.Random | None = None

    # Per-job selection inputs: a named architecture-catalog entry
    # (resolved by ArchitecturePass when no explicit architecture was
    # supplied) and the axis -> entry strategy overrides the passes
    # resolve through repro.pipeline.strategies.  Both are compilation
    # *inputs*: they join the pass-memo base payload and (via the job
    # schema) the engine cache key.
    arch_name: str | None = None
    strategies: dict[str, str] = field(default_factory=dict)

    # Populated by the shared front-end passes.
    native: Circuit | None = None
    partition: BlockPartition | None = None
    architecture: ZonedArchitecture | None = None
    initial_layout: Layout | None = None

    # Populated by backend schedule/route/batch passes.
    block_stages: list[list] | None = None
    routed_stages: list[list] | None = None
    block_instructions: list[list[Instruction]] | None = None
    gap_layers: list[Instruction | None] | None = None

    # Bookkeeping.
    counters: dict[str, Any] = field(default_factory=dict)
    pass_timings: dict[str, float] = field(default_factory=dict)
    # (name, start_s, end_s) offsets relative to the pipeline run start,
    # one per pass.  Feeds the per-pass child spans of job traces;
    # volatile, never part of any content key.
    pass_spans: list = field(default_factory=list)

    # Final product.
    program: NAProgram | None = None

    def require(self, *fields: str) -> None:
        """Raise if any named context field is still unset.

        Passes call this to turn a mis-ordered pipeline into a clear
        error instead of an ``AttributeError`` deep inside an algorithm.
        """
        missing = [name for name in fields if getattr(self, name) is None]
        if missing:
            raise ValueError(
                f"context missing {', '.join(missing)}; "
                "a required earlier pass did not run"
            )


__all__ = ["CompileContext"]
