"""The backend registry: names -> compiler pipelines.

Every compiler in the repository -- PowerMove with and without storage,
the Enola and Atomique baselines, and the paper's ablation variants --
is a :class:`BackendSpec`: a name, a :class:`~repro.pipeline.base.Pipeline`,
a config dataclass, and the rules turning a job's (override, seed,
num_aods) into the effective configuration.  The engine, the analysis
harness and the CLI all resolve compilers here, so adding a scenario is
one ``register`` call instead of another monolithic compiler class.

Quickstart:
    >>> from repro.pipeline import create_compiler
    >>> from repro.circuits.generators import bernstein_vazirani
    >>> result = create_compiler("powermove").compile(
    ...     bernstein_vazirani(6, seed=0)
    ... )
    >>> result.program.num_stages > 0
    True

See ``docs/architecture.md`` for the add-a-backend recipe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Any, Callable, Iterator

from ..baselines.atomique import AtomiqueConfig
from ..baselines.enola import EnolaConfig
from ..core.config import PowerMoveConfig
from ..hardware.catalog import ARCHITECTURES
from ..hardware.geometry import Zone
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..utils.rng import make_rng
from .atomique_passes import AtomiqueSwapRoutePass, atomique_metadata
from .base import Pipeline
from .context import CompileContext
from .enola_passes import (
    EnolaRevertRoutePass,
    EnolaStageSchedulePass,
    enola_metadata,
)
from .passes import (
    ArchitecturePass,
    BlockPartitionPass,
    EmitProgramPass,
    InitialLayoutPass,
    TranspilePass,
)
from .powermove_passes import (
    CollMoveBatchPass,
    ContinuousRoutePass,
    StageSchedulePass,
    powermove_metadata,
)
from .strategies import validate_strategies


class BackendError(ValueError):
    """Raised on unknown backend names or mismatched configurations."""


@dataclass(frozen=True)
class BackendSpec:
    """One registered compiler backend.

    Attributes:
        name: Registry key (``powermove``, ``enola``, ...).
        description: One-line summary for ``repro backends``.
        config_cls: The backend's configuration dataclass.
        pipeline: The (stateless, shareable) pass pipeline.
        variant_name: ``config -> str`` label stored in
            ``NAProgram.compiler_name``.
        effective_config: ``(override, seed, num_aods) -> config``; the
            job-to-config rule (which fields the backend forces).
        preserves_gate_stream: Whether the executed gate multiset equals
            the native circuit's (False for SWAP-inserting backends,
            whose programs are validated structurally only).
        strategies: Axis -> entry overrides this backend *forces*
            (``powermove-spiral`` forces ``placement=spiral``); job
            overrides are merged on top.  ``None`` forces nothing.
        strategy_axes: Axis -> entry map the backend resolves by default
            (forcing included) -- display-only, for ``repro backends``.
    """

    name: str
    description: str
    config_cls: type
    pipeline: Pipeline
    variant_name: Callable[[Any], str]
    effective_config: Callable[[Any | None, int, int], Any]
    preserves_gate_stream: bool = True
    strategies: Any = None
    strategy_axes: Any = None

    @property
    def config_knobs(self) -> dict[str, Any]:
        """Config field -> backend default value (after forcing rules)."""
        default = self.default_config()
        return {
            f.name: getattr(default, f.name)
            for f in dataclass_fields(self.config_cls)
        }

    def default_config(self) -> Any:
        """The effective configuration of a bare (seed-0, 1-AOD) job."""
        return self.effective_config(None, 0, 1)


class PipelineCompiler:
    """A backend bound to a configuration: the registry's compiler.

    Drop-in compatible with the historical compiler classes: exposes
    ``name``, ``config``, ``variant_name`` and ``compile``.  An explicit
    config is normalised through the backend's forcing rules, so e.g.
    ``create_compiler("powermove-nonstorage", PowerMoveConfig())``
    compiles without storage regardless of the override's
    ``use_storage`` -- the backend name always wins (the rules are
    idempotent, so already-forced configs pass through unchanged).
    """

    def __init__(
        self,
        spec: BackendSpec,
        config: Any | None = None,
        params: HardwareParams = DEFAULT_PARAMS,
    ) -> None:
        if config is not None and not isinstance(config, spec.config_cls):
            raise BackendError(
                f"backend {spec.name!r} expects a "
                f"{spec.config_cls.__name__}, got {type(config).__name__}"
            )
        self.spec = spec
        if config is None:
            self._config = spec.default_config()
        else:
            self._config = spec.effective_config(
                config, config.seed, getattr(config, "num_aods", 1)
            )
        self._params = params

    @property
    def name(self) -> str:
        """The backend's registry name."""
        return self.spec.name

    @property
    def config(self) -> Any:
        """Active configuration."""
        return self._config

    @property
    def params(self) -> HardwareParams:
        """Hardware constants."""
        return self._params

    @property
    def variant_name(self) -> str:
        """Scenario label used in reports and program documents."""
        return self.spec.variant_name(self._config)

    def compile(
        self,
        circuit,
        architecture=None,
        initial_layout=None,
        arch=None,
        strategies=None,
    ):
        """Compile ``circuit`` through the backend's pipeline.

        Returns the usual
        :class:`~repro.core.compiler.CompilationResult`; its ``stats``
        carry the program metadata plus per-pass wall-clock seconds
        under ``stats["pass_timings"]``.

        ``arch`` names an architecture-catalog entry to build the
        machine from (ignored when an explicit ``architecture`` is
        supplied); ``strategies`` maps strategy axes to registry entry
        names, merged over the backend's own forced entries.  Both are
        validated up front.
        """
        from ..core.compiler import CompilationResult

        start = time.perf_counter()
        merged = {**(self.spec.strategies or {}), **(strategies or {})}
        validate_strategies(merged)
        if arch is not None:
            ARCHITECTURES.get(arch)
        ctx = CompileContext(
            circuit=circuit,
            config=self._config,
            params=self._params,
            compiler_name=self.variant_name,
            rng=make_rng(self._config.seed),
            arch_name=arch,
            strategies=merged,
            architecture=architecture,
            initial_layout=initial_layout,
        )
        ctx = self.spec.pipeline.run(ctx)
        compile_time = time.perf_counter() - start
        stats = dict(ctx.program.metadata)
        stats["pass_timings"] = dict(ctx.pass_timings)
        stats["pass_spans"] = [
            (name, start_s, end_s)
            for name, start_s, end_s in ctx.pass_spans
        ]
        return CompilationResult(
            program=ctx.program,
            compile_time=compile_time,
            native_circuit=ctx.native,
            stats=stats,
        )


class BackendRegistry:
    """Name -> :class:`BackendSpec` mapping with registration order."""

    def __init__(self) -> None:
        self._specs: dict[str, BackendSpec] = {}

    def register(self, spec: BackendSpec, replace: bool = False) -> None:
        """Add a backend; re-registration requires ``replace=True``."""
        if spec.name in self._specs and not replace:
            raise BackendError(f"backend {spec.name!r} already registered")
        self._specs[spec.name] = spec

    def get(self, name: str) -> BackendSpec:
        """Look up a backend; unknown names raise :class:`BackendError`."""
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(self._specs)
            raise BackendError(
                f"unknown backend {name!r}; known: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered backend names, in registration order."""
        return tuple(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[BackendSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def create(
        self,
        name: str,
        config: Any | None = None,
        params: HardwareParams = DEFAULT_PARAMS,
    ) -> PipelineCompiler:
        """Instantiate a compiler for backend ``name``."""
        return PipelineCompiler(self.get(name), config, params)


# ----------------------------------------------------------------------
# Default pipelines
# ----------------------------------------------------------------------

POWERMOVE_PIPELINE = Pipeline(
    [
        TranspilePass(),
        BlockPartitionPass(),
        ArchitecturePass(
            with_storage=lambda cfg: cfg.use_storage,
            num_aods=lambda cfg: cfg.num_aods,
            storage_error="with-storage compilation needs a storage zone",
        ),
        InitialLayoutPass(
            home_zone=lambda cfg: (
                Zone.STORAGE if cfg.use_storage else Zone.COMPUTE
            ),
            annealed=lambda cfg: cfg.annealed_placement,
            fresh_rng=True,
        ),
        StageSchedulePass(),
        ContinuousRoutePass(),
        CollMoveBatchPass(),
        EmitProgramPass(powermove_metadata),
    ],
    name="powermove",
)

ENOLA_PIPELINE = Pipeline(
    [
        TranspilePass(),
        BlockPartitionPass(),
        ArchitecturePass(
            with_storage=lambda cfg: cfg.naive_storage,
            num_aods=lambda cfg: cfg.num_aods,
            storage_error="naive_storage needs a storage zone",
        ),
        InitialLayoutPass(
            home_zone=lambda cfg: (
                Zone.STORAGE if cfg.naive_storage else Zone.COMPUTE
            ),
            annealed=lambda cfg: cfg.sa_iterations_per_qubit > 0,
            iterations=lambda cfg: cfg.sa_iterations_per_qubit,
        ),
        EnolaStageSchedulePass(),
        EnolaRevertRoutePass(),
        EmitProgramPass(enola_metadata),
    ],
    name="enola",
)

ATOMIQUE_PIPELINE = Pipeline(
    [
        TranspilePass(),
        BlockPartitionPass(),
        ArchitecturePass(with_storage=lambda cfg: False),
        InitialLayoutPass(
            home_zone=lambda cfg: Zone.COMPUTE,
            annealed=lambda cfg: cfg.sa_iterations_per_qubit > 0,
            iterations=lambda cfg: cfg.sa_iterations_per_qubit,
        ),
        AtomiqueSwapRoutePass(),
        EmitProgramPass(atomique_metadata),
    ],
    name="atomique",
)


def _powermove_variant_name(config: PowerMoveConfig) -> str:
    suffix = "with-storage" if config.use_storage else "non-storage"
    return f"powermove[{suffix}]"


def _enola_variant_name(config: EnolaConfig) -> str:
    # No "[windowed]" variant label: the compiler name feeds the
    # program digest, and a use_window run whose blocks all fit under
    # the window is bit-identical to the unwindowed run by contract.
    # Windowing that actually fired is recorded in program metadata.
    if config.naive_storage:
        return "enola[naive-storage]"
    return "enola"


def _powermove_effective(
    use_storage: bool, **forced: Any
) -> Callable[[PowerMoveConfig | None, int, int], PowerMoveConfig]:
    def effective(
        override: PowerMoveConfig | None, seed: int, num_aods: int
    ) -> PowerMoveConfig:
        base = override if override is not None else PowerMoveConfig()
        return replace(
            base,
            use_storage=use_storage,
            num_aods=num_aods,
            seed=seed,
            **forced,
        )

    return effective


def _enola_effective(
    override: EnolaConfig | None, seed: int, num_aods: int
) -> EnolaConfig:
    # Historical rule: an explicit Enola override is used verbatim.
    if override is not None:
        return override
    return EnolaConfig(seed=seed, num_aods=num_aods)


def _enola_naive_effective(
    override: EnolaConfig | None, seed: int, num_aods: int
) -> EnolaConfig:
    base = _enola_effective(override, seed, num_aods)
    return replace(base, naive_storage=True)


def _enola_windowed_effective(
    override: EnolaConfig | None, seed: int, num_aods: int
) -> EnolaConfig:
    base = _enola_effective(override, seed, num_aods)
    return replace(base, use_window=True)


def _atomique_effective(
    override: AtomiqueConfig | None, seed: int, num_aods: int
) -> AtomiqueConfig:
    if override is not None:
        return override
    return AtomiqueConfig(seed=seed)


#: The process-wide default registry.
REGISTRY = BackendRegistry()


#: Default axis -> entry maps per pipeline family (display-only; the
#: passes resolve the same defaults from each backend's config).
_POWERMOVE_AXES = {
    "placement": "row-major",
    "stage-selection": "greedy-color",
    "routing": "continuous",
}
_ENOLA_AXES = {
    "placement": "annealed",
    "stage-selection": "mis",
    "routing": "revert",
}
_ATOMIQUE_AXES = {
    "placement": "annealed",
    "routing": "swap",
}


def _register_defaults(registry: BackendRegistry) -> None:
    def powermove_spec(
        name: str,
        description: str,
        use_storage: bool,
        strategies: dict[str, str] | None = None,
        **forced: Any,
    ) -> BackendSpec:
        return BackendSpec(
            name=name,
            description=description,
            config_cls=PowerMoveConfig,
            pipeline=POWERMOVE_PIPELINE,
            variant_name=_powermove_variant_name,
            effective_config=_powermove_effective(use_storage, **forced),
            strategies=strategies,
            strategy_axes={**_POWERMOVE_AXES, **(strategies or {})},
        )

    registry.register(
        powermove_spec(
            "powermove",
            "PowerMove with storage-zone integration (paper Sec. 4-6)",
            use_storage=True,
        )
    )
    registry.register(
        powermove_spec(
            "powermove-nonstorage",
            "PowerMove continuous router only, no storage zone",
            use_storage=False,
        )
    )
    registry.register(
        powermove_spec(
            "powermove-noreorder",
            "Ablation A1: zone-aware stage reordering disabled",
            use_storage=True,
            reorder_stages=False,
        )
    )
    registry.register(
        powermove_spec(
            "powermove-fifo-grouping",
            "Ablation A2: FIFO CollMove grouping (not distance-aware)",
            use_storage=True,
            distance_aware_grouping=False,
        )
    )
    registry.register(
        powermove_spec(
            "powermove-nointra",
            "Ablation A3: intra-stage move-in-first ordering disabled",
            use_storage=True,
            intra_stage_ordering=False,
        )
    )
    registry.register(
        powermove_spec(
            "powermove-spiral",
            "PowerMove with interaction-weighted spiral placement",
            use_storage=True,
            strategies={"placement": "spiral"},
        )
    )
    registry.register(
        powermove_spec(
            "powermove-reuse",
            "PowerMove with reuse-maximising stage ordering",
            use_storage=True,
            strategies={"stage-selection": "reuse-aware"},
        )
    )
    registry.register(
        powermove_spec(
            "powermove-sorted-route",
            "PowerMove routing each stage's closest pairs first",
            use_storage=True,
            strategies={"routing": "continuous-sorted"},
        )
    )
    registry.register(
        BackendSpec(
            name="enola",
            description="Enola baseline: MIS stages, revert routing",
            config_cls=EnolaConfig,
            pipeline=ENOLA_PIPELINE,
            variant_name=_enola_variant_name,
            effective_config=_enola_effective,
            strategy_axes=dict(_ENOLA_AXES),
        )
    )
    registry.register(
        BackendSpec(
            name="enola-naive-storage",
            description=(
                "Fig. 3(e)(f) strawman: Enola revert scheme on a zoned "
                "machine"
            ),
            config_cls=EnolaConfig,
            pipeline=ENOLA_PIPELINE,
            variant_name=_enola_variant_name,
            effective_config=_enola_naive_effective,
            strategy_axes=dict(_ENOLA_AXES),
        )
    )
    registry.register(
        BackendSpec(
            name="enola-windowed",
            description=(
                "Enola with sliding-window MIS (its 10k-qubit harness "
                "mode); exact below the window size"
            ),
            config_cls=EnolaConfig,
            pipeline=ENOLA_PIPELINE,
            variant_name=_enola_variant_name,
            effective_config=_enola_windowed_effective,
            strategy_axes={**_ENOLA_AXES, "stage-selection": "mis-windowed"},
        )
    )
    registry.register(
        BackendSpec(
            name="atomique",
            description=(
                "Atomique-like fixed-array baseline: SWAP-chain routing"
            ),
            config_cls=AtomiqueConfig,
            pipeline=ATOMIQUE_PIPELINE,
            variant_name=lambda cfg: "atomique-like",
            effective_config=_atomique_effective,
            preserves_gate_stream=False,
            strategy_axes=dict(_ATOMIQUE_AXES),
        )
    )


_register_defaults(REGISTRY)


def get_backend(name: str) -> BackendSpec:
    """Look up ``name`` in the default registry."""
    return REGISTRY.get(name)


def available_backends() -> tuple[str, ...]:
    """Names registered in the default registry, in registration order."""
    return REGISTRY.names()


def create_compiler(
    name: str,
    config: Any | None = None,
    params: HardwareParams = DEFAULT_PARAMS,
) -> PipelineCompiler:
    """Instantiate a compiler for ``name`` from the default registry."""
    return REGISTRY.create(name, config, params)


__all__ = [
    "ATOMIQUE_PIPELINE",
    "BackendError",
    "BackendRegistry",
    "BackendSpec",
    "ENOLA_PIPELINE",
    "POWERMOVE_PIPELINE",
    "PipelineCompiler",
    "REGISTRY",
    "available_backends",
    "create_compiler",
    "get_backend",
]
