"""Compilation jobs: the unit of work of the batch engine.

A :class:`CompileJob` names one compilation: a workload (a Table 2
benchmark key or an explicit :class:`~repro.circuits.circuit.Circuit`)
plus one compiler *backend* -- named either through the historical
evaluation scenario keys (see :data:`SCENARIOS`) or directly through a
:mod:`repro.pipeline` registry name (``backend="atomique"``,
``backend="powermove-noreorder"``, ...) -- the AOD count, the seed,
optional compiler-config overrides and the hardware constants.  Jobs are
plain picklable dataclasses so they travel to worker processes
unchanged, and every stochastic choice downstream flows from the job's
explicit ``seed`` -- two executions of the same job, in any process,
produce bit-identical programs.

:func:`execute_job_on_circuit` is the pure worker function: job and
its circuit in, serialized program artifact (plus its record summary)
out.  It lives at module level so ``concurrent.futures`` process pools
can pickle it.  Compilers are resolved through the backend registry.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Any, Mapping

from ..baselines.atomique import AtomiqueConfig
from ..baselines.enola import EnolaConfig
from ..benchsuite.suite import get_benchmark
from ..circuits.circuit import Circuit
from ..core.config import PowerMoveConfig
from ..fidelity.model import FidelityModel, FidelityReport
from ..hardware.catalog import ARCHITECTURES
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..pipeline.costmodel import AUTO_BACKEND, choose_backend
from ..pipeline.registry import REGISTRY, PipelineCompiler
from ..pipeline.strategies import validate_strategies
from ..schedule.program import NAProgram
from ..schedule.serialize import program_to_dict
from ..schedule.validator import validate_program

#: Canonical scenario keys, in report order (re-exported by
#: :mod:`repro.analysis.experiments` for backwards compatibility).
SCENARIOS = ("enola", "pm_non_storage", "pm_with_storage")

#: Historical scenario key -> backend registry name.
SCENARIO_BACKENDS = {
    "enola": "enola",
    "pm_non_storage": "powermove-nonstorage",
    "pm_with_storage": "powermove",
}


#: Keys of an artifact's ``summary``: the Eq. (1) ``total``, ``T_exe``
#: in seconds and the program counters a result record reports.
SUMMARY_FIELDS = (
    "total",
    "execution_time",
    "num_stages",
    "num_coll_moves",
    "num_transfers",
)


class JobError(ValueError):
    """Raised on structurally invalid job construction."""


@dataclass(frozen=True)
class CompileJob:
    """One compilation request.

    Exactly one of ``benchmark`` (a Table 2 row key, built with the
    job's seed) or ``circuit`` must be given, and exactly one of
    ``scenario`` (legacy key) or ``backend`` (registry name).

    Attributes:
        scenario: One of :data:`SCENARIOS` (legacy compiler naming).
        benchmark: Suite row key, e.g. ``"BV-14"``.
        circuit: Explicit workload circuit.
        num_aods: AOD arrays available to the compiler.
        seed: Seed for the circuit instance (benchmark jobs) and all
            compiler randomness.
        enola_config: Override the Enola-family backends' knobs (used
            as-is when given; the default derives from
            ``seed``/``num_aods``).
        powermove_config: Override the PowerMove-family backends' knobs
            (``use_storage``, ``num_aods``, ``seed`` and any
            ablation-forced field are still forced per backend).
        params: Hardware constants.
        validate: Run the structural validator on the compiled program.
        backend: A :mod:`repro.pipeline` registry name; the modern
            alternative to ``scenario``.  The pseudo-name ``"auto"``
            defers the choice to the pre-compile cost model
            (:func:`repro.pipeline.costmodel.choose_backend`); such a
            job is resolved to a concrete backend -- deterministically,
            from the circuit and architecture alone -- before any
            compilation or cache lookup (see :func:`resolve_backend`).
        atomique_config: Override the Atomique backend's knobs.
        arch: Optional architecture-catalog entry name
            (:data:`repro.hardware.catalog.ARCHITECTURES`) the backend
            compiles onto instead of its default floor plan.
        strategies: Optional axis -> entry strategy overrides
            (:data:`repro.pipeline.strategies.STRATEGY_AXES`), given as
            a mapping or pair iterable; normalised to a sorted tuple of
            pairs so jobs stay hashable.  Both ``arch`` and
            ``strategies`` enter the compilation cache key.
    """

    scenario: str | None = None
    benchmark: str | None = None
    circuit: Circuit | None = None
    num_aods: int = 1
    seed: int = 0
    enola_config: EnolaConfig | None = None
    powermove_config: PowerMoveConfig | None = None
    params: HardwareParams = DEFAULT_PARAMS
    validate: bool = True
    backend: str | None = None
    atomique_config: AtomiqueConfig | None = None
    arch: str | None = None
    strategies: Any = None

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.backend is None):
            raise JobError(
                "exactly one of scenario or backend must be given"
            )
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if (
            self.backend is not None
            and self.backend != AUTO_BACKEND
            and self.backend not in REGISTRY
        ):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"known: {AUTO_BACKEND}, {', '.join(REGISTRY.names())}"
            )
        if (self.benchmark is None) == (self.circuit is None):
            raise JobError(
                "exactly one of benchmark or circuit must be given"
            )
        if self.num_aods < 1:
            raise JobError("need at least one AOD array")
        if self.arch is not None and self.arch not in ARCHITECTURES:
            raise JobError(
                f"unknown architecture {self.arch!r}; "
                f"known: {', '.join(ARCHITECTURES.names())}"
            )
        if self.strategies is not None:
            items = (
                self.strategies.items()
                if isinstance(self.strategies, Mapping)
                else self.strategies
            )
            normalised = tuple(
                sorted((str(axis), str(name)) for axis, name in items)
            )
            validate_strategies(dict(normalised))
            object.__setattr__(
                self, "strategies", normalised if normalised else None
            )

    @property
    def backend_name(self) -> str:
        """The registry backend the job compiles with."""
        if self.backend is not None:
            return self.backend
        return SCENARIO_BACKENDS[self.scenario]

    @property
    def scenario_key(self) -> str:
        """Reporting key: the legacy scenario, or the backend name."""
        return self.scenario if self.scenario is not None else self.backend

    @property
    def workload_name(self) -> str:
        """Benchmark key or circuit name."""
        if self.benchmark is not None:
            return self.benchmark
        return self.circuit.name

    @property
    def strategies_map(self) -> dict[str, str]:
        """The strategy overrides as a plain axis -> entry dict."""
        return dict(self.strategies or ())

    @property
    def label(self) -> str:
        """Human-readable job identity for progress lines and errors."""
        label = (
            f"{self.workload_name}:{self.scenario_key}"
            f":aods{self.num_aods}:seed{self.seed}"
        )
        if self.arch is not None:
            label += f":arch-{self.arch}"
        return label

    def identity(self) -> dict[str, Any]:
        """The job's identity fields, as reported in result records.

        This is the stable (workload, compiler, seed, AODs) quadruple
        used by batch result documents, streaming NDJSON lines and
        failure payloads -- one definition so they never drift apart.
        ``arch`` and ``strategies`` appear only when set, keeping
        historical records byte-identical.
        """
        doc: dict[str, Any] = {
            "benchmark": self.workload_name,
            "scenario": self.scenario_key,
            "seed": self.seed,
            "num_aods": self.num_aods,
        }
        if self.arch is not None:
            doc["arch"] = self.arch
        if self.strategies:
            doc["strategies"] = self.strategies_map
        return doc

    def resolve_circuit(self) -> Circuit:
        """The workload circuit (built from the suite when keyed)."""
        if self.circuit is not None:
            return self.circuit
        return get_benchmark(self.benchmark).build(self.seed)


@lru_cache(maxsize=1024)
def benchmark_digest(benchmark: str, seed: int) -> str:
    """:meth:`Circuit.digest` of a suite row's ``seed`` instance.

    Memoised per process (bounded, least recently used out): a suite
    circuit is a pure function of its row key and seed, so the queue's
    submit, the coordinator and every worker engine build and hash each
    distinct workload once, however many jobs name it.
    """
    return get_benchmark(benchmark).build(seed).digest()


def resolve_backend(
    job: CompileJob, circuit: Circuit | None = None
) -> CompileJob:
    """Resolve an ``auto`` job to a concrete backend; others pass through.

    The choice is the cost model's
    (:func:`repro.pipeline.costmodel.choose_backend`): a pure function
    of the circuit, the job's architecture, AOD count and hardware
    constants -- so the same ``auto`` job resolves identically in every
    process, and its cache key equals the explicitly-named job's.

    Args:
        job: Any job; returned unchanged unless ``backend == "auto"``.
        circuit: The job's resolved circuit, when the caller already
            has it (resolved here otherwise).
    """
    if job.backend != AUTO_BACKEND:
        return job
    if circuit is None:
        circuit = job.resolve_circuit()
    chosen = choose_backend(
        circuit, arch=job.arch, num_aods=job.num_aods, params=job.params
    )
    return replace(job, backend=chosen)


def effective_config(
    job: CompileJob,
) -> EnolaConfig | PowerMoveConfig | AtomiqueConfig:
    """The compiler configuration the job actually runs with.

    Resolved through the backend registry, preserving the historical
    ``run_scenarios`` rules: a given Enola config is used verbatim,
    while PowerMove overrides always have ``use_storage``, ``num_aods``
    and ``seed`` (plus any ablation field) forced per backend.  An
    ``auto`` job is resolved to its concrete backend first.
    """
    job = resolve_backend(job)
    spec = REGISTRY.get(job.backend_name)
    overrides = {
        EnolaConfig: job.enola_config,
        PowerMoveConfig: job.powermove_config,
        AtomiqueConfig: job.atomique_config,
    }
    override = overrides.get(spec.config_cls)
    return spec.effective_config(override, job.seed, job.num_aods)


def job_compiler(job: CompileJob) -> PipelineCompiler:
    """The registry compiler a job resolves to (with effective config)."""
    job = resolve_backend(job)
    return REGISTRY.create(
        job.backend_name, effective_config(job), job.params
    )


def job_to_doc(job: CompileJob) -> dict[str, Any]:
    """Serialize a benchmark-keyed job to a JSON-safe document.

    The exact inverse of :func:`job_from_doc`
    (``job_from_doc(job_to_doc(j)) == j``); the compilation service
    persists queued jobs through this pair so they survive daemon
    restarts.  Jobs carrying an explicit :class:`Circuit` are rejected
    -- queue records must stay small and content-addressed, and every
    manifest-born job is benchmark-keyed.
    """
    if job.circuit is not None:
        raise JobError(
            "only benchmark-keyed jobs serialize to documents "
            "(explicit circuits do not travel through the queue)"
        )
    doc: dict[str, Any] = {
        "benchmark": job.benchmark,
        "num_aods": job.num_aods,
        "seed": job.seed,
        "validate": job.validate,
    }
    if job.scenario is not None:
        doc["scenario"] = job.scenario
    if job.backend is not None:
        doc["backend"] = job.backend
    if job.arch is not None:
        doc["arch"] = job.arch
    if job.strategies:
        doc["strategies"] = job.strategies_map
    if job.enola_config is not None:
        doc["enola"] = asdict(job.enola_config)
    if job.powermove_config is not None:
        doc["powermove"] = asdict(job.powermove_config)
    if job.atomique_config is not None:
        doc["atomique"] = asdict(job.atomique_config)
    if job.params != DEFAULT_PARAMS:
        doc["params"] = asdict(job.params)
    return doc


def job_from_doc(doc: dict[str, Any]) -> CompileJob:
    """Rebuild a :class:`CompileJob` from a :func:`job_to_doc` document."""
    if not isinstance(doc, dict):
        raise JobError("job document must be an object")
    try:
        return CompileJob(
            scenario=doc.get("scenario"),
            benchmark=doc["benchmark"],
            num_aods=doc.get("num_aods", 1),
            seed=doc.get("seed", 0),
            enola_config=(
                EnolaConfig(**doc["enola"]) if "enola" in doc else None
            ),
            powermove_config=(
                PowerMoveConfig(**doc["powermove"])
                if "powermove" in doc
                else None
            ),
            params=(
                HardwareParams(**doc["params"])
                if "params" in doc
                else DEFAULT_PARAMS
            ),
            validate=doc.get("validate", True),
            backend=doc.get("backend"),
            atomique_config=(
                AtomiqueConfig(**doc["atomique"])
                if "atomique" in doc
                else None
            ),
            arch=doc.get("arch"),
            strategies=doc.get("strategies"),
        )
    except KeyError as exc:
        raise JobError(f"job document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise JobError(f"bad job document: {exc}") from exc


def result_summary(
    program: NAProgram, report: FidelityReport
) -> dict[str, Any]:
    """The record-facing numbers of a program and its Eq. (1) report.

    Keys are :data:`SUMMARY_FIELDS`; the values are taken as-is, so a
    summary equals the one recomputed from the same program bit for bit.
    """
    return {
        "total": report.total,
        "execution_time": report.execution_time,
        "num_stages": program.num_stages,
        "num_coll_moves": program.num_coll_moves,
        "num_transfers": program.num_transfers,
    }


def execute_job_on_circuit(
    job: CompileJob, circuit: Circuit
) -> dict[str, Any]:
    """Compile ``circuit`` per ``job`` and return a picklable artifact.

    The artifact is the unit stored in the content-addressed cache::

        {"program": <json.dumps of the serialize.program_to_dict doc>,
         "summary": <result_summary of the program>,
         "compile_time": <T_comp seconds>,
         "validated": <bool>,
         "pass_timings": <pass name -> seconds>,
         "pass_spans": [[name, start_s, end_s], ...]}

    The program travels as one JSON string: it parses far faster than
    the nested document, and a result record never parses it at all --
    it reads ``summary``, the fidelity of the program just compiled (on
    the pool path, computed in the worker).  A validating job scores the
    timeline of its validation walk, so the program is replayed once
    either way.  ``params`` is part of the cache key, so the summary is
    a pure function of it.

    ``pass_spans`` are this compile's real per-pass offsets (relative
    to compile start) -- measurement of *this* run, not content; the
    engine pops them off before the artifact is cached, so cache hits
    never replay a previous machine's timeline.
    """
    job = resolve_backend(job, circuit)
    compilation = job_compiler(job).compile(
        circuit, arch=job.arch, strategies=job.strategies_map
    )
    program = compilation.program
    model = FidelityModel(job.params)
    if job.validate:
        preserves = REGISTRY.get(job.backend_name).preserves_gate_stream
        source = compilation.native_circuit if preserves else None
        timeline = validate_program(program, source_circuit=source).timeline
        report = model.from_timeline(timeline)
    else:
        report = model.evaluate(program)
    return {
        "program": json.dumps(program_to_dict(program)),
        "summary": result_summary(program, report),
        "compile_time": compilation.compile_time,
        "validated": job.validate,
        "pass_timings": compilation.stats.get("pass_timings", {}),
        "pass_spans": compilation.stats.get("pass_spans", []),
    }


__all__ = [
    "AUTO_BACKEND",
    "CompileJob",
    "JobError",
    "SCENARIOS",
    "SCENARIO_BACKENDS",
    "SUMMARY_FIELDS",
    "benchmark_digest",
    "effective_config",
    "execute_job_on_circuit",
    "job_compiler",
    "job_from_doc",
    "job_to_doc",
    "resolve_backend",
    "result_summary",
]
