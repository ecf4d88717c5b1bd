"""Conformance suite: every registered backend honours the contract.

For each backend in the default registry, compiling a small circuit
must produce (1) a validator-clean program, (2) a bit-identical digest
across two independent runs, and (3) populated per-pass timing stats
and trace spans.  New backends get these checks for free by
registering.

The architecture/strategy matrix class crosses the architecture
catalog with the strategy-variant backends (the CI ``strategy-matrix``
job runs this module): every feasible (architecture, backend) cell
compiles validator-clean and digest-deterministically, and every
infeasible cell (a storage-requiring backend on a storage-less floor
plan) is rejected loudly, matching the cost model's feasibility
verdict.
"""

import pytest

from repro.circuits.generators import qaoa_regular
from repro.hardware.catalog import ARCHITECTURES
from repro.hardware.params import DEFAULT_PARAMS
from repro.pipeline import REGISTRY, create_compiler, get_backend
from repro.pipeline.costmodel import estimate_cost
from repro.schedule import validate_program
from repro.schedule.serialize import program_digest

#: Small-but-nontrivial workload: parallel structure, 1Q gaps, 2Q blocks.
WORKLOAD = qaoa_regular(8, degree=3, seed=1)

#: Cheap per-backend knobs so the whole suite stays fast.
FAST_OVERRIDES = {
    "enola": {"mis_restarts": 1, "sa_iterations_per_qubit": 5},
    "enola-naive-storage": {"mis_restarts": 1, "sa_iterations_per_qubit": 5},
    "enola-windowed": {
        "mis_restarts": 1,
        "sa_iterations_per_qubit": 5,
        "window_size": 4,
    },
    "atomique": {"sa_iterations_per_qubit": 5},
}

ALL_BACKENDS = REGISTRY.names()


def _compiler(name: str):
    spec = get_backend(name)
    overrides = FAST_OVERRIDES.get(name)
    config = (
        spec.config_cls(**overrides)
        if overrides
        else spec.default_config()
    )
    return create_compiler(name, spec.effective_config(config, 0, 1))


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestBackendConformance:
    def test_program_is_validator_clean(self, name):
        spec = get_backend(name)
        result = _compiler(name).compile(WORKLOAD)
        source = (
            result.native_circuit if spec.preserves_gate_stream else None
        )
        report = validate_program(result.program, source_circuit=source)
        assert report.ok

    def test_digest_deterministic_across_runs(self, name):
        first = _compiler(name).compile(WORKLOAD)
        second = _compiler(name).compile(WORKLOAD)
        assert program_digest(first.program) == program_digest(
            second.program
        )

    def test_per_pass_stats_populated(self, name):
        spec = get_backend(name)
        result = _compiler(name).compile(WORKLOAD)
        timings = result.stats["pass_timings"]
        assert tuple(timings) == spec.pipeline.pass_names
        assert all(seconds >= 0.0 for seconds in timings.values())
        # The pass timings live alongside the historical metadata keys.
        assert "num_stages" in result.stats

    def test_pass_spans_lay_every_pass_in_order(self, name):
        spec = get_backend(name)
        stats = _compiler(name).compile(WORKLOAD).stats
        spans = stats["pass_spans"]
        assert tuple(span[0] for span in spans) == spec.pipeline.pass_names
        previous_end = 0.0
        for pass_name, start, end in spans:
            assert previous_end <= start <= end
            assert end - start == pytest.approx(
                stats["pass_timings"][pass_name], abs=1e-9
            )
            previous_end = end

    def test_compiler_name_stamped(self, name):
        compiler = _compiler(name)
        result = compiler.compile(WORKLOAD)
        assert result.program.compiler_name == compiler.variant_name
        assert result.compile_time > 0.0


#: One backend per pipeline family plus every strategy-variant backend.
MATRIX_BACKENDS = (
    "powermove",
    "powermove-spiral",
    "powermove-reuse",
    "powermove-sorted-route",
    "enola",
    "enola-windowed",
    "atomique",
)

ARCH_MATRIX = [
    (arch, name)
    for arch in ARCHITECTURES.names()
    for name in MATRIX_BACKENDS
]


def _cell_feasible(arch: str, name: str) -> bool:
    machine = ARCHITECTURES.get(arch).build(
        WORKLOAD.num_qubits, 1, DEFAULT_PARAMS
    )
    return estimate_cost(name, WORKLOAD, machine).feasible


@pytest.mark.parametrize(("arch", "name"), ARCH_MATRIX)
class TestArchitectureStrategyMatrix:
    def test_feasible_cells_validator_clean(self, arch, name):
        if not _cell_feasible(arch, name):
            pytest.skip(f"{name} infeasible on {arch} (covered below)")
        spec = get_backend(name)
        result = _compiler(name).compile(WORKLOAD, arch=arch)
        source = (
            result.native_circuit if spec.preserves_gate_stream else None
        )
        report = validate_program(result.program, source_circuit=source)
        assert report.ok

    def test_feasible_cells_digest_deterministic(self, arch, name):
        if not _cell_feasible(arch, name):
            pytest.skip(f"{name} infeasible on {arch} (covered below)")
        first = _compiler(name).compile(WORKLOAD, arch=arch)
        second = _compiler(name).compile(WORKLOAD, arch=arch)
        assert program_digest(first.program) == program_digest(
            second.program
        )

    def test_infeasible_cells_rejected(self, arch, name):
        if _cell_feasible(arch, name):
            pytest.skip(f"{name} feasible on {arch} (covered above)")
        with pytest.raises(ValueError, match="storage"):
            _compiler(name).compile(WORKLOAD, arch=arch)
