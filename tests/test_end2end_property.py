"""End-to-end property test: random circuits -> compile -> validate ->
verify.

For arbitrary small native circuits (random 1Q gates + CZs), both
PowerMove variants must produce programs that (a) satisfy every hardware
constraint and (b) are unitarily equivalent to the source circuit.  This
is the strongest single invariant in the suite: it exercises block
partitioning, stage scheduling, routing, grouping, batching and the
instruction stream in one shot, against an independent simulator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import EnolaCompiler, EnolaConfig
from repro.circuits import Circuit
from repro.core import PowerMoveCompiler, PowerMoveConfig
from repro.schedule import validate_program

pytest.importorskip("numpy")

from repro.verify import verify_program_semantics  # noqa: E402 - numpy

FAST_ENOLA = EnolaConfig(seed=0, mis_restarts=2, sa_iterations_per_qubit=5)


@st.composite
def random_native_circuits(draw):
    n = draw(st.integers(2, 7))
    qc = Circuit(n, name="hyp")
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            qc.h(draw(st.integers(0, n - 1)))
        elif kind == 1:
            qc.rz(draw(st.floats(0.1, 3.0)), draw(st.integers(0, n - 1)))
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1).filter(lambda x, a=a: x != a))
            qc.cz(a, b)
    if qc.num_two_qubit_gates == 0:
        qc.cz(0, 1)
    return qc


class TestCompileValidateVerify:
    @given(random_native_circuits(), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_powermove_with_storage(self, circuit, seed):
        result = PowerMoveCompiler(
            PowerMoveConfig(use_storage=True, seed=seed)
        ).compile(circuit)
        validate_program(
            result.program, source_circuit=result.native_circuit
        )
        overlap = verify_program_semantics(
            result.program, result.native_circuit, seed=seed
        )
        assert abs(overlap - 1.0) < 1e-9

    @given(random_native_circuits(), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_powermove_non_storage(self, circuit, seed):
        result = PowerMoveCompiler(
            PowerMoveConfig(use_storage=False, seed=seed)
        ).compile(circuit)
        validate_program(
            result.program, source_circuit=result.native_circuit
        )
        overlap = verify_program_semantics(
            result.program, result.native_circuit, seed=seed
        )
        assert abs(overlap - 1.0) < 1e-9

    @given(random_native_circuits(), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_powermove_multi_aod(self, circuit, num_aods):
        result = PowerMoveCompiler(
            PowerMoveConfig(num_aods=num_aods, seed=0)
        ).compile(circuit)
        validate_program(
            result.program, source_circuit=result.native_circuit
        )
        for batch in result.program.move_batches:
            assert batch.num_coll_moves <= num_aods

    @given(random_native_circuits())
    @settings(max_examples=15, deadline=None)
    def test_enola_baseline(self, circuit):
        result = EnolaCompiler(FAST_ENOLA).compile(circuit)
        validate_program(
            result.program, source_circuit=result.native_circuit
        )
        overlap = verify_program_semantics(
            result.program, result.native_circuit, seed=0
        )
        assert abs(overlap - 1.0) < 1e-9
