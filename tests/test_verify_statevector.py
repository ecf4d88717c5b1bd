"""Tests for the dense state-vector verifier.

The headline check: the compiler's aggressive reordering (commuting
blocks, stage re-sequencing, floating diagonal gates) is unitarily sound
on every benchmark family.
"""

import math

import pytest

from repro.baselines import EnolaCompiler, EnolaConfig
from repro.circuits import Circuit, transpile_to_native
from repro.circuits.gates import Gate
from repro.circuits.generators import (
    bernstein_vazirani,
    qaoa_regular,
    qft,
    qsim_random,
    vqe_linear_entanglement,
)
from repro.core import PowerMoveCompiler, PowerMoveConfig

np = pytest.importorskip("numpy")

from repro.verify import (  # noqa: E402 - needs numpy
    SimulationError,
    StateVector,
    simulate_circuit,
    verify_program_semantics,
)
from repro.verify.statevector import (  # noqa: E402 - needs numpy
    gate_matrix_1q,
    gate_matrix_2q,
)

FAST = EnolaConfig(seed=0, mis_restarts=2, sa_iterations_per_qubit=10)


class TestGateMatrices:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("h", ()),
            ("x", ()),
            ("y", ()),
            ("z", ()),
            ("s", ()),
            ("sdg", ()),
            ("t", ()),
            ("tdg", ()),
            ("sx", ()),
            ("rx", (0.7,)),
            ("ry", (1.2,)),
            ("rz", (0.4,)),
            ("p", (0.9,)),
            ("u2", (0.3, 0.5)),
            ("u3", (0.2, 0.4, 0.6)),
        ],
    )
    def test_1q_matrices_unitary(self, name, params):
        matrix = gate_matrix_1q(Gate(name, (0,), params))
        assert np.allclose(matrix @ matrix.conj().T, np.eye(2))

    @pytest.mark.parametrize(
        "name,params",
        [
            ("cz", ()),
            ("cp", (0.7,)),
            ("rzz", (1.1,)),
            ("cx", ()),
            ("swap", ()),
            ("crz", (0.5,)),
        ],
    )
    def test_2q_matrices_unitary(self, name, params):
        matrix = gate_matrix_2q(Gate(name, (0, 1), params))
        assert np.allclose(matrix @ matrix.conj().T, np.eye(4))

    def test_sdg_inverts_s(self):
        s = gate_matrix_1q(Gate("s", (0,)))
        sdg = gate_matrix_1q(Gate("sdg", (0,)))
        assert np.allclose(s @ sdg, np.eye(2))

    def test_cz_diagonal(self):
        assert np.allclose(
            np.diag(gate_matrix_2q(Gate("cz", (0, 1)))), [1, 1, 1, -1]
        )


class TestStateVector:
    def test_initial_state(self):
        sv = StateVector(2)
        assert sv.state[0] == 1.0
        assert np.allclose(np.linalg.norm(sv.state), 1.0)

    def test_x_flips(self):
        sv = StateVector(2)
        sv.apply_gate(Gate("x", (0,)))
        assert abs(sv.state[1]) == pytest.approx(1.0)  # |01> little-endian

    def test_bell_state(self):
        qc = Circuit(2)
        qc.h(0)
        qc.cx(0, 1)
        sv = simulate_circuit(qc)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert abs(np.vdot(expected, sv.state)) ** 2 == pytest.approx(1.0)

    def test_cx_decomposition_equivalent(self):
        direct = Circuit(3)
        direct.cx(2, 0)
        sv1 = simulate_circuit(direct, StateVector.random(3, seed=1))
        sv2 = simulate_circuit(
            transpile_to_native(direct), StateVector.random(3, seed=1)
        )
        assert sv1.fidelity_with(sv2) == pytest.approx(1.0)

    def test_swap_decomposition_equivalent(self):
        direct = Circuit(3)
        direct.swap(0, 2)
        sv1 = simulate_circuit(direct, StateVector.random(3, seed=2))
        sv2 = simulate_circuit(
            transpile_to_native(direct), StateVector.random(3, seed=2)
        )
        assert sv1.fidelity_with(sv2) == pytest.approx(1.0)

    def test_crz_decomposition_equivalent(self):
        direct = Circuit(2)
        direct.add_gate("crz", (0, 1), 0.8)
        sv1 = simulate_circuit(direct, StateVector.random(2, seed=3))
        sv2 = simulate_circuit(
            transpile_to_native(direct), StateVector.random(2, seed=3)
        )
        assert sv1.fidelity_with(sv2) == pytest.approx(1.0)

    def test_width_cap(self):
        with pytest.raises(SimulationError):
            StateVector(20)

    def test_random_state_normalised(self):
        sv = StateVector.random(5, seed=4)
        assert np.linalg.norm(sv.state) == pytest.approx(1.0)

    def test_norm_preserved_by_circuit(self):
        qc = qsim_random(6, num_strings=3, seed=0)
        sv = simulate_circuit(transpile_to_native(qc))
        assert np.linalg.norm(sv.state) == pytest.approx(1.0)


class TestCompilerSemantics:
    """The paper-critical check: compiled reordering preserves unitaries."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: qaoa_regular(8, degree=3, seed=1),
            lambda: qft(6),
            lambda: bernstein_vazirani(7, seed=0),
            lambda: vqe_linear_entanglement(7, seed=0),
            lambda: qsim_random(7, num_strings=4, seed=2),
        ],
        ids=["qaoa", "qft", "bv", "vqe", "qsim"],
    )
    @pytest.mark.parametrize("use_storage", [True, False])
    def test_powermove_semantics(self, factory, use_storage):
        circuit = factory()
        result = PowerMoveCompiler(
            PowerMoveConfig(use_storage=use_storage)
        ).compile(circuit)
        native = transpile_to_native(circuit)
        overlap = verify_program_semantics(result.program, native)
        assert overlap == pytest.approx(1.0)

    def test_enola_semantics(self):
        circuit = qaoa_regular(8, degree=3, seed=1)
        result = EnolaCompiler(FAST).compile(circuit)
        native = transpile_to_native(circuit)
        assert verify_program_semantics(
            result.program, native
        ) == pytest.approx(1.0)

    def test_detects_corrupted_program(self):
        circuit = qaoa_regular(6, degree=3, seed=1)
        result = PowerMoveCompiler(PowerMoveConfig()).compile(circuit)
        native = transpile_to_native(circuit)
        # Sabotage: drop one stage's gates.
        for instr in result.program.instructions:
            from repro.schedule import RydbergStage

            if isinstance(instr, RydbergStage):
                instr.gates.pop()
                break
        with pytest.raises(SimulationError, match="NOT equivalent"):
            verify_program_semantics(result.program, native)
