"""Tests for the Atomique-style fixed-array SWAP-insertion baseline."""

import pytest

from repro.baselines import (
    AtomiqueConfig,
    AtomiqueLikeCompiler,
    EnolaCompiler,
    EnolaConfig,
)
from repro.circuits import Circuit, transpile_to_native
from repro.circuits.generators import qaoa_regular
from repro.core import PowerMoveCompiler, PowerMoveConfig
from repro.fidelity import evaluate_program
from repro.schedule import validate_program

FAST = AtomiqueConfig(seed=0, sa_iterations_per_qubit=10)
FAST_ENOLA = EnolaConfig(seed=0, mis_restarts=2, sa_iterations_per_qubit=10)


@pytest.fixture
def statevector():
    """The state-vector simulator module (skips without numpy)."""
    pytest.importorskip("numpy")
    from repro.verify import statevector

    return statevector


def permute_state(state, mapping: dict[int, int]):
    """Move logical qubit q's axis onto atom ``mapping[q]``'s axis."""
    import numpy as np

    n = state.num_qubits
    psi = state.state.reshape([2] * n)
    # numpy axis k <-> qubit n-1-k.
    sources = [n - 1 - logical for logical in range(n)]
    targets = [n - 1 - mapping[logical] for logical in range(n)]
    psi = np.moveaxis(psi, sources, targets)
    return type(state)(n, psi.reshape(-1))


class TestMechanics:
    def test_adjacent_gate_needs_no_swap(self):
        qc = Circuit(2)
        qc.cz(0, 1)
        result = AtomiqueLikeCompiler(FAST).compile(qc)
        assert result.program.metadata["swaps_inserted"] == 0
        validate_program(result.program)

    def test_distant_gate_inserts_swaps(self):
        # Row-major homes on a 3x3 grid: qubits 0 and 8 are far apart.
        qc = Circuit(9)
        qc.cz(0, 8)
        config = AtomiqueConfig(seed=0, sa_iterations_per_qubit=0)
        result = AtomiqueLikeCompiler(config).compile(qc)
        assert result.program.metadata["swaps_inserted"] >= 1
        # Each swap adds 3 physical CZs on top of the logical gate.
        swaps = result.program.metadata["swaps_inserted"]
        assert result.program.num_two_qubit_gates == 1 + 3 * swaps
        validate_program(result.program)

    def test_structurally_valid_on_qaoa(self):
        qc = qaoa_regular(9, degree=4, seed=0)
        result = AtomiqueLikeCompiler(FAST).compile(qc)
        validate_program(result.program)

    def test_final_mapping_is_permutation(self):
        qc = qaoa_regular(9, degree=4, seed=0)
        result = AtomiqueLikeCompiler(FAST).compile(qc)
        mapping = result.program.metadata["final_mapping"]
        assert sorted(mapping) == list(range(9))
        assert sorted(mapping.values()) == list(range(9))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AtomiqueConfig(sa_iterations_per_qubit=-1)


class TestSemantics:
    """Correct up to the final logical->atom permutation."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equivalent_modulo_mapping(self, seed, statevector):
        qc = qaoa_regular(8, degree=3, seed=seed)
        native = transpile_to_native(qc)
        result = AtomiqueLikeCompiler(FAST).compile(qc)
        mapping = result.program.metadata["final_mapping"]

        initial = statevector.StateVector.random(8, seed=seed + 10)
        want = permute_state(
            statevector.simulate_circuit(native, initial), mapping
        )
        got = statevector.simulate_program_gates(result.program, 8, initial)
        assert want.fidelity_with(got) == pytest.approx(1.0)

    def test_identity_mapping_when_no_swaps(self):
        qc = Circuit(4)
        qc.cz(0, 1)
        qc.cz(2, 3)
        result = AtomiqueLikeCompiler(FAST).compile(qc)
        mapping = result.program.metadata["final_mapping"]
        if result.program.metadata["swaps_inserted"] == 0:
            assert mapping == {q: q for q in range(4)}


class TestBaselineLadder:
    """Sec. 3.1's argument: SWAP insertion loses to movement, which
    loses to PowerMove."""

    @pytest.fixture(scope="class")
    def ladder(self):
        qc = qaoa_regular(12, degree=3, seed=1)
        atomique = AtomiqueLikeCompiler(FAST).compile(qc)
        enola = EnolaCompiler(FAST_ENOLA).compile(qc)
        pm = PowerMoveCompiler(PowerMoveConfig(seed=0)).compile(qc)
        return {
            "atomique": evaluate_program(atomique.program),
            "enola": evaluate_program(enola.program),
            "pm": evaluate_program(pm.program),
            "atomique_g2": atomique.program.num_two_qubit_gates,
            "enola_g2": enola.program.num_two_qubit_gates,
        }

    def test_swaps_inflate_two_qubit_count(self, ladder):
        assert ladder["atomique_g2"] > ladder["enola_g2"]

    def test_two_qubit_fidelity_ladder(self, ladder):
        """Enola's two-qubit fidelity advantage over Atomique (the 779x
        claim, direction and driver)."""
        assert ladder["enola"].two_qubit > ladder["atomique"].two_qubit

    def test_total_fidelity_ladder(self, ladder):
        assert (
            ladder["pm"].total
            > ladder["enola"].total
            > ladder["atomique"].total
        )

    def test_atomique_slowest(self, ladder):
        assert (
            ladder["atomique"].execution_time
            > ladder["enola"].execution_time
        )
