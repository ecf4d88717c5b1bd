"""Unit tests for the benchmark circuit generators."""

import pytest

from repro.circuits import transpile_to_native
from repro.circuits.generators import (
    bernstein_vazirani,
    bv_secret,
    qaoa_random,
    qaoa_regular,
    qft,
    qsim_random,
    random_pauli_strings,
    vqe_full_entanglement,
)


class TestQaoa:
    def test_regular3_edge_count(self):
        qc = qaoa_regular(10, degree=3, seed=0)
        assert qc.num_two_qubit_gates == 10 * 3 // 2

    def test_regular4_edge_count(self):
        qc = qaoa_regular(10, degree=4, seed=0)
        assert qc.num_two_qubit_gates == 10 * 4 // 2

    def test_layers_multiply_gates(self):
        one = qaoa_regular(10, degree=3, seed=0, layers=1)
        two = qaoa_regular(10, degree=3, seed=0, layers=2)
        assert two.num_two_qubit_gates == 2 * one.num_two_qubit_gates

    def test_deterministic_by_seed(self):
        a = qaoa_regular(12, seed=5)
        b = qaoa_regular(12, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        a = qaoa_regular(12, seed=5)
        b = qaoa_regular(12, seed=6)
        assert a.interaction_pairs() != b.interaction_pairs()

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            qaoa_regular(7, degree=3)

    def test_n_not_greater_than_degree_rejected(self):
        # n * degree is even, so the range check is the one that fires.
        with pytest.raises(ValueError, match="degree < n"):
            qaoa_regular(4, degree=4)

    def test_random_probability_bounds(self):
        with pytest.raises(ValueError):
            qaoa_random(8, edge_probability=1.5)

    def test_random_half_density(self):
        qc = qaoa_random(20, edge_probability=0.5, seed=0)
        max_edges = 20 * 19 // 2
        # Loose 3-sigma band around the expected half density.
        assert 0.3 * max_edges < qc.num_two_qubit_gates < 0.7 * max_edges

    def test_all_two_qubit_gates_are_rzz(self):
        qc = qaoa_regular(10, seed=1)
        assert all(g.name == "rzz" for g in qc.two_qubit_gates)

    def test_starts_with_hadamard_wall(self):
        qc = qaoa_regular(10, seed=1)
        assert all(g.name == "h" for g in qc.gates[:10])


class TestQft:
    def test_gate_count_exact(self):
        n = 6
        qc = qft(n, with_swaps=False)
        assert qc.num_one_qubit_gates == n
        assert qc.num_two_qubit_gates == n * (n - 1) // 2

    def test_swap_count(self):
        qc = qft(6, with_swaps=True)
        assert sum(1 for g in qc.gates if g.name == "swap") == 3

    def test_approximation_drops_small_angles(self):
        exact = qft(8, with_swaps=False)
        approx = qft(8, with_swaps=False, approximation_degree=3)
        assert approx.num_two_qubit_gates < exact.num_two_qubit_gates

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            qft(0)
        with pytest.raises(ValueError):
            qft(4, approximation_degree=-1)

    def test_transpiles_to_native(self):
        assert transpile_to_native(qft(5)).is_native()


class TestBv:
    def test_secret_even_split(self):
        secret = bv_secret(10, seed=3)
        assert sum(secret) == 5

    def test_cx_count_matches_secret(self):
        secret = (1, 0, 1, 1, 0)
        qc = bernstein_vazirani(6, secret=secret)
        assert sum(1 for g in qc.gates if g.name == "cx") == 3

    def test_wrong_secret_length_rejected(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(4, secret=(1, 0, 1, 1))

    def test_non_binary_secret_rejected(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(3, secret=(1, 2))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(1)

    def test_deterministic_by_seed(self):
        assert bernstein_vazirani(10, seed=1) == bernstein_vazirani(
            10, seed=1
        )


class TestVqe:
    def test_full_entanglement_gate_count(self):
        n, layers = 6, 2
        qc = vqe_full_entanglement(n, layers=layers, seed=0)
        assert qc.num_two_qubit_gates == layers * n * (n - 1) // 2
        assert qc.num_one_qubit_gates == (layers + 1) * n

    def test_linear_entanglement_gate_count(self):
        from repro.circuits.generators import vqe_linear_entanglement

        n, layers = 6, 2
        qc = vqe_linear_entanglement(n, layers=layers, seed=0)
        assert qc.num_two_qubit_gates == layers * (n - 1)
        assert qc.num_one_qubit_gates == (layers + 1) * n

    def test_linear_is_a_chain(self):
        from repro.circuits.generators import vqe_linear_entanglement

        qc = vqe_linear_entanglement(5, seed=0)
        assert qc.interaction_pairs() == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_all_cz(self):
        qc = vqe_full_entanglement(5, seed=0)
        assert all(g.name == "cz" for g in qc.two_qubit_gates)

    def test_invalid_args(self):
        from repro.circuits.generators import vqe_ansatz

        with pytest.raises(ValueError):
            vqe_full_entanglement(1)
        with pytest.raises(ValueError):
            vqe_full_entanglement(4, layers=0)
        with pytest.raises(ValueError):
            vqe_ansatz(4, entanglement="ring")


class TestQsim:
    def test_string_count(self):
        strings = random_pauli_strings(10, 7, 0.3, seed=0)
        assert len(strings) == 7
        assert all(strings)

    def test_support_probability_plausible(self):
        strings = random_pauli_strings(50, 40, 0.3, seed=0)
        mean_support = sum(len(s) for s in strings) / len(strings)
        assert 10 < mean_support < 20  # expect ~15

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_pauli_strings(5, 3, 0.0, seed=0)

    def test_circuit_is_transpilable(self):
        qc = qsim_random(8, num_strings=4, seed=0)
        assert transpile_to_native(qc).is_native()

    def test_deterministic_by_seed(self):
        assert qsim_random(8, seed=2) == qsim_random(8, seed=2)

    def test_single_qubit_string_has_no_ladder(self):
        from repro.circuits import Circuit
        from repro.circuits.generators import append_pauli_rotation

        qc = Circuit(4)
        append_pauli_rotation(qc, {2: "Z"}, 0.5)
        assert qc.num_two_qubit_gates == 0
        assert qc.num_one_qubit_gates == 1

    def test_y_basis_change_is_inverted_correctly(self):
        from repro.circuits import Circuit
        from repro.circuits.generators import append_pauli_rotation

        qc = Circuit(2)
        append_pauli_rotation(qc, {0: "Y", 1: "Y"}, 0.3)
        names = [g.name for g in qc.gates]
        # forward: sdg,h on each; backward: h,s on each
        assert names.count("sdg") == 2
        assert names.count("s") == 2
