import numpy as np
import pytest

from csres import (
    basis_state,
    filtration_report,
    number_operator_pauli,
    qpe_ancilla_probabilities,
    qpe_project,
    qpe_project_circuit,
)

from oracles import dense_from_terms


class TestNumberOperator:
    def test_single_qubit(self):
        op = number_operator_pauli(1)
        dense = dense_from_terms(op.items(), 1)
        np.testing.assert_allclose(np.linalg.eigvalsh(dense), [0.0, 1.0], atol=1e-14)

    def test_counts_hamming_weight(self):
        op = number_operator_pauli(5)
        dense = dense_from_terms(op.items(), 5)
        state = basis_state(5, 0b00011)
        val = np.vdot(state, dense @ state).real
        assert val == pytest.approx(2.0, abs=1e-14)

    def test_dense_is_popcount_diagonal(self):
        op = number_operator_pauli(4)
        dense = dense_from_terms(op.items(), 4)
        expected = np.diag([bin(k).count("1") for k in range(16)]).astype(float)
        np.testing.assert_allclose(dense, expected, atol=1e-14)


class TestQpeProject:
    def test_weight_one_deterministic(self):
        counts = qpe_project(basis_state(5, 0b00001), shots=500, seed=1)
        assert counts == {"001": 500}

    def test_weight_two_deterministic(self):
        counts = qpe_project(basis_state(5, 0b00011), shots=500, seed=1)
        assert counts == {"010": 500}

    def test_superposition_splits(self):
        psi = (basis_state(5, 0b00001) + basis_state(5, 0b00011)) / np.sqrt(2)
        counts = qpe_project(psi, shots=8192, seed=7)
        assert set(counts) == {"001", "010"}
        sigma = np.sqrt(8192 * 0.25)
        assert abs(counts["001"] - 4096) < 4 * sigma

    @pytest.mark.parametrize("n, n_r", [(1, 1), (3, 2), (7, 3), (8, 4)])
    def test_register_is_the_smallest_holding_every_weight(self, n, n_r):
        # weight n needs n_r bits, and n_r - 1 bits hold no weight above 2^(n_r-1) - 1
        assert 2 ** (n_r - 1) <= n < 2**n_r
        full = basis_state(n, 2**n - 1)  # weight n, the largest
        for probs in (qpe_ancilla_probabilities(full), qpe_project_circuit(full)):
            expected = np.zeros(2**n_r)
            expected[n] = 1.0
            np.testing.assert_allclose(probs, expected, atol=1e-12)
        assert qpe_project(full, shots=10, seed=0) == {format(n, f"0{n_r}b"): 10}

    def test_seed_determinism(self):
        psi = (basis_state(4, 0b0001) + basis_state(4, 0b0111)) / np.sqrt(2)
        assert qpe_project(psi, 1024, seed=9) == qpe_project(psi, 1024, seed=9)


class TestCircuitPath:
    def test_matches_analytic_on_eigenstates(self):
        for idx, weight in ((0b001, 1), (0b011, 2), (0b111, 3)):
            probs = qpe_project_circuit(basis_state(3, idx))
            expected = np.zeros(4)
            expected[weight] = 1.0
            np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_matches_analytic_on_random_states(self, rng):
        # four system qubits, so three ancillas and a three-bit inverse QFT
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        circuit = qpe_project_circuit(psi)
        analytic = qpe_ancilla_probabilities(psi)
        np.testing.assert_allclose(circuit, analytic, atol=1e-12)

    def test_controlled_phase_angle_is_product_formula(self):
        # U = prod_j diag(1, e^{i pi / 2^{n_r - 1}}) on each system qubit
        n_r = 3
        base = 2.0 * np.pi / 2**n_r
        assert base == pytest.approx(np.pi / 2 ** (n_r - 1), abs=0)


class TestReport:
    def test_physical_and_redundant_rows(self):
        states = [
            basis_state(5, 0b00100),  # weight 1: physical
            basis_state(5, 0b00110),  # weight 2: redundant
        ]
        report = filtration_report(states, [1.0 + 0.0j, 3.0 - 1.0j], shots=4096, seed=2)
        phys, redundant = report.rows
        assert phys.physical
        assert phys.percentages["001"] == pytest.approx(100.0)
        assert not redundant.physical
        assert redundant.percentages.get("001", 0.0) == 0.0

    def test_percentages_sum_to_hundred(self, rng):
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi /= np.linalg.norm(psi)
        report = filtration_report([psi], [0.5 - 0.5j], shots=8192, seed=4)
        assert sum(report.rows[0].percentages.values()) == pytest.approx(100.0, abs=0.01)
        assert sum(report.rows[0].counts.values()) == 8192

    def test_eight_qubits_get_four_ancillas(self):
        # weights 0..8 need four bits; the register follows from the state
        report = filtration_report([basis_state(8, 0b1000), basis_state(8, 0b11111111)],
                                   [1.0, 2.0], shots=256, seed=3)
        phys, full = report.rows
        assert phys.counts == {"0001": 256} and phys.physical
        assert full.counts == {"1000": 256} and not full.physical
        assert report.words == ["0001", "1000"]

    def test_words_collects_columns(self):
        states = [basis_state(4, 0b0001), basis_state(4, 0b1111)]
        report = filtration_report(states, [0.0, 0.0], shots=128, seed=0)
        assert "001" in report.words and "100" in report.words
