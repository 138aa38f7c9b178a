import numpy as np
import pytest
from scipy.linalg import expm

from csres import (
    Circuit,
    PauliSum,
    apply_circuit,
    expectation_sum,
    zero_state,
)
from csres.simulator import compiled, shot_estimate

from oracles import dense_from_terms, kron_pauli


def random_state(rng, n):
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def random_circuit(rng, n, depth=12):
    circ = Circuit(n)
    for _ in range(depth):
        kind = rng.choice(["rx", "rz", "rxx", "h", "cphase", "swap"])
        q = int(rng.integers(n))
        q2 = int((q + 1 + rng.integers(n - 1)) % n)
        angle = float(rng.uniform(-np.pi, np.pi))
        if kind in ("rx", "rz"):
            getattr(circ, kind)(q, angle)
        elif kind == "h":
            circ.h(q)
        elif kind == "rxx":
            circ.rxx(q, q2, angle)
        elif kind == "cphase":
            circ.cphase(q, q2, angle)
        else:
            circ.swap(q, q2)
    return circ


def dense_unitary(circ):
    """Independent dense realisation of the whole circuit."""
    n = circ.n_qubits
    dim = 2**n
    u_total = np.eye(dim, dtype=complex)
    x = kron_pauli("X")
    z = kron_pauli("Z")
    for gate in circ.gates:
        if gate.name == "rx":
            u1 = expm(-1j * gate.angle / 2 * x)
            u = embed_1q(u1, gate.qubits[0], n)
        elif gate.name == "rz":
            u1 = expm(-1j * gate.angle / 2 * z)
            u = embed_1q(u1, gate.qubits[0], n)
        elif gate.name == "h":
            u = embed_1q(np.array([[1, 1], [1, -1]]) / np.sqrt(2), gate.qubits[0], n)
        elif gate.name == "rxx":
            q1, q2 = gate.qubits
            xx = pauli_on(n, {q1: "X", q2: "X"})
            u = expm(-1j * gate.angle * xx)
        elif gate.name == "cphase":
            c, t = gate.qubits
            u = np.eye(dim, dtype=complex)
            for k in range(dim):
                if (k >> c) & 1 and (k >> t) & 1:
                    u[k, k] = np.exp(1j * gate.angle)
        elif gate.name == "swap":
            q1, q2 = gate.qubits
            u = np.zeros((dim, dim), dtype=complex)
            for k in range(dim):
                b1, b2 = (k >> q1) & 1, (k >> q2) & 1
                kk = k & ~(1 << q1) & ~(1 << q2) | (b2 << q1) | (b1 << q2)
                u[kk, k] = 1.0
        u_total = u @ u_total
    return u_total


def embed_1q(u1, q, n):
    letters = ["I"] * n
    out = np.array([[1.0 + 0j]])
    for pos in range(n):
        out = np.kron(u1 if pos == q else np.eye(2), out)
    return out


def pauli_on(n, assignment):
    letters = "".join(assignment.get(q, "I") for q in range(n))
    return kron_pauli(letters)


class TestApplyCircuit:
    def test_empty_circuit(self, rng):
        psi = random_state(rng, 3)
        out = apply_circuit(psi, Circuit(3))
        np.testing.assert_array_equal(out, psi)

    def test_rx_pi_flips_with_phase(self):
        circ = Circuit(1)
        circ.rx(0, np.pi)
        out = apply_circuit(zero_state(1), circ)
        np.testing.assert_allclose(out, [0.0, -1j], atol=1e-14)

    def test_against_dense_oracle(self, rng):
        for _ in range(5):
            circ = random_circuit(rng, 4)
            psi = random_state(rng, 4)
            fast = apply_circuit(psi, circ)
            dense = dense_unitary(circ) @ psi
            fidelity = abs(np.vdot(dense, fast))
            assert fidelity > 1.0 - 1e-12

    def test_norm_preserved(self, rng):
        psi = random_state(rng, 5)
        circ = random_circuit(rng, 5, depth=40)
        out = apply_circuit(psi, circ)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_index_bounds(self):
        circ = Circuit(2)
        with pytest.raises(ValueError):
            circ.rx(2, 0.1)

    def test_xx_block_order_irrelevant(self, rng):
        angles = rng.uniform(-1, 1, 3)
        orders = [(0, 1, 2), (2, 1, 0), (1, 0, 2)]
        outs = []
        for order in orders:
            circ = Circuit(4)
            for q in order:
                circ.rxx(q, q + 1, angles[q])
            outs.append(apply_circuit(random_state(np.random.default_rng(5), 4), circ))
        for out in outs[1:]:
            assert np.abs(out - outs[0]).max() < 1e-12


class TestExpectations:
    def test_all_z_on_vacuum(self):
        assert expectation_sum(zero_state(4), PauliSum(4, {"ZZZZ": 1.0})) == pytest.approx(1.0)

    def test_x_on_plus(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert expectation_sum(plus, PauliSum(1, {"X": 1.0})) == pytest.approx(1.0)

    def test_random_vs_dense(self, rng):
        psi = random_state(rng, 3)
        for letters in ("XYZ", "ZIX", "YYI"):
            dense = kron_pauli(letters)
            assert expectation_sum(psi, PauliSum(3, {letters: 1.0})) == pytest.approx(
                np.vdot(psi, dense @ psi), abs=1e-12
            )

    def test_identity_exact_in_both_modes(self, rng):
        psi = random_state(rng, 3)
        iden = PauliSum(3, {"III": 1.0})
        assert expectation_sum(psi, iden) == pytest.approx(1.0, abs=1e-14)
        assert expectation_sum(psi, iden, shots=16, seed=0) == pytest.approx(1.0, abs=1e-14)

    def test_exact_matches_dense_quadratic_form(self, rng):
        psi = random_state(rng, 3)
        terms = {"XYZ": 0.3 - 0.2j, "ZZI": 1.1, "IXI": -0.4 + 0.9j, "III": 0.25}
        psum = PauliSum(3, terms)
        dense = dense_from_terms(psum.items(), 3)
        got = expectation_sum(psi, psum)
        assert abs(got - np.vdot(psi, dense @ psi)) < 1e-12

    def test_shot_noise_standard_error(self):
        # stderr of a single-string estimate ~ sqrt((1 - <P>^2)/shots)
        theta = 0.7
        psi = np.array([np.cos(theta / 2), np.sin(theta / 2)])
        psum = PauliSum(1, {"Z": 1.0})
        exact = np.cos(theta)  # <Z> = cos^2(theta/2) - sin^2(theta/2)
        shots = 512
        reps = 200
        rng = np.random.default_rng(11)
        ests = [
            expectation_sum(psi, psum, shots=shots, seed=rng).real for _ in range(reps)
        ]
        observed = np.std(ests)
        predicted = np.sqrt((1.0 - exact**2) / shots)
        assert observed < 3.0 * predicted
        assert observed > predicted / 3.0

    def test_shot_mode_converges_to_exact(self, rng):
        # log-log error slope ~ -1/2 across shots = 2^7 .. 2^15
        psi = random_state(rng, 2)
        psum = PauliSum(2, {"XY": 0.8, "ZI": -0.5, "YY": 0.3})
        exact = expectation_sum(psi, psum).real
        shot_grid = [2**k for k in range(7, 16)]
        errs = []
        for shots in shot_grid:
            reps = [
                abs(expectation_sum(psi, psum, shots=shots, seed=1000 + r).real - exact)
                for r in range(24)
            ]
            errs.append(np.mean(reps))
        slope = np.polyfit(np.log(shot_grid), np.log(errs), 1)[0]
        assert -0.65 < slope < -0.35


class TestCompiledPass:
    def test_shares_match_each_sum_compiled_alone(self, rng):
        # overlapping sums: a string of both is one row of the shared pass.
        # Each share lists the strings, coefficients and identity flags of
        # the sum alone, in the same order; the means agree to rounding only,
        # since BLAS may round a row of an X-mask group's product differently
        # when the group holds other rows
        a = PauliSum(4, {"XYZI": 0.3 - 0.2j, "XZZI": 1.1, "IXIY": -0.4 + 0.9j,
                         "ZIZI": 0.7, "IIII": 0.25})
        b = PauliSum(4, {"XYZI": -0.6, "XIZZ": 0.5j, "YIXI": 0.2, "IXIY": 1.3,
                         "ZZZZ": -0.8, "IIII": 2.0})
        states = np.stack([random_state(rng, 4) for _ in range(5)], axis=1)
        both = compiled(a, b)
        assert len(both.order) == len({s for psum in (a, b) for s, _ in psum.items()})
        for i, psum in enumerate((a, b)):
            alone = compiled(psum)
            rows, coeffs, is_identity = both.shares[i]
            assert [both.order[r] for r in rows] == alone.order
            assert np.array_equal(coeffs, alone.shares[0].coeffs)
            assert np.array_equal(is_identity, alone.shares[0].is_identity)
            for psi in (states, states[:, 0]):
                np.testing.assert_allclose(coeffs @ both.term_expectations(psi)[rows],
                                           alone.expectation(psi), rtol=0, atol=1e-14)
            z = rng.standard_normal(len(psum))
            shared = shot_estimate(both.term_expectations(states)[rows], coeffs, is_identity,
                                   64, frozen=z)
            single = shot_estimate(alone.term_expectations(states), coeffs, is_identity,
                                   64, frozen=z)
            np.testing.assert_allclose(shared, single, rtol=0, atol=1e-14)
