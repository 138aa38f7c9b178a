import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csres import (
    PauliSum,
    encode_gray,
    encode_onehot_jw,
    gray_code,
    hermitianize,
    pauli_decompose,
    pauli_multiply,
)
from csres.encoding import parity_signs

from oracles import dense_from_terms, kron_pauli, match_eigen_sets


def random_complex_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_pauli_sum(rng, n_qubits, n_terms):
    letters = ["".join(rng.choice(list("IXYZ"), size=n_qubits)) for _ in range(n_terms)]
    coeffs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return PauliSum(n_qubits, list(zip(letters, coeffs)))


class TestDecompose:
    def test_identity(self):
        ps = pauli_decompose(np.eye(8))
        assert ps.items() == [("III", 1.0 + 0j)]

    def test_two_by_two_closed_form(self):
        a, b, c = 1.3, -0.4, 0.25 + 0.1j
        ps = pauli_decompose(np.array([[a, c], [c, b]]))
        assert ps.coefficient("I") == pytest.approx((a + b) / 2)
        assert ps.coefficient("X") == pytest.approx(c)
        assert ps.coefficient("Z") == pytest.approx((a - b) / 2)

    def test_roundtrip_random_four_qubits(self, rng):
        m = random_complex_matrix(rng, 16)
        ps = pauli_decompose(m)
        rebuilt = dense_from_terms(ps.items(), 4)
        assert np.abs(rebuilt - m).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lazy_strings_equal_the_trace_formula(self, rng, n):
        # the strings are expanded on first read, c_P = Tr(P M) / 2^n
        m = random_complex_matrix(rng, 2**n)
        ps = pauli_decompose(m)
        assert "_terms" not in vars(ps)
        assert np.array_equal(ps.to_matrix(), m)
        eager = PauliSum(n, {"".join(s): np.trace(kron_pauli(s) @ m) / 2**n
                             for s in itertools.product("IXYZ", repeat=n)})
        assert [s for s, _ in ps.items()] == [s for s, _ in eager.items()]
        np.testing.assert_allclose([c for _, c in ps.items()], [c for _, c in eager.items()],
                                   rtol=0, atol=1e-13)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="zero-pad"):
            pauli_decompose(np.eye(6))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property_two_qubits(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex_matrix(rng, 4)
        ps = pauli_decompose(m)
        assert np.abs(dense_from_terms(ps.items(), 2) - m).max() < 1e-12


class TestMultiply:
    def test_single_qubit_xy(self):
        x = PauliSum(1, {"X": 1.0})
        y = PauliSum(1, {"Y": 1.0})
        prod = pauli_multiply(x, y)
        assert prod.items() == [("Z", 1j)]

    def test_identity_neutral(self, rng):
        a = random_pauli_sum(rng, 3, 5)
        iden = PauliSum(3, {"III": 1.0})
        prod = pauli_multiply(a, iden)
        for (s1, c1), (s2, c2) in zip(prod.items(), a.items()):
            assert s1 == s2 and c1 == pytest.approx(c2)

    def test_against_dense_oracle(self, rng):
        pairs = [(random_pauli_sum(rng, 3, 4), random_pauli_sum(rng, 3, 4)) for _ in range(100)]
        # a one-hot JW sum brings Y strings and Z chains (X Z..Z X, Y Z..Z Y)
        h = random_complex_matrix(rng, 5)
        onehot = encode_onehot_jw(h + h.T)
        for a, b in pairs + [(onehot.dagger(), onehot)]:
            n = a.n_qubits
            prod = pauli_multiply(a, b)
            dense = dense_from_terms(a.items(), n) @ dense_from_terms(b.items(), n)
            assert np.abs(dense_from_terms(prod.items(), n) - dense).max() < 1e-12

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            pauli_multiply(PauliSum(2, {"II": 1.0}), PauliSum(3, {"III": 1.0}))


class TestOneHotJw:
    def test_single_site(self):
        ps = encode_onehot_jw(np.array([[2.5]]))
        assert ps.coefficient("I") == pytest.approx(1.25)
        assert ps.coefficient("Z") == pytest.approx(-1.25)

    def test_two_site_hopping(self):
        t = 0.7
        ps = encode_onehot_jw(np.array([[0.0, t], [t, 0.0]]))
        assert ps.coefficient("XX") == pytest.approx(t / 2)
        assert ps.coefficient("YY") == pytest.approx(t / 2)
        ev = np.linalg.eigvalsh(ps.to_matrix())
        assert min(ev) == pytest.approx(-t)
        assert max(ev) == pytest.approx(t)

    def test_one_particle_sector_reproduces_matrix(self, h5_matrix):
        ps = encode_onehot_jw(h5_matrix)
        dense = ps.to_matrix()
        onehot = [1 << i for i in range(5)]
        sector = dense[np.ix_(onehot, onehot)]
        assert np.abs(sector - h5_matrix).max() < 1e-12

    def test_full_register_contains_physical_spectrum(self, h5_matrix):
        full = np.linalg.eigvals(encode_onehot_jw(h5_matrix).to_matrix())
        physical = np.linalg.eigvals(h5_matrix)
        for lam in physical:
            assert np.abs(full - lam).min() < 1e-9
        assert full.size == 32  # redundant sectors present


class TestGray:
    def test_register_sizes(self):
        assert encode_gray(np.eye(16)).n_qubits == 4
        assert encode_gray(np.eye(5)).n_qubits == 3
        assert encode_gray(np.eye(32)).n_qubits == 5

    def test_identity_single_term(self):
        ps = encode_gray(np.eye(4))
        assert ps.items() == [("II", 1.0 + 0j)]

    def test_gray_words_adjacent(self):
        words = [gray_code(k) for k in range(8)]
        assert len(set(words)) == 8
        for a, b in zip(words[:-1], words[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_padded_spectrum(self, h5_matrix):
        full = np.linalg.eigvals(encode_gray(h5_matrix).to_matrix())
        physical = np.linalg.eigvals(h5_matrix)
        combined = np.concatenate([physical, np.zeros(3)])
        assert match_eigen_sets(combined, full) < 1e-10

    def test_dense_form_is_the_permuted_padded_matrix(self, h5_matrix):
        padded = np.zeros((8, 8), dtype=complex)
        padded[:5, :5] = h5_matrix
        perm = [gray_code(k) for k in range(8)]
        expect = np.zeros_like(padded)
        expect[np.ix_(perm, perm)] = padded
        ps = encode_gray(h5_matrix)
        dense = ps.to_matrix()
        np.testing.assert_array_equal(dense, expect)
        assert not dense.flags.writeable
        assert ps.to_matrix() is dense

    def test_terms_rebuild_the_dense_form(self, h5_matrix, rng):
        # the Pauli terms feed shot mode; they must encode the same matrix
        ps = encode_gray(h5_matrix)
        assert np.abs(dense_from_terms(ps.items(), 3) - ps.to_matrix()).max() < 1e-12
        # a sum built from its terms adds them in the oracle's order: equal to the bit
        with_y = random_pauli_sum(rng, 5, 40)
        assert any("Y" in s for s, _ in with_y.items())
        for ps in (encode_onehot_jw(h5_matrix), with_y):
            assert np.array_equal(ps.to_matrix(), dense_from_terms(ps.items(), ps.n_qubits))

    def test_spectrum_preserved_exactly(self, rng):
        for dim in (3, 6, 7):
            m = random_complex_matrix(rng, dim)
            full = np.linalg.eigvals(encode_gray(m).to_matrix())
            expect = np.concatenate(
                [np.linalg.eigvals(m), np.zeros(2 ** int(np.ceil(np.log2(dim))) - dim)]
            )
            assert match_eigen_sets(expect, full) < 1e-10


class TestHermitianize:
    def test_shifted_identity_vanishes(self):
        h = PauliSum(2, {"II": 1.5 - 0.2j})
        out = hermitianize(h, 1.5 - 0.2j)
        assert len(out) == 0

    def test_diagonal_two_level(self):
        lam1, lam2 = 0.3 + 0.1j, -1.1 - 0.6j
        h = pauli_decompose(np.diag([lam1, lam2]))
        dense = hermitianize(h, lam1).to_matrix()
        np.testing.assert_allclose(dense, np.diag([0.0, abs(lam2 - lam1) ** 2]), atol=1e-12)

    def test_against_dense_oracle(self, rng):
        h = random_pauli_sum(rng, 3, 6)
        e = 0.4 - 0.7j
        hd = dense_from_terms(h.items(), 3).conj().T
        hm = dense_from_terms(h.items(), 3)
        expect = (hd - np.conj(e) * np.eye(8)) @ (hm - e * np.eye(8))
        got = dense_from_terms(hermitianize(h, e).items(), 3)
        assert np.abs(got - expect).max() < 1e-12

    def test_real_coefficients_and_psd(self, h5_gray):
        out = hermitianize(h5_gray, 1.2 - 0.3j)
        assert max(abs(c.imag) for _, c in out.items()) < 1e-12
        ev = np.linalg.eigvalsh(out.to_matrix())
        assert ev.min() > -1e-10


class TestPauliSumBasics:
    def test_merging_and_cutoff(self):
        ps = PauliSum(2, [("XY", 1.0), ("XY", -1.0 + 1e-16), ("ZI", 0.5)])
        assert ps.items() == [("ZI", 0.5 + 0j)]

    def test_term_count_bound(self, h5_gray):
        assert len(h5_gray) < 2 ** (2 * h5_gray.n_qubits)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PauliSum(3, {"XX": 1.0})

    def test_parity_signs_are_the_diagonal_of_z_strings(self):
        ks = np.arange(16)
        for z in range(16):
            letters = "".join("Z" if z >> q & 1 else "I" for q in range(4))
            assert np.array_equal(parity_signs(ks, z), np.diag(kron_pauli(letters)).real)

    def test_dense_letter_convention(self):
        # letters[0] acts on qubit 0 = LSB of the index
        zi = PauliSum(2, {"ZI": 1.0}).to_matrix()  # Z on qubit 0
        np.testing.assert_allclose(np.diag(zi), [1, -1, 1, -1], atol=0)
        iz = PauliSum(2, {"IZ": 1.0}).to_matrix()  # Z on qubit 1
        np.testing.assert_allclose(np.diag(iz), [1, 1, -1, -1], atol=0)
