"""Pauli-string algebra and qubit encodings of basis-space operators.

Conventions: qubit 0 is the least significant bit of the computational
index; ``letters[q]`` is the single-qubit Pauli acting on qubit q, so the
dense form of a string is ``kron(P[n-1], ..., P[1], P[0])``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

COEFF_CUTOFF = 1e-14

_I_POWERS = (1, 1j, -1, -1j)  # i^k, indexed by k mod 4


class PauliSum:
    """Weighted sum of Pauli strings over a fixed qubit register.

    Terms are kept merged (no duplicate letter strings) and coefficients
    below ``COEFF_CUTOFF`` are dropped.  Instances are immutable by
    convention; algebra returns new sums.  The dense form is built once.
    A sum made by :func:`pauli_decompose` holds its matrix and expands its
    strings on first use.
    """

    def __init__(self, n_qubits, terms):
        self.n_qubits = int(n_qubits)
        merged = {}
        for letters, coeff in (terms.items() if isinstance(terms, dict) else terms):
            if len(letters) != self.n_qubits:
                raise ValueError(
                    f"letter string {letters!r} does not match register size {self.n_qubits}"
                )
            merged[letters] = merged.get(letters, 0.0) + complex(coeff)
        self._terms = {
            s: c for s, c in sorted(merged.items()) if abs(c) > COEFF_CUTOFF
        }
        self._matrix = None

    @cached_property
    def _terms(self):
        # only a sum from pauli_decompose gets here: __init__ sets _terms
        return PauliSum(self.n_qubits, _pauli_terms(self._matrix, self.n_qubits))._terms

    def items(self):
        return list(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def coefficient(self, letters):
        return self._terms.get(letters, 0.0)

    def dagger(self) -> "PauliSum":
        return PauliSum(self.n_qubits, {s: np.conj(c) for s, c in self._terms.items()})

    def __add__(self, other):
        if other.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        out = dict(self._terms)
        for s, c in other._terms.items():
            out[s] = out.get(s, 0.0) + c
        return PauliSum(self.n_qubits, out)

    def scaled(self, factor) -> "PauliSum":
        return PauliSum(self.n_qubits, {s: factor * c for s, c in self._terms.items()})

    def to_matrix(self) -> np.ndarray:
        """Dense form ``sum c_P P``, read-only and the same array on every call."""
        if self._matrix is None:
            ks = np.arange(2**self.n_qubits)
            out = np.zeros((ks.size, ks.size), dtype=complex)
            for s, c in self._terms.items():
                x, z, phase = string_masks(s)  # P[k ^ x, k] = phase (-1)^popcount(k & z)
                out[ks ^ x, ks] += c * phase * parity_signs(ks, z)
            out.setflags(write=False)
            self._matrix = out
        return self._matrix

    def __repr__(self):
        return f"PauliSum(n_qubits={self.n_qubits}, terms={len(self)})"


def string_masks(letters):
    """(x_mask, z_mask, phase) so that P|k> = phase * (-1)^popcount(k & z) |k ^ x>."""
    x = z = 0
    n_y = 0
    for q, ch in enumerate(letters):
        if ch in ("X", "Y"):
            x |= 1 << q
        if ch in ("Z", "Y"):
            z |= 1 << q
        if ch == "Y":
            n_y += 1
    return x, z, 1j**n_y


def parity_signs(ks, z):
    """(-1)^popcount(k & z) as floats, broadcast; in uint8, ``1 - 2 * count`` would wrap."""
    return 1.0 - 2.0 * (np.bitwise_count(ks & z) & 1)


def pauli_decompose(matrix) -> PauliSum:
    """Expand a square matrix in the Pauli basis, ``c_P = Tr(P M) / 2^n``.

    The reconstruction ``sum c_P P`` is exact; the sum keeps a read-only
    copy of ``matrix`` as its ``to_matrix()`` and expands the strings only
    when they are first read.  Dimension must be a power of two (zero-pad
    first otherwise).
    """
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("need a square matrix")
    n = int(dim - 1).bit_length() if dim > 1 else 1
    if 2**n != dim or dim < 2:
        raise ValueError(
            f"dimension {dim} is not a power of two; zero-pad the matrix first"
        )
    out = PauliSum.__new__(PauliSum)
    out.n_qubits, out._matrix = n, matrix.copy()
    out._matrix.setflags(write=False)
    return out


def _pauli_terms(matrix, n):
    # {letters: c_P} of pauli_decompose, c_P = Tr(P M) / 2^n
    dim = 2**n
    ks = np.arange(dim)
    walsh = parity_signs(ks, ks[:, None])  # W[z, k] = (-1)^popcount(k & z)
    terms = {}
    for x in ks:
        col = matrix[ks, ks ^ x]  # M[k, k^x]
        coeffs = walsh @ col / dim
        for z in ks:
            c = coeffs[z]
            if abs(c) <= COEFF_CUTOFF:
                continue
            # with P = i^{n_y} X^x Z^z, Tr(P M)/2^n = i^{n_y} * coeffs[z]
            n_y = (int(x) & int(z)).bit_count()
            terms[_letters_from_masks(int(x), int(z), n)] = (1j**n_y) * c
    return terms


def _letters_from_masks(x, z, n):
    return "".join("IXZY"[((x >> q) & 1) + 2 * ((z >> q) & 1)] for q in range(n))


def pauli_multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Product of two sums, merging duplicates, on the strings' (x, z) masks.

    With P = i^{n_Y} X^x Z^z (see :func:`string_masks`), P_a P_b is i^k
    times the string (x_a ^ x_b, z_a ^ z_b), with k = n_Y(a) + n_Y(b)
    - n_Y(ab) + 2 popcount(z_a & x_b) and n_Y = popcount(x & z): the
    binary form of Aaronson & Gottesman, PRA 70, 052328 (2004).
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("register size mismatch")
    b_masks = [(*string_masks(sb)[:2], cb) for sb, cb in b.items()]
    out = {}
    for sa, ca in a.items():
        xa, za, _ = string_masks(sa)
        for xb, zb, cb in b_masks:
            x, z = xa ^ xb, za ^ zb
            k = ((xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count()
                 + 2 * (za & xb).bit_count())
            out[x, z] = out.get((x, z), 0.0) + ca * cb * _I_POWERS[k % 4]
    n = a.n_qubits
    return PauliSum(n, {_letters_from_masks(x, z, n): c for (x, z), c in out.items()})


def encode_onehot_jw(h) -> PauliSum:
    """One-hot / Jordan-Wigner image of the one-body operator ``sum h_ij a_i+ a_j``.

    One qubit per basis state: ``h_ii -> h_ii (I - Z_i)/2`` and, for i < j,
    ``h_ij -> (h_ij/2)(X_i Z ... Z X_j + Y_i Z ... Z Y_j)`` (h complex
    symmetric).  Restricted to one-hot computational states this
    reproduces h; the rest of the register hosts unphysical sectors.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    terms = {}

    def add(letters, coeff):
        terms[letters] = terms.get(letters, 0.0) + coeff

    iden = ["I"] * n
    for i in range(n):
        add("".join(iden), 0.5 * h[i, i])
        s = iden.copy()
        s[i] = "Z"
        add("".join(s), -0.5 * h[i, i])
    for i in range(n):
        for j in range(i + 1, n):
            if abs(h[i, j]) <= COEFF_CUTOFF:
                continue
            for op in ("X", "Y"):
                s = iden.copy()
                s[i] = op
                s[j] = op
                for q in range(i + 1, j):
                    s[q] = "Z"
                add("".join(s), 0.5 * h[i, j])
    return PauliSum(n, terms)


def gray_code(k: int) -> int:
    """Binary-reflected Gray code word of index k."""
    return k ^ (k >> 1)


def gray_qubits(n_basis: int) -> int:
    """Register size ``ceil(log2 N)`` (at least 1) of the Gray code for N states."""
    return max(1, (n_basis - 1).bit_length())


def encode_gray(h) -> PauliSum:
    """Gray-code image of h on ``ceil(log2 N)`` qubits.

    Basis index k is stored in the register as the Gray word g(k); h is
    zero-padded to the next power of two, so padded directions are exact
    zero eigenvectors of the encoded operator, whose ``to_matrix()`` is
    the padded h with rows and columns permuted.
    """
    h = np.asarray(h, dtype=complex)
    n_basis = h.shape[0]
    n = gray_qubits(n_basis)
    dim = 2**n
    padded = np.zeros((dim, dim), dtype=complex)
    padded[:n_basis, :n_basis] = h
    perm = np.array([gray_code(k) for k in range(dim)])
    encoded = np.zeros_like(padded)
    encoded[np.ix_(perm, perm)] = padded
    return pauli_decompose(encoded)


def hermitianize(h_sum: PauliSum, energy: complex, side: str = "right") -> PauliSum:
    """Hermitian cost operator whose expectation vanishes at an eigenpair.

    ``right``: (H+ - E*)(H - E) = H+H - E* H - E H+ + |E|^2; minimising its
    expectation yields right eigenvectors.  ``left`` swaps the factors and
    targets left eigenvectors.  All coefficients of the result are real.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    energy = complex(energy)
    hd = h_sum.dagger()
    first, second = (hd, h_sum) if side == "right" else (h_sum, hd)
    prod = pauli_multiply(first, second)
    # both variants share the linear part -E H+ - E* H
    linear = hd.scaled(-energy) + h_sum.scaled(-np.conj(energy))
    const = PauliSum(h_sum.n_qubits, {"I" * h_sum.n_qubits: abs(energy) ** 2})
    return prod + linear + const
