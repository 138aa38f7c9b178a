"""Independent oracles used by the tests.

Everything here is implemented from scratch on purpose: dense Pauli
algebra via Kronecker products, characteristic polynomials via the
trace-based Leverrier recursion, quadrature through scipy's adaptive
integrator.  None of it shares code with the package paths it checks.
"""

import numpy as np
from scipy import integrate

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli(letters):
    """Dense matrix of a Pauli letter string; letters[0] acts on the LSB."""
    out = np.array([[1.0 + 0j]])
    for ch in letters:
        out = np.kron(PAULI_1Q[ch], out)
    return out


def dense_from_terms(items, n_qubits):
    dim = 2**n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for letters, coeff in items:
        out += coeff * kron_pauli(letters)
    return out


def leverrier_charpoly(a):
    """Characteristic polynomial coefficients (monic, descending powers)
    via the Faddeev-Leverrier trace recursion; no eigensolver involved."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def charpoly_eigenvalues(a):
    """Eigenvalues as roots of the Leverrier characteristic polynomial."""
    return np.roots(leverrier_charpoly(a))


def radial_norm_quad(fn, r_hi):
    """int_0^inf fn(r)^2 r^2 dr by adaptive quadrature."""
    val, _ = integrate.quad(lambda r: fn(r) ** 2 * r**2, 0.0, r_hi, limit=400)
    return val


def radial_overlap_quad(f1, f2, r_hi):
    val, _ = integrate.quad(lambda r: f1(r) * f2(r) * r**2, 0.0, r_hi, limit=400)
    return val


def gauss_kinetic_closed(alphas, l):
    """Closed-form Gaussian kinetic matrix (prefactor 1):
    T_ij = (2l+3) * 2 a_i a_j / (a_i + a_j) * S_ij."""
    ai = alphas[:, None]
    aj = alphas[None, :]
    s = (2.0 * np.sqrt(ai * aj) / (ai + aj)) ** (l + 1.5)
    return (2 * l + 3) * 2.0 * ai * aj / (ai + aj) * s


def ho_kinetic_closed(n, l, b):
    """Closed-form HO kinetic matrix (prefactor 1), tridiagonal:
    T_kk = (2k + l + 3/2) / b^2, T_{k,k+1} = sqrt((k+1)(k + l + 3/2)) / b^2."""
    k = np.arange(n)
    off = np.sqrt((k[:-1] + 1) * (k[:-1] + l + 1.5))
    return (np.diag(2 * k + l + 1.5) + np.diag(off, 1) + np.diag(off, -1)) / b**2


def match_eigen_sets(a, b):
    """Greedy nearest matching of two eigenvalue multisets; returns the
    largest pairwise distance."""
    a = sorted(np.asarray(a, dtype=complex), key=lambda z: (z.real, z.imag))
    b = list(np.asarray(b, dtype=complex))
    worst = 0.0
    for z in a:
        j = int(np.argmin([abs(z - w) for w in b]))
        worst = max(worst, abs(z - b[j]))
        b.pop(j)
    return worst
