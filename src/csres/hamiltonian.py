"""Complex-scaled radial Hamiltonians and their classical spectra.

Under the scaling ``r -> r e^(i theta)`` the Hamiltonian becomes
``H(theta) = e^(-2 i theta) T + V(r e^(i theta))`` where T includes the
centrifugal term.  Matrix elements are taken in the c-product (radial
functions never complex-conjugated), which makes the matrix complex
symmetric.  The continuum of the scaled problem rotates down by
``2 theta`` while bound states and exposed resonances stay put.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import erf

from .basis import (
    N_PER_PANEL,
    OrthoTransform,
    RadialBasisSpec,
    basis_matrix,
    gram_schmidt_transform,
    kinetic_applied,
    overlap_matrix,
    quadrature_grid,
)
from .errors import NumericalError

SCHEMATIC = "schematic"
ALPHA_ALPHA = "alpha_alpha"

# hbar^2/(2 mu) for the alpha-alpha system in MeV fm^2.  With mu = m_alpha/2
# and m_alpha taken as four nucleon masses this is (hbar c)^2 / (4 m_N c^2);
# calibrated against the potential's redundant bound states at -72.7, -25.8
# and -22.2 MeV and its 0+ resonance at 92.12 keV.
HBAR2_OVER_2MU_ALPHA = 10.3675
E2_MEV_FM = 1.43996  # e^2 = alpha * hbar c
BOUND_IMAG_TOL = 1e-3  # MeV; |E_i| below it counts as on the real axis


@dataclass(frozen=True)
class PotentialModel:
    """One of the two model potentials.

    ``schematic``: V(r) = -8 exp(-0.16 r^2) + 4 exp(-0.04 r^2) with kinetic
    prefactor 1/2 (H = -nabla^2/2 + V).  ``alpha_alpha``: attractive Gaussian
    plus erf-regularised Coulomb, V0 exp(-k r^2) + Z1 Z2 e^2 erf(beta r)/r.
    """

    kind: str
    v0: float = -122.6225
    k: float = 0.22
    beta: float = 0.75
    z1: int = 2
    z2: int = 2
    e2: float = E2_MEV_FM
    hbar2_over_2mu: float = 0.5

    @classmethod
    def schematic(cls):
        return cls(kind=SCHEMATIC, hbar2_over_2mu=0.5)

    @classmethod
    def alpha_alpha(cls, **overrides):
        kw = dict(hbar2_over_2mu=HBAR2_OVER_2MU_ALPHA)
        kw.update(overrides)
        return cls(kind=ALPHA_ALPHA, **kw)

    def __post_init__(self):
        if self.kind not in (SCHEMATIC, ALPHA_ALPHA):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.hbar2_over_2mu <= 0.0:
            raise ValueError("hbar2_over_2mu must be positive")


def eval_potential(model: PotentialModel, z) -> np.ndarray:
    """Potential at (complex) radius ``z = r e^(i theta)``, in MeV.

    Rejects arguments with ``|arg z| >= 45`` degrees: beyond that angle the
    Gaussian factors no longer decay and the radial integrals diverge.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(invalid="ignore"):
        ang = np.where(np.abs(z) > 0.0, np.abs(np.angle(z)), 0.0)
    if np.any(ang >= np.pi / 4.0):
        raise ValueError("potential argument angle must satisfy |theta| < 45 deg")
    return _potential_values(model, z)


def _potential_values(model, z):
    # V at complex z whose angle the caller has already checked
    if model.kind == SCHEMATIC:
        return -8.0 * np.exp(-0.16 * z**2) + 4.0 * np.exp(-0.04 * z**2)
    nuclear = model.v0 * np.exp(-model.k * z**2)
    zz_e2 = model.z1 * model.z2 * model.e2
    small = np.abs(z) < 1e-12
    safe = np.where(small, 1.0, z)
    coulomb = np.where(
        small,
        zz_e2 * 2.0 * model.beta / np.sqrt(np.pi),
        zz_e2 * erf(model.beta * safe) / safe,
    )
    return nuclear + coulomb


@dataclass(frozen=True)
class ScaledHamiltonian:
    """theta-rotated Hamiltonian matrix in the orthonormalised basis."""

    theta_deg: float
    l: int
    matrix: np.ndarray
    basis: RadialBasisSpec
    potential: PotentialModel


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues (sorted by real part), right eigenvectors and residuals."""

    energies: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class _Quadrature:
    """theta-independent part of the assembly on one grid; arrays read-only.

    ``r2w`` holds the weights times r^2, ``phi`` the basis functions node by
    node (shape (len(r), n)), ``t_mat`` the kinetic matrix without its
    ``hbar^2/2mu`` prefactor.
    """

    r: np.ndarray
    r2w: np.ndarray
    phi: np.ndarray
    t_mat: np.ndarray


# Two entries hold one basis: its base grid and its node-doubled grid.
@functools.lru_cache(maxsize=2)
def _quadrature(spec: RadialBasisSpec, n_per_panel: int) -> _Quadrature:
    r, w = quadrature_grid(spec, n_per_panel)
    phi = basis_matrix(spec, r)
    kin = np.array([kinetic_applied(spec, k, r) for k in range(spec.n)])
    r2w = w * r**2
    t_mat = np.einsum("im,m,jm->ij", phi, r2w, kin)
    return _Quadrature(*map(_read_only, (r, r2w, np.ascontiguousarray(phi.T), t_mat)))


@functools.lru_cache(maxsize=1)
def _orthonormal(spec: RadialBasisSpec) -> OrthoTransform:
    ortho = gram_schmidt_transform(spec)
    return OrthoTransform(c=_read_only(ortho.c), overlap=_read_only(ortho.overlap))


def _scaled_at_nodes(spec, model, theta_deg, n_per_panel):
    # H(theta) on one grid (c-product, no conjugation); V's real and
    # imaginary parts each take one real GEMM
    quad = _quadrature(spec, n_per_panel)
    theta = np.radians(theta_deg)
    # theta is checked by build_raw_matrices; recomputing the angle of
    # r e^(i theta) could round a theta just below 45 degrees up to it
    wv = quad.r2w * _potential_values(model, quad.r * np.exp(1j * theta))
    phi = quad.phi
    v_re, v_im = ((phi.T * part) @ phi for part in (wv.real, wv.imag))
    return np.exp(-2j * theta) * model.hbar2_over_2mu * quad.t_mat + (v_re + 1j * v_im)


def build_raw_matrices(spec: RadialBasisSpec, model: PotentialModel, theta_deg: float,
                       n_per_panel: int = N_PER_PANEL):
    """Raw-basis scaled Hamiltonian and overlap, ``(H(theta), S)``.

    ``H_ij = e^(-2 i theta) * prefactor * T_ij + int phi_i V(r e^(i theta))
    phi_j r^2 dr`` with the quadrature convergence verified by node
    doubling (relative change above 1e-8 raises :class:`NumericalError`
    naming theta and the worst matrix element).

    Computed once per basis and grid, and reused while the basis stays the
    same: the nodes, the weights, the basis functions on the nodes and T,
    for both the base and the node-doubled grid.  Computed at every theta:
    V(r e^(i theta)) on both grids, its matrix, and the node-doubling
    check.
    """
    if not (0.0 <= theta_deg < 45.0):
        raise ValueError("theta must lie in [0, 45) degrees")
    h = _scaled_at_nodes(spec, model, theta_deg, n_per_panel)
    h2 = _scaled_at_nodes(spec, model, theta_deg, 2 * n_per_panel)
    scale = np.abs(h2).max()
    delta = np.abs(h - h2)
    if delta.max() > 1e-8 * scale:
        i, j = np.unravel_index(np.argmax(delta), delta.shape)
        raise NumericalError(
            f"quadrature not converged at theta={float(theta_deg)!r} deg for matrix element "
            f"({i},{j}): relative change {delta[i, j] / scale:.2e} on node doubling"
        )
    return h2, overlap_matrix(spec)


def build_scaled_matrix(spec: RadialBasisSpec, model: PotentialModel, theta_deg: float,
                        n_per_panel: int = N_PER_PANEL) -> ScaledHamiltonian:
    """Scaled Hamiltonian transformed to the Gram-Schmidt orthonormal basis.

    This is the matrix handed to the qubit encodings.  The transform matrix
    is real and theta-independent, so no conjugation enters anywhere
    (c-product); the result is complex symmetric.  The transform is
    computed once per basis and reused while the basis stays the same;
    the raw matrix is built at every theta by :func:`build_raw_matrices`.
    """
    h_raw, _ = build_raw_matrices(spec, model, theta_deg, n_per_panel)
    c = _orthonormal(spec).c
    return ScaledHamiltonian(
        theta_deg=float(theta_deg),
        l=spec.l,
        matrix=c.T @ h_raw @ c,
        basis=spec,
        potential=model,
    )


def solve_spectrum(matrix, overlap=None) -> SpectrumResult:
    """All eigenvalues of the dense complex matrix, with residual check.

    With ``overlap`` given, solves the generalised problem
    ``H c = E S c`` (the raw non-orthogonal basis route); otherwise the
    standard problem.  Eigenpairs are sorted by real part.
    """
    matrix = np.asarray(matrix, dtype=complex)
    energies, vectors = _eig(sla.eig, matrix, overlap)
    order = np.argsort(energies.real, kind="stable")
    energies, vectors = energies[order], vectors[:, order]
    s_vectors = vectors if overlap is None else np.asarray(overlap) @ vectors
    resid = (np.linalg.norm(matrix @ vectors - s_vectors * energies, axis=0)
             / np.linalg.norm(vectors, axis=0))
    return SpectrumResult(energies=energies, vectors=vectors, residuals=resid)


def solve_energies(matrix, overlap=None) -> np.ndarray:
    """The energies of :func:`solve_spectrum`, sorted alike, without vectors."""
    energies = _eig(sla.eigvals, np.asarray(matrix, dtype=complex), overlap)
    return energies[np.argsort(energies.real, kind="stable")]


def _eig(solver, matrix, overlap):
    try:
        return solver(matrix, None if overlap is None else np.asarray(overlap))
    except sla.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def critical_angle(energy: complex) -> float:
    """Critical rotation angle (degrees) exposing a resonance at ``energy``.

    ``theta_c = arctan(Gamma / (2 E_r)) / 2`` with ``Gamma = 2 |E_i|``;
    undefined for non-positive real part.
    """
    if energy.real <= 0.0:
        raise ValueError("critical angle defined only for E_r > 0")
    gamma = 2.0 * abs(energy.imag)
    return float(np.degrees(0.5 * np.arctan(gamma / (2.0 * energy.real))))


def classify_spectrum(energies, theta_deg, tol_c_deg=3.0):
    """Label eigenvalues as bound / continuum / resonance-candidate.

    Bound: negative real part on the real axis (|E_i| <
    ``BOUND_IMAG_TOL``).  Continuum: phase within ``tol_c_deg`` of the
    rotated ray at ``-2 theta``.  Everything else is a resonance candidate.
    """
    if theta_deg <= 0.0:
        raise ValueError("classification needs theta > 0")
    labels = []
    ray = -2.0 * theta_deg
    for e in np.asarray(energies, dtype=complex):
        if e.real < 0.0 and abs(e.imag) < BOUND_IMAG_TOL:
            labels.append("bound")
            continue
        ang = np.degrees(np.angle(e)) if abs(e) > 0 else 0.0
        if abs(ang - ray) < tol_c_deg:
            labels.append("continuum")
        else:
            labels.append("resonance-candidate")
    return labels
