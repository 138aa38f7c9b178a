"""Radial basis sets for the single-channel radial Schroedinger problem.

Two families are supported:

* Gaussian basis, ``phi_nl(r) = r^l sqrt(2 (2 a_n)^(l+3/2) / Gamma(l+3/2))
  exp(-a_n r^2)``, with the width parameters ``a_n = 1/r_n^2`` taken from a
  geometric progression ``r_n = r1 * a^(n-1)``.  The family is non-orthogonal;
  its overlap matrix has the closed form
  ``S_ij = (2 sqrt(a_i a_j) / (a_i + a_j))^(l+3/2)``.

* Harmonic-oscillator basis with length parameter ``b`` and associated
  Laguerre polynomials; orthonormal by construction.

All radial functions are normalised to ``int phi^2 r^2 dr = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_legendre

from .errors import NumericalError

GAUSSIAN = "gaussian"
HARMONIC_OSCILLATOR = "ho"
COND_MAX = 1e14  # largest overlap condition number the Gram-Schmidt route accepts
N_PER_PANEL = 48  # Gauss-Legendre nodes per panel of the base grid (node doubling takes 96)
# an edge this close to the cut-off (relative) ends the grid: summed edges
# round, and a whole number of panels must not leave a sliver panel behind
EDGE_SLACK = 1e-12


@dataclass(frozen=True)
class RadialBasisSpec:
    """Which radial basis family to use, its size and parameters.

    ``n`` is the number of radial functions, ``l`` the orbital angular
    momentum.  Gaussian family: ``r1`` and ``r_max`` (fm) are the first and
    last geometric widths.  HO family: ``b`` (fm) is the oscillator length.
    """

    family: str
    n: int
    l: int
    r1: float = 0.0
    r_max: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.family not in (GAUSSIAN, HARMONIC_OSCILLATOR):
            raise ValueError(f"unknown basis family {self.family!r}")
        if self.n < 1 or self.l < 0:
            raise ValueError("need n >= 1 and l >= 0")
        if self.family == GAUSSIAN:
            if self.n < 2:
                raise ValueError("Gaussian family needs n >= 2 (geometric progression)")
            if self.r1 <= 0.0 or self.r_max <= self.r1:
                raise ValueError("Gaussian family needs 0 < r1 < r_max")
        else:
            if self.b <= 0.0:
                raise ValueError("HO family needs b > 0")

    @classmethod
    def gaussian(cls, n, l, r1, r_max):
        return cls(family=GAUSSIAN, n=n, l=l, r1=float(r1), r_max=float(r_max))

    @classmethod
    def ho(cls, n, l, b):
        return cls(family=HARMONIC_OSCILLATOR, n=n, l=l, b=float(b))


@dataclass(frozen=True)
class OrthoTransform:
    """Gram-Schmidt orthonormalisation of a raw basis.

    Column k of ``c`` holds the coefficients of the k-th orthonormal
    function in terms of raw functions 0..k, so ``c.T @ overlap @ c = I``.
    """

    c: np.ndarray
    overlap: np.ndarray


def geometric_alphas(spec: RadialBasisSpec) -> np.ndarray:
    """Gaussian width parameters ``a_n = 1/r_n^2`` (fm^-2), strictly decreasing.

    The widths follow ``r_n = r1 * a^(n-1)`` for n = 1..N with
    ``a = (r_max/r1)^(1/(N-1))``.
    """
    if spec.family != GAUSSIAN:
        raise ValueError("geometric_alphas is defined for the Gaussian family")
    ratio = (spec.r_max / spec.r1) ** (1.0 / (spec.n - 1))
    r = spec.r1 * ratio ** np.arange(spec.n)
    return 1.0 / r**2


def _gauss_lognorm(alpha, l):
    # sqrt(2 (2a)^(l+3/2) / Gamma(l+3/2)), computed in log space
    return 0.5 * (np.log(2.0) + (l + 1.5) * np.log(2.0 * alpha) - gammaln(l + 1.5))


def eval_gaussian_radial(spec: RadialBasisSpec, idx: int, r) -> np.ndarray:
    """Normalised Gaussian radial function ``phi_{nl}(r)`` for function ``idx``."""
    alpha = geometric_alphas(spec)[idx]
    r = np.asarray(r, dtype=float)
    return np.exp(_gauss_lognorm(alpha, spec.l)) * r**spec.l * np.exp(-alpha * r**2)


def laguerre_upward(n, a, x):
    """Associated Laguerre polynomial ``L_n^a(x)`` by upward recurrence."""
    x = np.asarray(x, dtype=float)
    l0 = np.ones_like(x)
    if n == 0:
        return l0
    l1 = 1.0 + a - x
    for k in range(1, n):
        l0, l1 = l1, ((2 * k + 1 + a - x) * l1 - (k + a) * l0) / (k + 1)
    return l1


def eval_ho_radial(spec: RadialBasisSpec, idx: int, r) -> np.ndarray:
    """Normalised harmonic-oscillator radial function for node number ``idx``."""
    b, l = spec.b, spec.l
    r = np.asarray(r, dtype=float)
    x = (r / b) ** 2
    lognorm = 0.5 * (np.log(2.0) + gammaln(idx + 1) - gammaln(idx + l + 1.5))
    return (
        np.exp(lognorm)
        * b ** (-1.5)
        * (r / b) ** l
        * np.exp(-x / 2.0)
        * laguerre_upward(idx, l + 0.5, x)
    )


def eval_radial(spec: RadialBasisSpec, idx: int, r) -> np.ndarray:
    if spec.family == GAUSSIAN:
        return eval_gaussian_radial(spec, idx, r)
    return eval_ho_radial(spec, idx, r)


def overlap_matrix(spec: RadialBasisSpec) -> np.ndarray:
    """Overlap matrix of the raw basis (identity for HO, closed form for Gaussian)."""
    if spec.family == HARMONIC_OSCILLATOR:
        return np.eye(spec.n)
    alphas = geometric_alphas(spec)
    ai = alphas[:, None]
    aj = alphas[None, :]
    return (2.0 * np.sqrt(ai * aj) / (ai + aj)) ** (spec.l + 1.5)


def _condition_offender(overlap):
    # smallest leading block whose condition number already exceeds the bound
    for k in range(2, overlap.shape[0] + 1):
        w = np.linalg.eigvalsh(overlap[:k, :k])
        if w[-1] > COND_MAX * max(w[0], 0.0):
            return k - 1
    return overlap.shape[0] - 1


def gram_schmidt_transform(spec: RadialBasisSpec) -> OrthoTransform:
    """Sequential Gram-Schmidt orthonormalisation of the raw basis.

    Function k is orthogonalised against functions 0..k-1 (one
    reorthogonalisation pass for numerical accuracy).  Raises
    :class:`NumericalError` when the overlap matrix is numerically
    dependent (condition number above ``COND_MAX``).
    """
    s = overlap_matrix(spec)
    if spec.family == HARMONIC_OSCILLATOR:
        return OrthoTransform(c=np.eye(spec.n), overlap=s)
    w = np.linalg.eigvalsh(s)
    if w[0] <= 0.0 or w[-1] / w[0] > COND_MAX:
        raise NumericalError(
            f"overlap matrix numerically dependent (cond {w[-1] / max(w[0], 1e-300):.2e} "
            f"> {COND_MAX:.0e}); first offending basis index: "
            f"{_condition_offender(s)}"
        )
    n = spec.n
    c = np.zeros((n, n))
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        for _ in range(2):
            for j in range(k):
                v -= (c[:, j] @ s @ v) * c[:, j]
        c[:, k] = v / np.sqrt(v @ s @ v)
    return OrthoTransform(c=c, overlap=s)


def quadrature_grid(spec: RadialBasisSpec, n_per_panel: int = N_PER_PANEL):
    """Composite Gauss-Legendre grid resolving every basis length scale.

    Gaussian family: geometrically growing panels from the narrowest width
    outward, capped at 2 fm so that rotated-potential oscillations stay
    resolved, out to 4.5 * r_max.  HO family: uniform panels of width b out
    to the classical turning radius of the highest node plus a safety tail.
    Returns ``(r, w)`` nodes and weights.
    """
    first, far_width, r_cut = _panel_layout(spec)
    edges = [0.0, first]
    while edges[-1] < r_cut * (1.0 - EDGE_SLACK):
        step = min(edges[-1], far_width)
        edges.append(min(edges[-1] + max(step, first), r_cut))
    x, w = roots_legendre(n_per_panel)
    nodes, weights = [], []
    for a, b_edge in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b_edge), 0.5 * (b_edge - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _panel_layout(spec):
    # (first panel width, far panel width, cut-off radius) of quadrature_grid
    if spec.family == GAUSSIAN:
        return 0.5 * min(spec.r1, 1.0), 2.0, 4.5 * spec.r_max
    r_turn = spec.b * np.sqrt(4.0 * (spec.n - 1) + 2.0 * spec.l + 3.0)
    return spec.b, spec.b, max(10.0 * spec.b, r_turn + 8.0 * spec.b)


def quadrature_size(spec: RadialBasisSpec, n_per_panel: int = N_PER_PANEL) -> float:
    """Node count of :func:`quadrature_grid`, without building the grid.

    The panels of constant width are counted in closed form, so this is
    cheap however far the grid reaches (inf when the cut-off overflows).
    Both end the grid ``EDGE_SLACK * r_cut`` short of the cut-off, so the
    rounding of the grid's summed edges leaves no sliver panel.
    """
    first, far_width, r_cut = _panel_layout(spec)
    if not first > 0.0:  # an r1 that halves to 0 gives a grid that never ends
        return np.inf
    panels, edge = 1, first
    while edge < min(far_width, r_cut):
        edge = min(2.0 * edge, r_cut)
        panels += 1
    rest = (r_cut * (1.0 - EDGE_SLACK) - edge) / far_width
    return n_per_panel * (panels + max(0.0, float(np.ceil(rest))))


def basis_matrix(spec: RadialBasisSpec, r) -> np.ndarray:
    """All radial functions evaluated on ``r``; shape (n, len(r))."""
    return np.array([eval_radial(spec, k, r) for k in range(spec.n)])


def kinetic_applied(spec: RadialBasisSpec, idx: int, r) -> np.ndarray:
    """Radial kinetic operator applied to basis function ``idx``.

    Returns ``(-phi'' - (2/r) phi' + l(l+1) phi / r^2)``, i.e. the kinetic
    operator without its ``hbar^2/2mu`` prefactor, so that
    ``T_ij = prefactor * int phi_i [kinetic_applied_j] r^2 dr``.  Gaussian
    functions take analytic derivatives; an HO function solves the
    oscillator equation, so it equals ``((4n + 2l + 3)/b^2 - r^2/b^4) phi``.
    """
    l = spec.l
    r = np.asarray(r, dtype=float)
    if spec.family == GAUSSIAN:
        alpha = geometric_alphas(spec)[idx]
        norm = np.exp(_gauss_lognorm(alpha, l))
        return norm * np.exp(-alpha * r**2) * (
            2.0 * alpha * (2 * l + 3) * r**l - 4.0 * alpha**2 * r ** (l + 2)
        )
    b = np.float64(spec.b)  # numpy gives inf or NaN where a Python float would raise
    return ((4 * idx + 2 * l + 3) / b**2 - r**2 / b**4) * eval_ho_radial(spec, idx, r)
