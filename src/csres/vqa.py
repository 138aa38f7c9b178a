"""Variance-minimisation variational eigensolver for non-Hermitian operators.

The cost function is the expectation of the Hermitianised operator,
``L(zeta, E) = <psi(zeta)| (H+ - E*)(H - E) |psi(zeta)>``
            ``= <H+H> - 2 Re(E* <H>) + |E|^2``,
which vanishes exactly at a right eigenpair.  The circuit parameters and
the complex energy are fitted jointly, after a short warm-up with the
energy frozen at its initial guess that steers the state into the basin of
the targeted eigenvector.  In exact mode the cost is ``|(M - E) psi|^2``
for the dense encoded matrix M, fitted by least squares; its ``J^T r`` and
``J^T J`` are circuit brackets (parameter shift, Mitarai et al. 2018), so
nothing but H is used.  In shot mode BFGS runs on the sampled cost.  One
:class:`VarianceCost` per operator holds M and, in shot mode only, H and H+H.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.optimize import least_squares, minimize

from .encoding import PauliSum, encode_gray, encode_onehot_jw, pauli_multiply
from .simulator import Circuit, compiled

ONEHOT_JW = "onehot_jw"
GRAY = "gray"

INIT_SCALE = 0.1  # half-width of the uniform draw of the initial zeta
BFGS_GTOL = 1e-8
BFGS_WARMUP_GTOL = 1e-6


def encode_matrix(h, scheme):
    if scheme == GRAY:
        return encode_gray(h)
    if scheme == ONEHOT_JW:
        return encode_onehot_jw(h)
    raise ValueError(f"unknown encoding scheme {scheme!r}")


@dataclass(frozen=True)
class AnsatzParams:
    """Per-layer rotation angles: XX couplings beta (n-1), Z angles gamma (n),
    X angles delta (n)."""

    n_qubits: int
    layers: tuple  # of (beta, gamma, delta) arrays

    @property
    def p(self):
        return len(self.layers)

    @classmethod
    def from_vector(cls, vec, n_qubits, p):
        vec = np.asarray(vec, dtype=float)
        if vec.size != p * (3 * n_qubits - 1):
            raise ValueError("parameter vector length mismatch")
        layers = []
        i = 0
        for _ in range(p):
            beta = vec[i : i + n_qubits - 1]
            i += n_qubits - 1
            gamma = vec[i : i + n_qubits]
            i += n_qubits
            delta = vec[i : i + n_qubits]
            i += n_qubits
            layers.append((beta.copy(), gamma.copy(), delta.copy()))
        return cls(n_qubits=n_qubits, layers=tuple(layers))

    @classmethod
    def random(cls, rng, n_qubits, p, scale=0.1):
        return cls.from_vector(
            rng.uniform(-scale, scale, p * (3 * n_qubits - 1)), n_qubits, p
        )

    def to_vector(self):
        return np.concatenate([np.concatenate(layer) for layer in self.layers])


def build_ansatz(params: AnsatzParams, n_qubits: int) -> Circuit:
    """Layered circuit exp(-i Hxx) exp(-i Hz) exp(-i Hx) acting on |0...0>.

    The XX terms of one block commute, so the block is realised exactly as
    a chain of two-qubit RXX rotations on neighbouring pairs.  The Z and X
    blocks carry no half-angle convention, hence the factor 2 handed to
    RZ/RX.
    """
    if params.n_qubits != n_qubits:
        raise ValueError("ansatz register size mismatch")
    circ = Circuit(n_qubits)
    for beta, gamma, delta in params.layers:
        if len(beta) != n_qubits - 1 or len(gamma) != n_qubits or len(delta) != n_qubits:
            raise ValueError("layer dimensions inconsistent with register size")
        for q in range(n_qubits - 1):
            circ.rxx(q, q + 1, beta[q])
        for q in range(n_qubits):
            circ.rz(q, 2.0 * gamma[q])
        for q in range(n_qubits):
            circ.rx(q, 2.0 * delta[q])
    return circ


def _ansatz_states(param_rows, n, p, tangent=False):
    """Batched ansatz evaluation, one sweep over the gates exp(-i t G), G^2 = I.

    Without ``tangent`` the rows of ``param_rows`` are parameter vectors and
    the states come back as rows, shape (B, 2^n), equal to
    :func:`build_ansatz` + ``apply_circuit`` row by row.  With ``tangent``,
    ``param_rows`` is one vector zeta of length d, and the d+1 rows returned
    are psi and d psi / d zeta_j: row j+1 gets -i G_j right after gate j.
    """
    rows = np.atleast_2d(np.asarray(param_rows, dtype=float))
    cos, msin = np.cos(rows).T, -1j * np.sin(rows).T
    ks = np.arange(2**n)
    # one layer: XX on (q, q+1), Z_q, X_q, each as G psi = psi[perm] or sign * psi
    layer = ([(ks ^ (3 << q), None) for q in range(n - 1)]
             + [(None, (1.0 - 2.0 * (ks >> q & 1))[:, None]) for q in range(n)]
             + [(ks ^ (1 << q), None) for q in range(n)])

    def generator(states, perm, sign):
        return states[perm] if sign is None else sign * states

    # the sweep keeps the states as columns
    psi = np.zeros((ks.size, len(layer) * p + 1 if tangent else len(rows)), dtype=complex)
    psi[0] = 1.0
    for j, (perm, sign) in enumerate(layer * p):
        psi = cos[j] * psi + msin[j] * generator(psi, perm, sign)
        if tangent:
            psi[:, j + 1 : j + 2] = -1j * generator(psi[:, j + 1 : j + 2], perm, sign)
    return psi.T


@dataclass
class VqaConfig:
    """Run parameters for the variational solver (see module docstring)."""

    encoding: str = GRAY
    p: int = 3
    shots: int = None
    n_runs: int = 1
    base_seed: int = 7
    init_energy: complex = 0.0 + 0.0j
    scan_step: float = 0.4
    repetitions: int = 20
    maxiter: int = 2000  # exact mode: cost evaluations; shot mode: BFGS iterations
    warmup: bool = True
    warmup_maxiter: int = 200
    cost_tol: float = 1e-6
    cost_tol_rel: float = None  # when set, exact-mode tol = cost_tol_rel * |H|_hs^2
    shot_tol_scale: float = 1e-3
    cluster_radius: float = 0.05
    fd_step_shot: float = 1e-2


@dataclass
class EigenpairEstimate:
    """One converged (or not) variational eigenpair."""

    energy: complex
    params: AnsatzParams
    cost: float
    converged: bool
    iterations: int
    seed: int
    init_energy: complex
    multiplicity: int = 1
    state: np.ndarray = None


class VarianceCost:
    """The variance cost of one encoded operator H; build it once per operator.

    Exact quantities come from the dense matrix M = ``h_sum.to_matrix()``
    (for Gray code, the permuted and zero-padded H): the cost
    ``|(M - E) psi|^2`` and ``hs_norm2 = |M|_F^2 / 2^n``.  H and H+H are
    compiled on first shot-mode use.  States come as rows.
    """

    def __init__(self, h_sum: PauliSum):
        self.n_qubits = h_sum.n_qubits
        self.matrix = h_sum.to_matrix()
        self.hs_norm2 = float(np.linalg.norm(self.matrix) ** 2 / self.matrix.shape[0])
        self._h_sum = h_sum

    @cached_property
    def _compiled(self):
        """(H+H, H) as compiled sums; H+H is the product ``pauli_multiply(H+, H)``."""
        h = self._h_sum
        return compiled(pauli_multiply(h.dagger(), h)), compiled(h)

    def exact(self, states, energy):
        """|(M - E) psi|^2 for a batch of states (rows)."""
        psi = np.atleast_2d(states)
        r = psi @ self.matrix.T - complex(energy) * psi
        return np.einsum("ij,ij->i", r.conj(), r).real

    def brackets_sampled(self, states, shots, rng=None, frozen=None):
        """Shot-sampled (<H+H>, <H>) for a batch of states (rows).

        With ``rng``, every Pauli string draws fresh independent binomial
        shots, <H+H> first.  With ``frozen`` (the pair from
        :meth:`frozen_noise`), the same noise realisation is reused for
        every evaluation, so one optimisation run stays on a single
        deterministic sampled surface while the run-to-run spread still
        carries the full shot noise.
        """
        chdh, ch = self._compiled
        cols = np.atleast_2d(np.asarray(states)).T
        z_hdh, z_h = (None, None) if frozen is None else frozen
        e1 = chdh.sampled(cols, shots, rng=rng, frozen=z_hdh)
        t1 = ch.sampled(cols, shots, rng=rng, frozen=z_h)
        return np.real(e1), t1

    def frozen_noise(self, rng):
        """One standard-normal variate per Pauli string of <H+H> and <H>."""
        return tuple(rng.standard_normal(len(c.order)) for c in self._compiled)

    @staticmethod
    def combine(e1, t1, energy):
        return e1 - 2.0 * np.real(np.conj(energy) * t1) + abs(energy) ** 2


def _variance_cost(h):
    return h if isinstance(h, VarianceCost) else VarianceCost(h)


def cost(params: AnsatzParams, energy, h_sum: PauliSum, shots=None, seed=None, rng=None):
    """Energy-parameterised variance cost for a single evaluation."""
    if params.n_qubits != h_sum.n_qubits:
        raise ValueError("ansatz register size mismatch")
    vc = _variance_cost(h_sum)
    states = _ansatz_states(params.to_vector(), params.n_qubits, params.p)
    if shots is None:
        return float(vc.exact(states, energy)[0])
    rng = np.random.default_rng(seed) if rng is None else rng
    e1, t1 = vc.brackets_sampled(states, shots, rng)
    return float(VarianceCost.combine(e1[0], t1[0], complex(energy)))


def _make_objective(vc, config, frozen):
    """Shot-mode cost over the joint vector [zeta..., E_r, E_i] and its gradient.

    Both run on one frozen noise realisation (sample average approximation);
    the run-to-run spread is then read off the median/MAD aggregation over
    independently seeded runs.
    """
    n, p, shots, step = vc.n_qubits, config.p, config.shots, config.fd_step_shot

    def brackets(states):
        return vc.brackets_sampled(states, shots, frozen=frozen)

    def fun(x):
        e1, t1 = brackets(_ansatz_states(x[:-2], n, p))
        return float(VarianceCost.combine(e1[0], t1[0], complex(x[-2], x[-1])))

    def grad(x):
        # central differences in zeta, on states exact from the tangent rows:
        # G^2 = I gives psi(zeta +- h e_j) = cos h psi +- sin h d_j psi.  The
        # cost is quadratic in E, with E-gradient 2(E - <H>) at psi, row 0.
        t = _ansatz_states(x[:-2], n, p, tangent=True)
        centre, shift = np.cos(step) * t[:1], np.sin(step) * t[1:]
        e1, t1 = brackets(np.vstack([t[:1], centre + shift, centre - shift]))
        e = complex(x[-2], x[-1])
        c_plus, c_minus = np.split(VarianceCost.combine(e1[1:], t1[1:], e), 2)
        g_e = 2.0 * (e - t1[0])
        return np.concatenate([(c_plus - c_minus) / (2.0 * step), [g_e.real, g_e.imag]])

    return fun, grad


def _fit_least_squares(m, config, z0, e0):
    """Exact mode: (x, cost, evaluations) of the fit of (M - E) psi(zeta) = 0.

    The residual is [Re; Im] of (M - E) psi, with Jacobian columns
    (M - E) d_j psi, -psi and -i psi; both stages stop on scipy's own
    tolerances or their evaluation budget.
    """
    n, p = m.shape[0].bit_length() - 1, config.p

    def residual(x):
        psi = _ansatz_states(x[:-2], n, p)[0]
        r = m @ psi - complex(x[-2], x[-1]) * psi
        return np.concatenate([r.real, r.imag])

    def jacobian(x):
        t = _ansatz_states(x[:-2], n, p, tangent=True)
        jac = np.vstack([t[1:] @ m.T - complex(x[-2], x[-1]) * t[1:], -t[0], -1j * t[0]]).T
        return np.vstack([jac.real, jac.imag])

    evaluations = 0
    if config.warmup:
        warm = least_squares(lambda z: residual(np.concatenate([z, e0])), z0,
                             jac=lambda z: jacobian(np.concatenate([z, e0]))[:, :-2],
                             method="trf", max_nfev=config.warmup_maxiter)
        z0, evaluations = warm.x, warm.nfev
    res = least_squares(residual, np.concatenate([z0, e0]), jac=jacobian,
                        method="trf", max_nfev=config.maxiter)
    return res.x, 2.0 * res.cost, evaluations + res.nfev


def _fit_bfgs(fun, grad, config, z0, e0):
    """Shot mode: (x, sampled cost, BFGS iterations), fixed-E warm-up first."""
    iterations = 0
    if config.warmup:
        warm = minimize(lambda z: fun(np.concatenate([z, e0])), z0,
                        jac=lambda z: grad(np.concatenate([z, e0]))[:-2], method="BFGS",
                        options=dict(gtol=BFGS_WARMUP_GTOL, maxiter=config.warmup_maxiter))
        z0, iterations = warm.x, warm.nit
    res = minimize(fun, np.concatenate([z0, e0]), jac=grad, method="BFGS",
                   options=dict(gtol=BFGS_GTOL, maxiter=config.maxiter))
    return res.x, float(res.fun), iterations + res.nit


def minimize_variance(h, config: VqaConfig, init_energy=None, seed=None,
                      init_params: AnsatzParams = None):
    """One run of the variance minimisation; returns an estimate.

    ``h``: a :class:`PauliSum`, or the :class:`VarianceCost` that runs on
    one operator share.  After an optional warm-up with the energy frozen
    at its initial guess (``config.warmup``), the circuit parameters and
    the complex energy are fitted jointly: in exact mode by least squares
    on the dense matrix, with ``maxiter``/``warmup_maxiter`` and
    ``iterations`` counting cost evaluations; in shot mode by BFGS on
    :class:`VarianceCost`'s brackets, sampled on one frozen noise
    realisation, with central-difference gradients.  Either run is judged
    converged on the exact cost of its final state.

    The circuit parameters start from ``init_params`` when given (e.g. the
    solution at a neighbouring rotation angle), else from a uniform draw of
    half-width ``INIT_SCALE`` seeded by ``seed``; in shot mode the seed
    also fixes the frozen noise realisation.  Never raises on
    non-convergence: the estimate reports ``converged=False`` and the
    caller filters.
    """
    vc = _variance_cost(h)
    if seed is None:
        seed = config.base_seed
    init_e = complex(config.init_energy if init_energy is None else init_energy)
    rng = np.random.default_rng(seed)
    n = vc.n_qubits
    if config.shots is not None:
        fun, grad = _make_objective(vc, config, vc.frozen_noise(rng))
    if init_params is None:
        z0 = rng.uniform(-INIT_SCALE, INIT_SCALE, config.p * (3 * n - 1))
    elif init_params.n_qubits != n or init_params.p != config.p:
        raise ValueError("initial ansatz parameters do not match register size and depth")
    else:
        z0 = init_params.to_vector()
    e0 = np.array([init_e.real, init_e.imag])
    if config.shots is None:
        x, final_cost, iterations = _fit_least_squares(vc.matrix, config, z0, e0)
        tol = config.cost_tol if config.cost_tol_rel is None else config.cost_tol_rel * vc.hs_norm2
    else:
        x, final_cost, iterations = _fit_bfgs(fun, grad, config, z0, e0)
        tol = config.shot_tol_scale * vc.hs_norm2
    zeta, final_e = x[:-2], complex(x[-2], x[-1])
    state = _ansatz_states(zeta, n, config.p)[0]
    return EigenpairEstimate(
        energy=final_e,
        params=AnsatzParams.from_vector(zeta, n, config.p),
        cost=final_cost,
        converged=bool(vc.exact(state, final_e)[0] < tol),
        iterations=int(iterations),
        seed=int(seed),
        init_energy=init_e,
        state=state,
    )


def cluster_estimates(estimates, radius):
    """Group estimates whose energies lie within ``radius`` (complex distance).

    Returns a list of lists; greedy union by proximity, deterministic in
    the input order.
    """
    clusters = []
    for est in estimates:
        for cl in clusters:
            if abs(est.energy - cl[0].energy) <= radius:
                cl.append(est)
                break
        else:
            clusters.append([est])
    return clusters


def scan_spectrum(h, config: VqaConfig):
    """Algorithm-style spectrum scan: step the initial E_r, dedup by clustering.

    ``h``: a :class:`PauliSum` or its :class:`VarianceCost`, one for all
    repetitions.  Returns cluster representatives (lowest cost) sorted by
    real part, each with its cluster multiplicity; non-converged runs drop.
    """
    if config.repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    vc = _variance_cost(h)
    results = []
    for k in range(config.repetitions):
        init_e = config.init_energy + k * config.scan_step
        est = minimize_variance(
            vc, config, init_energy=init_e, seed=config.base_seed + k
        )
        if est.converged:
            results.append(est)
    reps = []
    for cl in cluster_estimates(results, config.cluster_radius):
        best = min(cl, key=lambda e: e.cost)
        reps.append(replace(best, multiplicity=len(cl)))
    reps.sort(key=lambda e: (e.energy.real, e.energy.imag))
    return reps


def aggregate_runs(values):
    """Component-wise median and MAD over energies from independent runs."""
    values = np.asarray(list(values), dtype=complex)
    if values.size == 0:
        raise ValueError("cannot aggregate an empty cluster")
    med = complex(np.median(values.real), np.median(values.imag))
    mad_re = float(np.median(np.abs(values.real - med.real)))
    mad_im = float(np.median(np.abs(values.imag - med.imag)))
    return med, (mad_re, mad_im)


def aggregate_spectra(per_run_estimates, radius=0.25):
    """Cluster converged estimates across runs; median/MAD per cluster.

    ``per_run_estimates`` is a list (one entry per run) of estimate lists.
    Returns a list of dicts with median, MAD and per-run support, sorted by
    the median real part.
    """
    flat = [e for run in per_run_estimates for e in run if e.converged]
    out = []
    for cl in cluster_estimates(flat, radius):
        med, mad = aggregate_runs([e.energy for e in cl])
        out.append(
            {
                "median": med,
                "mad": mad,
                "n_members": len(cl),
                "members": cl,
            }
        )
    out.sort(key=lambda d: (d["median"].real, d["median"].imag))
    return out


def run_log_record(est: EigenpairEstimate) -> dict:
    """JSONL-ready record of one run."""
    return {
        "seed": est.seed,
        "init_E": [est.init_energy.real, est.init_energy.imag],
        "final_E_re": est.energy.real,
        "final_E_im": est.energy.imag,
        "cost": est.cost,
        "iterations": est.iterations,
        "converged": est.converged,
    }
