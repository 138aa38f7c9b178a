"""Variance-minimisation variational eigensolver for non-Hermitian operators.

The cost function is the expectation of the Hermitianised operator,
``L(zeta, E) = <psi(zeta)| (H+ - E*)(H - E) |psi(zeta)>``
            ``= <H+H> - 2 Re(E* <H>) + |E|^2``,
which vanishes exactly at a right eigenpair.  Both the circuit parameters
and the complex energy are optimised with BFGS; a short warm-up stage with
the energy frozen at its initial guess steers the state into the basin of
the targeted eigenvector before the joint optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .encoding import PauliSum, encode_gray, encode_onehot_jw, pauli_multiply
from .simulator import Circuit, compiled

ONEHOT_JW = "onehot_jw"
GRAY = "gray"


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


def _ansatz_states(param_rows, n, p):
    """Batched ansatz evaluation; rows of ``param_rows`` are parameter vectors.

    Returns states of shape (B, 2^n); numerically identical to running
    :func:`build_ansatz` + ``apply_circuit`` row by row.
    """
    rows = np.atleast_2d(np.asarray(param_rows, dtype=float))
    b = rows.shape[0]
    dim = 2**n
    ks = np.arange(dim)
    zsign = 1.0 - 2.0 * ((ks[:, None] >> np.arange(n)[None, :]) & 1)  # (dim, n)
    psi = np.zeros((b, dim), dtype=complex)
    psi[:, 0] = 1.0
    i = 0
    for _ in range(p):
        beta = rows[:, i : i + n - 1]
        i += n - 1
        gamma = rows[:, i : i + n]
        i += n
        delta = rows[:, i : i + n]
        i += n
        for q in range(n - 1):
            mask = (1 << q) | (1 << (q + 1))
            c = np.cos(beta[:, q : q + 1])
            s = np.sin(beta[:, q : q + 1])
            psi = c * psi - 1j * s * psi[:, ks ^ mask]
        psi = psi * np.exp(-1j * (gamma @ zsign.T))
        for q in range(n):
            c = np.cos(delta[:, q : q + 1])
            s = np.sin(delta[:, q : q + 1])
            psi = c * psi - 1j * s * psi[:, ks ^ (1 << q)]
    return psi


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
    gtol: float = 1e-8
    maxiter: int = 2000
    warmup: bool = True
    warmup_maxiter: int = 200
    init_scale: float = 0.1
    cost_tol: float = 1e-6
    cost_tol_rel: float = None  # when set, exact-mode tol = cost_tol_rel * |H|_hs^2
    shot_tol_scale: float = 1e-3
    cluster_radius: float = 0.05
    fd_step_exact: float = 1e-6
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
    """The brackets <H+H> and <H> of one Pauli-encoded operator.

    ``H+H`` and ``H`` are built and compiled once per instance; only the
    linear combination with the energy changes between evaluations.  Both
    bracket methods take a batch of states as rows; the shot-sampled one
    uses the shot model of the compiled sums (``_CompiledSum.sampled``).
    """

    def __init__(self, h_sum: PauliSum):
        self.n_qubits = h_sum.n_qubits
        self._ch = compiled(h_sum)
        self._chdh = compiled(pauli_multiply(h_sum.dagger(), h_sum))
        self.hs_norm2 = float(sum(abs(c) ** 2 for _, c in h_sum.items()))

    def brackets(self, states):
        """(<H+H>, <H>) for a batch of states (rows)."""
        psi = np.asarray(states)
        cols = psi.T if psi.ndim == 2 else psi
        e1 = np.real(self._chdh.expectation(cols))
        t1 = self._ch.expectation(cols)
        return e1, t1

    def brackets_sampled(self, states, shots, rng=None, frozen=None):
        """Shot-sampled (<H+H>, <H>) for a batch of states (rows).

        With ``rng``, every Pauli string draws fresh independent binomial
        shots, <H+H> first.  With ``frozen`` (the pair from
        :meth:`frozen_noise`), the same noise realisation is reused for
        every evaluation, so one optimisation run stays on a single
        deterministic sampled surface while the run-to-run spread still
        carries the full shot noise.
        """
        cols = np.atleast_2d(np.asarray(states)).T
        z_hdh, z_h = (None, None) if frozen is None else frozen
        e1 = self._chdh.sampled(cols, shots, rng=rng, frozen=z_hdh)
        t1 = self._ch.sampled(cols, shots, rng=rng, frozen=z_h)
        return np.real(e1), t1

    def frozen_noise(self, rng):
        """One standard-normal variate per Pauli string of <H+H> and <H>."""
        return (
            rng.standard_normal(len(self._chdh.order)),
            rng.standard_normal(len(self._ch.order)),
        )

    @staticmethod
    def combine(e1, t1, energy):
        return e1 - 2.0 * np.real(np.conj(energy) * t1) + abs(energy) ** 2


def cost(params: AnsatzParams, energy, h_sum: PauliSum, shots=None, seed=None, rng=None):
    """Energy-parameterised variance cost for a single evaluation."""
    if params.n_qubits != h_sum.n_qubits:
        raise ValueError("ansatz register size mismatch")
    vc = VarianceCost(h_sum)
    states = _ansatz_states(params.to_vector(), params.n_qubits, params.p)
    if shots is None:
        e1, t1 = vc.brackets(states)
    else:
        if rng is None:
            rng = np.random.default_rng(seed)
        e1, t1 = vc.brackets_sampled(states, shots, rng)
    return float(VarianceCost.combine(e1[0], t1[0], complex(energy)))


def _make_objective(vc, config, rng, frozen=None):
    """Scalar cost over the joint vector [zeta..., E_r, E_i] plus helpers.

    Shot mode runs on one frozen noise realisation per call chain (sample
    average approximation); the run-to-run spread is then read off the
    median/MAD aggregation over independently seeded runs.
    """
    n, p = vc.n_qubits, config.p
    shots = config.shots

    def brackets_rows(rows):
        states = _ansatz_states(rows, n, p)
        if shots is None:
            return vc.brackets(states)
        return vc.brackets_sampled(states, shots, rng=rng, frozen=frozen)

    def fun(x):
        e1, t1 = brackets_rows(x[None, :-2])
        e = x[-2] + 1j * x[-1]
        return float(VarianceCost.combine(np.real(e1[0]), np.atleast_1d(t1)[0], e))

    step = config.fd_step_exact if shots is None else config.fd_step_shot

    def grad(x):
        # central differences; the sampled surface is deterministic and
        # smooth within one run (frozen noise), so the same stencil works
        # in both modes
        d = x.size - 2
        e = x[-2] + 1j * x[-1]
        rows = np.repeat(x[None, :-2], 2 * d, axis=0)
        for i in range(d):
            rows[2 * i, i] += step
            rows[2 * i + 1, i] -= step
        e1, t1 = brackets_rows(rows)
        c = VarianceCost.combine(e1, t1, e)
        g = (c[0::2] - c[1::2]) / (2.0 * step)
        e10, t10 = brackets_rows(x[None, :-2])
        c_re = [
            VarianceCost.combine(e10[0], t10[0], (x[-2] + s * step) + 1j * x[-1])
            for s in (+1, -1)
        ]
        c_im = [
            VarianceCost.combine(e10[0], t10[0], x[-2] + 1j * (x[-1] + s * step))
            for s in (+1, -1)
        ]
        g_e = [(c_re[0] - c_re[1]) / (2 * step), (c_im[0] - c_im[1]) / (2 * step)]
        return np.concatenate([g, g_e])

    return fun, grad, brackets_rows


def minimize_variance(h_sum: PauliSum, config: VqaConfig, init_energy=None, seed=None,
                      init_params: AnsatzParams = None):
    """One BFGS run of the variance minimisation; returns an estimate.

    After an optional warm-up with the energy frozen at its initial guess
    (``config.warmup``), the circuit parameters and the complex energy are
    optimised jointly on the cost built from :class:`VarianceCost`'s
    brackets, with central-difference gradients.  The brackets are exact,
    or in shot mode (``config.shots``) sampled on one frozen noise
    realisation; a shot-mode run is judged converged on its exact cost.

    The circuit parameters start from ``init_params`` when given (e.g. the
    solution at a neighbouring rotation angle), else from a uniform draw of
    half-width ``config.init_scale`` seeded by ``seed``; in shot mode the
    seed also fixes the frozen noise realisation.  Never raises on
    non-convergence: the estimate reports ``converged=False`` and the
    caller filters.
    """
    if seed is None:
        seed = config.base_seed
    init_e = complex(config.init_energy if init_energy is None else init_energy)
    rng = np.random.default_rng(seed)
    n = h_sum.n_qubits
    vc = VarianceCost(h_sum)
    frozen = vc.frozen_noise(rng) if config.shots is not None else None
    fun, grad, _ = _make_objective(vc, config, rng, frozen=frozen)
    if init_params is None:
        z0 = rng.uniform(-config.init_scale, config.init_scale, config.p * (3 * n - 1))
    elif init_params.n_qubits != n or init_params.p != config.p:
        raise ValueError("initial ansatz parameters do not match register size and depth")
    else:
        z0 = init_params.to_vector()
    iterations = 0
    if config.warmup:
        warm = minimize(
            lambda z: fun(np.concatenate([z, [init_e.real, init_e.imag]])),
            z0,
            jac=lambda z: grad(np.concatenate([z, [init_e.real, init_e.imag]]))[:-2],
            method="BFGS",
            options=dict(gtol=max(config.gtol, 1e-6), maxiter=config.warmup_maxiter),
        )
        z0 = warm.x
        iterations += warm.nit
    x0 = np.concatenate([z0, [init_e.real, init_e.imag]])
    res = minimize(fun, x0, jac=grad, method="BFGS",
                   options=dict(gtol=config.gtol, maxiter=config.maxiter))
    zeta = res.x[:-2]
    final_e = complex(res.x[-2], res.x[-1])
    final_cost = float(res.fun)
    iterations += res.nit
    params = AnsatzParams.from_vector(zeta, n, config.p)
    state = _ansatz_states(zeta[None, :], n, config.p)[0]
    if config.shots is None:
        tol = (config.cost_tol if config.cost_tol_rel is None
               else config.cost_tol_rel * vc.hs_norm2)
        converged = final_cost < tol
    else:
        e1, t1 = vc.brackets(state)
        exact_cost = float(VarianceCost.combine(e1, t1, final_e))
        converged = exact_cost < config.shot_tol_scale * vc.hs_norm2
    return EigenpairEstimate(
        energy=final_e,
        params=params,
        cost=final_cost,
        converged=bool(converged),
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


def scan_spectrum(h_sum: PauliSum, config: VqaConfig):
    """Algorithm-style spectrum scan: step the initial E_r, dedup by clustering.

    Returns cluster representatives (lowest cost) sorted by real part, each
    carrying its cluster multiplicity.  Non-converged runs are dropped.
    """
    if config.repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    results = []
    for k in range(config.repetitions):
        init_e = config.init_energy + k * config.scan_step
        est = minimize_variance(
            h_sum, config, init_energy=init_e, seed=config.base_seed + k
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
