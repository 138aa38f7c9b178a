"""Variance-minimisation variational eigensolver for non-Hermitian operators.

The cost function is the expectation of the Hermitianised operator,
``L(zeta, E) = <psi(zeta)| (H+ - E*)(H - E) |psi(zeta)>``
            ``= <H+H> - 2 Re(E* <H>) + |E|^2``,
which vanishes exactly at a right eigenpair.  The circuit parameters and
the complex energy are fitted jointly.  A run whose circuit parameters are
drawn at random first takes a short warm-up with the energy frozen at its
initial guess, which steers the state into the basin of the targeted
eigenvector; a run started from given parameters skips it.  In exact mode
the cost is ``|(M - E) psi|^2`` for the dense encoded matrix M, fitted by
least squares in a trust region scaled by the Jacobian's column norms
(Moré 1978), with one tangent sweep per evaluated point shared by the
residual and the Jacobian; its ``J^T r`` and
``J^T J`` are circuit brackets (parameter shift, Mitarai et al. 2018), so
nothing but H is used.  Exact mode reports, and its settle rule reads, the
c-product Rayleigh quotient ``E_c = psi^T M psi / psi^T psi`` of the state,
whose error is quadratic in the state's; the cost it reports is the exact
cost at the fitted E.  In shot mode BFGS runs on the sampled cost: each
step is one evaluation, whose one compiled pass over the strings of H+H
and H (``compiled(H+H, H)``, one share per sum) gives the cost at psi and
its central-difference gradient.  One :class:`VarianceCost` per operator
holds M and, in shot mode only, that pass.  The ansatz is evaluated as a
sweep over commuting blocks, each diagonal in the computational or the
Hadamard frame (:func:`_sweep_plan`), with the tangent states alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import least_squares, minimize

from .encoding import PauliSum, encode_gray, encode_onehot_jw, parity_signs, pauli_multiply
from .simulator import Circuit, compiled, shot_estimate

ONEHOT_JW = "onehot_jw"
GRAY = "gray"

INIT_SCALE = 0.1  # half-width of the uniform draw of the initial zeta
CLUSTER_RADIUS = 0.05  # scan_spectrum merges converged energies this close
BFGS_GTOL = 1e-8
BFGS_WARMUP_GTOL = 1e-6
# exact-mode stopping rules: the warm-up only has to pick the basin; the
# joint fit stops once its cost is under the converged tolerance and E
# has settled to this relative step between accepted iterations
LSQ_WARMUP_FTOL = 1e-2
LSQ_ENERGY_RTOL = 1e-7
C_NORM_MIN = 1e-8  # below this |psi^T psi| / |psi|^2, E_c falls back to the fitted E
# both exact-mode stages: trf with the Jacobian's column norms as variable scales
LSQ_TRF = dict(method="trf", x_scale="jac")


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
        vec = np.array(vec, dtype=float)
        if vec.size != p * (3 * n_qubits - 1):
            raise ValueError("parameter vector length mismatch")
        cuts = [n_qubits - 1, 2 * n_qubits - 1]
        layers = tuple(tuple(np.split(row, cuts)) for row in vec.reshape(p, 3 * n_qubits - 1))
        return cls(n_qubits=n_qubits, layers=layers)

    @classmethod
    def random(cls, rng, n_qubits, p, scale=INIT_SCALE):
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


def _hadamard_matrix(m):
    """H^{(x)m}, normalised: entry (j, k) is (-1)^{popcount(j & k)} / 2^{m/2}."""
    ks = np.arange(2**m)
    return parity_signs(ks[:, None], ks) / 2.0 ** (m / 2)


@lru_cache(maxsize=8)
def _sweep_plan(n, p):
    """The ansatz of ``p`` layers on ``n`` qubits as 2p + 1 commuting diagonal blocks.

    Returns ``(blocks, ha, hb)``, all arrays read-only.  A block
    ``(start, stop, s)`` is exp(-i sum_j zeta_j s_j) for the parameters
    ``start:stop``; ``s`` holds, per basis index, the +-1 eigenvalues of
    Z_q and of Z_q Z_{q+1} it needs, as a column slice of one array.  The
    blocks alternate between the Hadamard frame, where X_q and X_q X_{q+1}
    are diagonal (the first layer's XX, then each layer's X merged with the
    next layer's XX), and the computational frame (each layer's Z).  ``ha`` and ``hb`` are
    H^{(x)a} and H^{(x)b}, a = ceil(n/2), b = n - a: no 2^n x 2^n matrix
    is held.
    """
    ks = np.arange(2**n)
    z = 1.0 - 2.0 * (ks[:, None] >> np.arange(n) & 1)
    signs = np.hstack([z, z[:, :-1] * z[:, 1:]])
    d = 3 * n - 1
    blocks = [(0, n - 1, signs[:, n:])]  # the first layer's XX
    for layer in range(p):
        start = layer * d + n - 1
        blocks.append((start, start + n, signs[:, :n]))  # Z
        if layer + 1 < p:
            blocks.append((start + n, start + 3 * n - 1, signs))  # X, then the next XX
        else:
            blocks.append((start + n, start + 2 * n, signs[:, :n]))  # the last X
    ha, hb = _hadamard_matrix((n + 1) // 2), _hadamard_matrix(n // 2)
    for a in (signs, ha, hb):
        a.setflags(write=False)
    return tuple(blocks), ha, hb


def _hadamard(psi, ha, hb):
    """H^{(x)n} psi for states as columns, as H^{(x)a} (x) H^{(x)b} on the reshaped state.

    The real and imaginary parts ride along as two real columns, so both
    products are real GEMMs.
    """
    x = np.ascontiguousarray(psi).view(float).reshape(len(ha), -1)
    y = (ha @ x).reshape(len(ha), len(hb), -1)
    return (hb @ y).reshape(psi.shape[0], -1).view(complex)


def _ansatz_states(zeta, n, p, tangent=False):
    """The ansatz state of one parameter vector, one sweep over commuting diagonal blocks.

    Returns psi as one row, shape (1, 2^n), equal to :func:`build_ansatz` +
    ``apply_circuit``; with ``tangent``, the d + 1 rows psi and
    d psi / d zeta_j.  Each block (see :func:`_sweep_plan`) is one phase
    multiply in its frame; its generators G_j commute with it, so row j+1
    is born as -i s_j * (the state after its block) and then rides the
    rest of the sweep.
    """
    blocks, ha, hb = _sweep_plan(n, p)
    zeta = np.asarray(zeta, dtype=float)
    # the sweep keeps the states as columns; H^n |0...0> is the uniform
    # state, already in the Hadamard frame of the first block
    psi = np.zeros((2**n, zeta.size + 1 if tangent else 1), dtype=complex)
    psi[:, 0] = 2.0 ** (-n / 2)
    for i, (start, stop, signs) in enumerate(blocks):
        live = start + 1 if tangent else 1
        if i:
            psi[:, :live] = _hadamard(psi[:, :live], ha, hb)
        psi[:, :live] *= np.exp(-1j * (signs @ zeta[start:stop]))[:, None]
        if tangent:
            psi[:, start + 1 : stop + 1] = -1j * signs * psi[:, :1]
    return _hadamard(psi, ha, hb).T


@dataclass
class VqaConfig:
    """Run parameters for the variational solver (see module docstring)."""

    encoding: str = GRAY
    p: int = 3
    shots: int = None
    base_seed: int = 7
    init_energy: complex = 0.0 + 0.0j
    scan_step: float = 0.4
    repetitions: int = 20
    maxiter: int = 2000  # exact mode: cost evaluations; shot mode: BFGS iterations
    warmup_maxiter: int = 200  # fixed-E warm-up of a random start, same units
    cost_tol: float = 1e-6
    cost_tol_rel: float = None  # when set, exact-mode tol = cost_tol_rel * |H|_hs^2
    shot_tol_scale: float = 1e-3
    fd_step_shot: float = 1e-2


@dataclass
class EigenpairEstimate:
    """One converged (or not) variational eigenpair.

    ``energy``: in exact mode E_c of ``state`` (:meth:`VarianceCost.c_energy`),
    in shot mode the fitted E.  ``cost``: in exact mode the exact cost
    ``|(M - E) psi|^2`` at the fitted E, in shot mode the sampled cost.
    """

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
    (for Gray code, the permuted and zero-padded H): the residual
    ``(M - E) psi``, the cost ``|(M - E) psi|^2`` that is its squared norm,
    and ``hs_norm2 = |M|_F^2 / 2^n``.  H and H+H are compiled on first
    shot-mode use.  States come as rows.
    """

    def __init__(self, h_sum: PauliSum):
        self.n_qubits = h_sum.n_qubits
        self.matrix = h_sum.to_matrix()
        self.hs_norm2 = float(np.linalg.norm(self.matrix) ** 2 / self.matrix.shape[0])
        self._h_sum = h_sum

    @cached_property
    def _compiled(self):
        """One compiled pass over the strings of H+H and H; share 0 is H+H, share 1 is H.

        H+H is the product ``pauli_multiply(H+, H)``.  Each share lists its
        strings in pass order, so every string keeps its noise variate and
        its place in the binomial draws.
        """
        h = self._h_sum
        return compiled(pauli_multiply(h.dagger(), h), h)

    def residual(self, states, energy):
        """(M - E) psi for a batch of states (rows)."""
        return states @ self.matrix.T - complex(energy) * states

    def c_energy(self, state, fallback):
        """E_c = psi^T M psi / psi^T psi for one state: a transpose, not a conjugate transpose.

        M is complex symmetric (the c-product of complex scaling), so this
        quotient is stationary at an eigenvector and its error is quadratic
        in the state's, where that of a fitted E or of <psi|M|psi> is linear
        (Moiseyev, Phys. Rep. 302, 212 (1998)).  A state too near
        self-orthogonal to divide by (|psi^T psi| below ``C_NORM_MIN``
        |psi|^2) gets ``fallback``.
        """
        overlap = state @ state
        if abs(overlap) <= C_NORM_MIN * np.vdot(state, state).real:
            return complex(fallback)
        return complex(state @ (self.matrix @ state) / overlap)

    def exact(self, states, energy):
        """|(M - E) psi|^2 for a batch of states (rows)."""
        r = self.residual(np.atleast_2d(states), energy)
        return np.einsum("ij,ij->i", r.conj(), r).real

    def brackets_sampled(self, states, shots, rng=None, frozen=None):
        """Shot-sampled (<H+H>, <H>) for a batch of states (rows).

        One pass computes the exact mean of every string of either sum; the
        shot model (:func:`shot_estimate`) then samples each sum from its
        own rows.  With ``rng``, every Pauli string draws fresh independent
        binomial shots, <H+H> first.  With ``frozen`` (the pair from
        :meth:`frozen_noise`), the same noise realisation is reused for
        every evaluation, so one optimisation run stays on a single
        deterministic sampled surface while the run-to-run spread still
        carries the full shot noise.
        """
        comp = self._compiled
        ms = comp.term_expectations(np.atleast_2d(np.asarray(states)).T)
        zs = (None, None) if frozen is None else frozen
        e1, t1 = (shot_estimate(ms[share.rows], share.coeffs, share.is_identity, shots,
                                rng=rng, frozen=z)
                  for share, z in zip(comp.shares, zs))
        return np.real(e1), t1

    def frozen_noise(self, rng):
        """One standard-normal variate per Pauli string of <H+H> and <H>."""
        return tuple(rng.standard_normal(len(share.rows)) for share in self._compiled.shares)

    @staticmethod
    def combine(e1, t1, energy):
        return e1 - 2.0 * np.real(np.conj(energy) * t1) + abs(energy) ** 2


def _variance_cost(h):
    return h if isinstance(h, VarianceCost) else VarianceCost(h)


def cost(params: AnsatzParams, energy, h_sum: PauliSum, shots=None, seed=None):
    """Energy-parameterised variance cost for a single evaluation."""
    if params.n_qubits != h_sum.n_qubits:
        raise ValueError("ansatz register size mismatch")
    vc = _variance_cost(h_sum)
    states = _ansatz_states(params.to_vector(), params.n_qubits, params.p)
    if shots is None:
        return float(vc.exact(states, energy)[0])
    e1, t1 = vc.brackets_sampled(states, shots, np.random.default_rng(seed))
    return float(VarianceCost.combine(e1[0], t1[0], complex(energy)))


def _make_objective(vc, config, frozen):
    """Shot-mode cost over the joint vector [zeta..., E_r, E_i] and its gradient, in one call.

    Both run on one frozen noise realisation (sample average approximation);
    the run-to-run spread is then read off the median/MAD aggregation over
    independently seeded runs.
    """
    n, p, shots, step = vc.n_qubits, config.p, config.shots, config.fd_step_shot

    def fun_and_grad(x):
        # central differences in zeta, on states exact from the tangent rows:
        # G^2 = I gives psi(zeta +- h e_j) = cos h psi +- sin h d_j psi.  Row 0
        # of the batch is psi itself, which gives the cost.  The cost is
        # quadratic in E, with E-gradient 2(E - <H>) at psi.
        t = _ansatz_states(x[:-2], n, p, tangent=True)
        centre, shift = np.cos(step) * t[:1], np.sin(step) * t[1:]
        e1, t1 = vc.brackets_sampled(np.vstack([t[:1], centre + shift, centre - shift]), shots,
                                     frozen=frozen)
        e = complex(x[-2], x[-1])
        costs = VarianceCost.combine(e1, t1, e)
        c_plus, c_minus = np.split(costs[1:], 2)
        g_e = 2.0 * (e - t1[0])
        return float(costs[0]), np.concatenate([(c_plus - c_minus) / (2.0 * step),
                                                [g_e.real, g_e.imag]])

    return fun_and_grad


def _fit_least_squares(vc, config, z0, e0, warmup, tol):
    """Exact mode: (x, cost, evaluations) of the fit of (M - E) psi(zeta) = 0.

    The residual is [Re; Im] of (M - E) psi, with Jacobian columns
    (M - E) d_j psi, -psi and -i psi.  The residual takes psi from row 0 of
    a tangent sweep (the plain sweep, bit for bit) and keeps the sweep; the
    Jacobian at the same x, which trf asks for at each accepted x, reuses
    it, so each evaluated point costs one sweep.  Both stages run trf with
    ``LSQ_TRF``: a trust region scaled by the Jacobian's column norms (Moré,
    LNM 630 (1978)), in which radians of zeta and MeV of E weigh alike; in
    raw units the joint fit crawled on E long after its cost was under
    ``tol``.  The fixed-E warm-up has a nonzero
    residual by construction, so it stops at an ``ftol`` of
    ``LSQ_WARMUP_FTOL``: it only has to pick the basin.  The joint fit stops
    when the exact cost is already under the converged tolerance ``tol``
    and the state's E_c (:meth:`VarianceCost.c_energy`) moved by less than
    ``LSQ_ENERGY_RTOL * max(1, |E_c|)`` since the last accepted iteration;
    the cost guard keeps a stalled state far from an eigenvector from
    stopping it.  Either stage also stops on scipy's own tolerances or its
    evaluation budget.
    """
    n, p = vc.n_qubits, config.p
    swept = None  # (x, tangent sweep) of the last residual
    psi = None  # row 0 of the last Jacobian's tangent sweep

    def residual(x):
        nonlocal swept
        swept = np.array(x), _ansatz_states(x[:-2], n, p, tangent=True)
        r = vc.residual(swept[1][:1], complex(x[-2], x[-1]))[0]
        return np.concatenate([r.real, r.imag])

    def jacobian(x):
        nonlocal psi
        t = swept[1] if np.array_equal(swept[0], x) else _ansatz_states(x[:-2], n, p, tangent=True)
        psi = t[0]
        jac = np.vstack([vc.residual(t[1:], complex(x[-2], x[-1])), -t[0], -1j * t[0]]).T
        return np.vstack([jac.real, jac.imag])

    last_e = None

    def stop_when_settled(intermediate_result):
        # trf evaluates the Jacobian at each accepted x just before this
        # call, so psi is the state of intermediate_result.x
        nonlocal last_e
        e = vc.c_energy(psi, complex(*intermediate_result.x[-2:]))
        settled = (last_e is not None and 2.0 * intermediate_result.cost < tol
                   and abs(e - last_e) < LSQ_ENERGY_RTOL * max(1.0, abs(e)))
        last_e = e
        if settled:
            raise StopIteration

    evaluations = 0
    if warmup:
        warm = least_squares(lambda z: residual(np.concatenate([z, e0])), z0,
                             jac=lambda z: jacobian(np.concatenate([z, e0]))[:, :-2],
                             ftol=LSQ_WARMUP_FTOL, max_nfev=config.warmup_maxiter, **LSQ_TRF)
        z0, evaluations = warm.x, warm.nfev
    res = least_squares(residual, np.concatenate([z0, e0]), jac=jacobian,
                        max_nfev=config.maxiter, callback=stop_when_settled, **LSQ_TRF)
    return res.x, 2.0 * res.cost, evaluations + res.nfev


def _fit_bfgs(fun_and_grad, config, z0, e0, warmup):
    """Shot mode: (x, sampled cost, BFGS iterations), any fixed-E warm-up first."""
    iterations = 0
    if warmup:
        def warm_fun(z):
            value, grad = fun_and_grad(np.concatenate([z, e0]))
            return value, grad[:-2]

        warm = minimize(warm_fun, z0, jac=True, method="BFGS",
                        options=dict(gtol=BFGS_WARMUP_GTOL, maxiter=config.warmup_maxiter))
        z0, iterations = warm.x, warm.nit
    res = minimize(fun_and_grad, np.concatenate([z0, e0]), jac=True, method="BFGS",
                   options=dict(gtol=BFGS_GTOL, maxiter=config.maxiter))
    return res.x, float(res.fun), iterations + res.nit


def minimize_variance(h, config: VqaConfig, init_energy=None, seed=None,
                      init_params: AnsatzParams = None):
    """One run of the variance minimisation; returns an estimate.

    ``h``: a :class:`PauliSum`, or the :class:`VarianceCost` that runs on
    one operator share.  The circuit parameters and the complex energy are
    fitted jointly: in exact mode by least squares on the dense matrix,
    each stage stopping once it has done its job (see
    :func:`_fit_least_squares`), with ``maxiter``/``warmup_maxiter`` and
    ``iterations`` counting cost evaluations; in shot mode by BFGS on
    :class:`VarianceCost`'s brackets, sampled on one frozen noise
    realisation, with central-difference gradients.  Either run is judged
    converged on the exact cost of its final state at the fitted E; exact
    mode reports that state's E_c as the energy.

    The circuit parameters start from ``init_params`` when given (e.g. the
    solution at a neighbouring rotation angle), else from a uniform draw of
    half-width ``INIT_SCALE`` seeded by ``seed``; in shot mode the seed
    also fixes the frozen noise realisation.  A random start first takes a
    warm-up of at most ``warmup_maxiter`` with the energy frozen at its
    initial guess, which steers the state into the basin of the targeted
    eigenvector; a given start already sits in its basin and skips it.
    Never raises on non-convergence: the estimate reports
    ``converged=False`` and the caller filters.
    """
    vc = _variance_cost(h)
    if seed is None:
        seed = config.base_seed
    init_e = complex(config.init_energy if init_energy is None else init_energy)
    rng = np.random.default_rng(seed)
    n = vc.n_qubits
    if config.shots is not None:
        fun_and_grad = _make_objective(vc, config, vc.frozen_noise(rng))
    warmup = init_params is None
    if warmup:
        init_params = AnsatzParams.random(rng, n, config.p)
    elif init_params.n_qubits != n or init_params.p != config.p:
        raise ValueError("initial ansatz parameters do not match register size and depth")
    z0, e0 = init_params.to_vector(), np.array([init_e.real, init_e.imag])
    if config.shots is None:
        tol = config.cost_tol if config.cost_tol_rel is None else config.cost_tol_rel * vc.hs_norm2
        x, final_cost, iterations = _fit_least_squares(vc, config, z0, e0, warmup, tol)
    else:
        x, final_cost, iterations = _fit_bfgs(fun_and_grad, config, z0, e0, warmup)
        tol = config.shot_tol_scale * vc.hs_norm2
    zeta, final_e = x[:-2], complex(x[-2], x[-1])
    state = _ansatz_states(zeta, n, config.p)[0]
    return EigenpairEstimate(
        energy=final_e if config.shots is not None else vc.c_energy(state, final_e),
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
    Estimates within ``CLUSTER_RADIUS`` of a cluster's first member join it.
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
    for cl in cluster_estimates(results, CLUSTER_RADIUS):
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
