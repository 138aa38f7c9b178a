"""theta-trajectories and stationarity extraction of resonance positions.

A trajectory follows one spectral feature across a grid of rotation
angles, each angle continuing from the last accepted one.  The best
resonance estimate sits where the eigenvalue moves slowest with theta
(Moiseyev, Certain & Weinhold, Mol. Phys. 36, 1613 (1978)).  It is read
off per component: every point is weighted by 1/|dE/dtheta|, the bin
with the largest weight wins a histogram over the real (imaginary) parts,
and the median of the points in that bin is the estimate.  Slow points
pile up in the stationary region, so it outweighs a longer arm that
moves slowly in one component only.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .basis import RadialBasisSpec
from .errors import NumericalError
from .hamiltonian import PotentialModel, build_raw_matrices, build_scaled_matrix, solve_energies
from .hamiltonian import solve_spectrum  # noqa: F401  (perfbench/tracing.py wraps this name)
from .vqa import VarianceCost, VqaConfig, encode_matrix, minimize_variance

CLASSICAL = "classical"
QUANTUM = "quantum"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrajectoryPoint:
    theta_deg: float
    energy: complex


@dataclass
class ThetaTrajectory:
    """Accepted points (theta strictly increasing) plus a per-theta log."""

    points: list
    log: list = field(default_factory=list)  # (theta, accepted, reason)

    @property
    def energies(self):
        return np.array([p.energy for p in self.points])

    @property
    def thetas(self):
        return np.array([p.theta_deg for p in self.points])


@dataclass(frozen=True)
class ResonanceEstimate:
    """Stationarity-weighted resonance position (see :func:`extract_optimal`).

    ``counts_re``/``counts_im`` are the raw point counts per bin; the bin
    widths are those of ``bins`` equal bins spanning the collected values.
    """

    energy: complex
    bin_width_re: float
    bin_width_im: float
    counts_re: np.ndarray
    counts_im: np.ndarray
    n_points: int
    bins: int


def run_trajectory(
    basis: RadialBasisSpec,
    potential: PotentialModel,
    thetas,
    center,
    radius,
    engine=CLASSICAL,
    vqa_config: VqaConfig = None,
    attempts: int = 3,
) -> ThetaTrajectory:
    """Follow one resonance across the theta grid.

    Classical engine: solve the generalised eigenproblem at each theta
    (eigenvalues only) and continue from the eigenvalue nearest the
    previously accepted point (first point: nearest the center).  The
    spectra of the last (basis, potential, theta grid) are kept, read-only,
    and shared: another trajectory on the same grid (say, another
    ``center``) assembles and diagonalises nothing.

    Quantum engine: continue from the last accepted eigenpair.  The
    variational solver starts from its circuit parameters and energy, so
    it skips its fixed-E warm-up (the state already sits in the
    resonance's basin).  If that warm start does not converge or lands
    outside the neighbourhood, the failure is logged (``logging`` at INFO)
    and up to ``attempts`` seeded restarts from ``vqa_config.init_energy``
    with random parameters, each with its warm-up, follow; the first
    theta, and every theta before a point is accepted, goes straight to
    the restarts.  The warm start does
    not count toward ``attempts``.  Every run draws its seed from one
    per-theta scheme, ``base_seed + 1000 * round(2 theta) + k``, with
    ``k = 0 .. attempts - 1`` for the restarts and ``k = attempts`` for the
    warm start, so in shot mode each theta gets its own frozen noise.  The
    runs of one theta share one :class:`VarianceCost`.

    Either way a point is accepted only inside the neighbourhood
    |E - center| <= radius; the per-theta log records how it was accepted
    or why it was rejected, and rejected thetas are skipped.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0 or np.any(np.diff(thetas) <= 0):
        raise ValueError("theta grid must be non-empty and strictly increasing")
    center = complex(center)
    points, log = [], []
    if engine == CLASSICAL:
        prev = center
        spectra = _classical_spectra(basis, potential, tuple(thetas.tolist()))
        for th, energies in zip(thetas, spectra):
            pick = energies[np.argmin(np.abs(energies - prev))]
            if abs(pick - center) <= radius:
                points.append(TrajectoryPoint(float(th), complex(pick)))
                prev = pick
                log.append((float(th), True, "accepted"))
            else:
                log.append(
                    (float(th), False,
                     f"nearest eigenvalue {pick:.4f} outside neighborhood")
                )
    elif engine == QUANTUM:
        if vqa_config is None:
            raise ValueError("quantum engine needs a VqaConfig")
        last = None  # last accepted EigenpairEstimate
        for th in thetas:
            sh = build_scaled_matrix(basis, potential, th)
            vc = VarianceCost(encode_matrix(sh.matrix, vqa_config.encoding))
            seed0 = vqa_config.base_seed + 1000 * int(round(2 * th))
            runs = [(f"restart {k}", dict(seed=seed0 + k)) for k in range(attempts)]
            if last is not None:
                runs.insert(0, ("warm start", dict(init_energy=last.energy, seed=seed0 + attempts,
                                                   init_params=last.params)))
            reason = "no attempt converged inside neighborhood"
            for how, kwargs in runs:
                est = minimize_variance(vc, vqa_config, **kwargs)
                reason = _rejection(est, center, radius)
                if reason is None:
                    points.append(TrajectoryPoint(float(th), complex(est.energy)))
                    log.append((float(th), True, f"accepted ({how})"))
                    last = est
                    break
                if how == "warm start":
                    logger.info("theta=%g: warm start %s; %d seeded restarts follow",
                                th, reason, attempts)
            else:
                log.append((float(th), False, reason))
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if not points:
        detail = "; ".join(f"theta={t:g}: {r}" for t, ok, r in log if not ok)
        raise NumericalError(f"empty trajectory, no theta accepted ({detail})")
    return ThetaTrajectory(points=points, log=log)


@functools.lru_cache(maxsize=1)
def _classical_spectra(basis, potential, thetas):
    """Eigenvalues at each theta of the tuple ``thetas``, sorted by real part; read-only."""
    spectra = []
    for th in thetas:
        h_raw, s = build_raw_matrices(basis, potential, th)
        energies = solve_energies(h_raw, overlap=s)
        energies.setflags(write=False)
        spectra.append(energies)
    return tuple(spectra)


def _rejection(est, center, radius):
    """Why a variational estimate cannot join the trajectory (None: it can)."""
    if not est.converged:
        return f"not converged (cost {est.cost:.2e})"
    if abs(est.energy - center) > radius:
        return f"converged to {est.energy:.4f} outside neighborhood"
    return None


def _stationarity_weights(traj):
    """1/|dE/dtheta| per point; uniform when no point moves (or only one)."""
    if len(traj.points) < 2:
        return np.ones(len(traj.points))
    speed = np.array([s for _, s in trajectory_speed(traj)])
    floor = 1e-12 * speed.max()  # a point that does not move gets a finite weight
    if floor == 0.0:
        return np.ones_like(speed)
    return 1.0 / np.maximum(speed, floor)


def _weighted_mode(values, weights, bins):
    """Median of the heaviest bin, the bin width and the raw counts per bin."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if hi - lo < 1e-15:
        # degenerate histogram: every point identical
        width = 1e-15
        counts = np.zeros(bins, dtype=int)
        counts[0] = values.size
        return float(lo), width, counts
    edges = np.histogram_bin_edges(values, bins=bins)
    # bin membership as np.histogram assigns it (the last bin is closed)
    idx = np.minimum(np.searchsorted(edges, values, side="right") - 1, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    weight = np.bincount(idx, weights=weights, minlength=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    top = np.flatnonzero(weight == weight.max())
    pick = top[np.argmin(np.abs(centers[top] - np.median(values)))]
    return float(np.median(values[idx == pick])), float(edges[1] - edges[0]), counts


def extract_optimal(traj: ThetaTrajectory, bins: int = 25) -> ResonanceEstimate:
    """Resonance position where the trajectory is stationary in theta.

    Per component (real, imaginary), the points are binned into ``bins``
    equal bins, each point weighted by 1/|dE/dtheta| (central differences
    on the accepted thetas, :func:`trajectory_speed`).  The median of the
    points in the heaviest bin is the estimate; an exact tie in weight goes
    to the bin whose center is nearest the median of all points.
    """
    if not traj.points:
        raise ValueError("trajectory has no points")
    energies = traj.energies
    weights = _stationarity_weights(traj)
    re, w_re, c_re = _weighted_mode(energies.real, weights, bins)
    im, w_im, c_im = _weighted_mode(energies.imag, weights, bins)
    return ResonanceEstimate(
        energy=complex(re, im),
        bin_width_re=w_re,
        bin_width_im=w_im,
        counts_re=c_re,
        counts_im=c_im,
        n_points=len(traj.points),
        bins=bins,
    )


def trajectory_speed(traj: ThetaTrajectory):
    """|dE/d theta| along the trajectory by central differences.

    The minimum-speed theta flags the stationary region (loop, kink or
    slow-down) near the optimal resonance position.
    """
    if len(traj.points) < 2:
        raise ValueError("need at least two trajectory points")
    th = traj.thetas
    e = traj.energies
    de = np.gradient(e, th)
    return [(float(t), float(abs(d))) for t, d in zip(th, de)]
