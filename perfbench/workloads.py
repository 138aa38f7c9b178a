"""The benchmark's three workloads: inputs from the seed, one op, its check.

Each workload draws the input of op ``i`` from ``(seed, i)`` alone, so a
seed replays the same sequence of ops however long the run is.  Each op
is checked against a computation made apart from the code path it
times (numpy's dense eigensolver, the Hamming-weight mass of the written
amplitudes) or against the published resonance positions.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import yaml

import csres.cli
import csres.trajectory
from csres import PotentialModel, RadialBasisSpec, VqaConfig
from csres.hamiltonian import build_scaled_matrix

OUT_ROOT = Path(__file__).resolve().parent / "out"  # ignored by git
SCHEMATIC = PotentialModel.schematic()
ALPHA = PotentialModel.alpha_alpha()

# the paper's basis parameters, which each op moves by up to JITTER
HO_B = 1.36  # fm, alpha-alpha HO basis
GAUSS_R_MAX = 15.0  # fm, last width of the schematic Gaussian N = 16 basis
JITTER = 0.02


def _jitter(seed, i):
    """Scale factors for HO b and Gaussian r_max of op ``i``, uniform in 1 +- JITTER."""
    rng = np.random.default_rng([seed, i])
    return 1.0 + rng.uniform(-JITTER, JITTER, 2)


def _schematic_basis(n, r_max):
    return RadialBasisSpec.gaussian(n, 1, 1.0, r_max)


class ClassicalTrajectory:
    """Three classical theta-trajectories, each followed by extract_optimal."""

    name = "classical-trajectory"
    thetas = np.arange(2.0, 45.0, 0.5)
    # (label, published pole for the basis size, acceptance floor,
    #  neighbourhood centre and radius); narrow and broad share one basis
    cases = (
        ("d_wave", 2.8907 - 0.6166j, 0.02, 2.9 - 0.6j, 0.5),
        ("narrow", 1.1682 - 0.0067j, 0.005, 1.17 - 0.0j, 0.5),
        ("broad", 2.0120 - 0.4823j, 0.005, 2.0 - 0.5j, 0.5),
    )

    def __init__(self, seed):
        self.seed = seed

    def make_input(self, i):
        b_scale, r_scale = _jitter(self.seed, i)
        gauss = _schematic_basis(16, GAUSS_R_MAX * r_scale)
        return {
            "d_wave": (RadialBasisSpec.ho(32, 2, HO_B * b_scale), ALPHA),
            "narrow": (gauss, SCHEMATIC),
            "broad": (gauss, SCHEMATIC),
        }

    def run(self, inp):
        traj = csres.trajectory
        out = {}
        for label, _, _, center, radius in self.cases:
            basis, model = inp[label]
            path = traj.run_trajectory(basis, model, self.thetas, center, radius)
            out[label] = traj.extract_optimal(path)
        return out

    def check(self, inp, out):
        for label, ref, floor, _, _ in self.cases:
            est = out[label]
            dev_re = abs(est.energy.real - ref.real)
            dev_im = abs(est.energy.imag - ref.imag)
            if dev_re > max(floor, est.bin_width_re) or dev_im > max(floor, est.bin_width_im):
                return f"{label}: estimate {est.energy:.4f} too far from {ref}"
        return None

    def close(self):
        pass


class QuantumTrajectory:
    """One statevector theta-trajectory of the narrow resonance, then extract_optimal."""

    name = "quantum-trajectory"
    # a window inside the stationary region: every angle after the first
    # is a warm start
    thetas = np.arange(12.0, 14.0, 0.5)
    reference = 1.1672 - 0.0064j  # criterion 09, bound 0.02 per component
    config = VqaConfig(p=3, init_energy=1.1 - 0.0j, base_seed=21, maxiter=300,
                       warmup_maxiter=120, cost_tol_rel=1e-5)

    def __init__(self, seed):
        self.seed = seed

    def make_input(self, i):
        _, r_scale = _jitter(self.seed, i)
        return _schematic_basis(16, GAUSS_R_MAX * r_scale)

    def run(self, basis):
        traj = csres.trajectory
        path = traj.run_trajectory(basis, SCHEMATIC, self.thetas, 1.17 - 0.0j, 0.5,
                                   engine="quantum", vqa_config=self.config, attempts=2)
        return path, traj.extract_optimal(path)

    def check(self, basis, out):
        path, est = out
        if len(path.points) != len(self.thetas):
            return f"{len(self.thetas) - len(path.points)} angles rejected: {path.log}"
        for point in path.points:
            h = build_scaled_matrix(basis, SCHEMATIC, point.theta_deg).matrix
            dist = np.abs(np.linalg.eigvals(h) - point.energy).min()
            if dist > 1e-3:
                return f"theta={point.theta_deg}: energy {dist:.2e} from every eigenvalue"
        dev = est.energy - self.reference
        if max(abs(dev.real), abs(dev.imag)) > 0.02:
            return f"estimate {est.energy:.4f} too far from {self.reference}"
        return None

    def close(self):
        pass


class OnehotShotScan:
    """``csres spectrum-quantum`` then ``csres filter``, in process, fresh output per op."""

    name = "onehot-shot-scan"
    n_basis, r_max, theta = 5, 4.0, 24.0
    shots = 8192
    # The scan's base seed is fixed: one restart's BFGS work varies
    # thirty-fold with its seed (22 to 2102 iterations measured), so ops
    # with drawn scan seeds would make a run's median read the draw, not
    # the code.  The workload seed sets the filtration seed.
    scan_seed = 7
    config = {
        "model": {"kind": "schematic"},
        "basis": {"family": "gaussian", "n": n_basis, "l": 1, "r1": 1.0, "r_max": r_max},
        "theta": {"value": theta},
        "encoding": "onehot_jw",
        "ansatz": {"p": 3},
        "shots": shots,
        "runs": {"n_runs": 1, "base_seed": scan_seed},
        "scan": {"e_start_re": -1.5, "e_start_im": -0.01, "step": 0.5, "repetitions": 8},
    }

    def __init__(self, seed):
        OUT_ROOT.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT_ROOT))
        self.config_path = self.dir / "scan.yaml"
        self.config_path.write_text(yaml.safe_dump(self.config))
        self.filter_seed = int(np.random.default_rng(seed).integers(1 << 31))
        self.first_artifacts = None
        self.eigenvalues = None

    def make_input(self, i):
        return self.dir / f"op{i}"

    def run(self, out):
        main, cfg = csres.cli.main, str(self.config_path)
        with contextlib.redirect_stdout(io.StringIO()):
            rc_scan = main(["spectrum-quantum", "--config", cfg,
                            "--seed", str(self.scan_seed), "--out", str(out)])
            rc_filter = main(["filter", "--config", cfg, "--seed", str(self.filter_seed),
                              "--out", str(out), "--states", str(out / "states.json")])
        return rc_scan, rc_filter

    def check(self, out, codes):
        if codes != (0, 0):
            return f"exit codes {codes}"
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        if self.first_artifacts is None:
            self.first_artifacts = files
        elif files != self.first_artifacts:
            return "artifacts differ from the first op's, under the same seeds"
        if self.eigenvalues is None:
            basis = _schematic_basis(self.n_basis, self.r_max)
            h = build_scaled_matrix(basis, SCHEMATIC, self.theta).matrix
            self.eigenvalues = np.linalg.eigvals(h)
        states = json.loads(files["states.json"])["states"]
        rows = [ln.split(",") for ln in files["heatmap.csv"].decode().splitlines()
                if not ln.startswith("#")]
        words, rows = rows[0][2:-1], rows[1:]
        if len(rows) != len(states):
            return f"{len(rows)} heatmap rows for {len(states)} states"
        n_physical = 0
        for state, row in zip(states, rows):
            amps = np.array([complex(re, im) for re, im in state["amplitudes"]])
            weight = np.bitwise_count(np.arange(amps.size))
            mass = np.bincount(weight, weights=np.abs(amps) ** 2, minlength=8)
            mass /= mass.sum()
            percent = dict(zip(words, map(float, row[2:-1])))
            for m, p in enumerate(mass):
                got = percent.get(format(m, "03b"), 0.0) / 100.0
                sigma = np.sqrt(p * (1.0 - p) / self.shots)
                if abs(got - p) > 5.0 * sigma + 1e-12:
                    return f"word {m:03b}: {got:.5f} against Hamming-weight mass {p:.5f}"
            if row[-1] == "1":
                n_physical += 1
                energy = complex(state["E_re"], state["E_im"])
                dist = np.abs(self.eigenvalues - energy).min()
                if dist > 0.25:
                    return f"physical state {energy:.3f} lies {dist:.3f} MeV from every eigenvalue"
        if n_physical == 0:
            return "no state labelled physical"
        return None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ClassicalTrajectory, QuantumTrajectory, OnehotShotScan)}
