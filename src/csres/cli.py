"""Configuration-driven command-line front end.

Subcommands: ``spectrum-classical``, ``spectrum-quantum``, ``trajectory``
and ``filter``.  Runs are described by a YAML document validated against a
fixed schema (unknown keys rejected).  Exit codes: 0 success, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from . import artifacts
from .basis import RadialBasisSpec
from .errors import ConfigError, CsresError, NumericalError
from .hamiltonian import (
    PotentialModel,
    build_raw_matrices,
    build_scaled_matrix,
    classify_spectrum,
    solve_spectrum,
)
from .filtration import filtration_report, required_ancillas
from .trajectory import extract_optimal, run_trajectory
from .vqa import (
    VqaConfig,
    aggregate_spectra,
    encode_matrix,
    run_log_record,
    scan_spectrum,
)

_SCHEMA = {
    "model": {"kind", "v0", "k", "beta", "z1", "z2", "e2", "hbar2_over_2mu"},
    "basis": {"family", "n", "l", "r1", "r_max", "b"},
    "theta": {"value", "start", "stop", "step"},
    "encoding": None,
    "ansatz": {"p"},
    "shots": None,
    "runs": {"n_runs", "base_seed"},
    "scan": {"e_start_re", "e_start_im", "step", "repetitions"},
    "neighborhood": {"center_re", "center_im", "radius"},
    "bins": None,
    "engine": None,
    "attempts": None,
    "cost_tol": None,
    "aggregate_radius": None,
    "out_dir": None,
    "threads": None,
}


def load_config(path) -> dict:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if allowed is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must be a mapping")
            for sub in value:
                if sub not in allowed:
                    raise ConfigError(f"unknown config key {key}.{sub}")
    return raw


def _basis_from(config) -> RadialBasisSpec:
    b = config.get("basis")
    if not b:
        raise ConfigError("config needs a 'basis' section")
    try:
        family = b["family"]
        if family == "gaussian":
            return RadialBasisSpec.gaussian(int(b["n"]), int(b["l"]),
                                            float(b["r1"]), float(b["r_max"]))
        if family == "ho":
            return RadialBasisSpec.ho(int(b["n"]), int(b["l"]), float(b["b"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid basis section: {exc}") from exc
    raise ConfigError(f"unknown basis family {b.get('family')!r}")


def _model_from(config) -> PotentialModel:
    m = config.get("model")
    if not m:
        raise ConfigError("config needs a 'model' section")
    kind = m.get("kind")
    overrides = {k: v for k, v in m.items() if k != "kind"}
    try:
        if kind == "schematic":
            if overrides:
                raise ConfigError("schematic model takes no parameters")
            return PotentialModel.schematic()
        if kind == "alpha_alpha":
            return PotentialModel.alpha_alpha(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model section: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


def _theta_grid(config):
    t = config.get("theta")
    if not t:
        raise ConfigError("config needs a 'theta' section")
    if "value" in t:
        value = float(t["value"])
        if not 0.0 <= value < 45.0:
            raise ConfigError("theta must lie inside [0, 45) degrees")
        return np.array([value])
    try:
        grid = np.arange(float(t["start"]), float(t["stop"]), float(t["step"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid theta section: {exc}") from exc
    if grid.size == 0:
        raise ConfigError("theta grid is empty")
    if grid[0] < 0.0 or grid[-1] >= 45.0:
        raise ConfigError("theta grid must lie inside [0, 45) degrees")
    return grid


def _vqa_from(config, seed_override=None, exact=False) -> VqaConfig:
    runs = config.get("runs", {})
    scan = config.get("scan", {})
    vqa = VqaConfig(
        encoding=config.get("encoding", "gray"),
        p=int(config.get("ansatz", {}).get("p", 3)),
        shots=None if exact else config.get("shots"),
        n_runs=int(runs.get("n_runs", 1)),
        base_seed=int(seed_override if seed_override is not None
                      else runs.get("base_seed", 7)),
        init_energy=complex(float(scan.get("e_start_re", 0.0)),
                            float(scan.get("e_start_im", 0.0))),
        scan_step=float(scan.get("step", 0.4)),
        repetitions=int(scan.get("repetitions", 20)),
    )
    if config.get("cost_tol") is not None:
        vqa.cost_tol = float(config["cost_tol"])
    if vqa.encoding not in ("gray", "onehot_jw"):
        raise ConfigError(f"unknown encoding {vqa.encoding!r}")
    return vqa


def _neighborhood(config):
    nb = config.get("neighborhood")
    if not nb:
        raise ConfigError("config needs a 'neighborhood' section")
    center = complex(float(nb.get("center_re", 0.0)), float(nb.get("center_im", 0.0)))
    return center, float(nb.get("radius", 0.5))


def _out_dir(config, args):
    out = Path(args.out if args.out else config.get("out_dir", "results"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_spectrum_classical(config, args):
    basis = _basis_from(config)
    model = _model_from(config)
    thetas = _theta_grid(config)
    out = _out_dir(config, args)
    rows = []
    for theta in thetas:
        h_raw, s = build_raw_matrices(basis, model, float(theta))
        spectrum = solve_spectrum(h_raw, overlap=s)
        labels = (
            classify_spectrum(spectrum.energies, float(theta))
            if theta > 0.0
            else ["real-axis"] * len(spectrum.energies)
        )
        for idx, (e, lab, res) in enumerate(
            zip(spectrum.energies, labels, spectrum.residuals)
        ):
            rows.append((float(theta), basis.l, idx, e, lab, res))
    artifacts.write_spectrum_csv(out / "spectrum.csv", rows, config)
    print(f"wrote {out / 'spectrum.csv'} ({len(rows)} rows)")
    return 0


def _scan_one_run(h_sum, vqa, run_index):
    cfg = VqaConfig(**{**vqa.__dict__,
                       "base_seed": vqa.base_seed + run_index * vqa.repetitions})
    return scan_spectrum(h_sum, cfg)


def cmd_spectrum_quantum(config, args):
    basis = _basis_from(config)
    model = _model_from(config)
    thetas = _theta_grid(config)
    if thetas.size != 1:
        raise ConfigError("spectrum-quantum expects a single theta value")
    vqa = _vqa_from(config, args.seed, args.exact)
    out = _out_dir(config, args)
    sh = build_scaled_matrix(basis, model, float(thetas[0]))
    h_sum = encode_matrix(sh.matrix, vqa.encoding)
    classical = solve_spectrum(sh.matrix).energies
    threads = int(args.threads or config.get("threads") or 1)
    run_ids = list(range(vqa.n_runs))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_run = list(pool.map(lambda r: _scan_one_run(h_sum, vqa, r), run_ids))
    else:
        per_run = [_scan_one_run(h_sum, vqa, r) for r in run_ids]
    clusters = aggregate_spectra(per_run, radius=float(config.get("aggregate_radius", 0.25)))
    if not clusters:
        raise NumericalError("no variational run converged")
    artifacts.write_overlay_csv(out / "spectrum_overlay.csv", classical, clusters,
                                config, seed=vqa.base_seed)
    records = [run_log_record(e) for run in per_run for e in run]
    artifacts.write_runlog_jsonl(out / "runs.jsonl", records, config)
    reps = [cl["members"][0] for cl in clusters]
    artifacts.write_states_json(out / "states.json", reps, h_sum.n_qubits, config,
                                seed=vqa.base_seed, encoding=vqa.encoding)
    print(f"wrote {out / 'spectrum_overlay.csv'} ({len(clusters)} quantum clusters)")
    return 0


def cmd_trajectory(config, args):
    basis = _basis_from(config)
    model = _model_from(config)
    thetas = _theta_grid(config)
    center, radius = _neighborhood(config)
    engine = config.get("engine", "classical")
    out = _out_dir(config, args)
    vqa = None
    if engine == "quantum":
        vqa = _vqa_from(config, args.seed, args.exact)
        if config.get("cost_tol") is None:
            vqa.cost_tol_rel = 1e-5  # finite-depth ansatz floor, see README
    traj = run_trajectory(
        basis, model, thetas, center, radius, engine=engine, vqa_config=vqa,
        attempts=int(config.get("attempts", 3)),
    )
    est = extract_optimal(traj, bins=int(config.get("bins", 25)))
    seed = vqa.base_seed if vqa else None
    artifacts.write_trajectory_csv(out / "trajectory.csv", traj, config, seed)
    artifacts.write_estimate_json(out / "estimate.json", est, config, seed)
    energies = traj.energies
    artifacts.write_histogram_csv(
        out / "histogram_re.csv", est.counts_re,
        energies.real.min() + 0.5 * est.bin_width_re, est.bin_width_re, config)
    artifacts.write_histogram_csv(
        out / "histogram_im.csv", est.counts_im,
        energies.imag.min() + 0.5 * est.bin_width_im, est.bin_width_im, config)
    print(f"wrote {out / 'estimate.json'}: E = {est.energy.real:.4f} "
          f"{est.energy.imag:+.4f}i MeV from {est.n_points} points")
    return 0


def cmd_filter(config, args):
    if not args.states:
        raise ConfigError("filter needs --states FILE from spectrum-quantum")
    try:
        states, energies, n_qubits, encoding = artifacts.read_states_json(args.states)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"cannot read states file {args.states}: {type(exc).__name__}: {exc}") from exc
    if not (isinstance(n_qubits, int) and n_qubits >= 1) or any(
            len(state) != 2**n_qubits for state in states):
        raise ConfigError(f"states file {args.states}: n_qubits must be a positive "
                          "integer and every state must hold 2^n_qubits amplitudes")
    out = _out_dir(config, args)
    if encoding == "gray":
        # occupation numbers have no per-qubit meaning in the Gray register
        marker = {"filtration": "not-applicable",
                  "reason": "states are Gray-code encoded"}
        (out / "heatmap.csv").write_text(
            "# " + json.dumps(marker) + "\n", encoding="utf-8")
        print("filtration not applicable to Gray-code states")
        return 0
    seed = int(args.seed if args.seed is not None
               else config.get("runs", {}).get("base_seed", 7))
    report = filtration_report(
        states, energies,
        n_r=required_ancillas(n_qubits),
        shots=int(config.get("shots") or 8192),
        seed=seed,
    )
    artifacts.write_heatmap_csv(out / "heatmap.csv", report, config, seed)
    n_phys = sum(row.physical for row in report.rows)
    print(f"wrote {out / 'heatmap.csv'}: {n_phys}/{len(report.rows)} states physical")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csres",
        description="Resonance poles of complex-scaled Hamiltonians, classical and variational",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("spectrum-classical", cmd_spectrum_classical),
        ("spectrum-quantum", cmd_spectrum_quantum),
        ("trajectory", cmd_trajectory),
        ("filter", cmd_filter),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override base seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--exact", action="store_true", help="force exact expectations")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--states", default=None, help="states JSON (filter command)")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(config, args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except (NumericalError, CsresError) as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
