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
from dataclasses import replace
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
    solve_energies,
    solve_spectrum,
)
from .filtration import filtration_report, required_ancillas
from .trajectory import CLASSICAL, QUANTUM, extract_optimal, run_trajectory
from .vqa import (
    GRAY,
    ONEHOT_JW,
    VarianceCost,
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


_REQUIRED = object()


def _number(config, path, kind, default=_REQUIRED, minimum=None):
    """The config value at ``path`` ("key" or "section.key") as ``kind``.

    ``kind`` is int or float.  A missing or null value gives ``default``;
    without one it is a ConfigError.  A value that is not a number of that
    kind, or lies below ``minimum``, is a ConfigError.
    """
    section, _, key = path.rpartition(".")
    value = ((config.get(section) or {}) if section else config).get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"config needs {path}")
        return default
    # int() would read true as 1 and truncate 2.5 to 2
    bad = isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer())
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        bad = True
    if bad:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value!r}")
    return number


def _basis_from(config) -> RadialBasisSpec:
    b = config.get("basis")
    if not b:
        raise ConfigError("config needs a 'basis' section")
    family = b.get("family")
    n, l = _number(config, "basis.n", int), _number(config, "basis.l", int)
    try:
        if family == "gaussian":
            return RadialBasisSpec.gaussian(n, l, _number(config, "basis.r1", float),
                                            _number(config, "basis.r_max", float))
        if family == "ho":
            return RadialBasisSpec.ho(n, l, _number(config, "basis.b", float))
    except ValueError as exc:
        raise ConfigError(f"invalid basis section: {exc}") from exc
    raise ConfigError(f"unknown basis family {family!r}")


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
        value = _number(config, "theta.value", float)
        if not 0.0 <= value < 45.0:
            raise ConfigError("theta must lie inside [0, 45) degrees")
        return np.array([value])
    start, stop, step = (_number(config, f"theta.{k}", float) for k in ("start", "stop", "step"))
    try:
        grid = np.arange(start, stop, step)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid theta section: {exc}") from exc
    if grid.size == 0:
        raise ConfigError("theta grid is empty")
    if grid[0] < 0.0 or grid[-1] >= 45.0:
        raise ConfigError("theta grid must lie inside [0, 45) degrees")
    return grid


def _base_seed(config, seed_override):
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed_override}")
        return seed_override
    return _number(config, "runs.base_seed", int, VqaConfig.base_seed, minimum=0)


def _vqa_from(config, seed_override=None, exact=False) -> VqaConfig:
    encoding = config.get("encoding", VqaConfig.encoding)
    if encoding not in (GRAY, ONEHOT_JW):
        raise ConfigError(f"unknown encoding {encoding!r}")
    shots = _number(config, "shots", int, None, minimum=1)  # None: exact expectations
    return VqaConfig(
        encoding=encoding,
        p=_number(config, "ansatz.p", int, VqaConfig.p, minimum=1),
        shots=None if exact else shots,
        n_runs=_number(config, "runs.n_runs", int, VqaConfig.n_runs, minimum=1),
        base_seed=_base_seed(config, seed_override),
        init_energy=complex(
            _number(config, "scan.e_start_re", float, VqaConfig.init_energy.real),
            _number(config, "scan.e_start_im", float, VqaConfig.init_energy.imag)),
        scan_step=_number(config, "scan.step", float, VqaConfig.scan_step),
        repetitions=_number(config, "scan.repetitions", int, VqaConfig.repetitions,
                            minimum=1),
        cost_tol=_number(config, "cost_tol", float, VqaConfig.cost_tol),
    )


def _neighborhood(config):
    nb = config.get("neighborhood")
    if not nb:
        raise ConfigError("config needs a 'neighborhood' section")
    center = complex(_number(config, "neighborhood.center_re", float, 0.0),
                     _number(config, "neighborhood.center_im", float, 0.0))
    return center, _number(config, "neighborhood.radius", float, 0.5)


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


def cmd_spectrum_quantum(config, args):
    basis = _basis_from(config)
    model = _model_from(config)
    thetas = _theta_grid(config)
    if thetas.size != 1:
        raise ConfigError("spectrum-quantum expects a single theta value")
    vqa = _vqa_from(config, args.seed, args.exact)
    radius = _number(config, "aggregate_radius", float, 0.25)
    out = _out_dir(config, args)
    sh = build_scaled_matrix(basis, model, float(thetas[0]))
    vc = VarianceCost(encode_matrix(sh.matrix, vqa.encoding))  # one for every run
    classical = solve_energies(sh.matrix)
    per_run = [scan_spectrum(vc, replace(vqa, base_seed=vqa.base_seed + r * vqa.repetitions))
               for r in range(vqa.n_runs)]
    clusters = aggregate_spectra(per_run, radius=radius)
    if not clusters:
        raise NumericalError("no variational run converged")
    artifacts.write_overlay_csv(out / "spectrum_overlay.csv", classical, clusters,
                                config, seed=vqa.base_seed)
    records = [run_log_record(e) for run in per_run for e in run]
    artifacts.write_runlog_jsonl(out / "runs.jsonl", records, config)
    reps = [cl["members"][0] for cl in clusters]
    artifacts.write_states_json(out / "states.json", reps, vc.n_qubits, config,
                                seed=vqa.base_seed, encoding=vqa.encoding)
    print(f"wrote {out / 'spectrum_overlay.csv'} ({len(clusters)} quantum clusters)")
    return 0


def cmd_trajectory(config, args):
    basis = _basis_from(config)
    model = _model_from(config)
    thetas = _theta_grid(config)
    center, radius = _neighborhood(config)
    engine = config.get("engine", CLASSICAL)
    if engine not in (CLASSICAL, QUANTUM):
        raise ConfigError(f"unknown engine {engine!r}")
    attempts = _number(config, "attempts", int, 3, minimum=1)
    bins = _number(config, "bins", int, 25, minimum=1)
    vqa = None
    if engine == QUANTUM:
        vqa = _vqa_from(config, args.seed, args.exact)
        if config.get("cost_tol") is None:
            vqa.cost_tol_rel = 1e-5  # finite-depth ansatz floor, see README
    out = _out_dir(config, args)
    traj = run_trajectory(
        basis, model, thetas, center, radius, engine=engine, vqa_config=vqa,
        attempts=attempts,
    )
    est = extract_optimal(traj, bins=bins)
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
    shots = _number(config, "shots", int, 8192, minimum=1)
    seed = _base_seed(config, args.seed)
    if encoding == GRAY:
        # occupation numbers have no per-qubit meaning in the Gray register
        marker = {"filtration": "not-applicable",
                  "reason": "states are Gray-code encoded"}
        (out / "heatmap.csv").write_text(
            "# " + json.dumps(marker) + "\n", encoding="utf-8")
        print("filtration not applicable to Gray-code states")
        return 0
    report = filtration_report(
        states, energies, n_r=required_ancillas(n_qubits), shots=shots, seed=seed)
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
