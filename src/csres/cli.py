"""Configuration-driven command-line front end.

Subcommands: ``spectrum-classical``, ``spectrum-quantum``, ``trajectory``
and ``filter``.  Runs are described by a YAML document validated against a
fixed schema (unknown keys rejected).  Exit codes: 0 success, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import artifacts
from .basis import N_PER_PANEL, RadialBasisSpec, quadrature_size
from .encoding import gray_qubits
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

MAX_THETA_POINTS = 10_000  # a theta grid longer than this is a config error
MAX_QUBITS = 12  # the dense encoded matrix of 12 qubits takes 256 MiB
# basis.n times the nodes of the node-doubled quadrature grid; 3.5 M values
# (Gaussian n = 16, r_max = 1000 fm) peaked at 183 MB in one assembly
MAX_GRID_VALUES = 4_000_000


class _Loader(yaml.SafeLoader):
    """Safe loading that reads ``1e-6`` and ``1.0e6`` as floats, as YAML 1.2 does."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config(path) -> dict:
    try:
        raw = yaml.load(Path(path).read_text(), Loader=_Loader)
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
    without one it is a ConfigError.  A value that is not a finite number
    of that kind, or lies below ``minimum``, is a ConfigError.
    """
    section, _, key = path.rpartition(".")
    value = ((config.get(section) or {}) if section else config).get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"config needs {path}")
        return default
    # int() would read true as 1 and "4" as 4, and truncate 2.5 to 2
    bad = isinstance(value, (bool, str)) or (
        kind is int and isinstance(value, float) and not value.is_integer())
    try:
        number = kind(value)
        bad = bad or not math.isfinite(number)  # an int past float range overflows
    except (TypeError, ValueError, OverflowError):
        bad = True
    if bad:
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value!r}")
    return number


def _positive(config, path, default=_REQUIRED):
    """The float at ``path`` (see :func:`_number`), which must be > 0."""
    value = _number(config, path, float, default)
    if not value > 0.0:
        raise ConfigError(f"{path} must be > 0, got {value!r}")
    return value


def _basis_from(config) -> RadialBasisSpec:
    b = config.get("basis")
    if not b:
        raise ConfigError("config needs a 'basis' section")
    family = b.get("family")
    n, l = _number(config, "basis.n", int), _number(config, "basis.l", int)
    try:
        if family == "gaussian":
            spec = RadialBasisSpec.gaussian(n, l, _number(config, "basis.r1", float),
                                            _number(config, "basis.r_max", float))
        elif family == "ho":
            spec = RadialBasisSpec.ho(n, l, _number(config, "basis.b", float))
        else:
            raise ConfigError(f"unknown basis family {family!r}")
    except ValueError as exc:
        raise ConfigError(f"invalid basis section: {exc}") from exc
    # counted before any grid is built, like the theta grid and the register
    size = spec.n * quadrature_size(spec, 2 * N_PER_PANEL)
    if not size <= MAX_GRID_VALUES:
        raise ConfigError(f"basis needs {size:.3g} basis values on its quadrature grid, "
                          f"more than {MAX_GRID_VALUES}")
    return spec


def _model_from(config) -> PotentialModel:
    m = config.get("model")
    if not m:
        raise ConfigError("config needs a 'model' section")
    kind = m.get("kind")
    names = [k for k in m if k != "kind"]
    try:
        if kind == "schematic":
            if names:
                raise ConfigError("schematic model takes no parameters")
            return PotentialModel.schematic()
        if kind == "alpha_alpha":
            return PotentialModel.alpha_alpha(**{
                k: _number(config, f"model.{k}", int if k in ("z1", "z2") else float)
                for k in names})
    except ValueError as exc:
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
    start, stop = (_number(config, f"theta.{k}", float) for k in ("start", "stop"))
    step = _positive(config, "theta.step")
    # size and range from np.arange's own length rule, before it allocates
    span = (stop - start) / step
    if not span <= MAX_THETA_POINTS:  # also an overflow to inf
        raise ConfigError(f"theta grid has more than {MAX_THETA_POINTS} points")
    count = math.ceil(span)
    if count < 1:
        raise ConfigError("theta grid is empty")
    if start < 0.0 or start + (count - 1) * step >= 45.0:
        raise ConfigError("theta grid must lie inside [0, 45) degrees")
    return np.arange(start, stop, step)


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
    if shots is not None and not exact and config.get("cost_tol") is not None:
        raise ConfigError("cost_tol applies to exact expectations only (no shots, or --exact)")
    return VqaConfig(
        encoding=encoding,
        p=_number(config, "ansatz.p", int, VqaConfig.p, minimum=1),
        shots=None if exact else shots,
        base_seed=_base_seed(config, seed_override),
        init_energy=complex(
            _number(config, "scan.e_start_re", float, VqaConfig.init_energy.real),
            _number(config, "scan.e_start_im", float, VqaConfig.init_energy.imag)),
        scan_step=_number(config, "scan.step", float, VqaConfig.scan_step),
        repetitions=_number(config, "scan.repetitions", int, VqaConfig.repetitions,
                            minimum=1),
        cost_tol=_positive(config, "cost_tol", VqaConfig.cost_tol),
    )


def _check_register(basis, vqa):
    """ConfigError if the encoded register is too large for its dense matrix."""
    n_qubits = basis.n if vqa.encoding == ONEHOT_JW else gray_qubits(basis.n)
    if n_qubits > MAX_QUBITS:
        raise ConfigError(f"{vqa.encoding} encoding of {basis.n} basis states needs "
                          f"{n_qubits} qubits, more than {MAX_QUBITS}")


def _neighborhood(config):
    nb = config.get("neighborhood")
    if not nb:
        raise ConfigError("config needs a 'neighborhood' section")
    center = complex(_number(config, "neighborhood.center_re", float, 0.0),
                     _number(config, "neighborhood.center_im", float, 0.0))
    return center, _positive(config, "neighborhood.radius", 0.5)


def _out_dir(config, args):
    out = args.out if args.out else config.get("out_dir", "results")
    if not isinstance(out, str):
        raise ConfigError(f"out_dir must be a path, got {out!r}")
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the output directory: {exc}") from exc
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
    _check_register(basis, vqa)
    n_runs = _number(config, "runs.n_runs", int, 1, minimum=1)
    radius = _positive(config, "aggregate_radius", 0.25)
    out = _out_dir(config, args)
    sh = build_scaled_matrix(basis, model, float(thetas[0]))
    vc = VarianceCost(encode_matrix(sh.matrix, vqa.encoding))  # one for every run
    classical = solve_energies(sh.matrix)
    per_run = [scan_spectrum(vc, replace(vqa, base_seed=vqa.base_seed + r * vqa.repetitions))
               for r in range(n_runs)]
    clusters = aggregate_spectra(per_run, radius=radius)
    if not clusters:
        raise NumericalError("no variational run converged")
    artifacts.write_overlay_csv(out / "spectrum_overlay.csv", classical, clusters,
                                config, seed=vqa.base_seed)
    artifacts.write_runlog_jsonl(out / "runs.jsonl", [e for run in per_run for e in run], config)
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
        _check_register(basis, vqa)
        if config.get("cost_tol") is None:  # finite-depth ansatz floor, see README
            vqa = replace(vqa, cost_tol_rel=1e-5)
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
        energies.real.min() + 0.5 * est.bin_width_re, est.bin_width_re, config, seed)
    artifacts.write_histogram_csv(
        out / "histogram_im.csv", est.counts_im,
        energies.imag.min() + 0.5 * est.bin_width_im, est.bin_width_im, config, seed)
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
    if encoding not in (None, GRAY, ONEHOT_JW):
        raise ConfigError(f"states file {args.states}: unknown encoding {encoding!r}")
    for i, state in enumerate(states):
        if not 0.0 < np.sum(np.abs(state) ** 2) < math.inf:  # also a NaN amplitude
            raise ConfigError(f"states file {args.states}: state {i} needs finite "
                              "amplitudes that are not all zero")
    out = _out_dir(config, args)
    shots = _number(config, "shots", int, 8192, minimum=1)
    seed = _base_seed(config, args.seed)
    if encoding == GRAY:
        # occupation numbers have no per-qubit meaning in the Gray register
        artifacts.write_marker_csv(out / "heatmap.csv", {
            "filtration": "not-applicable", "reason": "states are Gray-code encoded"},
            config, seed)
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
