"""Plot-ready CSV/JSON artifacts with reproducibility headers.

Every file starts with comment lines embedding the fully resolved run
configuration and seed, so a rerun with the same header is bit-identical
(given seeds, in shot mode).  This module owns every file format the
command line writes or reads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _fmt(x):
    return f"{x:.12g}"


def _write_lines(path, lines, config, seed=None):
    """Write the ``# config`` (and ``# seed``) header, then ``lines``; return the path."""
    header = [f"# config: {json.dumps(config, sort_keys=True, default=str)}"]
    if seed is not None:
        header.append(f"# seed: {seed}")
    path = Path(path)
    path.write_text("\n".join(header + lines) + "\n")
    return path


def _write_json(path, payload, config, seed=None, indent=None):
    """Write ``payload`` with ``config`` and, given one, ``seed`` added; return the path."""
    payload["config"] = config
    if seed is not None:
        payload["seed"] = seed
    path = Path(path)
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True, default=str) + "\n")
    return path


def write_spectrum_csv(path, rows, config, seed=None):
    """Spectrum rows: (theta_deg, l, index, energy, label, residual)."""
    lines = ["theta_deg,l,index,E_real_MeV,E_imag_MeV,label,residual"]
    for theta, l, idx, energy, label, residual in rows:
        lines.append(
            f"{_fmt(theta)},{l},{idx},{_fmt(energy.real)},{_fmt(energy.imag)},"
            f"{label},{residual:.3e}"
        )
    return _write_lines(path, lines, config, seed)


def write_trajectory_csv(path, traj, config, seed=None):
    """One row per grid theta: accepted points carry energies, rejections a reason."""
    lines = ["theta_deg,E_re_MeV,E_im_MeV,accepted,reason"]
    accepted = {p.theta_deg: p.energy for p in traj.points}
    for theta, ok, reason in traj.log:
        if ok:
            e = accepted[theta]
            lines.append(f"{_fmt(theta)},{_fmt(e.real)},{_fmt(e.imag)},1,accepted")
        else:
            lines.append(f'{_fmt(theta)},,,0,"{reason}"')
    return _write_lines(path, lines, config, seed)


def write_estimate_json(path, estimate, config, seed=None):
    payload = {
        "E_re": estimate.energy.real,
        "E_im": estimate.energy.imag,
        "bin_w_re": estimate.bin_width_re,
        "bin_w_im": estimate.bin_width_im,
        "n_points": estimate.n_points,
        "bins": estimate.bins,
    }
    return _write_json(path, payload, config, seed, indent=2)


def write_histogram_csv(path, counts, lo_center, width, config, seed=None):
    lines = ["bin_center,count"]
    counts = np.asarray(counts)
    for i, c in enumerate(counts):
        lines.append(f"{_fmt(lo_center + i * width)},{int(c)}")
    return _write_lines(path, lines, config, seed)


def write_overlay_csv(path, classical_energies, clusters, config, seed=None):
    """Classical eigenvalues next to aggregated quantum clusters."""
    lines = ["kind,E_re_MeV,E_im_MeV,mad_re,mad_im,n_members"]
    for e in classical_energies:
        lines.append(f"classical,{_fmt(e.real)},{_fmt(e.imag)},,,")
    for cl in clusters:
        med, mad = cl["median"], cl["mad"]
        lines.append(
            f"quantum,{_fmt(med.real)},{_fmt(med.imag)},{_fmt(mad[0])},"
            f"{_fmt(mad[1])},{cl['n_members']}"
        )
    return _write_lines(path, lines, config, seed)


def write_heatmap_csv(path, report, config, seed=None):
    """Filtration heatmap: one row per state, one column per ancilla word."""
    words = report.words
    lines = ["E_re,E_im," + ",".join(words) + ",physical"]
    for row in report.rows:
        cells = ",".join(_fmt(row.percentages.get(w, 0.0)) for w in words)
        lines.append(
            f"{_fmt(row.energy.real)},{_fmt(row.energy.imag)},{cells},"
            f"{int(row.physical)}"
        )
    return _write_lines(path, lines, config, seed)


def write_marker_csv(path, marker, config, seed=None):
    """An artifact with no rows: the header, then ``marker`` as one JSON comment line."""
    return _write_lines(path, ["# " + json.dumps(marker)], config, seed)


def write_runlog_jsonl(path, estimates, config):
    """The config as one JSON line, then one line per variational run (an EigenpairEstimate)."""
    lines = [json.dumps({"config": config}, sort_keys=True, default=str)]
    for est in estimates:
        record = {
            "seed": est.seed,
            "init_E": [est.init_energy.real, est.init_energy.imag],
            "final_E_re": est.energy.real,
            "final_E_im": est.energy.imag,
            "cost": est.cost,
            "iterations": est.iterations,
            "converged": est.converged,
        }
        lines.append(json.dumps(record, sort_keys=True))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_states_json(path, estimates, n_qubits, config, seed=None, encoding=None):
    """Converged eigenstates with energies, for the filtration command."""
    payload = {
        "n_qubits": n_qubits,
        "encoding": encoding,
        "states": [
            {
                "E_re": est.energy.real,
                "E_im": est.energy.imag,
                "amplitudes": [[a.real, a.imag] for a in est.state],
            }
            for est in estimates
        ],
    }
    return _write_json(path, payload, config, seed)


def read_states_json(path):
    data = json.loads(Path(path).read_text())
    states = [
        np.array([complex(re, im) for re, im in s["amplitudes"]])
        for s in data["states"]
    ]
    energies = [complex(s["E_re"], s["E_im"]) for s in data["states"]]
    return states, energies, data["n_qubits"], data.get("encoding")
