"""Every public writer of ``csres.artifacts``, byte for byte.

Each writer gets a small fixed input, and its file must equal the bytes
below, which were recorded from the writers before they shared one header
and one write step.  A change to a number format, a column, the header or
the final newline shows here, not only in a rerun.
"""

import numpy as np
import pytest

from csres import artifacts
from csres.filtration import FiltrationReport, FiltrationRow
from csres.trajectory import ResonanceEstimate, ThetaTrajectory, TrajectoryPoint
from csres.vqa import EigenpairEstimate

CONFIG = {"model": {"kind": "schematic"}, "theta": {"value": 24.0}, "shots": 8192}
HEADER = '# config: {"model": {"kind": "schematic"}, "shots": 8192, "theta": {"value": 24.0}}\n'


def _run(energy, cost, converged, iterations, seed, init_energy, state=None):
    return EigenpairEstimate(energy=energy, params=None, cost=cost, converged=converged,
                             iterations=iterations, seed=seed, init_energy=init_energy,
                             state=state)


RUNS = [
    _run(1.1712345678901 - 0.0048123456789j, 1.5e-07, True, 42, 11, -1.0 - 0.01j,
         np.array([0.6, 0.8j, 0.0, 0.0])),
    _run(2.5 - 0.75j, 0.0123, False, 300, 12, -0.2 - 0.01j),
]


def _spectrum(path):
    rows = [(24.0, 1, 0, complex(-0.5123456789012345, 0.0), "bound", 1.234e-14),
            (24.0, 1, 1, complex(1.1710123456789, -0.0049), "resonance-candidate", 3.5e-13),
            (24.0, 1, 2, complex(3.0, -3.2), "continuum", 0.0)]
    return artifacts.write_spectrum_csv(path, rows, CONFIG)


def _trajectory(path):
    traj = ThetaTrajectory(
        points=[TrajectoryPoint(2.0, 1.17 - 0.004j), TrajectoryPoint(3.0, 1.1701 - 0.0045j)],
        log=[(2.0, True, "accepted"),
             (2.5, False, "nearest eigenvalue 3.0000-1.0000j outside neighborhood"),
             (3.0, True, "accepted (warm start)")])
    return artifacts.write_trajectory_csv(path, traj, CONFIG, 5)


def _estimate(path):
    est = ResonanceEstimate(energy=1.1711 - 0.005j, bin_width_re=0.001, bin_width_im=0.0002,
                            counts_re=np.array([1, 1]), counts_im=np.array([2, 0]),
                            n_points=2, bins=2)
    return artifacts.write_estimate_json(path, est, CONFIG)


def _histogram(path):
    return artifacts.write_histogram_csv(path, np.array([3, 0, 1]), 1.1705, 0.001, CONFIG, 5)


def _overlay(path):
    clusters = [{"median": 1.1712 - 0.0048j, "mad": (1e-4, 2e-5), "n_members": 3,
                 "members": RUNS[:1]}]
    return artifacts.write_overlay_csv(path, np.array([1.171 - 0.0049j, 2.0175 - 0.4863j]),
                                       clusters, CONFIG, seed=11)


def _heatmap(path):
    rows = (
        FiltrationRow(energy=1.17 - 0.005j, counts={"001": 8100, "011": 92},
                      percentages={"001": 100 * 8100 / 8192, "011": 100 * 92 / 8192},
                      physical=True),
        FiltrationRow(energy=-0.4 + 0j, counts={"000": 4096, "010": 4096},
                      percentages={"000": 50.0, "010": 50.0}, physical=False),
    )
    return artifacts.write_heatmap_csv(path, FiltrationReport(rows=rows), CONFIG, 7)


def _marker(path):
    marker = {"filtration": "not-applicable", "reason": "states are Gray-code encoded"}
    return artifacts.write_marker_csv(path, marker, CONFIG, 3)


def _runlog(path):
    return artifacts.write_runlog_jsonl(path, RUNS, CONFIG)


def _states(path):
    return artifacts.write_states_json(path, RUNS[:1], 2, CONFIG, seed=11, encoding="onehot_jw")


GOLDEN = {
    "write_spectrum_csv": (
        HEADER
        + 'theta_deg,l,index,E_real_MeV,E_imag_MeV,label,residual\n'
        '24,1,0,-0.512345678901,0,bound,1.234e-14\n'
        '24,1,1,1.17101234568,-0.0049,resonance-candidate,3.500e-13\n'
        '24,1,2,3,-3.2,continuum,0.000e+00\n'
    ),
    "write_trajectory_csv": (
        HEADER
        + '# seed: 5\n'
        'theta_deg,E_re_MeV,E_im_MeV,accepted,reason\n'
        '2,1.17,-0.004,1,accepted\n'
        '2.5,,,0,"nearest eigenvalue 3.0000-1.0000j outside neighborhood"\n'
        '3,1.1701,-0.0045,1,accepted\n'
    ),
    "write_estimate_json": (
        '{\n'
        '  "E_im": -0.005,\n'
        '  "E_re": 1.1711,\n'
        '  "bin_w_im": 0.0002,\n'
        '  "bin_w_re": 0.001,\n'
        '  "bins": 2,\n'
        '  "config": {\n'
        '    "model": {\n'
        '      "kind": "schematic"\n'
        '    },\n'
        '    "shots": 8192,\n'
        '    "theta": {\n'
        '      "value": 24.0\n'
        '    }\n'
        '  },\n'
        '  "n_points": 2\n'
        '}\n'
    ),
    "write_histogram_csv": (
        HEADER
        + '# seed: 5\n'
        'bin_center,count\n'
        '1.1705,3\n'
        '1.1715,0\n'
        '1.1725,1\n'
    ),
    "write_overlay_csv": (
        HEADER
        + '# seed: 11\n'
        'kind,E_re_MeV,E_im_MeV,mad_re,mad_im,n_members\n'
        'classical,1.171,-0.0049,,,\n'
        'classical,2.0175,-0.4863,,,\n'
        'quantum,1.1712,-0.0048,0.0001,2e-05,3\n'
    ),
    "write_heatmap_csv": (
        HEADER
        + '# seed: 7\n'
        'E_re,E_im,000,001,010,011,physical\n'
        '1.17,-0.005,0,98.876953125,0,1.123046875,1\n'
        '-0.4,0,50,0,50,0,0\n'
    ),
    "write_marker_csv": (
        HEADER
        + '# seed: 3\n'
        '# {"filtration": "not-applicable", "reason": "states are Gray-code encoded"}\n'
    ),
    "write_runlog_jsonl": (
        '{"config": {"model": {"kind": "schematic"}, "shots": 8192, "theta": {"value": 24.0}}}\n'
        '{"converged": true, "cost": 1.5e-07, "final_E_im": -0.0048123456789, '
        '"final_E_re": 1.1712345678901, "init_E": [-1.0, -0.01], "iterations": 42, '
        '"seed": 11}\n'
        '{"converged": false, "cost": 0.0123, "final_E_im": -0.75, "final_E_re": 2.5, '
        '"init_E": [-0.2, -0.01], "iterations": 300, "seed": 12}\n'
    ),
    "write_states_json": (
        '{"config": {"model": {"kind": "schematic"}, "shots": 8192, "theta": {"value": 24.0}}, '
        '"encoding": "onehot_jw", "n_qubits": 2, "seed": 11, "states": [{"E_im": '
        '-0.0048123456789, "E_re": 1.1712345678901, "amplitudes": [[0.6, 0.0], [0.0, 0.8], '
        '[0.0, 0.0], [0.0, 0.0]]}]}\n'
    ),
}


BUILD = {
    "write_spectrum_csv": _spectrum,
    "write_trajectory_csv": _trajectory,
    "write_estimate_json": _estimate,
    "write_histogram_csv": _histogram,
    "write_overlay_csv": _overlay,
    "write_heatmap_csv": _heatmap,
    "write_marker_csv": _marker,
    "write_runlog_jsonl": _runlog,
    "write_states_json": _states,
}


def test_every_public_writer_is_pinned():
    assert set(GOLDEN) == set(BUILD) == {n for n in vars(artifacts) if n.startswith("write_")}


@pytest.mark.parametrize("writer", GOLDEN)
def test_writer_bytes(tmp_path, writer):
    path = BUILD[writer](tmp_path / "artifact")
    assert path == tmp_path / "artifact"
    assert path.read_bytes() == GOLDEN[writer].encode()


def test_states_round_trip(tmp_path):
    path = _states(tmp_path / "states.json")
    states, energies, n_qubits, encoding = artifacts.read_states_json(path)
    np.testing.assert_array_equal(states[0], RUNS[0].state)
    assert energies == [RUNS[0].energy]
    assert (n_qubits, encoding) == (2, "onehot_jw")
