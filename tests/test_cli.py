import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from csres.cli import load_config, main
from csres.errors import ConfigError


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.fixture()
def schematic_traj_config(tmp_path):
    doc = {
        "model": {"kind": "schematic"},
        "basis": {"family": "gaussian", "n": 6, "l": 1, "r1": 1.0, "r_max": 5.0},
        "theta": {"start": 2.0, "stop": 20.0, "step": 1.0},
        "neighborhood": {"center_re": 1.17, "center_im": 0.0, "radius": 0.5},
        "bins": 15,
        "out_dir": str(tmp_path / "out"),
    }
    return write_yaml(tmp_path / "traj.yaml", doc)


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {"modle": {"kind": "schematic"}})
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(cfg)

    def test_unknown_nested_key(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {"model": {"kind": "schematic", "oops": 1}})
        with pytest.raises(ConfigError, match="model.oops"):
            load_config(cfg)

    def test_aggregate_radius_is_an_unknown_key(self, tmp_path, capsys):
        # the radius across runs is the constant AGGREGATE_RADIUS, not a setting
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
            "theta": {"value": 24.0},
            "aggregate_radius": 0.25,
            "out_dir": str(tmp_path / "out"),
        }
        assert main(["spectrum-quantum", "--config", write_yaml(tmp_path / "c.yaml", doc)]) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == "unknown config key 'aggregate_radius'"
        assert not (tmp_path / "out").exists()

    def test_exponent_without_dot_is_a_number(self, tmp_path, capsys):
        # YAML 1.1 alone would load these as strings, rejected as quoted numbers
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "model: {kind: schematic}\n"
            "basis: {family: gaussian, n: 4, l: 1, r1: 1e0, r_max: 3E+0}\n"
            "theta: {value: 2.4e1}\n"
            "cost_tol: 1e-6\n"
            f"out_dir: {tmp_path / 'out'}\n"
        )
        config = load_config(cfg)
        assert config["cost_tol"] == 1e-6 and config["basis"]["r_max"] == 3.0
        assert main(["spectrum-classical", "--config", str(cfg)]) == 0

    def test_exit_code_2_on_bad_config(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", {"bogus": 1})
        rc = main(["spectrum-classical", "--config", cfg])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_theta_out_of_range_names_bound(self, tmp_path, capsys):
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 5, "l": 1, "r1": 1.0, "r_max": 4.0},
            "theta": {"value": 50.0},
            "out_dir": str(tmp_path / "o"),
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        rc = main(["spectrum-classical", "--config", cfg])
        assert rc == 2
        assert "45" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("command, override", [
        ("spectrum-quantum", {"ansatz": {"p": "three"}}),
        ("spectrum-classical", {"theta": {"value": "abc"}}),
        ("trajectory", {"bins": "many"}),
        ("spectrum-quantum", {"shots": -5}),
        ("spectrum-quantum", {"scan": {"repetitions": 0}}),
        ("spectrum-quantum", {"runs": {"n_runs": 0}}),
        ("trajectory", {"attempts": 0}),
        ("trajectory", {"engine": "quantm"}),
        ("spectrum-quantum", {"ansatz": {"p": 2.5}}),
        ("spectrum-quantum", {"threads": 2}),
        ("spectrum-classical", {"model": {"kind": "alpha_alpha", "v0": "deep"}}),
        ("trajectory", {"model": {"kind": "alpha_alpha", "z1": [1, 2]}}),
        ("trajectory", {"theta": {"start": 20.0, "stop": 2.0, "step": -1.0}}),
        ("spectrum-classical", {"out_dir": 5}),
        ("spectrum-classical", {"model": {"kind": "alpha_alpha", "hbar2_over_2mu": float("nan")}}),
        ("spectrum-classical", {"model": {"kind": "alpha_alpha", "k": float("inf")}}),
        ("trajectory", {"neighborhood": {"center_re": 1.17, "center_im": 0.0, "radius": -0.5}}),
        ("trajectory", {"neighborhood": {"center_re": 1.17, "center_im": 0.0, "radius": 0}}),
        ("spectrum-quantum", {"cost_tol": -1}),
        ("trajectory", {"engine": "quantum", "cost_tol": 0.0}),
        ("spectrum-quantum", {"scan": {"step": float("nan")}}),
        # shot mode judges convergence by shot_tol_scale, never by cost_tol
        ("spectrum-quantum", {"shots": 1024, "cost_tol": 1e-3}),
        # a quoted number is a string, not a number of its type
        ("spectrum-classical",
         {"basis": {"family": "gaussian", "n": "4", "l": 1, "r1": 1.0, "r_max": 3.0}}),
        ("spectrum-classical", {"theta": {"value": "10"}}),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, override):
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
            "theta": {"value": 24.0},
            "neighborhood": {"center_re": 1.17, "center_im": 0.0, "radius": 0.5},
            "encoding": "onehot_jw",
            "out_dir": str(tmp_path / "out"),
            **override,
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "config"
        assert "Traceback" not in err


    @pytest.mark.parametrize("command, override, message", [
        ("spectrum-classical", {"theta": {"start": 1.0, "stop": 1e9, "step": 1e-9}}, "points"),
        ("spectrum-quantum", {"basis": {"family": "ho", "n": 40, "l": 0, "b": 1.36}}, "qubits"),
        # 2e11 panels out to 4.5 r_max: counted, never built
        ("spectrum-classical",
         {"basis": {"family": "gaussian", "n": 16, "l": 1, "r1": 1.0, "r_max": 1e9}},
         "quadrature"),
    ])
    def test_oversized_request_is_config_error(self, tmp_path, capsys, command, override,
                                               message):
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
            "theta": {"value": 24.0},
            "encoding": "onehot_jw",
            "out_dir": str(tmp_path / "out"),
            **override,
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        assert main([command, "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and message in err["message"]

    def test_theta_just_below_45_runs(self, tmp_path, capsys):
        # the largest double below 45 passes the range check; the rotated
        # nodes' angle rounds to 45 degrees, which the assembly never re-checks
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
            "theta": {"value": 44.99999999999999},
            "out_dir": str(tmp_path / "out"),
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["spectrum-classical", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "wrote" in captured.out
        assert (tmp_path / "out" / "spectrum.csv").exists()

    @pytest.mark.parametrize("via", ["out_dir", "--out"])
    def test_out_path_that_is_a_file_is_config_error(self, tmp_path, capsys, via):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
            "theta": {"value": 24.0},
        }
        if via == "out_dir":
            doc["out_dir"] = str(taken)
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        argv = ["spectrum-classical", "--config", cfg]
        assert main(argv + (["--out", str(taken)] if via == "--out" else [])) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "config"
        assert "Traceback" not in err


@pytest.mark.parametrize("command, flags, named", [
    ("spectrum-classical", ["--seed", "3"], "--seed"),
    ("spectrum-classical", ["--exact"], "--exact"),
    ("spectrum-classical", ["--states", "STATES"], "--states"),
    ("spectrum-quantum", ["--states", "STATES"], "--states"),
    ("trajectory", ["--states", "STATES"], "--states"),
    ("filter", ["--exact", "--states", "STATES"], "--exact"),
    ("filter", [], "--states"),
    # a trajectory runs on exact expectations, and a classical one draws no seed
    ("trajectory", ["--exact"], "--exact"),
    ("trajectory", ["--seed", "3"], "--seed"),
    ("trajectory", ["--config", "QUANTUM"], "shots"),
])
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flags,
                                                        named):
    # the config and states file are valid for every command: only the flag is wrong
    # (the last --config wins: QUANTUM is the same config with engine: quantum)
    out = tmp_path / "out"
    doc = {
        "model": {"kind": "schematic"},
        "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
        "theta": {"value": 24.0},
        "neighborhood": {"center_re": 1.56, "center_im": 0.55, "radius": 0.5},
        "encoding": "onehot_jw",
        "ansatz": {"p": 2},
        "shots": 1024,
        "scan": {"e_start_re": -1.0, "e_start_im": -0.01, "step": 0.8, "repetitions": 2},
        "out_dir": str(out),
    }
    files = {"STATES": tmp_path / "states.json",
             "QUANTUM": write_yaml(tmp_path / "q.yaml", {**doc, "engine": "quantum"})}
    amps = [[1.0 if k == 1 else 0.0, 0.0] for k in range(16)]
    files["STATES"].write_text(json.dumps({"n_qubits": 4, "encoding": "onehot_jw", "states": [
        {"E_re": 1.0, "E_im": -0.01, "amplitudes": amps}]}))
    argv = [command, "--config", write_yaml(tmp_path / "c.yaml", doc)]
    assert main(argv + [str(files.get(f, f)) for f in flags]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    message = json.loads(err)
    assert message["error"] == "config" and named in message["message"]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("shots", 1024), ("encoding", "onehot_jw"), ("cost_tol", 0.5), ("ansatz", {"p": 2}),
    ("scan", {"e_start_re": 1.0}), ("runs", {"base_seed": 5}), ("attempts", 2),
])
@pytest.mark.parametrize("engine", [{}, {"engine": "classical"}])
def test_classical_trajectory_refuses_quantum_keys(tmp_path, capsys, schematic_traj_config,
                                                   key, value, engine):
    # a classical trajectory reads none of these: it exits 2 naming the key
    # before it makes any directory
    doc = {**yaml.safe_load(Path(schematic_traj_config).read_text()), **engine, key: value}
    cfg = write_yaml(tmp_path / "c.yaml", doc)
    assert main(["trajectory", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    message = json.loads(err)
    assert message["error"] == "config" and message["message"].startswith(key)
    assert not Path(doc["out_dir"]).exists()


class TestSpectrumClassical:
    def test_writes_spectrum_with_labels(self, tmp_path, capsys):
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 6, "l": 1, "r1": 1.0, "r_max": 5.0},
            "theta": {"value": 24.0},
            "out_dir": str(tmp_path / "out"),
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["spectrum-classical", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        header = lines[1]
        assert header == "theta_deg,l,index,E_real_MeV,E_imag_MeV,label,residual"
        body = [ln for ln in lines[2:] if ln]
        assert len(body) == 6
        labels = {ln.split(",")[5] for ln in body}
        assert labels <= {"bound", "continuum", "resonance-candidate"}

    def test_theta_zero_all_real(self, tmp_path):
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 5, "l": 0, "r1": 1.0, "r_max": 4.0},
            "theta": {"value": 0.0},
            "out_dir": str(tmp_path / "out"),
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["spectrum-classical", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[2:]
        imag = [abs(float(r.split(",")[4])) for r in rows if r]
        assert max(imag) < 1e-8

    def test_reads_the_trajectory_config(self, schematic_traj_config, capsys):
        # a config carries the keys of every stage on its problem: the
        # spectra along a trajectory's theta grid read its neighborhood and
        # bins as given, and ignore them
        assert main(["spectrum-classical", "--config", schematic_traj_config]) == 0
        out = Path(yaml.safe_load(Path(schematic_traj_config).read_text())["out_dir"])
        body = (out / "spectrum.csv").read_text().splitlines()[2:]
        assert len(body) == 18 * 6  # theta 2, 3, ..., 19 and six eigenvalues each

    def test_rerun_is_bit_identical(self, tmp_path, schematic_traj_config):
        assert main(["trajectory", "--config", schematic_traj_config]) == 0
        out = Path(yaml.safe_load(Path(schematic_traj_config).read_text())["out_dir"])
        first = (out / "trajectory.csv").read_bytes()
        assert main(["trajectory", "--config", schematic_traj_config]) == 0
        assert (out / "trajectory.csv").read_bytes() == first


class TestTrajectoryCommand:
    def test_artifacts_complete(self, tmp_path, schematic_traj_config, capsys):
        assert main(["trajectory", "--config", schematic_traj_config]) == 0
        out = Path(yaml.safe_load(Path(schematic_traj_config).read_text())["out_dir"])
        est = json.loads((out / "estimate.json").read_text())
        for key in ("E_re", "E_im", "bin_w_re", "bin_w_im", "n_points", "bins"):
            assert key in est
        assert est["bins"] == 15
        traj_lines = (out / "trajectory.csv").read_text().splitlines()
        assert traj_lines[1] == "theta_deg,E_re_MeV,E_im_MeV,accepted,reason"
        hist = (out / "histogram_re.csv").read_text().splitlines()
        assert hist[1] == "bin_center,count"
        counts = sum(int(ln.split(",")[1]) for ln in hist[2:] if ln)
        assert counts == est["n_points"]

    def test_quantum_histograms_carry_the_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
            "theta": {"start": 10.0, "stop": 12.0, "step": 1.0},
            "neighborhood": {"center_re": 1.17, "center_im": 0.0, "radius": 0.5},
            "engine": "quantum",
            "ansatz": {"p": 2},
            "attempts": 2,
            "runs": {"base_seed": 5},
            "scan": {"e_start_re": 1.0, "e_start_im": 0.0},
            "bins": 5,
            "out_dir": str(out),
        }
        cfg = write_yaml(tmp_path / "q.yaml", doc)
        assert main(["trajectory", "--config", cfg]) == 0
        for name in ("trajectory.csv", "histogram_re.csv", "histogram_im.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith("# config: ")
            assert lines[1] == "# seed: 5"


class TestQuantumPipeline:
    def test_spectrum_quantum_then_filter(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
            "theta": {"value": 24.0},
            "encoding": "onehot_jw",
            "ansatz": {"p": 2},
            "runs": {"n_runs": 1, "base_seed": 11},
            "scan": {"e_start_re": -1.0, "e_start_im": -0.01, "step": 0.8,
                     "repetitions": 5},
            "cost_tol": 0.001,
            "out_dir": str(out),
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["spectrum-quantum", "--config", cfg, "--exact"]) == 0
        overlay = [
            ln for ln in (out / "spectrum_overlay.csv").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        assert overlay[0] == "kind,E_re_MeV,E_im_MeV,mad_re,mad_im,n_members"
        kinds = {ln.split(",")[0] for ln in overlay[1:]}
        assert kinds == {"classical", "quantum"}
        assert (out / "runs.jsonl").exists()
        record = json.loads((out / "runs.jsonl").read_text().splitlines()[1])
        for key in ("seed", "init_E", "final_E_re", "final_E_im", "cost",
                    "iterations", "converged"):
            assert key in record
        # filtration consumes the states file
        assert main([
            "filter", "--config", cfg, "--states", str(out / "states.json"),
        ]) == 0
        heat = [
            ln for ln in (out / "heatmap.csv").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        assert heat[0].startswith("E_re,E_im,")
        assert heat[0].endswith(",physical")

    def test_zero_converged_is_numerical_failure(self, tmp_path, capsys):
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
            "theta": {"value": 24.0},
            "ansatz": {"p": 1},
            "runs": {"n_runs": 1, "base_seed": 1},
            "scan": {"e_start_re": 90.0, "e_start_im": -0.01, "step": 0.1,
                     "repetitions": 2},
            "cost_tol": 1e-30,
            "out_dir": str(tmp_path / "o"),
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        rc = main(["spectrum-quantum", "--config", cfg, "--exact"])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numerical"


class TestNumericalFailure:
    HO = {"family": "ho", "n": 4, "l": 0, "b": 1.36}
    OVERFLOWING = {"kind": "alpha_alpha", "v0": 1e308, "k": 1e-300}

    @pytest.mark.filterwarnings("error")  # a warning would print before the JSON line
    @pytest.mark.parametrize("command, model, basis", [
        # the HO kinetic term divides by b^2 and b^4
        ("spectrum-classical", {"kind": "alpha_alpha"}, {**HO, "b": 1e-200}),
        ("spectrum-classical", {"kind": "alpha_alpha"}, {**HO, "b": 1e200}),
        # non-finite matrix elements fail the finiteness check
        ("spectrum-classical", {"kind": "schematic"},
         {"family": "gaussian", "n": 4, "l": 1, "r1": 1e-300, "r_max": 15.0}),
        ("spectrum-classical", OVERFLOWING, HO),
        ("trajectory", OVERFLOWING, HO),
    ])
    def test_unevaluable_matrix_exits_3(self, tmp_path, capsys, command, model, basis):
        doc = {
            "model": model,
            "basis": basis,
            "theta": {"start": 10.0, "stop": 12.0, "step": 1.0},
            "neighborhood": {"center_re": 1.17, "center_im": 0.0, "radius": 0.5},
            "engine": "quantum",
            "out_dir": str(tmp_path / "out"),
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        assert main([command, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "numerical" and "is not finite" in err
        assert "Traceback" not in err


class TestFilterGrayMarker:
    def test_gray_states_not_applicable(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = {
            "model": {"kind": "schematic"},
            "basis": {"family": "gaussian", "n": 4, "l": 1, "r1": 1.0, "r_max": 3.0},
            "theta": {"value": 24.0},
            "encoding": "gray",
            "ansatz": {"p": 2},
            "runs": {"n_runs": 1, "base_seed": 3},
            "scan": {"e_start_re": -1.0, "e_start_im": -0.01, "step": 0.8,
                     "repetitions": 4},
            "cost_tol": 0.001,
            "out_dir": str(out),
        }
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["spectrum-quantum", "--config", cfg, "--exact"]) == 0
        assert main(["filter", "--config", cfg,
                     "--states", str(out / "states.json")]) == 0
        lines = (out / "heatmap.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "# seed: 3"
        assert json.loads(lines[2][2:])["filtration"] == "not-applicable"


class TestFilterInputs:
    def _config(self, tmp_path):
        return write_yaml(tmp_path / "f.yaml", {"model": {"kind": "schematic"},
                                                 "shots": 1024,
                                                 "out_dir": str(tmp_path / "out")})

    def test_eight_qubit_onehot_states(self, tmp_path, capsys):
        # eight qubits need four ancillas to hold Hamming weights 0..8
        n = 8
        states = []
        for k in range(3):
            amps = np.zeros(2**n)
            amps[1 << k] = 1.0
            states.append({"E_re": 1.0 + k, "E_im": -0.01, "amplitudes": [[a, 0.0] for a in amps]})
        path = tmp_path / "states.json"
        path.write_text(json.dumps({"n_qubits": n, "encoding": "onehot_jw", "states": states}))
        assert main(["filter", "--config", self._config(tmp_path), "--seed", "5",
                     "--states", str(path)]) == 0
        heat = [ln for ln in (tmp_path / "out" / "heatmap.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert heat[0] == "E_re,E_im,0001,physical"
        assert [ln.split(",")[-1] for ln in heat[1:]] == ["1", "1", "1"]

    @pytest.mark.parametrize("content", [
        None, '{"states": []}', "not json",
        '{"n_qubits": 2, "states": [{"E_re": 0, "E_im": 0, "amplitudes": [[1, 0]]}]}',
        '{"n_qubits": 1, "states": [{"E_re": 0, "E_im": 0, "amplitudes": [[0, 0], [0, 0]]}]}',
        '{"n_qubits": 1, "states": [{"E_re": 0, "E_im": 0, "amplitudes": [[NaN, 0], [1, 0]]}]}',
        '{"n_qubits": 1, '
        '"states": [{"E_re": 0, "E_im": 0, "amplitudes": [[1, 0], [0, Infinity]]}]}',
        '{"n_qubits": 1, "encoding": "bogus", '
        '"states": [{"E_re": 0, "E_im": 0, "amplitudes": [[1, 0], [0, 0]]}]}',
    ])
    def test_bad_states_file_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "states.json"
        if content is not None:
            path.write_text(content)
        assert main(["filter", "--config", self._config(tmp_path),
                     "--states", str(path)]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "config"
        assert "Traceback" not in err


def test_cli_import_leaves_heavy_modules_unloaded():
    # start-up is interpreter start plus imports; none of these is needed
    # to run a command, so a fresh `import csres.cli` must not pull them in
    heavy = ("scipy.stats", "scipy.integrate", "matplotlib", "pandas")
    code = f"import sys, csres.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(__file__).parent,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert out.stdout.strip() == "[]"
