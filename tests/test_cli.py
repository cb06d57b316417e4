import json

import numpy as np
import pytest

from tnpmc.cli import main


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    header = next(ln for ln in lines if not ln.startswith("#"))
    rows = [ln.split(",") for ln in lines[len(comments) + 1 :]]
    return comments, header.split(","), rows


def amplitude_damping_config(**overrides):
    cfg = {
        "command": "simulate",
        "model": {
            "dim": 2,
            "channels": [{"label": "decay", "rate": 1.0, "op": "sigma_minus"}],
        },
        "initial_state": [[0.0, 0.0], [1.0, 0.0]],
        "dt": 1e-2,
        "t_final": 0.5,
        "n_trajectories": 300,
        "seed": 17,
        "record_every": 10,
    }
    cfg.update(overrides)
    return cfg


def test_simulate_tp_trace_is_one(tmp_path):
    cfg_path = write_config(tmp_path, amplitude_damping_config())
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    comments, header, rows = read_csv(out / "results.csv")
    assert any(c.startswith("# config_sha256=") for c in comments)
    assert any(c.startswith("# seed=") for c in comments)
    trace_col = header.index("trace_estimate")
    assert all(float(r[trace_col]) == 1.0 for r in rows)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 17
    assert "config_sha256" in meta and "versions" in meta
    results = json.loads((out / "results.json").read_text())
    assert results["columns"] == header


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, amplitude_damping_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()


def test_threads_do_not_change_results(tmp_path):
    cfg_path = write_config(tmp_path, amplitude_damping_config(n_trajectories=500))
    outs = []
    for i, threads in enumerate((1, 4)):
        out = tmp_path / f"t{i}"
        assert main(["--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]) == 0
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_seed_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, amplitude_damping_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out2), "--seed", "99"]) == 0
    meta = json.loads((out2 / "meta.json").read_text())
    assert meta["seed"] == 99
    assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


def test_unknown_key_rejected(tmp_path):
    cfg = amplitude_damping_config()
    cfg["mystery"] = True
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2


def test_unknown_command_and_missing_config(tmp_path):
    cfg_path = write_config(tmp_path, {"command": "fly"})
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def test_step_too_large_exit_code(tmp_path):
    cfg = amplitude_damping_config(dt=0.5, t_final=1.0)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3


def test_negative_probability_exit_code(tmp_path):
    cfg = amplitude_damping_config()
    cfg["model"]["channels"][0]["rate"] = {
        "kind": "sinusoid", "amplitude": 1.0, "frequency": 2.0,
    }
    cfg["model"]["gamma"] = {"kind": "lindblad_plus_identity", "shift": 0.3}
    cfg["t_final"] = 1.5
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3


def test_reverse_jump_without_host_exit_code(tmp_path, capsys):
    cfg = amplitude_damping_config(reverse_jumps=True, t_final=1.2, initial_state=[[0.7071, 0.0], [0.7071, 0.0]])
    cfg["model"]["channels"][0]["rate"] = {"kind": "sinusoid", "amplitude": 1.0, "frequency": 2.0}
    cfg["model"]["gamma"] = {"kind": "lindblad_plus_identity", "shift": 0.3}
    cfg["model"]["hamiltonian"] = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    assert "NoSourceState" in capsys.readouterr().err


def test_exact_command(tmp_path):
    cfg = {
        "command": "exact",
        "model": {
            "dim": 2,
            "channels": [{"rate": 1.0, "op": "sigma_minus"}],
        },
        "initial_state": [[0.0, 0.0], [1.0, 0.0]],
        "dt": 1e-3,
        "t_final": 1.0,
        "record_every": 250,
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "results.csv")
    pop = header.index("pop_1")
    assert float(rows[-1][pop]) == pytest.approx(np.exp(-1.0), abs=1e-7)


def test_divisibility_command_adjoint(tmp_path):
    cfg = {
        "command": "divisibility",
        "heisenberg": {
            "eps": 20.0,
            "gamma_minus": {"kind": "sinusoid", "amplitude": 0.9, "frequency": 40.0, "offset": 1.0},
            "gamma_plus": {"kind": "exponential", "value": 0.5, "rate": -1.0},
        },
        "adjoint": True,
        "dt": 2e-3,
        "t_final": 0.3,
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "results.csv")
    mins = [float(r[header.index("min_choi_eig")]) for r in rows]
    norms = [float(r[header.index("max_bloch_norm")]) for r in rows]
    assert min(mins) < -1e-6
    assert max(norms) > 1.0 + 1e-6


def test_divisibility_config_validation(tmp_path):
    cfg = {"command": "divisibility", "dt": 0.1, "t_final": 1.0}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_moments_command_small(tmp_path):
    cfg = {
        "command": "moments",
        "n_trajectories": 200,
        "n_towers": 4,
        "k_max": 2,
        "t_final": 0.6,
        "record_every": 20,
        "n_max": 14,
        "zeta_list": [-0.02, 0.02],
        "seed": 7,
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "results.csv")
    assert header[:3] == ["t", "mu_1", "mu_2"]
    results = json.loads((out / "results.json").read_text())
    assert "tilted" in results
    assert results["tilted"]["columns"] == ["t", "zeta", "trace_est", "trace_exact"]


def test_heisenberg_command_small(tmp_path):
    cfg = {
        "command": "heisenberg",
        "n_trajectories": 200,
        "t_final": 0.2,
        "record_every": 50,
        "n_groups": 4,
        "seed": 3,
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "results.csv")
    assert header == ["t", "x_est", "z_est", "x_exact", "z_exact", "trace_est", "trace_exact", "distinct_states"]


def test_heisenberg_command_rejects_an_unknown_method(tmp_path, capsys):
    cfg = {"command": "heisenberg", "n_trajectories": 20, "t_final": 0.01, "record_every": 1, "n_groups": 1,
           "method": "RO"}
    assert main(["--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "out")]) == 2
    assert "unknown method 'RO'" in capsys.readouterr().err


def test_heisenberg_command_names_custom_observables(tmp_path):
    sigma_z = [[1.0, 0.0], [0.0, -1.0]]
    cfg = {"command": "heisenberg", "n_trajectories": 100, "t_final": 0.02, "record_every": 10, "n_groups": 2,
           "observables": ["sigma_x", sigma_z, sigma_z], "seed": 4}
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "results.csv")
    assert header == ["t", "x_est", "custom_1_est", "custom_2_est", "x_exact", "custom_1_exact", "custom_2_exact",
                      "trace_est", "trace_exact", "distinct_states"]
    assert all(row[5] == row[6] for row in rows)  # the same observable, each from its own ensembles


def test_heisenberg_command_takes_a_complex_custom_observable(tmp_path):
    # sigma_y as [re, im] pairs, the matrix form of the config schema, equals the builtin sigma_y
    sigma_y = [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
    base = {"command": "heisenberg", "n_trajectories": 100, "t_final": 0.02, "record_every": 10, "n_groups": 2,
            "seed": 4}
    tables = []
    for observables in (["sigma_y"], [sigma_y]):
        out = tmp_path / f"out{len(tables)}"
        cfg = dict(base, observables=observables)
        assert main(["--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        tables.append(read_csv(out / "results.csv"))
    (_, builtin_header, builtin_rows), (_, custom_header, custom_rows) = tables
    assert builtin_header[1:3] == ["y_est", "y_exact"] and custom_header[1:3] == ["custom_0_est", "custom_0_exact"]
    assert custom_rows == builtin_rows
