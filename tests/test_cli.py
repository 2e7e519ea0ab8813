"""CLI contract: exit codes, strict config validation, deterministic files."""

import csv
import json

import numpy as np
import pytest

from trafficlab.cli import DEMO_CONFIG, main


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(DEMO_CONFIG))
    return path


TRAJ_HEADER = "t,vehicle,x,v\n"
FIELD_HEADER = "t,x,k,v,q\n"


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExitCodes:
    def test_success(self, demo_config, tmp_path):
        assert run(["fd", "--config", demo_config, "--out", tmp_path / "o"]) == 0

    def test_missing_config_file(self, tmp_path):
        assert run(["fd", "--config", tmp_path / "nope.json",
                    "--out", tmp_path]) == 2

    def test_missing_parameter_names_path(self, tmp_path, capsys):
        doc = {"fd": {"kind": "triangular", "v_f": 20.0, "w": 5.0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["fd", "--config", path, "--out", tmp_path]) == 2
        assert "fd.k_j" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = {"fd": {"kind": "triangular", "v_f": 20.0, "w": 5.0, "k_j": 0.2,
                      "extra": 1.0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["fd", "--config", path, "--out", tmp_path]) == 2
        assert "fd.extra" in capsys.readouterr().err

    def test_cfl_violation_names_dt(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEMO_CONFIG))
        doc["pde"]["dt"] = 50.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["simulate-pde", "--config", path, "--out", tmp_path]) == 2
        assert "pde.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("model, sweep, path", [
        pytest.param({"name": "ovm", "T": 0.4}, {"param": "bogus", "values": [0.4]},
                     "stability.sweep.param", id="unknown-param"),
        pytest.param({"name": "gfm", "T": 2.0, "T_brake": 0.5, "d": 2.0,
                      "tau": 1.0, "R": 5.0},
                     {"param": "T_brake", "values": [0.5, 3.0]},
                     "stability.sweep.values[1]", id="value-breaks-model"),
    ])
    def test_bad_stability_sweep_names_path(self, tmp_path, capsys, model, sweep,
                                            path):
        doc = json.loads(json.dumps(DEMO_CONFIG))
        doc["model"] = model
        doc["stability"]["sweep"] = sweep
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        assert run(["stability", "--config", cfg, "--out", tmp_path]) == 2
        assert path in capsys.readouterr().err

    def test_runtime_fault_is_exit_one(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEMO_CONFIG))
        # two vehicles crammed below the jam spacing: the run must abort
        doc["sim"] = {"method": "rk4", "dt": 0.02, "steps": 200,
                      "boundary": {"kind": "constant", "v0": 0.0},
                      "initial": {"n_vehicles": 2, "spacing": 5.2, "speed": 19.0}}
        path = tmp_path / "crash.json"
        path.write_text(json.dumps(doc))
        assert run(["simulate-cf", "--config", path, "--out", tmp_path]) == 1
        assert "CollisionError" in capsys.readouterr().err

    @pytest.mark.parametrize("direction, text", [
        pytest.param("to_eulerian", TRAJ_HEADER + "0,0,10,1\n0,2,0,1\n",
                     id="vehicle-id-gap"),
        pytest.param("to_eulerian", TRAJ_HEADER, id="trajectory-header-only"),
        pytest.param("to_eulerian", "", id="trajectory-empty"),
        pytest.param("to_eulerian", TRAJ_HEADER + "".join(
            f"{t},0,{10 + t},1\n{t},1,{t},1\n" for t in (0, 1, 3)),
            id="trajectory-uneven-t"),
        pytest.param("to_eulerian", TRAJ_HEADER + "0,0,ten,1\n",
                     id="trajectory-non-numeric"),
        pytest.param("to_eulerian", None, id="trajectory-missing-file"),
        pytest.param("to_eulerian", TRAJ_HEADER + "0,0,0,1\n0,1,10,1\n",
                     id="trajectory-out-of-order"),
        pytest.param("to_trajectories", FIELD_HEADER, id="field-header-only"),
        pytest.param("to_trajectories", "", id="field-empty"),
        pytest.param("to_trajectories", FIELD_HEADER + "".join(
            f"{t},{x},0.1,1,0.1\n" for t in (0, 1, 3) for x in (5, 15)),
            id="field-uneven-t"),
        pytest.param("to_trajectories", FIELD_HEADER + "".join(
            f"{t},{x},0.1,1,0.1\n" for t in (0, 1) for x in (5, 15, 35)),
            id="field-uneven-x"),
        pytest.param("to_trajectories", FIELD_HEADER + "0,5,0.1,1,0.1\n"
                     "0,15,0.1,1,0.1\n1,5,0.1,1,0.1\n", id="field-missing-sample"),
    ])
    def test_malformed_transform_input(self, tmp_path, capsys, direction, text):
        data = tmp_path / "input.csv"
        if text is not None:
            data.write_text(text)
        transform = {"direction": direction, "input": str(data)}
        if direction == "to_eulerian":
            transform.update(x0=-50.0, dx=10.0, cells=10)
        else:
            transform["n_vehicles"] = 1
        cfg = tmp_path / "transform.json"
        cfg.write_text(json.dumps({"transform": transform}))
        assert run(["transform", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "transform.input" in capsys.readouterr().err


class TestOutputs:
    def test_fd_csv_shape_and_capacity(self, demo_config, tmp_path):
        run(["fd", "--config", demo_config, "--out", tmp_path])
        rows = read_csv(tmp_path / "fd.csv")
        assert rows[0] == ["k", "q", "v"]
        assert len(rows) == 1002
        q = np.array([float(r[1]) for r in rows[1:]])
        assert q.max() == pytest.approx(0.8, rel=1e-12)

    def test_fd_csv_parabola_peaks_at_half_jam(self, tmp_path):
        doc = {"fd": {"kind": "greenshields", "v_f": 20.0, "k_j": 0.2}}
        cfg = tmp_path / "gs.json"
        cfg.write_text(json.dumps(doc))
        run(["fd", "--config", cfg, "--out", tmp_path])
        rows = read_csv(tmp_path / "fd.csv")
        k = np.array([float(r[0]) for r in rows[1:]])
        q = np.array([float(r[1]) for r in rows[1:]])
        assert k[np.argmax(q)] == pytest.approx(0.1, abs=1e-9)

    def test_steady_csv(self, demo_config, tmp_path):
        run(["steady", "--config", demo_config, "--out", tmp_path])
        rows = read_csv(tmp_path / "steady.csv")
        assert rows[0] == ["k", "v", "q"]
        assert len(rows) == 51

    def test_stability_sweep_flips_verdict(self, demo_config, tmp_path):
        run(["stability", "--config", demo_config, "--out", tmp_path])
        rows = read_csv(tmp_path / "stability.csv")
        header = rows[0]
        t_col = header.index("T")
        stable_col = header.index("classic_stable")
        verdicts = {}
        for row in rows[1:]:
            verdicts.setdefault(float(row[t_col]), set()).add(row[stable_col])
        assert verdicts[0.4] == {"true"}
        assert verdicts[0.6] == {"false"}

    def test_simulate_and_transform_round_trip(self, demo_config, tmp_path):
        run(["simulate-cf", "--config", demo_config, "--out", tmp_path])
        traj = tmp_path / "trajectories.csv"
        assert read_csv(traj)[0] == ["t", "vehicle", "x", "v"]
        doc = json.loads(json.dumps(DEMO_CONFIG))
        doc["transform"] = {"direction": "to_eulerian", "input": str(traj),
                            "x0": -200.0, "dx": 12.5, "cells": 80}
        cfg = tmp_path / "transform.json"
        cfg.write_text(json.dumps(doc))
        assert run(["transform", "--config", cfg, "--out", tmp_path / "t"]) == 0
        field_rows = read_csv(tmp_path / "t" / "field.csv")
        assert field_rows[0] == ["t", "x", "k", "v", "q"]

    def test_third_order_model_records_acceleration(self, tmp_path):
        doc = json.loads(json.dumps(DEMO_CONFIG))
        doc["model"] = {"name": "third_order", "t_delay": 0.5,
                        "inner": {"name": "ovm", "T": 0.5}}
        doc["sim"] = {"method": "rk4", "dt": 0.05, "steps": 50,
                      "boundary": {"kind": "constant", "v0": 7.5},
                      "initial": {"n_vehicles": 4, "spacing": 12.5,
                                  "speed": 7.5}}
        cfg = tmp_path / "third.json"
        cfg.write_text(json.dumps(doc))
        assert run(["simulate-cf", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "trajectories.csv")
        assert rows[0] == ["t", "vehicle", "x", "v", "a"]

    def test_simulate_pde(self, demo_config, tmp_path):
        assert run(["simulate-pde", "--config", demo_config,
                    "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "field.csv")
        assert rows[0] == ["t", "x", "k", "v", "q"]

    def test_seed_demo_round_trips_through_validation(self, tmp_path):
        assert run(["--seed-demo", "--out", tmp_path]) == 0
        seeded = tmp_path / "demo_scenario.json"
        assert run(["fd", "--config", seeded, "--out", tmp_path]) == 0

    def test_compare_writes_summary_and_reports(self, tmp_path):
        doc = json.loads(json.dumps(DEMO_CONFIG))
        doc["suite"]["entries"] = doc["suite"]["entries"][:2]
        doc["suite"]["resolutions"] = [10, 20]
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(doc))
        assert run(["compare", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "summary.csv")
        assert len(rows) == 5  # 2 entries x 2 resolutions + header
        assert (tmp_path / "reports").is_dir()
        assert len(list((tmp_path / "reports").iterdir())) == 4


class TestDeterminism:
    def test_byte_identical_outputs(self, demo_config, tmp_path):
        for cmd in ("fd", "steady", "simulate-cf", "simulate-pde"):
            run([cmd, "--config", demo_config, "--out", tmp_path / "a"])
            run([cmd, "--config", demo_config, "--out", tmp_path / "b"])
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
