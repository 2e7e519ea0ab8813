"""CLI contract: exit codes, strict config validation, deterministic files."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from trafficlab import (ConfigurationError, EquivalenceReport, EulerianField,
                        StabilityReport, SteadyStateCurve, TrajectorySurface, cli)
from trafficlab import config as cfgmod, equivalence
from trafficlab.cli import (DEMO_CONFIG, STABILITY_CSV_COLUMNS, SUMMARY_COLUMNS, main,
                            read_field_csv, read_trajectory_csv, write_field_csv,
                            write_stability_csv, write_summary_csv, write_trajectory_csv)
from trafficlab.stability import StabilityMapRow
from trafficlab.transforms import SpatialGrid

from conftest import assert_bits_equal


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(DEMO_CONFIG))
    return path


# The demo's stability grid with no sweep, for models that take no T.
UNSWEPT = {key: value for key, value in DEMO_CONFIG["stability"].items() if key != "sweep"}


def above_jam(section, model):
    """Config changes: ``model``, and ``section``'s k_max above the demo's jam
    density 0.2."""
    change = {"model": model, "stability": UNSWEPT}
    return change | {section: {**change.get(section, DEMO_CONFIG[section]), "k_max": 0.25}}


THIRD_ORDER = {"name": "third_order", "t_delay": 2.0, "inner": {"name": "ovm", "T": 0.4}}


def perturbed(amplitude, **boundary):
    """The demo's sim section with its perturbation's relative amplitude set,
    and on the given leader profile if one is given."""
    sim = json.loads(json.dumps(DEMO_CONFIG["sim"]))
    sim["initial"]["perturbation"]["relative_amplitude"] = amplitude
    if boundary:
        sim["boundary"] = boundary
    return sim


def with_waves(section, waves):
    """The demo's ``sim`` or ``pde`` section with its sine's waves set."""
    change = json.loads(json.dumps(DEMO_CONFIG[section]))
    (change["initial"]["perturbation"] if section == "sim" else change["initial"])["waves"] = waves
    return {section: change}


def ringed(resolutions=None, **change):
    """The demo's suite section with its ring values changed."""
    suite = {**DEMO_CONFIG["suite"], "ring": {**DEMO_CONFIG["suite"]["ring"], **change}}
    return {"suite": suite | ({"resolutions": resolutions} if resolutions else {})}


def with_entry(i, amplitude=None, **model):
    """The demo's suite section with entry i's model values, or its amplitude, set."""
    suite = json.loads(json.dumps(DEMO_CONFIG["suite"]))
    suite["entries"][i]["model"].update(model)
    if amplitude is not None:
        suite["entries"][i]["amplitude"] = amplitude
    return {"suite": suite}


# Each refusal of a suite, and the continuum batch calls made before it: the CFL
# check is the continuum solver's own, before its first step. A steady state, a
# ring of no vehicles and a reordering amplitude exited 0 or 1 with no path.
SUITE_REFUSALS = {
    "dt_cf-guard": (ringed(dt_cf=0.05),
                    "suite.ring.dt_cf: dt=0.05 exceeds stability guard 0.04 for ovm", 0),
    # the stable IDM arm breaks the continuum CFL limit, as simulate-pde would
    "dt_pde-cfl": (ringed([40], horizon=12.0, compare_points=4, dt_pde=1.5),
                   "suite.ring.dt_pde: CFL number 1.251 exceeds 0.9", 1),
    "compare_points": (ringed(compare_points=7),
                       "suite.ring.compare_points: must divide both step counts", 0),
    "k0-vehicle-count": (ringed(k0=0.0805),
                         "suite.ring.k0: circumference * k0 must be a whole vehicle count", 0),
    "no-steady-state": (with_entry(4, d=20.0), "suite.entries[4].model: idm has no "
                        "unique steady state at k0=0.08 (no_root)", 0),
    "no-vehicle": (ringed(circumference=1e-9),
                   "suite.ring.k0: circumference * k0 must be a whole vehicle count >= 1", 0),
    "ring-amplitude-reorders": (ringed(amplitude=1.5), "suite.ring.amplitude: ring "
                                "platoon gaps must be positive and fit the circumference", 0),
    "entry-amplitude-reorders": (with_entry(0, amplitude=1.5), "suite.entries[0].amplitude: "
                                 "ring platoon gaps must be positive", 0),
}

OVERLAP = "sim.initial.perturbation.relative_amplitude: "
LWR_ABOVE_JAM = {"kind": "uniform", "k": 0.25}  # the demo's jam density is 0.2
SINE_BELOW_ZERO = {**DEMO_CONFIG["pde"]["initial"], "relative_amplitude": 1.5}

TRAJ_HEADER = "t,vehicle,x,v\n"
FIELD_HEADER = "t,x,k,v,q\n"


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def transform_config(directory, direction, data, **settings):
    transform = {"direction": direction, "input": str(data)}
    if direction == "to_eulerian":
        transform.update(x0=-50.0, dx=10.0, cells=10)
    else:
        transform["n_vehicles"] = 1
    transform.update(settings)
    cfg = Path(directory) / "transform.json"
    cfg.write_text(json.dumps({"transform": transform}))
    return cfg


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400],
                             ids=["nan", "inf", "int-beyond-float"])
    def test_non_finite_config_number_names_path(self, tmp_path, capsys, value):
        """json reads NaN, Infinity and huge integers; none may reach a solver."""
        doc = json.loads(json.dumps(DEMO_CONFIG))
        doc["pde"]["boundary"] = {"kind": "inflow", "k_in": value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["simulate-pde", "--config", path, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "pde.boundary.k_in" in err and "finite" in err
        assert not (tmp_path / "o" / "field.csv").exists()

    def test_deeply_nested_config(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"fd": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run(["fd", "--config", cfg, "--out", tmp_path]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("model, sweep, drop, path", [
        pytest.param({"name": "ovm", "T": 0.4}, {"param": "bogus", "values": [0.4]},
                     (), "stability.sweep.param", id="unknown-param"),
        pytest.param({"name": "gfm", "T": 2.0, "T_brake": 0.5, "d": 2.0,
                      "tau": 1.0, "R": 5.0},
                     {"param": "T_brake", "values": [0.5, 3.0]},
                     (), "stability.sweep.values[1]", id="value-breaks-model"),
        pytest.param({"name": "ovm", "T": 0.4}, {"param": "T", "values": [0.4]},
                     ("fd",), "model: model 'ovm' requires an fd section",
                     id="model-needs-fd"),
    ])
    def test_bad_stability_sweep_names_path(self, tmp_path, capsys, model, sweep,
                                            drop, path):
        doc = json.loads(json.dumps(DEMO_CONFIG))
        doc["model"] = model
        doc["stability"]["sweep"] = sweep
        for section in drop:
            del doc[section]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        assert run(["stability", "--config", cfg, "--out", tmp_path]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("command, change, path", [
        pytest.param("simulate-cf", {"sim": {**DEMO_CONFIG["sim"], "boundary": "ring"}},
                     "sim.boundary: must be an object", id="string-ring-boundary"),
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "boundary": {
            "kind": "inflow", "k_in": 0.5}}}, "pde.boundary.k_in", id="k_in-above-k_j"),
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "solver": "second_order",
                                              "boundary": {"kind": "inflow", "k_in": 0.05}}},
                     "pde.boundary.v_in", id="second-order-inflow-without-v_in"),
        pytest.param("compare", {"fd": None},
                     "suite.entries[0].model: model 'ovm' requires an fd section",
                     id="suite-model-needs-fd"),
        # sizes beyond the cap are refused before NumPy tries to allocate them
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "steps": 10**12}},
                     "pde.steps: must be <=", id="huge-pde-steps"),
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "cells": 10**12}},
                     "pde.cells: must be <=", id="huge-pde-cells"),
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "steps": 10**400}},
                     "pde.steps: must be <=", id="pde-steps-beyond-float"),
        pytest.param("simulate-cf", {"sim": {**DEMO_CONFIG["sim"], "steps": 10**12}},
                     "sim.steps: must be <=", id="huge-sim-steps"),
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "steps": 10**6,
                                              "record_every": 1}},
                     "pde.steps: (steps // record_every + 1) * cells", id="pde-records"),
        pytest.param("simulate-cf", {"sim": {**DEMO_CONFIG["sim"], "steps": 3 * 10**6}},
                     "sim.steps: (steps + 1) * initial.n_vehicles", id="sim-records"),
        pytest.param("simulate-cf", {"fd": {"kind": "greenshields", "v_f": 20.0, "k_j": 0.2},
                                     "sim": {**DEMO_CONFIG["sim"], "method": "newell",
                                             "boundary": {"kind": "constant", "v0": 3.75}}},
                     "sim.method: spacing-rule simulators need a triangular fd",
                     id="newell-on-greenshields-fd"),
        pytest.param("simulate-cf", {"fd": {"kind": "tabulated", "table": [
            [0.0, 0.0], [0.05, 0.5], [0.2, 0.0]]}, "sim": {
                **DEMO_CONFIG["sim"], "method": "pipes",
                "boundary": {"kind": "constant", "v0": 3.75}}},
                     "sim.method: spacing-rule simulators need a triangular fd",
                     id="pipes-on-tabulated-fd"),
        pytest.param("simulate-cf", {"sim": {**DEMO_CONFIG["sim"], "method": "newell"}},
                     "sim.boundary: spacing-rule simulators need a leader profile",
                     id="newell-on-ring"),
        pytest.param("simulate-cf", {"sim": {**DEMO_CONFIG["sim"], "method": "pipes",
                                             "dt": 1.5,
                                             "boundary": {"kind": "constant", "v0": 3.75}}},
                     "sim.dt: dt=1.5 violates the vehicle-information bound 1",
                     id="pipes-dt-above-time-gap"),
        pytest.param("fd", {"output": {"dir": "."}}, "output: unknown section",
                     id="output-section"),
        # above the jam density a law built on the fd has no steady state; these
        # exited 1 with the law's DomainError and no path
        *[pytest.param(command, above_jam(command, model),
            f"{command}.k_max: must not exceed the jam density fd.k_j",
            id=f"{command}-{model['name']}-above-k_j")
          for command in ("steady", "stability")
          for model in ({"name": "ovm", "T": 0.4}, {"name": "fvdm", "T": 0.6, "lambda": 0.5},
                        {"name": "arz"},
                        {"name": "third_order", "t_delay": 0.3,
                         "inner": {"name": "ovm", "T": 0.4}})],
        *[pytest.param("simulate-pde", {"model": model, "stability": UNSWEPT, "pde": {
            **DEMO_CONFIG["pde"], "solver": "second_order",
            "initial": {"kind": "uniform", "k": 0.25}}},
            f"pde.initial: {name} has no steady state at k=0.25",
            id=f"second-order-{name}-above-k_j")
          for name, model in (("ovm", {"name": "ovm", "T": 0.4}), ("arz", {"name": "arz"}))],
        # Godunov refused this density with no path
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "initial": LWR_ABOVE_JAM}},
                     "pde.initial: initial densities must be finite and lie in [0, k_j]",
                     id="lwr-initial-above-k_j"),
        # compare ran, and its OVM and FVDM reports read incomparable
        pytest.param("compare", {"suite": {**DEMO_CONFIG["suite"], "ring": {
            **DEMO_CONFIG["suite"]["ring"], "k0": 0.25}}},
                     "suite.ring.k0: must not exceed the jam density fd.k_j",
                     id="suite-k0-above-k_j"),
        # stability judged the inner law, and the second-order solver refused
        # the law with no path
        pytest.param("stability", {"model": THIRD_ORDER, "stability": UNSWEPT},
                     "model.name: the stability analysis does not cover third-order models",
                     id="stability-third-order"),
        pytest.param("simulate-pde", {"model": THIRD_ORDER, "pde": {
            **DEMO_CONFIG["pde"], "solver": "second_order"}},
                     "model.name: the second-order continuum solver does not cover",
                     id="second-order-third-order"),
        pytest.param("compare", {"suite": {**DEMO_CONFIG["suite"], "entries": [
            {"scenario": "a", "model": THIRD_ORDER}]}},
                     "suite.entries[0].model.name: the second-order continuum solver",
                     id="suite-third-order"),
        # a perturbation that reorders the platoon exited 1 with no path
        pytest.param("simulate-cf", {"sim": perturbed(1.2)},
                     OVERLAP + "ring platoon gaps must be positive and fit the circumference",
                     id="ring-perturbation-reorders"),
        pytest.param("simulate-cf", {"sim": perturbed(1.2, kind="constant", v0=3.75)},
                     OVERLAP + "platoon must be ordered front to rear",
                     id="leader-perturbation-reorders"),
        # n samples of a sine carry the harmonics below n / 2, cell centres up to
        # cells / 2: these displaced nothing or ran as a lower harmonic (exit 0)
        *[pytest.param("simulate-cf", with_waves("sim", waves),
                       "sim.initial.perturbation.waves: 2 * waves must be < n_vehicles (40)",
                       id=f"sim-waves-{waves}") for waves in (20, 21, 39, 40, 41)],
        *[pytest.param("simulate-pde", with_waves("pde", waves),
                       "pde.initial.waves: 2 * waves must be <= cells (100)",
                       id=f"pde-waves-{waves}") for waves in (51, 99, 100, 101)],
        # the solvers refused these step sizes and ring values with no path
        pytest.param("simulate-cf", {"sim": {**DEMO_CONFIG["sim"], "dt": 0.05}},
                     "sim.dt: dt=0.05 exceeds stability guard 0.04 for ovm", id="rk4-dt-guard"),
        pytest.param("compare", ringed(dt_cf=0.07),
                     "suite.ring.dt_cf: dt=0.07 does not divide horizon 60",
                     id="suite-dt_cf-divides"),
        pytest.param("compare", ringed(dt_pde=0.11),
                     "suite.ring.dt_pde: dt=0.11 does not divide horizon 60",
                     id="suite-dt_pde-divides"),
        *[pytest.param("compare", change, says, id=f"suite-{name}")
          for name, (change, says, _) in SUITE_REFUSALS.items()],
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "dt": 1.0}},
                     "pde.dt: CFL number 2.000 exceeds 0.9", id="lwr-cfl"),
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "dt": 2.0,
                                              "solver": "second_order"}},
                     "pde.dt: CFL number 2.125 exceeds 0.9", id="second-order-cfl"),
        # the second-order solver refused a negative density with no path
        pytest.param("simulate-pde", {"pde": {**DEMO_CONFIG["pde"], "solver": "second_order",
                                              "initial": SINE_BELOW_ZERO}},
                     "pde.initial: initial densities must be finite and >= 0",
                     id="second-order-initial-below-zero"),
    ])
    def test_config_fault_names_path(self, tmp_path, capsys, command, change, path):
        doc = {k: v for k, v in {**DEMO_CONFIG, **change}.items() if v is not None}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", SUITE_REFUSALS)
    def test_suite_refuses_before_any_arm_steps(self, tmp_path, capsys, monkeypatch, name):
        change, says, continuum_calls = SUITE_REFUSALS[name]
        calls = []

        def counting(run):
            def counted(members, *args):
                calls.append(run.__name__)
                return run(members, *args)
            return counted

        for solver in ("simulate_platoons", "solve_second_order_batch"):
            monkeypatch.setattr(equivalence, solver, counting(getattr(equivalence, solver)))
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**DEMO_CONFIG, **change}))
        assert run(["compare", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert says in capsys.readouterr().err
        # no car-following call, and no continuum call but the one that refuses
        assert calls == ["solve_second_order_batch"] * continuum_calls

    @pytest.mark.parametrize("command", ["steady", "stability"])
    def test_idm_with_an_fd_section_may_exceed_its_jam_density(self, tmp_path, capsys,
                                                               command):
        # IDM keeps its own jam spacing d, so fd.k_j does not bound its densities
        idm = {"name": "idm", "a": 2.0, "b": 2.0, "delta": 4, "v_f": 30.0, "tau": 1.0,
               "d": 2.0}
        cfg = tmp_path / "idm.json"
        cfg.write_text(json.dumps({**DEMO_CONFIG, **above_jam(command, idm)}))
        assert run([command, "--config", cfg, "--out", tmp_path]) == 0
        assert (tmp_path / f"{command}.csv").exists()
        capsys.readouterr()

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

    def test_non_finite_rk4_state_is_exit_one(self, tmp_path, capsys):
        # v**400 overflows at 7.5 m/s, and inf * (dv = 0) makes the law NaN
        doc = {"model": {"name": "nonlinear_gm", "a": 1.0, "m": 400, "l": 1},
               "sim": {"method": "rk4", "dt": 0.01, "steps": 50,
                       "boundary": {"kind": "ring", "length": 500.0},
                       "initial": {"n_vehicles": 40, "spacing": 12.5, "speed": 7.5}}}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["simulate-cf", "--config", path, "--out", tmp_path / "o"]) == 1
        assert "SolverFault" in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*.csv"))

    def test_numpy_warnings_stay_off_stderr(self, tmp_path):
        # v**600 overflows on the demo ring, and inf * (dv = 0) is NaN: NumPy
        # would warn twice before the solver stops on the non-finite spacing
        doc = {"fd": DEMO_CONFIG["fd"], "sim": DEMO_CONFIG["sim"],
               "model": {"name": "nonlinear_gm", "a": 1.0, "m": 600, "l": 1}}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "trafficlab.cli", "simulate-cf", "--config", str(path),
             "--out", str(tmp_path / "o")], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "runtime error: SolverFault: non-finite spacing at t=0.02 s, vehicle 0"]

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
        pytest.param("to_eulerian", TRAJ_HEADER + "0,0,10,1\n0,1.5,0,1\n",
                     id="vehicle-id-fraction"),
        pytest.param("to_eulerian", TRAJ_HEADER + "0,0,10,1\n0,1e0,0,1\n",
                     id="vehicle-id-exponent"),
        pytest.param("to_eulerian", TRAJ_HEADER + "0,0,10,1\n0,\uff11,0,1\n",
                     id="vehicle-id-non-ascii"),
        pytest.param("to_eulerian", TRAJ_HEADER + "0,0,inf,1\n0,1,0,1\n",
                     id="trajectory-inf-x"),
        pytest.param("to_eulerian", TRAJ_HEADER + "0,0,10,nan\n0,1,0,1\n",
                     id="trajectory-nan-v"),
        pytest.param("to_eulerian", TRAJ_HEADER + "inf,0,10,1\ninf,1,0,1\n",
                     id="trajectory-inf-t"),
        pytest.param("to_trajectories", FIELD_HEADER + "0,5,0.1,1,0.1\n"
                     "0,15,inf,1,0.1\n", id="field-inf-k"),
        pytest.param("to_trajectories", FIELD_HEADER + "0,nan,0.1,1,0.1\n",
                     id="field-nan-x"),
        pytest.param("to_trajectories", FIELD_HEADER + "-inf,5,0.1,1,0.1\n"
                     "-inf,15,0.1,1,0.1\n", id="field-inf-t"),
        pytest.param("to_trajectories", FIELD_HEADER + "0,5,0.1,nan,0.1\n"
                     "0,15,0.1,1,0.1\n", id="field-nan-v-where-occupied"),
        pytest.param("to_trajectories", FIELD_HEADER + "".join(
            f"{t},5,-0.05,0,0\n{t},15,0.05,1,0.05\n" for t in (0, 1)),
            id="field-negative-k"),
        pytest.param("to_trajectories", FIELD_HEADER + "0,5,0.05,1,0.05\n"
                     "0,15,0.05,1,0.05\n", id="field-single-time"),
    ])
    def test_malformed_transform_input(self, tmp_path, capsys, direction, text):
        data = tmp_path / "input.csv"
        if text is not None:
            data.write_text(text, encoding="utf-8")
        cfg = transform_config(tmp_path, direction, data)
        assert run(["transform", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "transform.input" in capsys.readouterr().err

    def test_duplicate_field_sample_rejected(self, tmp_path, capsys):
        """A repeated (t, x) row would silently overwrite the sample before it."""
        data = tmp_path / "field.csv"
        data.write_text(FIELD_HEADER + "".join(f"{t},{x},0.1,1.0,0.1\n" for t in (0.0, 1.0)
                                               for x in (0.5, 1.5)) + "1.0,1.5,0.15,4.0,0.6\n")
        cfg = transform_config(tmp_path, "to_trajectories", data)
        assert run(["transform", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "transform.input" in err and "duplicate (t, x)" in err

    def test_duplicate_trajectory_sample_rejected(self, tmp_path, capsys):
        data = tmp_path / "trajectories.csv"
        data.write_text(TRAJ_HEADER + "".join(f"{t},{n},{40 - 10 * n + t},1\n"
                                              for t in (0, 1) for n in (0, 1)) + "1,1,31,1\n")
        cfg = transform_config(tmp_path, "to_eulerian", data)
        assert run(["transform", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "transform.input" in err and "duplicate (t, vehicle)" in err

    @pytest.mark.parametrize("direction, row", [
        ("to_eulerian", "{i},{i},{i},1\n"), ("to_trajectories", "{i},{i}5,0.1,1,0.1\n")])
    def test_sparse_input_rejected_before_allocating(self, tmp_path, capsys, direction,
                                                     row):
        """3000 rows on a 3000 x 3000 sample grid: 144 MB of matrices if filled."""
        data = tmp_path / "input.csv"
        header = TRAJ_HEADER if direction == "to_eulerian" else FIELD_HEADER
        data.write_text(header + "".join(row.format(i=i) for i in range(3000)))
        cfg = transform_config(tmp_path, direction, data)
        tracemalloc.start()
        try:
            code = run(["transform", "--config", cfg, "--out", tmp_path / "o"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "missing" in capsys.readouterr().err
        assert peak < 16e6

    @pytest.mark.parametrize("direction, text, key", [
        pytest.param("to_eulerian", TRAJ_HEADER + "0,0,10,1\n0,1,0,1\n1,0,11,1\n1,1,1,1\n",
                     "cells", id="cells"),
        pytest.param("to_trajectories", FIELD_HEADER + "".join(
            f"{t},{x},0.05,1,0.05\n" for t in (0, 1) for x in (5, 15)),
            "n_vehicles", id="n-vehicles"),
    ])
    def test_transform_output_cap_names_key(self, tmp_path, capsys, direction, text, key):
        """2 time samples x 10**8 cells or vehicles: over INT_CAP, refused before
        the output is allocated."""
        data = tmp_path / "input.csv"
        data.write_text(text)
        cfg = transform_config(tmp_path, direction, data, **{key: 10**8})
        assert run(["transform", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert f"transform.{key}" in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*.csv"))

    @pytest.mark.parametrize("scenarios, index", [
        pytest.param(["a/b"], 0, id="slash"),
        pytest.param(["../escape"], 0, id="parent-dir"),
        pytest.param(["stable", "stable"], 1, id="repeated-report-name"),
    ])
    def test_suite_scenario_names_report_files_safely(self, tmp_path, capsys, scenarios,
                                                       index):
        doc = json.loads(json.dumps(DEMO_CONFIG))
        doc["suite"]["entries"] = [{"scenario": name, "model": {"name": "ovm", "T": T}}
                                   for name, T in zip(scenarios, (0.4, 0.7))]
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(doc))
        assert run(["compare", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert f"suite.entries[{index}].scenario" in capsys.readouterr().err
        assert not list((tmp_path / "o").rglob("*.csv"))

    @pytest.mark.parametrize("below_file", [False, True],
                             ids=["out-is-file", "out-below-file"])
    def test_bad_out_names_out(self, demo_config, tmp_path, capsys, below_file):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "x" if below_file else blocker
        assert run(["fd", "--config", demo_config, "--out", out]) == 2
        assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("section, count", [("sim", 40), ("pde", 100)])
def test_every_accepted_waves_is_the_largest_harmonic(section, count):
    # up to the bound: n_vehicles / 2 is zero at every vehicle, while
    # cells / 2 alternates in sign from cell to cell
    top = (count - 1) // 2 if section == "sim" else count // 2
    for waves in range(1, top + 1):
        cfg = with_waves(section, waves)[section]
        if section == "sim":
            init = cfg["initial"]
            wave = (cfgmod.build_initial_platoon(cfg).positions
                    + init["spacing"] * np.arange(init["n_vehicles"]))
        else:
            grid = SpatialGrid(cfg["x0"], cfg["dx"], cfg["cells"])
            wave = cfgmod.build_pde_initial(cfg, grid) - cfg["initial"]["k0"]
        assert np.argmax(np.abs(np.fft.rfft(wave))) == waves


class TestOutputDirectory:
    @pytest.mark.parametrize("before, after, into", [
        ("d", None, "d"), ("a", "b", "b"), (None, None, "cwd"),
    ], ids=["before-the-subcommand", "after-wins", "working-directory"])
    def test_out_holds_one_value(self, demo_config, tmp_path, monkeypatch,
                                 before, after, into):
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert run((["--out", tmp_path / before] if before else [])
                   + ["fd", "--config", demo_config]
                   + (["--out", tmp_path / after] if after else [])) == 0
        written = [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                   if p.is_file()]
        assert sorted(written) == sorted(["scenario.json", f"{into}/fd.csv"])

    def test_consecutive_runs_keep_their_own_out(self, demo_config, tmp_path, monkeypatch):
        """One parser serves every call in a process: an --out given before or
        after the subcommand holds for its own call only."""
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        written = []
        for args, into in ((["--out", tmp_path / "a", "fd", "--config", demo_config], "a"),
                           (["fd", "--config", demo_config, "--out", tmp_path / "b"], "b"),
                           (["fd", "--config", demo_config], "cwd"),
                           (["--out", tmp_path / "c", "fd", "--config", demo_config], "c")):
            assert run(args) == 0
            written.append(f"{into}/fd.csv")
            assert sorted(p.relative_to(tmp_path).as_posix()
                          for p in tmp_path.rglob("fd.csv")) == sorted(written)
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("args, says", [
        (["--out", "{out}"], "usage:"), (["fd", "--out", "{out}"], "--config is required"),
        (["fd", "--config", "{missing}", "--out", "{out}"], "config file not found"),
        (["--out", "{out}", "fd", "--config", "{invalid}"], "fd.v_f: missing required key"),
        # refused while the command builds its objects, after validation
        (["compare", "--config", "{duplicate}", "--out", "{out}"],
         "suite.entries[1].scenario: with model 'ovm' names the report files"),
        (["simulate-cf", "--config", "{ring}", "--out", "{out}"],
         "sim.initial.spacing: n_vehicles * spacing must equal the ring length"),
        # refused by the Godunov solver
        (["simulate-pde", "--config", "{lwr}", "--out", "{out}"],
         "pde.initial: initial densities must be finite and lie in [0, k_j]"),
        (["simulate-cf", "--config", "{overlap}", "--out", "{out}"],
         OVERLAP + "ring platoon gaps must be positive"),
        # refused by the second-order solver, and by run_suite's plan
        (["simulate-pde", "--config", "{below_zero}", "--out", "{out}"],
         "pde.initial: initial densities must be finite and >= 0"),
        *[(["compare", "--config", f"{{{name}}}", "--out", "{out}"], SUITE_REFUSALS[name][1])
          for name in ("no-steady-state", "no-vehicle", "ring-amplitude-reorders")],
    ], ids=["no-subcommand", "no-config", "missing-config", "invalid-config",
            "duplicate-report-stem", "ring-spacing-mismatch", "lwr-initial-above-k_j",
            "perturbation-reorders", "second-order-initial-below-zero",
            "suite-no-steady-state", "suite-no-vehicle", "suite-amplitude-reorders"])
    def test_refused_run_makes_no_directory(self, tmp_path, capsys, args, says):
        out = tmp_path / "made" / "here"
        docs = {"invalid": {"fd": {"kind": "triangular"}},
                "duplicate": {**DEMO_CONFIG, "suite": {**DEMO_CONFIG["suite"], "entries": [
                    {"scenario": "a", "model": {"name": "ovm", "T": 0.4}},
                    {"scenario": "a", "model": {"name": "ovm", "T": 0.7}}]}},
                "ring": {**DEMO_CONFIG, "sim": {**DEMO_CONFIG["sim"], "initial": {
                    **DEMO_CONFIG["sim"]["initial"], "spacing": 12.0}}},
                "lwr": {**DEMO_CONFIG, "pde": {**DEMO_CONFIG["pde"], "initial": LWR_ABOVE_JAM}},
                "overlap": {**DEMO_CONFIG, "sim": perturbed(1.2)},
                "below_zero": {**DEMO_CONFIG, "pde": {**DEMO_CONFIG["pde"], "solver":
                                                      "second_order",
                                                      "initial": SINE_BELOW_ZERO}},
                **{name: {**DEMO_CONFIG, **SUITE_REFUSALS[name][0]}
                   for name in ("no-steady-state", "no-vehicle", "ring-amplitude-reorders")}}
        names = {"out": out, "missing": tmp_path / "nope.json"}
        for name, doc in docs.items():
            names[name] = tmp_path / f"{name}.json"
            names[name].write_text(json.dumps(doc))
        assert main([a.format(**names) for a in args]) == 2
        assert says in capsys.readouterr().err
        assert not (tmp_path / "made").exists()

    @pytest.mark.parametrize("command, change, says", [
        # steady.k_max above fd.k_j matters only where steady runs
        ("fd", {"steady": {**DEMO_CONFIG["steady"], "k_max": 0.3}}, None),
        ("simulate-pde", {"steady": {**DEMO_CONFIG["steady"], "k_max": 0.3}}, None),
        ("steady", {"steady": {**DEMO_CONFIG["steady"], "k_max": 0.3}},
         "steady.k_max: must not exceed the jam density fd.k_j"),
        # as does a third-order model beside the stability section
        ("simulate-cf", {"model": THIRD_ORDER}, None),
        ("stability", {"model": THIRD_ORDER, "stability": UNSWEPT},
         "model.name: the stability analysis does not cover third-order models"),
    ])
    def test_cross_section_rule_runs_where_its_section_is_read(self, tmp_path, capsys,
                                                                command, change, says):
        cfg = tmp_path / "doc.json"
        cfg.write_text(json.dumps({**DEMO_CONFIG, **change}))
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == (2 if says else 0)
        assert (says or "") in capsys.readouterr().err
        assert (tmp_path / "o").exists() != bool(says)

    def test_refused_run_keeps_an_existing_directory(self, tmp_path, capsys):
        out = tmp_path / "kept"
        out.mkdir()
        doc = {**DEMO_CONFIG, "sim": {**DEMO_CONFIG["sim"], "initial": {
            **DEMO_CONFIG["sim"]["initial"], "spacing": 12.0}}}
        (tmp_path / "ring.json").write_text(json.dumps(doc))
        assert run(["simulate-cf", "--config", tmp_path / "ring.json", "--out", out]) == 2
        assert out.is_dir() and not any(out.iterdir())

    def test_seed_demo_makes_its_directory(self, tmp_path):
        out = tmp_path / "made" / "here"
        assert run(["--seed-demo", "--out", out]) == 0
        assert [p.name for p in out.iterdir()] == ["demo_scenario.json"]


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

    def test_stability_sweep_flips_verdict(self, demo_config, tmp_path, capsys):
        run(["stability", "--config", demo_config, "--out", tmp_path])
        path = tmp_path / "stability.csv"
        assert capsys.readouterr().out.splitlines() == [
            f"stability: ovm T={T}: string-stable {n}/8 densities, continuum-stable 0/8 -> {path}"
            for T, n in ((0.4, 8), (0.6, 0))]
        rows = read_csv(path)
        header = rows[0]
        t_col = header.index("T")
        stable_col = header.index("classic_stable")
        # the rows come in value order, stability.count rows per value
        assert [float(row[t_col]) for row in rows[1:]] == [0.4] * 8 + [0.6] * 8
        verdicts = {}
        for row in rows[1:]:
            verdicts.setdefault(float(row[t_col]), set()).add(row[stable_col])
        assert verdicts[0.4] == {"true"}
        assert verdicts[0.6] == {"false"}

    def test_unswept_stability_prints_one_summary_line(self, tmp_path, capsys):
        cfg = tmp_path / "unswept.json"
        cfg.write_text(json.dumps({**DEMO_CONFIG, "stability": UNSWEPT}))
        assert run(["stability", "--config", cfg, "--out", tmp_path]) == 0
        path = tmp_path / "stability.csv"
        assert capsys.readouterr().out == ("stability: ovm: string-stable 8/8 densities, "
                                           f"continuum-stable 0/8 -> {path}\n")
        assert read_csv(path)[0][0] == "k"

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
        # each report's file is summary.csv's header line and that report's line
        header, *lines = (tmp_path / "summary.csv").read_bytes().split(b"\r\n")[:-1]
        expected = {f"{scenario}_{model}_{resolution.replace('=', '')}.csv":
                    header + b"\r\n" + line + b"\r\n"
                    for (scenario, model, resolution, *_), line in zip(rows[1:], lines)}
        assert {path.name: path.read_bytes()
                for path in (tmp_path / "reports").iterdir()} == expected
        assert len(expected) == 4


# ---------------------------------------------------------------------------
# Knob audit: every key a command accepts either changes what it writes or is
# refused.

KNOB_TRI = {"kind": "triangular", "v_f": 20.0, "w": 5.0, "k_j": 0.2}
# Spacings of 25 m sit at the diagram's kink (1/k_c), so the perturbed
# platoons see both branches and every diagram parameter matters.
KNOB_INITIAL = {"n_vehicles": 4, "spacing": 25.0, "speed": 8.0,
                "perturbation": {"relative_amplitude": 0.1}}
KNOB_DOCS = {
    "simulate-cf-rk4": ("simulate-cf", "trajectories.csv", {
        "fd": KNOB_TRI, "model": {"name": "ovm", "T": 0.5},
        "sim": {"method": "rk4", "dt": 0.04, "steps": 50,
                "boundary": {"kind": "ring", "length": 100.0}, "initial": KNOB_INITIAL}}),
    "simulate-cf-pipes": ("simulate-cf", "trajectories.csv", {
        "fd": KNOB_TRI, "sim": {"method": "pipes", "dt": 0.5, "steps": 20,
                                "boundary": {"kind": "constant", "v0": 10.0},
                                "initial": KNOB_INITIAL}}),
    "simulate-cf-newell": ("simulate-cf", "trajectories.csv", {
        "fd": KNOB_TRI, "sim": {"method": "newell", "steps": 10,
                                "boundary": {"kind": "constant", "v0": 10.0},
                                "initial": KNOB_INITIAL}}),
    "simulate-pde-lwr": ("simulate-pde", "field.csv", {
        "fd": KNOB_TRI, "pde": {"solver": "lwr", "dx": 10.0, "cells": 20, "dt": 0.4,
                                "steps": 10, "boundary": {"kind": "inflow", "k_in": 0.02},
                                "initial": {"kind": "uniform", "k": 0.1}}}),
    "simulate-pde-second_order": ("simulate-pde", "field.csv", {
        "fd": KNOB_TRI, "model": {"name": "ovm", "T": 0.5},
        "pde": {"solver": "second_order", "dx": 10.0, "cells": 20, "dt": 0.2, "steps": 10,
                "boundary": {"kind": "inflow", "k_in": 0.05, "v_in": 5.0},
                "initial": {"kind": "riemann", "k_left": 0.03, "k_right": 0.08,
                            "x_jump": 100.0}}}),
}


def knob_changes(leaf, value, path=()):
    """``(path, new value)`` for every key that the schema ``leaf`` allows in
    ``value``: a given key changed (another choice of a string, a number
    scaled, an integer plus one) and an absent optional number or integer
    added."""
    if leaf.kind == "variant":
        key, tables = leaf.bound
        table = tables[value[key]]
        yield path + (key,), next(c for c in sorted(tables) if c != value[key])
    else:
        table = leaf.bound[0]
    for name, sub in table.items():
        given, held = name in value, value.get(name)
        if sub.kind in ("section", "variant"):
            assert isinstance(held, dict), f"the audit needs {path + (name,)} as an object"
            yield from knob_changes(sub, held, path + (name,))
        elif sub.kind == "string":
            choices = sorted(sub.bound) or [held + "_changed"]
            yield path + (name,), next((c for c in choices if c != held), held + "_changed")
        elif sub.kind == "number":
            yield path + (name,), (held * 1.25 if held else 0.5) if given else 0.5
        else:
            assert sub.kind == "integer", f"the audit cannot change {path + (name,)}"
            yield path + (name,), held + 1 if given else 2


# The spacing-rule simulators derive every speed from the spacings, so they
# never read the initial speeds; sim.initial.speed is optional there, not refused.
UNREAD = {("simulate-cf-pipes", ("sim", "initial", "speed")),
          ("simulate-cf-newell", ("sim", "initial", "speed"))}


def audit_cases():
    for doc_id, (command, _, doc) in KNOB_DOCS.items():
        for section in doc:
            for path, value in knob_changes(cfgmod.SECTIONS[section], doc[section], (section,)):
                marks = ([pytest.mark.xfail(strict=True, reason="read by rk4 only")]
                         if (doc_id, path) in UNREAD else [])
                yield pytest.param(doc_id, path, value, marks=marks,
                                   id=f"{doc_id}:{'.'.join(map(str, path))}")


def run_quietly(command, doc, directory):
    directory.mkdir()
    (directory / "cfg.json").write_text(json.dumps(doc))
    with mock.patch("sys.stdout"), mock.patch("sys.stderr"):
        return main([command, "--config", str(directory / "cfg.json"), "--out",
                     str(directory / "out")])


@pytest.mark.parametrize("doc_id, path, value", list(audit_cases()))
def test_every_key_changes_the_output_or_is_refused(tmp_path, doc_id, path, value):
    """A key that a command accepts and never reads would let a user believe
    a setting took effect: each changed key must change the CSV bytes, or be
    refused (exit 2)."""
    command, written, base = KNOB_DOCS[doc_id]
    assert run_quietly(command, base, tmp_path / "base") == 0
    doc = copy.deepcopy(base)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    code = run_quietly(command, doc, tmp_path / "changed")
    assert code in (0, 2)
    if code == 0:
        assert ((tmp_path / "changed" / "out" / written).read_bytes()
                != (tmp_path / "base" / "out" / written).read_bytes())


@pytest.mark.parametrize("doc_id", ["simulate-cf-pipes", "simulate-cf-newell"])
def test_spacing_rules_run_without_an_initial_speed(tmp_path, doc_id):
    command, written, base = KNOB_DOCS[doc_id]
    doc = copy.deepcopy(base)
    del doc["sim"]["initial"]["speed"]
    assert run_quietly(command, base, tmp_path / "given") == 0
    assert run_quietly(command, doc, tmp_path / "absent") == 0
    assert ((tmp_path / "absent" / "out" / written).read_bytes()
            == (tmp_path / "given" / "out" / written).read_bytes())


def test_rk4_requires_an_initial_speed(tmp_path, capsys):
    command, _, doc = KNOB_DOCS["simulate-cf-rk4"]
    doc = copy.deepcopy(doc)
    del doc["sim"]["initial"]["speed"]
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run([command, "--config", tmp_path / "cfg.json", "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "config error: sim.initial.speed: missing required key\n"


class TestDeterminism:
    def test_byte_identical_outputs(self, demo_config, tmp_path):
        for cmd in ("fd", "steady", "simulate-cf", "simulate-pde"):
            run([cmd, "--config", demo_config, "--out", tmp_path / "a"])
            run([cmd, "--config", demo_config, "--out", tmp_path / "b"])
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


# ---------------------------------------------------------------------------
# Reference writers: the row-by-row csv.writer code the column-wise writers
# replaced, kept to pin the new files byte for byte.


def reference_write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def reference_write_trajectory_csv(surface, path):
    speeds = surface.speed_matrix()
    has_accel = surface.accels is not None
    header = ["t", "vehicle", "x", "v"] + (["a"] if has_accel else [])
    rows = []
    for i in range(surface.n_steps):
        for n in range(surface.n_vehicles):
            row = [repr(float(surface.times[i])), n,
                   repr(float(surface.positions[i, n])), repr(float(speeds[i, n]))]
            if has_accel:
                row.append(repr(float(surface.accels[i, n])))
            rows.append(row)
    reference_write_rows(path, header, rows)


def reference_write_field_csv(field, path):
    q = field.flow()
    rows = []
    for i in range(field.n_steps):
        for j in range(field.n_cells):
            rows.append([repr(float(field.times[i])), repr(float(field.cell_centers[j])),
                         repr(float(field.density[i, j])), repr(float(field.speed[i, j])),
                         repr(float(q[i, j]))])
    reference_write_rows(path, ["t", "x", "k", "v", "q"], rows)


EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308,
               -1.7976931348623157e308, 0.1, 1.0 / 3.0]
FINITE = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.floats(allow_nan=False, allow_infinity=False))
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))
SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 4))
ORIGINS = st.floats(-1e3, 1e3)
SPACINGS = st.floats(1e-2, 1e2)


@st.composite
def surfaces(draw):
    """Surfaces with extreme finite positions and speeds, with or without accels."""
    n_steps, n_veh = draw(SHAPES)
    rows = [np.sort(draw(hnp.arrays(float, n_veh, elements=FINITE, unique=True)))[::-1]
            for _ in range(n_steps)]
    speeds = draw(hnp.arrays(float, (n_steps, n_veh), elements=FINITE))
    accels = draw(st.none() | hnp.arrays(float, (n_steps, n_veh), elements=ANY_FLOAT))
    with np.errstate(over="ignore"):  # a gap between +-1e308 overflows to inf
        return TrajectorySurface(t0=draw(ORIGINS), dt=draw(SPACINGS),
                                 positions=np.array(rows), speeds=speeds, accels=accels)


@st.composite
def fields(draw):
    """Fields with -0.0, subnormal and near-overflow values and NaN speeds.

    Half of them hold negative densities, which are written as given and
    which the reader must refuse; the other half flip them (-0.0 stays)."""
    shape = draw(SHAPES)
    density = draw(hnp.arrays(float, shape, elements=FINITE))
    if draw(st.booleans()):
        density = np.where(density < 0.0, -density, density)
    return EulerianField(x0=draw(ORIGINS), dx=draw(SPACINGS), t0=draw(ORIGINS),
                         dt=draw(SPACINGS), density=density,
                         speed=draw(hnp.arrays(float, shape, elements=ANY_FLOAT)))


def assert_blockwise_equal(write, data, path, reference):
    """``write`` gives ``reference``'s bytes at the default block size and at
    sizes small enough that the drawn files (at most 20 rows) cross blocks."""
    for rows in (cli._BLOCK_ROWS, 1, 2, 3, 5):
        with mock.patch.object(cli, "_BLOCK_ROWS", rows):
            write(data, path)
        assert path.read_bytes() == reference.read_bytes(), rows


@given(surface=surfaces())
@settings(max_examples=60, deadline=None)
def test_trajectory_csv_matches_reference_and_round_trips(surface):
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        reference_write_trajectory_csv(surface, reference)
        assert_blockwise_equal(write_trajectory_csv, surface, path, reference)
        with np.errstate(over="ignore"):
            back = read_trajectory_csv(path)
    assert_bits_equal(back.positions, surface.positions)
    assert_bits_equal(back.speeds, surface.speeds)


@given(field=fields())
@settings(max_examples=60, deadline=None)
def test_field_csv_matches_reference_and_round_trips(field):
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        with np.errstate(over="ignore", invalid="ignore"):  # q = k v may overflow
            reference_write_field_csv(field, reference)
            assert_blockwise_equal(write_field_csv, field, path, reference)
        if (np.any(field.density < 0.0)
                or not np.all(np.isfinite(field.speed[field.density > 0.0]))):
            with pytest.raises(ConfigurationError, match="transform.input"):
                read_field_csv(path)
            return
        back = read_field_csv(path)
    assert_bits_equal(back.density, field.density)
    assert_bits_equal(back.speed, field.speed)


def reference_write_summary_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for r in reports:
            writer.writerow([r.scenario, r.model, r.resolution,
                             repr(r.l1_k), repr(r.linf_k), repr(r.l1_v),
                             repr(r.linf_v), repr(r.growth_cf),
                             repr(r.growth_pde), r.verdict])


def reference_write_stability_csv(rows, path, extra=None):
    extra = extra or {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(extra) + STABILITY_CSV_COLUMNS)
        for i, row in enumerate(rows):
            lead = [repr(float(values[i])) for values in extra.values()]
            if row.report is None:
                writer.writerow(lead + [repr(row.k)] + ["degenerate"] * 7)
                continue
            r = row.report
            writer.writerow(lead + [
                repr(row.k), repr(r.v0), repr(r.psi_v), repr(r.psi_s),
                repr(r.psi_dv), str(r.classic_string_stable).lower(),
                str(r.exact_string_stable).lower(),
                str(r.continuum_linear_stable).lower(),
            ])


def reference_write_steady_csv(curve, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "v", "q"])
        for k, v, q in zip(curve.k, curve.v, curve.q):
            writer.writerow([repr(float(k)), repr(float(v)), repr(float(q))])


@st.composite
def summaries(draw):
    """Reports with any text (commas, quotes, line breaks) and any float."""
    floats = ("l1_k", "linf_k", "l1_v", "linf_v", "growth_cf", "growth_pde")
    return [EquivalenceReport(scenario=draw(st.text()), model=draw(st.text(max_size=6)),
                              resolution=draw(st.text(max_size=6)),
                              verdict=draw(st.text(max_size=6)),
                              **{name: draw(ANY_FLOAT) for name in floats})
            for _ in range(draw(st.integers(0, 6)))]


@st.composite
def stability_maps(draw):
    """Degenerate and judged rows, with or without swept leading columns."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        k = draw(ANY_FLOAT)
        if draw(st.booleans()):
            rows.append(StabilityMapRow(k=k, report=None))
            continue
        flags = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        numbers = {name: draw(ANY_FLOAT) for name in ("v0", "s0", "psi_v", "psi_s",
                                                      "psi_dv", "worst_omega",
                                                      "worst_ratio")}
        report = StabilityReport(classic_string_stable=flags[0],
                                 exact_string_stable=flags[1],
                                 continuum_linear_stable=flags[2], **numbers)
        rows.append(StabilityMapRow(k=k, report=report))
    swept = st.lists(ANY_FLOAT | st.integers(-10**6, 10**6), min_size=len(rows),
                     max_size=len(rows))
    return rows, draw(st.dictionaries(st.text(max_size=4), swept, max_size=2))


@given(reports=summaries())
@settings(max_examples=100, deadline=None)
def test_summary_csv_matches_reference(reports):
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        reference_write_summary_csv(reports, reference)
        assert_blockwise_equal(write_summary_csv, reports, path, reference)


@given(case=stability_maps())
@settings(max_examples=100, deadline=None)
def test_stability_csv_matches_reference(case):
    rows, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        reference_write_stability_csv(rows, reference, extra=extra)
        assert_blockwise_equal(lambda rows, path: write_stability_csv(rows, path, extra),
                               rows, path, reference)


STEADY_DOC = {"fd": {"kind": "triangular", "v_f": 20.0, "w": 5.0, "k_j": 0.2},
              "model": {"name": "ovm", "T": 1.0},
              "steady": {"k_min": 0.05, "k_max": 0.15, "count": 3}}


@given(kvq=hnp.arrays(float, st.tuples(st.just(3), st.integers(0, 12)), elements=ANY_FLOAT))
@settings(max_examples=60, deadline=None)
def test_steady_csv_matches_reference(kvq):
    """``cmd_steady`` writes the curve's k, v and q as the old row writer did."""
    curve = SteadyStateCurve(k=kvq[0], v=kvq[1], q=kvq[2], degenerate=False, statuses=())
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "fundamental_diagram_of", return_value=curve):
        path, reference = Path(tmp) / "steady.csv", Path(tmp) / "ref.csv"
        reference_write_steady_csv(curve, reference)
        assert_blockwise_equal(lambda doc, path: cli.cmd_steady(doc, path.parent),
                               STEADY_DOC, path, reference)


def distinct_field(n_steps, n_cells):
    """A field whose densities are all distinct, with every seventh speed NaN."""
    rng = np.random.default_rng(0)
    density = rng.permutation(n_steps * n_cells).reshape(n_steps, n_cells) * 1e-6 + 1e-3
    speed = rng.uniform(0.0, 30.0, (n_steps, n_cells))
    speed.flat[::7] = math.nan
    return EulerianField(x0=-12.5, dx=2.5, t0=0.0, dt=0.1, density=density, speed=speed)


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["one-short", "exact", "one-over"])
def test_field_csv_at_block_boundary(tmp_path, extra):
    field = distinct_field(1, cli._BLOCK_ROWS + extra)
    path, reference = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_field_csv(field, path)
    reference_write_field_csv(field, reference)
    assert path.read_bytes() == reference.read_bytes()


def test_field_csv_write_memory_is_bounded(tmp_path):
    """The writer holds one block's text, not the file's (9.4 MB here).

    Writing the whole text at once peaked at 62 MB on this field."""
    field = distinct_field(301, 500)
    tracemalloc.start()
    try:
        write_field_csv(field, tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def reprs_needed(keys, rows):
    """``repr`` calls a column needs at ``rows`` rows a block: each block's
    distinct keys."""
    return sum(len(set(keys[i:i + rows])) for i in range(0, len(keys), rows))


def write_counting_reprs(path, columns, rows):
    """``_write_columns`` at ``rows`` rows a block; returns the ``repr`` calls."""
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    with mock.patch.object(cli, "_BLOCK_ROWS", rows), \
            mock.patch.object(cli, "repr", counted, create=True):
        cli._write_columns(path, ["a", "b", "n"], columns)
    return len(calls)


RECURRING = st.sampled_from([0.0, -0.0, math.nan, 1.5, 1.0 / 3.0, -2.5e-320, 1e308])


@given(floats=hnp.arrays(float, st.tuples(st.just(2), st.integers(1, 24)),
                         elements=RECURRING))
@settings(max_examples=60, deadline=None)
def test_writer_formats_a_value_once_per_block(floats):
    """A value recurring within a block is formatted once; each block formats
    its own values. The bytes are ``csv.writer``'s at every block size."""
    ids = np.arange(floats.shape[1]) % 3
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        reference_write_rows(reference, ["a", "b", "n"],
                             [[repr(float(a)), repr(float(b)), n]
                              for a, b, n in zip(*floats, ids)])
        for rows in (1, 2, 3, 5):
            calls = write_counting_reprs(path, [*floats, ids], rows)
            assert path.read_bytes() == reference.read_bytes(), rows
            assert calls == sum(reprs_needed(keys, rows) for keys in
                                [*floats.view(np.int64).tolist(), ids.tolist()]), rows


def test_writer_formats_each_blocks_distinct_values(tmp_path):
    """Two rows a block: 1.5 recurs, 2.5 skips a block, -0.0 sits next to 0.0."""
    a = np.array([1.5, 2.5, 1.5, 0.0, 1.5, 2.5, -0.0, 0.0, math.nan, math.nan])
    b = np.full(a.size, math.nan)
    calls = write_counting_reprs(tmp_path / "f.csv", [a, b, np.zeros(a.size, int)], 2)
    # a: 1.5, 2.5 | 1.5, 0.0 | 1.5, 2.5 | -0.0, 0.0 | nan; b: nan a block; n: 0 a block
    assert calls == 9 + 5 + 5
    assert tmp_path.joinpath("f.csv").read_bytes().split(b"\r\n")[7:9] == [
        b"-0.0,nan,0", b"0.0,nan,0"]


AXES = {"float": np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.5, -0.0]),
        "int64": np.array([0, -1, 2**62, -2**63, 7, 0], dtype=np.int64)}


@pytest.mark.parametrize("axis", sorted(AXES))
@pytest.mark.parametrize("rows, n", [
    (1, 23), (2, 23), (3, 23), (5, 23), (5, 0),
    (cli._BLOCK_ROWS, cli._BLOCK_ROWS - 1), (cli._BLOCK_ROWS, cli._BLOCK_ROWS),
    (cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1)])
def test_indexed_column_writes_the_plain_columns_bytes(tmp_path, axis, rows, n):
    """A ``(values, index)`` column writes ``values[index]``'s bytes at every
    block size, formatting each distinct value (bit pattern) once per file."""
    values = AXES[axis]
    index = np.random.default_rng(n).integers(0, len(values), n)
    ids = np.arange(3)
    new, reference = tmp_path / "new.csv", tmp_path / "ref.csv"
    calls = write_counting_reprs(
        new, [(values, index), (values, index[::-1]), (ids, index % 3)], rows)
    write_counting_reprs(reference, [values[index], values[index[::-1]], ids[index % 3]],
                         rows)
    assert new.read_bytes() == reference.read_bytes()
    assert calls == 2 * len(np.unique(values.view(np.int64))) + len(ids)


# ---------------------------------------------------------------------------
# The transform contract under malformed input: exit 0, 1 or 2, never a traceback.

VALID_INPUTS = {
    "to_eulerian": TRAJ_HEADER + "".join(f"{t},{n},{40 - 10 * n + t},1\n"
                                         for t in (0, 1, 2) for n in range(3)),
    # the empty cell's NaN speed is what write_field_csv emits there
    "to_trajectories": FIELD_HEADER + "".join(
        f"{t},{x},{cell}\n" for t in (0, 1, 2)
        for x, cell in ((5, "0.05,1,0.05"), (15, "0.05,1,0.05"), (25, "0.05,1,0.05"),
                        (35, "0.0,nan,0.0"))),
}


@st.composite
def mutated_inputs(draw):
    direction = draw(st.sampled_from(sorted(VALID_INPUTS)))
    lines = VALID_INPUTS[direction].splitlines(keepends=True)
    kind = draw(st.sampled_from(["none", "truncate", "drop", "duplicate",
                                 "replace", "add-column", "remove-column"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "truncate":
        text = "".join(lines)
        text = text[:draw(st.integers(0, len(text)))]
        return direction, text
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif kind != "none":
        cells = lines[i].rstrip("\n").split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if kind == "replace":
            cells[j] = draw(st.text(max_size=8))
        elif kind == "add-column":
            cells.insert(j, draw(st.sampled_from(["0", "1.5", "x", ""])))
        else:
            del cells[j]
        lines[i] = ",".join(cells) + "\n"
    return direction, "".join(lines)


@given(case=mutated_inputs())
@settings(max_examples=100, deadline=None)
def test_transform_exit_code_on_mutated_input(case):
    direction, text = case
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "input.csv"
        data.write_text(text, encoding="utf-8")
        cfg = transform_config(tmp, direction, data)
        assert run(["transform", "--config", cfg, "--out", Path(tmp) / "o"]) in {0, 1, 2}


@pytest.mark.parametrize("direction", sorted(VALID_INPUTS))
def test_transform_accepts_unmutated_fuzz_input(tmp_path, direction):
    data = tmp_path / "input.csv"
    data.write_text(VALID_INPUTS[direction])
    cfg = transform_config(tmp_path, direction, data)
    assert run(["transform", "--config", cfg, "--out", tmp_path / "o"]) == 0


# ---------------------------------------------------------------------------
# The reader: ``loadtxt`` given the path reads what it read from an open handle.


def reference_read_records(path, header, dtype, kind):
    """``cli._read_records`` as it stood with ``loadtxt`` iterating the handle
    that had read the header."""
    try:
        with open(path, newline="", encoding="ascii") as fh:
            matches = next(csv.reader([fh.readline()]))[:len(header)] == header
            if matches:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                      usecols=range(len(dtype.names)), quotechar='"',
                                      ndmin=1)
    except (OSError, csv.Error, ValueError) as exc:
        raise cli._input_error(f"cannot read {path}: {exc}") from exc
    if not matches:
        raise cli._input_error(f"{path} is not a {kind} CSV")
    if not data.size:
        raise cli._input_error(f"{path} has no data rows")
    return data


FIELD_INPUT = VALID_INPUTS["to_trajectories"]


@pytest.mark.parametrize("text", [
    pytest.param(FIELD_INPUT, id="lf"),
    pytest.param(FIELD_INPUT.replace("\n", "\r\n"), id="crlf"),
    pytest.param(FIELD_INPUT.replace("\n", "\r"), id="cr"),
    pytest.param(FIELD_INPUT[:-1], id="no-final-newline"),
    pytest.param(FIELD_INPUT + "\n", id="trailing-blank-line"),
    pytest.param(FIELD_INPUT.replace("0.05", '"0.05"'), id="quoted-numbers"),
    pytest.param(FIELD_HEADER, id="header-only"),
    pytest.param(FIELD_INPUT.replace("0.05,1,", "0.05,\uff11,", 1), id="non-ascii-digit"),
])
def test_reader_matches_the_handle_based_reader(tmp_path, capsys, text):
    data = tmp_path / "field.csv"
    data.write_bytes(text.encode("utf-8"))
    header, dtype = ["t", "x", "k", "v", "q"], cli._FIELD_RECORD
    try:
        expected = reference_read_records(data, header, dtype, "field")
    except ConfigurationError:
        expected = None
    cfg = transform_config(tmp_path, "to_trajectories", data)
    code = run(["transform", "--config", cfg, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    if expected is None:
        with pytest.raises(ConfigurationError, match="transform.input"):
            cli._read_records(data, header, dtype, "field")
        assert code == 2 and err.startswith("config error: transform.input")
        assert "Traceback" not in err
        return
    records = cli._read_records(data, header, dtype, "field")
    assert records.dtype == expected.dtype
    assert records.tobytes() == expected.tobytes()
    assert code == 0 and err == ""


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_reader_refuses_a_compressed_file_name(tmp_path, capsys, suffix):
    """``loadtxt`` opens such a path through a decompressor, which fails on plain
    text with an error of its own (``lzma.LZMAError`` is not an ``OSError``)."""
    data = tmp_path / f"field.csv{suffix}"
    data.write_text(FIELD_INPUT)
    cfg = transform_config(tmp_path, "to_trajectories", data)
    assert run(["transform", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == (f"config error: transform.input: {data} names a "
                                       "compressed file, not a CSV\n")
