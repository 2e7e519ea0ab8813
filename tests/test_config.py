"""The config schema walker against the per-section validators it replaced.

The reference below is the validator code as it stood before the schema table,
kept verbatim. A hypothesis test mutates one leaf of a valid document at a
time and requires the walker to give the reference's exit class, dotted path
and message; the few deliberate departures are asserted as the new behaviour.
"""

import copy
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from trafficlab import config
from trafficlab.cli import DEMO_CONFIG
from trafficlab.errors import ConfigurationError, TrafficLabError

# ---------------------------------------------------------------------------
# Reference: the per-section validators, verbatim.


TOP_LEVEL_SECTIONS = ("fd", "model", "steady", "stability", "sim", "pde",
                      "suite", "transform", "output")


def _fail(path: str, message: str):
    raise ConfigurationError(message, path=path)


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(path, value, minimum=None, exclusive=False):
    if not _is_num(value):
        _fail(path, "must be a number")
    # json parses NaN, Infinity and 1e999; NaN would also pass every minimum.
    # Comparing keeps an int too large for a float from overflowing.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        _fail(path, "must be a finite number")
    if minimum is not None:
        if exclusive and value <= minimum:
            _fail(path, f"must be > {minimum}")
        if not exclusive and value < minimum:
            _fail(path, f"must be >= {minimum}")
    return float(value)


def _integer(path, value, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, "must be an integer")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    return value


def _string(path, value, choices=None):
    if not isinstance(value, str):
        _fail(path, "must be a string")
    if choices is not None and value not in choices:
        _fail(path, f"must be one of {sorted(choices)}")
    return value


def _section(path, value):
    if not isinstance(value, dict):
        _fail(path, "must be an object")
    return value


def _check_keys(cfg: dict, path: str, known: set[str], required: set[str]):
    for key in cfg:
        if key not in known:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in cfg:
            _fail(f"{path}.{key}", "missing required key")


def validate_document(doc: dict) -> None:
    """Validate the whole config document; raises with a dotted path."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")
    for key in doc:
        if key not in TOP_LEVEL_SECTIONS:
            _fail(key, "unknown section")
    if "fd" in doc:
        _validate_fd(doc["fd"])
    if "model" in doc:
        _validate_model(doc["model"], "model")
    if "steady" in doc:
        _validate_k_grid(doc["steady"], "steady")
    if "stability" in doc:
        _validate_stability(doc["stability"], doc.get("model"))
    if "sim" in doc:
        _validate_sim(doc["sim"])
    if "pde" in doc:
        _validate_pde(doc["pde"])
    if "suite" in doc:
        _validate_suite(doc["suite"])
    if "transform" in doc:
        _validate_transform(doc["transform"])
    if "output" in doc:
        out = _section("output", doc["output"])
        _check_keys(out, "output", {"dir"}, set())
        if "dir" in out:
            _string("output.dir", out["dir"])


def _validate_fd(cfg):
    cfg = _section("fd", cfg)
    kind = _string("fd.kind", cfg.get("kind", ""),
                   {"triangular", "greenshields", "tabulated"})
    if kind == "triangular":
        _check_keys(cfg, "fd", {"kind", "v_f", "w", "k_j"}, {"v_f", "w", "k_j"})
        _number("fd.v_f", cfg["v_f"], 0, exclusive=True)
        _number("fd.w", cfg["w"], 0, exclusive=True)
        _number("fd.k_j", cfg["k_j"], 0, exclusive=True)
    elif kind == "greenshields":
        _check_keys(cfg, "fd", {"kind", "v_f", "k_j"}, {"v_f", "k_j"})
        _number("fd.v_f", cfg["v_f"], 0, exclusive=True)
        _number("fd.k_j", cfg["k_j"], 0, exclusive=True)
    else:
        _check_keys(cfg, "fd", {"kind", "table"}, {"table"})
        table = cfg["table"]
        if (not isinstance(table, list) or len(table) < 3
                or any(not isinstance(r, list) or len(r) != 2 for r in table)):
            _fail("fd.table", "must be a list of [k, q] pairs, >= 3 rows")
        for i, row in enumerate(table):
            _number(f"fd.table[{i}][0]", row[0], 0)
            _number(f"fd.table[{i}][1]", row[1], 0)


_MODEL_PARAM_SPECS: dict[str, dict[str, tuple]] = {
    "linear_gm": {"T": ("pos",)},
    "nonlinear_gm": {"a": ("pos",), "m": ("int0",), "l": ("int0",)},
    "ovm": {"T": ("pos",)},
    "gfm": {"T": ("pos",), "T_brake": ("pos",), "d": ("pos",),
            "tau": ("pos",), "R": ("pos",)},
    "idm": {"a": ("pos",), "b": ("pos",), "delta": ("min", 1),
            "v_f": ("pos",), "tau": ("pos",), "d": ("pos",)},
    "idm_alt": {"a": ("pos",), "b": ("pos",), "delta": ("min", 1),
                  "v_f": ("pos",), "tau": ("pos",), "d": ("pos",)},
    "fvdm": {"T": ("pos",), "lambda": ("min", 0)},
    "arz": {},
    "jwz": {"T": ("pos",), "c0": ("min", 0)},
}


def _validate_model(cfg, path):
    cfg = _section(path, cfg)
    names = set(_MODEL_PARAM_SPECS) | {"third_order"}
    name = _string(f"{path}.name", cfg.get("name", ""), names)
    if name == "third_order":
        _check_keys(cfg, path, {"name", "t_delay", "inner"}, {"t_delay", "inner"})
        _number(f"{path}.t_delay", cfg["t_delay"], 0, exclusive=True)
        inner = _section(f"{path}.inner", cfg["inner"])
        if inner.get("name") == "third_order":
            _fail(f"{path}.inner.name", "third-order laws cannot nest")
        _validate_model(inner, f"{path}.inner")
        return
    spec = _MODEL_PARAM_SPECS[name]
    _check_keys(cfg, path, {"name", *spec}, set(spec))
    for key, rule in spec.items():
        value = cfg[key]
        if rule[0] == "pos":
            _number(f"{path}.{key}", value, 0, exclusive=True)
        elif rule[0] == "int0":
            _integer(f"{path}.{key}", value, 0)
        else:
            _number(f"{path}.{key}", value, rule[1])
    if name == "gfm" and cfg["T_brake"] >= cfg["T"]:
        _fail(f"{path}.T_brake", "must be smaller than T")


def _validate_k_grid(cfg, path):
    cfg = _section(path, cfg)
    _check_keys(cfg, path, {"k_min", "k_max", "count"}, {"k_min", "k_max", "count"})
    k_min = _number(f"{path}.k_min", cfg["k_min"], 0, exclusive=True)
    k_max = _number(f"{path}.k_max", cfg["k_max"], 0, exclusive=True)
    if k_max <= k_min:
        _fail(f"{path}.k_max", "must exceed k_min")
    _integer(f"{path}.count", cfg["count"], 2)


def _validate_stability(cfg, model):
    cfg = _section("stability", cfg)
    _check_keys(cfg, "stability", {"k_min", "k_max", "count", "sweep"},
                {"k_min", "k_max", "count"})
    _validate_k_grid({k: cfg[k] for k in ("k_min", "k_max", "count")}, "stability")
    if "sweep" in cfg:
        sweep = _section("stability.sweep", cfg["sweep"])
        _check_keys(sweep, "stability.sweep", {"param", "values"}, {"param", "values"})
        _string("stability.sweep.param", sweep["param"])
        if not isinstance(sweep["values"], list) or not sweep["values"]:
            _fail("stability.sweep.values", "must be a non-empty list")
        for i, v in enumerate(sweep["values"]):
            _number(f"stability.sweep.values[{i}]", v, 0, exclusive=True)
        if model is not None:
            _validate_sweep(model, sweep["param"], sweep["values"])


def _sweepable(model: dict) -> set[str]:
    if model["name"] == "third_order":
        return {"t_delay"} | _sweepable(model["inner"])
    return set(_MODEL_PARAM_SPECS[model["name"]])


def _validate_sweep(model, param, values):
    # ``model`` is already valid; each swept value must keep it valid.
    takes = _sweepable(model)
    if param not in takes:
        _fail("stability.sweep.param",
              f"model {model['name']!r} takes no parameter {param!r} "
              f"(one of {sorted(takes)})")
    for i, value in enumerate(values):
        try:
            _validate_model(swept_model(model, param, value), "model")
        except ConfigurationError as exc:
            _fail(f"stability.sweep.values[{i}]", f"swept model is invalid: {exc}")


def swept_model(model: dict, param: str, value) -> dict:
    """The ``model`` section with ``param`` set to ``value``.

    A third-order model passes every parameter but ``t_delay`` on to its
    inner law.
    """
    if model["name"] == "third_order" and param != "t_delay":
        return {**model, "inner": swept_model(model["inner"], param, value)}
    return {**model, param: value}


def _validate_boundary(cfg, path):
    if isinstance(cfg, str):
        if cfg != "ring":
            _fail(path, "string boundary must be 'ring' (with sim.ring_length)")
        return
    cfg = _section(path, cfg)
    kind = _string(f"{path}.kind", cfg.get("kind", ""),
                   {"constant", "sinusoid", "piecewise", "ring"})
    if kind == "constant":
        _check_keys(cfg, path, {"kind", "v0"}, {"v0"})
        _number(f"{path}.v0", cfg["v0"], 0)
    elif kind == "sinusoid":
        _check_keys(cfg, path, {"kind", "v0", "amplitude", "omega"},
                    {"v0", "amplitude", "omega"})
        v0 = _number(f"{path}.v0", cfg["v0"], 0)
        amp = _number(f"{path}.amplitude", cfg["amplitude"], 0)
        _number(f"{path}.omega", cfg["omega"], 0, exclusive=True)
        if amp > v0:
            _fail(f"{path}.amplitude", "must not exceed v0 (speeds stay >= 0)")
    elif kind == "piecewise":
        _check_keys(cfg, path, {"kind", "times", "speeds"}, {"times", "speeds"})
        times, speeds = cfg["times"], cfg["speeds"]
        if (not isinstance(times, list) or not isinstance(speeds, list)
                or len(times) != len(speeds) or not times):
            _fail(f"{path}.times", "times and speeds must be equal-length lists")
        for i, t in enumerate(times):
            _number(f"{path}.times[{i}]", t, 0)
        for i, v in enumerate(speeds):
            _number(f"{path}.speeds[{i}]", v, 0)
        if times[0] != 0 or any(b <= a for a, b in zip(times, times[1:])):
            _fail(f"{path}.times", "must start at 0 and increase")
    else:
        _check_keys(cfg, path, {"kind", "length"}, {"length"})
        _number(f"{path}.length", cfg["length"], 0, exclusive=True)


def _validate_sim(cfg):
    cfg = _section("sim", cfg)
    known = {"method", "dt", "steps", "boundary", "initial"}
    _check_keys(cfg, "sim", known, {"method", "steps", "boundary", "initial"})
    method = _string("sim.method", cfg["method"], {"rk4", "pipes", "newell"})
    _integer("sim.steps", cfg["steps"], 1)
    if method != "newell":
        if "dt" not in cfg:
            _fail("sim.dt", "missing required key")
        _number("sim.dt", cfg["dt"], 0, exclusive=True)
    _validate_boundary(cfg["boundary"], "sim.boundary")
    init = _section("sim.initial", cfg["initial"])
    _check_keys(init, "sim.initial",
                {"n_vehicles", "spacing", "speed", "lead_position", "perturbation"},
                {"n_vehicles", "spacing", "speed"})
    _integer("sim.initial.n_vehicles", init["n_vehicles"], 2)
    _number("sim.initial.spacing", init["spacing"], 0, exclusive=True)
    _number("sim.initial.speed", init["speed"], 0)
    if "lead_position" in init:
        _number("sim.initial.lead_position", init["lead_position"])
    if "perturbation" in init:
        pert = _section("sim.initial.perturbation", init["perturbation"])
        _check_keys(pert, "sim.initial.perturbation",
                    {"relative_amplitude", "waves"}, {"relative_amplitude"})
        _number("sim.initial.perturbation.relative_amplitude",
                pert["relative_amplitude"], 0)
        if "waves" in pert:
            _integer("sim.initial.perturbation.waves", pert["waves"], 1)


def _validate_pde_initial(cfg, path):
    cfg = _section(path, cfg)
    kind = _string(f"{path}.kind", cfg.get("kind", ""),
                   {"uniform", "riemann", "sine"})
    if kind == "uniform":
        _check_keys(cfg, path, {"kind", "k"}, {"k"})
        _number(f"{path}.k", cfg["k"], 0)
    elif kind == "riemann":
        _check_keys(cfg, path, {"kind", "k_left", "k_right", "x_jump"},
                    {"k_left", "k_right", "x_jump"})
        _number(f"{path}.k_left", cfg["k_left"], 0)
        _number(f"{path}.k_right", cfg["k_right"], 0)
        _number(f"{path}.x_jump", cfg["x_jump"])
    else:
        _check_keys(cfg, path, {"kind", "k0", "relative_amplitude", "waves"},
                    {"k0", "relative_amplitude"})
        _number(f"{path}.k0", cfg["k0"], 0, exclusive=True)
        _number(f"{path}.relative_amplitude", cfg["relative_amplitude"], 0)
        if "waves" in cfg:
            _integer(f"{path}.waves", cfg["waves"], 1)


def _validate_pde(cfg):
    cfg = _section("pde", cfg)
    known = {"solver", "x0", "dx", "cells", "dt", "steps", "record_every",
             "boundary", "initial"}
    _check_keys(cfg, "pde", known, {"solver", "dx", "cells", "dt", "steps", "initial"})
    _string("pde.solver", cfg["solver"], {"lwr", "second_order"})
    _number("pde.dx", cfg["dx"], 0, exclusive=True)
    _integer("pde.cells", cfg["cells"], 1)
    _number("pde.dt", cfg["dt"], 0, exclusive=True)
    _integer("pde.steps", cfg["steps"], 1)
    if "x0" in cfg:
        _number("pde.x0", cfg["x0"])
    if "record_every" in cfg:
        _integer("pde.record_every", cfg["record_every"], 1)
    if "boundary" in cfg:
        bnd = cfg["boundary"]
        if isinstance(bnd, str):
            _string("pde.boundary", bnd, {"periodic"})
        else:
            bnd = _section("pde.boundary", bnd)
            _check_keys(bnd, "pde.boundary", {"kind", "k_in", "v_in"}, {"kind", "k_in"})
            _string("pde.boundary.kind", bnd["kind"], {"inflow"})
            _number("pde.boundary.k_in", bnd["k_in"], 0)
            if "v_in" in bnd:
                _number("pde.boundary.v_in", bnd["v_in"], 0)
    _validate_pde_initial(cfg["initial"], "pde.initial")


def _validate_suite(cfg):
    cfg = _section("suite", cfg)
    _check_keys(cfg, "suite", {"ring", "entries", "resolutions"},
                {"ring", "entries", "resolutions"})
    ring = _section("suite.ring", cfg["ring"])
    known = {"circumference", "k0", "horizon", "dt_cf", "dt_pde",
             "compare_points", "threshold", "amplitude"}
    required = {"circumference", "k0", "horizon", "dt_cf", "dt_pde", "amplitude"}
    _check_keys(ring, "suite.ring", known, required)
    for key in ("circumference", "k0", "horizon", "dt_cf", "dt_pde"):
        _number(f"suite.ring.{key}", ring[key], 0, exclusive=True)
    _number("suite.ring.amplitude", ring["amplitude"], 0)
    if "compare_points" in ring:
        _integer("suite.ring.compare_points", ring["compare_points"], 2)
    if "threshold" in ring:
        _number("suite.ring.threshold", ring["threshold"], 0, exclusive=True)
    entries = cfg["entries"]
    if not isinstance(entries, list):
        _fail("suite.entries", "must be a list")
    for i, entry in enumerate(entries):
        path = f"suite.entries[{i}]"
        entry = _section(path, entry)
        _check_keys(entry, path, {"scenario", "model", "amplitude"},
                    {"scenario", "model"})
        _string(f"{path}.scenario", entry["scenario"])
        _validate_model(entry["model"], f"{path}.model")
        if "amplitude" in entry:
            _number(f"{path}.amplitude", entry["amplitude"], 0)
    res = cfg["resolutions"]
    if not isinstance(res, list) or not res:
        _fail("suite.resolutions", "must be a non-empty list of cell counts")
    for i, r in enumerate(res):
        _integer(f"suite.resolutions[{i}]", r, 4)


def _validate_transform(cfg):
    cfg = _section("transform", cfg)
    direction = _string("transform.direction", cfg.get("direction", ""),
                        {"to_eulerian", "to_trajectories"})
    if direction == "to_eulerian":
        _check_keys(cfg, "transform",
                    {"direction", "input", "x0", "dx", "cells"},
                    {"direction", "input", "x0", "dx", "cells"})
        _number("transform.x0", cfg["x0"])
        _number("transform.dx", cfg["dx"], 0, exclusive=True)
        _integer("transform.cells", cfg["cells"], 1)
    else:
        _check_keys(cfg, "transform", {"direction", "input", "n_vehicles"},
                    {"direction", "input", "n_vehicles"})
        _integer("transform.n_vehicles", cfg["n_vehicles"], 1)
    _string("transform.input", cfg["input"])


# ---------------------------------------------------------------------------
# Base documents: together they hold every variant of every section.

TRI = {"kind": "triangular", "v_f": 20.0, "w": 5.0, "k_j": 0.2}
GS = {"kind": "greenshields", "v_f": 20.0, "k_j": 0.2}
TAB = {"kind": "tabulated", "table": [[0.0, 0.0], [0.05, 0.5], [0.2, 0.0]]}
OVM = {"name": "ovm", "T": 0.4}
GFM = {"name": "gfm", "T": 2.0, "T_brake": 0.5, "d": 2.0, "tau": 1.0, "R": 5.0}
IDM = {"name": "idm", "a": 2.0, "b": 2.0, "delta": 4, "v_f": 30.0, "tau": 1.0, "d": 2.0}
K_GRID = {"k_min": 0.05, "k_max": 0.19, "count": 8}
INITIAL = {"n_vehicles": 3, "spacing": 20.0, "speed": 10.0}
SINUSOID = {"kind": "sinusoid", "v0": 10.0, "amplitude": 2.0, "omega": 0.5}
PIECEWISE = {"kind": "piecewise", "times": [0.0, 5.0, 9.0], "speeds": [10.0, 4.0, 8.0]}
SINE = {"kind": "sine", "k0": 0.08, "relative_amplitude": 0.2, "waves": 2}
RIEMANN = {"kind": "riemann", "k_left": 0.03, "k_right": 0.05, "x_jump": 100.0}


def sweep(param, *values):
    return {**K_GRID, "sweep": {"param": param, "values": list(values)}}


def sim(method, boundary, **extra):
    return {"method": method, "steps": 10, "boundary": boundary,
            "initial": dict(INITIAL), **extra}


def pde(solver, initial, **extra):
    return {"solver": solver, "dx": 10.0, "cells": 20, "dt": 0.2, "steps": 5,
            "initial": initial, **extra}


BASES = [
    DEMO_CONFIG,
    {"fd": GS, "model": {"name": "linear_gm", "T": 1.0}, "stability": sweep("T", 1.0),
     "sim": sim("rk4", {"kind": "constant", "v0": 10.0}, dt=0.1,
                initial={**INITIAL, "lead_position": -5.0}),
     "pde": pde("lwr", {"kind": "uniform", "k": 0.05},
                boundary={"kind": "inflow", "k_in": 0.05}, x0=-100.0)},
    {"fd": TAB, "model": {"name": "nonlinear_gm", "a": 1.0, "m": 0, "l": 1},
     # rk4, not pipes: spacing rules need a triangular fd (see the departures)
     "stability": sweep("m", 1, 2), "sim": sim("rk4", SINUSOID, dt=0.5),
     "pde": pde("second_order", RIEMANN, record_every=5,
                boundary={"kind": "inflow", "k_in": 0.05, "v_in": 10.0})},
    {"fd": TRI, "model": GFM, "stability": sweep("T_brake", 0.5, 1.0),
     "sim": sim("newell", PIECEWISE)},
    {"model": IDM, "steady": K_GRID, "sim": sim("rk4", PIECEWISE, dt=0.1)},
    {"model": {**IDM, "name": "idm_alt"}, "stability": sweep("delta", 1, 4.5),
     "pde": pde("second_order", SINE, boundary="periodic")},
    {"fd": TRI, "model": {"name": "fvdm", "T": 0.6, "lambda": 0.5},
     "stability": sweep("lambda", 0.1)},
    {"fd": GS, "model": {"name": "arz"}, "steady": K_GRID},
    {"fd": TRI, "model": {"name": "jwz", "T": 1.0, "c0": 2.0}, "stability": sweep("c0", 1.0)},
    # config refuses a third-order model under stability (see the departures)
    {"fd": TRI, "model": {"name": "third_order", "t_delay": 0.3, "inner": OVM},
     "steady": K_GRID},
    {"model": IDM, "stability": sweep("a", 1.0)},
    {"transform": {"direction": "to_eulerian", "input": "t.csv", "x0": -50.0,
                   "dx": 10.0, "cells": 10}},
    {"transform": {"direction": "to_trajectories", "input": "f.csv", "n_vehicles": 3}},
    {"fd": GS, "model": OVM, "pde": pde("second_order", SINE,
                                        boundary={"kind": "inflow", "k_in": 0.1, "v_in": 5.0})},
    {"fd": TRI, "sim": sim("newell", {"kind": "constant", "v0": 0.0},
                           initial={**INITIAL, "perturbation": {"relative_amplitude": 0.0}})},
    {"fd": TRI, "suite": {
        "ring": {**DEMO_CONFIG["suite"]["ring"]},
        "entries": [{"scenario": "a", "model": GFM, "amplitude": 0.02},
                    {"scenario": "b", "model": OVM}],
        "resolutions": [4]}},
    {"fd": TAB, "pde": pde("lwr", RIEMANN, boundary={"kind": "inflow", "k_in": 0.2})},
    {"fd": TRI, "sim": sim("pipes", SINUSOID, dt=0.5)},
    {"model": {"name": "third_order", "t_delay": 0.3, "inner": IDM}, "steady": K_GRID},
]


def outcome(validate, doc):
    """(exit class, path, message): 0 for a valid document, 2 for a config fault."""
    try:
        validate(doc)
    except ConfigurationError as exc:
        return 2, exc.path, str(exc)
    except TrafficLabError as exc:
        return 1, None, str(exc)
    return 0, None, None


SPACING_RULE = "spacing-rule simulators need a triangular fd"
NEEDS_PROFILE = "spacing-rule simulators need a leader profile"
NEWELL_DT = "method 'newell' steps at the fd's time gap and takes no dt"
LWR_V_IN = "solver 'lwr' takes no inflow speed"


def fault(path, message):
    return 2, path, f"{path}: {message}"


def jam_density(fd):
    return fd["k_j"] if "k_j" in fd else fd["table"][-1][0]


def reads_fd(model):
    """Whether a (valid) model section's law is built on the fd."""
    if model["name"] == "third_order":
        return reads_fd(model["inner"])
    return model["name"] in {"ovm", "gfm", "fvdm", "arz", "jwz"}


JAM_K_MAX = "must not exceed the jam density fd.k_j"
NO_STABILITY = "the stability analysis does not cover third-order models"
NO_CONTINUUM = "the second-order continuum solver does not cover third-order models"


def expected(doc):
    """The reference's verdict on a document with at most one fault, with the
    deliberate changes applied."""
    ref = outcome(validate_document, doc)
    if isinstance(doc, dict) and "output" in doc:  # the output section is gone
        return fault("output", "unknown section")
    if (ref[1] or "").endswith(".inner.name") and "must be a string" not in ref[2]:
        # the inner law's choices leave out third_order
        return fault(ref[1], f"must be one of {sorted(_MODEL_PARAM_SPECS)}")
    s, p = doc.get("sim"), doc.get("pde")
    if isinstance(s, dict) and isinstance(s.get("boundary"), str):
        return fault("sim.boundary", "must be an object")  # the string form is gone
    if (ref == fault("sim.initial.speed", "missing required key")
            and s.get("method") in ("pipes", "newell")):  # only rk4 reads the speed
        return expected({**doc, "sim": {**s, "initial": {**s["initial"], "speed": 0.0}}})
    if (isinstance(s, dict) and s.get("method") == "newell" and "dt" in s
            and ref[0] == 0):  # sim.dt is checked when present, whatever the method
        dt = outcome(lambda d: _number("sim.dt", d["sim"]["dt"], 0, exclusive=True), doc)
        if dt[0]:
            return dt
    huge = [path for path, value in nodes(doc)
            if type(value) is int and value > config.INT_CAP]
    if ref[0] == 0 and huge:  # integer values are capped
        return fault(dotted(huge[0]), f"must be <= {config.INT_CAP}")
    # A law built on the fd has no steady state above its jam density.
    if ref[0] == 0 and "fd" in doc and "model" in doc and reads_fd(doc["model"]):
        for section in ("steady", "stability"):
            if section in doc and doc[section]["k_max"] > jam_density(doc["fd"]):
                return fault(f"{section}.k_max", JAM_K_MAX)
    # A third-order law's delay is in neither the stability symbol nor the
    # second-order continuum system; these ran as the inner law or exited 2
    # with no path. The stability refusal runs before the sweep's rules, so a
    # sweep they refuse is refused at the model's name instead.
    third = isinstance(doc.get("model"), dict) and doc["model"].get("name") == "third_order"
    swept = ref[0] == 2 and ("takes no parameter" in ref[2] or "swept model is" in ref[2])
    if (ref[0] == 0 or swept) and third and "stability" in doc:
        return fault("model.name", NO_STABILITY)
    if (ref[0] == 0 and isinstance(s, dict) and s["method"] != "rk4" and "fd" in doc
            and doc["fd"]["kind"] != "triangular"):
        return fault("sim.method", SPACING_RULE)
    # The spacing rules' ring refusal and pipes step bound, which the simulate-cf
    # command applied after validation, are validation rules.
    if ref[0] == 0 and isinstance(s, dict) and s["method"] != "rk4":
        if s["boundary"]["kind"] == "ring":
            return fault("sim.boundary", NEEDS_PROFILE)
        if s["method"] == "newell" and "dt" in s:  # newell never read sim.dt
            return fault("sim.dt", NEWELL_DT)
        if s["method"] == "pipes" and "fd" in doc:
            slope = doc["fd"]["w"] * doc["fd"]["k_j"]  # the bound is 1 / (w k_j)
            bound = 1.0 / slope if slope else math.inf
            if s["dt"] > bound * (1 + 1e-12):
                return fault("sim.dt", f"dt={s['dt']:g} violates the vehicle-information "
                             f"bound {bound:g}")
    if ref[0] == 0 and isinstance(p, dict) and isinstance(p.get("boundary"), dict):
        bnd = p["boundary"]
        if "fd" in doc and bnd["k_in"] > jam_density(doc["fd"]):
            return fault("pde.boundary.k_in", "must not exceed the jam density fd.k_j")
        if p["solver"] == "second_order" and "v_in" not in bnd:
            return fault("pde.boundary.v_in", "missing required key (the second-order "
                         "solver needs the inflow speed)")
        if p["solver"] == "lwr" and "v_in" in bnd:  # Godunov never read v_in
            return fault("pde.boundary.v_in", LWR_V_IN)
    if ref[0] == 0 and third and isinstance(p, dict) and p["solver"] == "second_order":
        return fault("model.name", NO_CONTINUUM)
    u = doc.get("suite")
    if ref[0] == 0 and isinstance(u, dict):
        if ("fd" in doc and u["ring"]["k0"] > jam_density(doc["fd"])
                and any(reads_fd(entry["model"]) for entry in u["entries"])):
            return fault("suite.ring.k0", JAM_K_MAX)
        for i, entry in enumerate(u["entries"]):
            if entry["model"]["name"] == "third_order":
                return fault(f"suite.entries[{i}].model.name", NO_CONTINUUM)
    return ref


# ---------------------------------------------------------------------------
# Single-leaf mutations


def nodes(value, path=()):
    """Each (path, value) pair of a document, the root first."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, member in items:
        yield from nodes(member, path + (key,))


def dotted(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


NODES = [(i, path) for i, base in enumerate(BASES) for path, _ in nodes(base)]
REPLACEMENTS = [
    # other types
    "bogus", "ring", "periodic", "third_order", True, None, [], [1.0], {"bogus": 1}, 0.5, 7,
    # not finite
    math.nan, math.inf, -math.inf, 10**400,
    # either side of every bound in the schema
    -1, 0, 0.0, -0.0, 5e-324, -5e-324, 1, math.nextafter(1.0, 0.0), 2, 3, 4, 1.5,
]


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutate(base, path, op, value):
    """``base`` with one change at ``path``, or None where ``op`` does not apply."""
    doc = copy.deepcopy(base)
    if op == "unknown":
        target = parent_of(doc, path + (None,))
        if not isinstance(target, dict):
            return None
        target["bogus_key"] = 1
        return doc
    if not path:
        return None
    parent, key = parent_of(doc, path), path[-1]
    if op == "drop":
        del parent[key]
    elif op == "rename":
        if not isinstance(parent, dict):
            return None
        parent[f"{key}_x"] = parent.pop(key)
    elif op == "replace":
        if value == "third_order" and parent == {"name": "arz"}:
            # t_delay and inner would both be missing; the reference names the one
            # its set of required keys yields first, which varies with the hash seed
            return None
        parent[key] = value
    else:  # "nudge": a sibling number, or the float just below or above it
        siblings = [v for k, v in (parent.items() if isinstance(parent, dict)
                                   else enumerate(parent))
                    if k != key and isinstance(v, float)]
        if not isinstance(parent[key], (int, float)) or not siblings:
            return None
        sibling = siblings[value % len(siblings)]
        parent[key] = (math.nextafter(sibling, -math.inf), sibling,
                       math.nextafter(sibling, math.inf))[value % 3]
    return doc


@settings(max_examples=600, deadline=None)
@given(node=st.sampled_from(NODES),
       op=st.sampled_from(["drop", "rename", "unknown", "replace", "replace", "nudge"]),
       index=st.integers(0, len(REPLACEMENTS) - 1))
def test_walker_matches_reference_on_single_faults(node, op, index):
    base, path = node
    doc = mutate(BASES[base], path, op, REPLACEMENTS[index] if op == "replace" else index)
    if doc is None:
        return
    assert outcome(config.validate_document, doc) == expected(doc)


@pytest.mark.parametrize("base", range(len(BASES)))
def test_base_documents_are_valid(base):
    assert outcome(validate_document, BASES[base]) == (0, None, None)
    assert outcome(config.validate_document, BASES[base]) == (0, None, None)


# ---------------------------------------------------------------------------
# Deliberate departures from the reference


DROP = object()


def with_change(base, path, value):
    doc = copy.deepcopy(BASES[base])
    if value is DROP:
        del parent_of(doc, path)[path[-1]]
    else:
        parent_of(doc, path)[path[-1]] = value
    return doc


@pytest.mark.parametrize("base, path, value, code", [
    (3, ("model", "T_brake"), 2.0, 2),
    (3, ("model", "T_brake"), math.nextafter(2.0, 0.0), 0),
    (0, ("steady", "k_max"), 0.01, 2),
    (0, ("stability", "k_max"), 0.05, 2),
    (2, ("sim", "boundary", "amplitude"), math.nextafter(10.0, math.inf), 2),
    (2, ("sim", "boundary", "amplitude"), 10.0, 0),
    (3, ("sim", "boundary", "times", 1), 0.0, 2),
    (3, ("sim", "boundary", "times", 0), 1.0, 2),
    (4, ("sim", "boundary", "speeds"), [10.0], 2),
    (4, ("sim", "boundary", "times"), [], 2),
    (4, ("sim", "dt"), DROP, 2),
    (3, ("sim", "dt"), 1.0, 2),
    (9, ("model", "inner", "name"), "third_order", 2),
    (15, ("suite", "entries", 1, "model"), {"name": "third_order", "t_delay": 0.3,
                                            "inner": dict(BASES[9]["model"])}, 2),
    (0, ("stability", "sweep", "param"), "w", 2),
    (3, ("stability", "sweep", "values", 1), 2.0, 2),
    (5, ("stability", "sweep", "values", 0), 0.5, 2),
    (10, ("stability", "sweep", "param"), "inner", 2),
    (10, ("stability", "sweep", "param"), "delta", 0),
    (2, ("stability", "sweep", "values", 0), 0.5, 2),
    (4, ("sim", "boundary", "speeds"), "x", 2),
    (4, ("sim", "boundary", "speeds"), [], 2),
    (2, ("fd", "table", 1), [0.05], 2),
    (2, ("fd", "table", 1), [0.05, 0.5, 0.0], 2),
    (0, ("stability", "count"), config.INT_CAP, 0),
    (0, ("stability", "count"), config.INT_CAP + 1, 2),
    (4, ("sim", "initial", "speed"), DROP, 2),
    (0, ("steady", "k_max"), 0.2, 0),  # at the jam density
    (0, ("steady", "k_max"), math.nextafter(0.2, math.inf), 2),
    (0, ("stability", "k_max"), 0.2, 0),
    (0, ("stability", "k_max"), math.nextafter(0.2, math.inf), 2),
    (15, ("suite", "ring", "k0"), 0.2, 0),
    (15, ("suite", "ring", "k0"), math.nextafter(0.2, math.inf), 2),
])
def test_edges_match_reference(base, path, value, code):
    """Each rule at its boundary, and the list shapes the reference reports at
    a sibling (``times``) or at the outer list (``fd.table``)."""
    doc = with_change(base, path, value)
    assert outcome(config.validate_document, doc) == expected(doc)
    assert expected(doc)[0] == code


@pytest.mark.parametrize("doc, reference, walker", [
    pytest.param(with_change(0, ("sim", "boundary"), "ring"), (0, None, None),
                 fault("sim.boundary", "must be an object"), id="string-ring-boundary"),
    pytest.param(with_change(0, ("sim", "boundary"), "loop"),
                 fault("sim.boundary", "string boundary must be 'ring' (with sim.ring_length)"),
                 fault("sim.boundary", "must be an object"), id="other-string-boundary"),
    pytest.param(with_change(1, ("pde", "boundary", "k_in"), 0.5), (0, None, None),
                 fault("pde.boundary.k_in", "must not exceed the jam density fd.k_j"),
                 id="k_in-above-k_j"),
    pytest.param(with_change(16, ("fd", "table", 2, 0), 0.15), (0, None, None),
                 fault("pde.boundary.k_in", "must not exceed the jam density fd.k_j"),
                 id="k_in-above-tabulated-k_j"),
    pytest.param(with_change(2, ("pde", "boundary"), {"kind": "inflow", "k_in": 0.05}),
                 (0, None, None),
                 fault("pde.boundary.v_in", "missing required key (the second-order "
                       "solver needs the inflow speed)"), id="second-order-without-v_in"),
    pytest.param(with_change(3, ("sim", "dt"), -1.0), (0, None, None),
                 fault("sim.dt", "must be > 0"), id="newell-dt-checked"),
    # the spacing-rule run at the time gap and Godunov never read these keys
    pytest.param(with_change(3, ("sim", "dt"), 1.0), (0, None, None),
                 fault("sim.dt", NEWELL_DT), id="newell-with-dt"),
    pytest.param(with_change(1, ("pde", "boundary", "v_in"), 10.0), (0, None, None),
                 fault("pde.boundary.v_in", LWR_V_IN), id="lwr-with-v_in"),
    # the spacing rules never read the initial speed, so they need not be given it
    pytest.param(with_change(3, ("sim", "initial", "speed"), DROP),
                 fault("sim.initial.speed", "missing required key"), (0, None, None),
                 id="newell-without-initial-speed"),
    pytest.param(with_change(17, ("sim", "initial", "speed"), DROP),
                 fault("sim.initial.speed", "missing required key"), (0, None, None),
                 id="pipes-without-initial-speed"),
    pytest.param(with_change(9, ("model", "inner", "name"), "third_order"),
                 fault("model.inner.name", "third-order laws cannot nest"),
                 fault("model.inner.name", f"must be one of {sorted(_MODEL_PARAM_SPECS)}"),
                 id="nested-third-order"),
    pytest.param(with_change(1, ("pde", "steps"), 10**400), (0, None, None),
                 fault("pde.steps", f"must be <= {config.INT_CAP}"), id="capped-integer"),
    # BASES[2] ran pipes on its tabulated fd before the sim.method rule
    pytest.param(with_change(2, ("sim", "method"), "pipes"), (0, None, None),
                 fault("sim.method", SPACING_RULE), id="pipes-on-tabulated-fd"),
    pytest.param(with_change(1, ("sim", "method"), "newell"), (0, None, None),
                 fault("sim.method", SPACING_RULE), id="newell-on-greenshields-fd"),
    # simulate-cf refused these after validation, at the same path
    pytest.param(with_change(3, ("sim", "boundary"), {"kind": "ring", "length": 60.0}),
                 (0, None, None), fault("sim.boundary", NEEDS_PROFILE), id="newell-on-ring"),
    pytest.param(with_change(17, ("sim", "dt"), 1.5), (0, None, None),
                 fault("sim.dt", "dt=1.5 violates the vehicle-information bound 1"),
                 id="pipes-dt-above-time-gap"),
    pytest.param(with_change(17, ("sim", "dt"), 1.0), (0, None, None), (0, None, None),
                 id="pipes-dt-at-time-gap"),
    # a law built on the fd ran into its jam spacing at run time (exit 1)
    pytest.param(with_change(0, ("steady", "k_max"), 0.25), (0, None, None),
                 fault("steady.k_max", JAM_K_MAX), id="steady-above-k_j"),
    pytest.param(with_change(0, ("stability", "k_max"), 0.25), (0, None, None),
                 fault("stability.k_max", JAM_K_MAX), id="stability-above-k_j"),
    pytest.param(with_change(7, ("steady", "k_max"), 0.25), (0, None, None),
                 fault("steady.k_max", JAM_K_MAX), id="arz-above-k_j"),
    # the jam density is checked before the third-order model is refused
    pytest.param({**BASES[9], "stability": {**K_GRID, "k_max": 0.25}}, (0, None, None),
                 fault("stability.k_max", JAM_K_MAX), id="third-order-ovm-above-k_j"),
    # IDM keeps its own jam spacing and does not read the fd
    pytest.param(with_change(4, ("fd",), TRI) | {"steady": {**K_GRID, "k_max": 0.25}},
                 (0, None, None), (0, None, None), id="idm-with-fd-above-k_j"),
    pytest.param(with_change(18, ("fd",), TRI) | {"steady": {**K_GRID, "k_max": 0.25}},
                 (0, None, None), (0, None, None), id="third-order-idm-with-fd-above-k_j"),
    # BASES[11] held an output section, which nothing read
    pytest.param(with_change(11, ("output",), {"dir": "out"}), (0, None, None),
                 fault("output", "unknown section"), id="output-section"),
    # a third-order law ran as its inner law under stability, and the
    # second-order solver refused it at run time with no path
    pytest.param({**BASES[9], "stability": K_GRID}, (0, None, None),
                 fault("model.name", NO_STABILITY), id="third-order-stability"),
    pytest.param({**BASES[9], "stability": sweep("t_delay", 0.2, 0.4)}, (0, None, None),
                 fault("model.name", NO_STABILITY), id="third-order-stability-sweep"),
    # the refusal runs before the sweep, whose rule named a parameter the model lacks
    pytest.param({**BASES[9], "stability": sweep("inner", 0.2)},
                 fault("stability.sweep.param", "model 'third_order' takes no parameter "
                       "'inner' (one of ['T', 't_delay'])"),
                 fault("model.name", NO_STABILITY), id="third-order-stability-sweep-inner"),
    pytest.param({**BASES[13], "model": BASES[9]["model"]}, (0, None, None),
                 fault("model.name", NO_CONTINUUM), id="third-order-second-order-pde"),
    pytest.param({"fd": GS, "model": BASES[9]["model"], "pde": BASES[1]["pde"]},
                 (0, None, None), (0, None, None), id="third-order-lwr-pde"),
    pytest.param(with_change(15, ("suite", "entries", 1, "model"), BASES[9]["model"]),
                 (0, None, None), fault("suite.entries[1].model.name", NO_CONTINUUM),
                 id="third-order-suite-entry"),
    # the ring density of a suite whose laws read the fd ran into the jam spacing
    pytest.param(with_change(15, ("suite", "ring", "k0"), 0.25), (0, None, None),
                 fault("suite.ring.k0", JAM_K_MAX), id="suite-k0-above-k_j"),
    pytest.param({"fd": TRI, "suite": {**BASES[15]["suite"], "entries": [
        {"scenario": "a", "model": IDM}], "ring": {**BASES[15]["suite"]["ring"], "k0": 0.25}}},
                 (0, None, None), (0, None, None), id="idm-suite-k0-above-k_j"),
])
def test_deliberate_changes(doc, reference, walker):
    assert outcome(validate_document, doc) == reference
    assert outcome(config.validate_document, doc) == walker
    assert expected(doc) == walker


@pytest.mark.parametrize("path, value, verdict", [
    (("pde", "steps"), config.INT_CAP // 20 - 1, (0, None)),  # 20 cells x INT_CAP / 20
    (("pde", "steps"), config.INT_CAP // 20, (2, "pde.steps")),
    (("sim", "steps"), config.INT_CAP // 3 - 1, (0, None)),  # 3 vehicles
    (("sim", "steps"), config.INT_CAP // 3, (2, "sim.steps")),
])
def test_recorded_samples_are_capped(path, value, verdict):
    """A run may record at most INT_CAP samples; the reference had no cap."""
    doc = with_change(1, path, value)
    assert outcome(validate_document, doc) == (0, None, None)
    assert outcome(config.validate_document, doc)[:2] == verdict


def test_k_in_at_jam_density_and_newell_without_dt_stay_valid():
    assert outcome(config.validate_document, BASES[16]) == (0, None, None)  # k_in == k_j
    assert "dt" not in BASES[14]["sim"]
    assert outcome(config.validate_document, BASES[14]) == (0, None, None)


def test_non_object_root_names_no_path():
    for doc in ([], "fd", 1, None):
        assert outcome(config.validate_document, doc) == outcome(validate_document, doc)


