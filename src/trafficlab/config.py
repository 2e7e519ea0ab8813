"""Strict scenario-JSON validation and object construction.

Every section is checked key by key: unknown keys are rejected and every
numeric parameter is range-checked up front, with dotted paths in error
messages (e.g. ``fd.k_j``) so a bad config fails before anything runs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .continuum import EulerianScenario, InflowOutflow, Periodic
from .equivalence import RingScenario, SuiteEntry
from .errors import ConfigurationError, ParameterError
from .fundamental import FundamentalDiagram, diagram_from_config
from .laws import AccelerationLaw, law_from_config
from .platoon import (ConstantLeader, PiecewiseConstantLeader, PlatoonState,
                      Ring, SinusoidLeader)
from .transforms import SpatialGrid

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
# Builders (assume a validated document)


def require_section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise ConfigurationError("missing required section", path=name)
    return doc[name]


def build_fd(doc: dict) -> FundamentalDiagram:
    try:
        return diagram_from_config(require_section(doc, "fd"))
    except ParameterError as exc:
        raise ConfigurationError(str(exc), path="fd") from exc


def build_law(doc: dict) -> AccelerationLaw:
    cfg = require_section(doc, "model")
    fd = build_fd(doc) if "fd" in doc else None
    try:
        return law_from_config(cfg, fd)
    except ParameterError as exc:
        raise ConfigurationError(str(exc), path="model") from exc


def k_grid_from(cfg: dict) -> np.ndarray:
    return np.linspace(cfg["k_min"], cfg["k_max"], cfg["count"])


def build_boundary(cfg):
    if cfg["kind"] == "constant":
        return ConstantLeader(v0=cfg["v0"])
    if cfg["kind"] == "sinusoid":
        return SinusoidLeader(v0=cfg["v0"], amplitude=cfg["amplitude"],
                              omega=cfg["omega"])
    if cfg["kind"] == "piecewise":
        return PiecewiseConstantLeader(times=tuple(cfg["times"]),
                                       speeds=tuple(cfg["speeds"]))
    return Ring(length=cfg["length"])


def build_initial_platoon(sim_cfg: dict) -> PlatoonState:
    init = sim_cfg["initial"]
    n = init["n_vehicles"]
    spacing = init["spacing"]
    speed = init["speed"]
    lead = init.get("lead_position", 0.0)
    base = lead - spacing * np.arange(n)
    boundary = sim_cfg["boundary"]
    if isinstance(boundary, dict) and boundary.get("kind") == "ring":
        span = boundary["length"]
        if abs(n * spacing - span) > 1e-9 * span:
            raise ConfigurationError(
                "n_vehicles * spacing must equal the ring length",
                path="sim.initial.spacing")
    else:
        span = n * spacing
    x = base.astype(float)
    pert = init.get("perturbation")
    if pert and pert["relative_amplitude"] > 0:
        waves = pert.get("waves", 1)
        disp = pert["relative_amplitude"] * span / (2 * math.pi * waves)
        x = x + disp * np.sin(2 * math.pi * waves * (base - base[-1]) / span)
    return PlatoonState(time=0.0, positions=x, speeds=np.full(n, float(speed)))


def build_pde_initial(cfg: dict, grid: SpatialGrid):
    centers = grid.centers
    init = cfg["initial"]
    if init["kind"] == "uniform":
        k = np.full(grid.cells, float(init["k"]))
    elif init["kind"] == "riemann":
        k = np.where(centers < init["x_jump"], init["k_left"], init["k_right"])
        k = k.astype(float)
    else:
        waves = init.get("waves", 1)
        k0 = init["k0"]
        k = k0 * (1.0 + init["relative_amplitude"]
                  * np.sin(2 * math.pi * waves * (centers - grid.x0) / grid.span))
    return k


def build_pde_scenario(doc: dict):
    cfg = require_section(doc, "pde")
    grid = SpatialGrid(cfg.get("x0", 0.0), cfg["dx"], cfg["cells"])
    solver = cfg["solver"]
    fd = build_fd(doc) if "fd" in doc else None
    law = build_law(doc) if solver == "second_order" else None
    if solver == "lwr" and fd is None:
        raise ConfigurationError("LWR solver needs an fd section", path="fd")
    bnd_cfg = cfg.get("boundary", "periodic")
    if bnd_cfg == "periodic":
        boundary = Periodic()
    else:
        boundary = InflowOutflow(k_in=bnd_cfg["k_in"], v_in=bnd_cfg.get("v_in"))
    k_init = build_pde_initial(cfg, grid)
    v_init = None
    if solver == "second_order":
        v_init = _equilibrium_speeds(law, k_init)
    scenario = EulerianScenario(
        grid=grid, dt=cfg["dt"], steps=cfg["steps"],
        initial_density=k_init, initial_speed=v_init,
        boundary=boundary, fd=fd, law=law,
        record_every=cfg.get("record_every", 1))
    return scenario, solver


def _equilibrium_speeds(law, k_init):
    from .steady_state import EquilibriumStatus, solve_equilibrium_speed

    speeds = np.empty_like(k_init)
    for i, k in enumerate(k_init):
        res = solve_equilibrium_speed(law, max(float(k), 1e-6))
        if res.status is not EquilibriumStatus.OK:
            raise ConfigurationError(
                f"{law.name} has no equilibrium speed at k={k:g}; "
                "cannot seed the speed field", path="pde.initial")
        speeds[i] = res.speed
    return speeds


def build_suite(doc: dict) -> tuple[list[SuiteEntry], dict]:
    cfg = require_section(doc, "suite")
    fd = build_fd(doc) if "fd" in doc else None
    ring_cfg = cfg["ring"]
    entries: list[SuiteEntry] = []
    for entry in cfg["entries"]:
        try:
            law = law_from_config(entry["model"], fd)
        except ParameterError as exc:
            raise ConfigurationError(str(exc), path="suite.entries") from exc
        ring = RingScenario(
            circumference=ring_cfg["circumference"], k0=ring_cfg["k0"],
            amplitude=entry.get("amplitude", ring_cfg["amplitude"]),
            horizon=ring_cfg["horizon"], dt_cf=ring_cfg["dt_cf"],
            dt_pde=ring_cfg["dt_pde"],
            compare_points=ring_cfg.get("compare_points", 24),
            threshold=ring_cfg.get("threshold", 0.05))
        for cells in cfg["resolutions"]:
            entries.append(SuiteEntry(scenario=entry["scenario"], law=law,
                                      ring=ring, cells=cells))
    return entries, ring_cfg
