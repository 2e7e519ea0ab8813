"""Strict scenario-JSON validation and object construction.

One schema table says what every key of a scenario may hold, and one walker
enforces it key by key: unknown keys are rejected and every numeric parameter
is range-checked up front, with dotted paths in error messages (e.g.
``fd.k_j``) so a bad config fails before anything runs. The checks that relate
two values are named rules, each run right after the keys of its section.
"""

from __future__ import annotations

import math
import re
import sys
from typing import NamedTuple

import numpy as np

from .continuum import EulerianScenario, InflowOutflow, Periodic
from .equivalence import RingScenario, SuiteEntry
from .errors import ConfigurationError, DomainError, ParameterError
from .fundamental import FundamentalDiagram, cfl_max_dt, diagram_from_config
from .laws import AccelerationLaw, law_from_config, reads_fd
from .platoon import (ConstantLeader, PiecewiseConstantLeader, PlatoonState,
                      Ring, SinusoidLeader, _validate_ordering)
from .steady_state import EquilibriumStatus, solve_equilibrium_speed
from .transforms import SpatialGrid


class Leaf(NamedTuple):
    """What one key of a scenario may hold, and whether it may be absent.

    ``bound`` depends on ``kind``:

    - ``number``, ``integer``: the minimum (a number's may be None);
      ``strict`` refuses the minimum itself; an integer is also at most
      ``INT_CAP``;
    - ``string``: the allowed values, or () for any string;
    - ``list``: ``(item, min_len, max_len, message, at)``; a value of any other
      shape (nested lists included) fails with ``message``, at the sibling key
      ``at`` when one is named;
    - ``section``: ``(table, strings)``, the table mapping each key to its
      leaf; the value may instead be one of ``strings``;
    - ``variant``: ``(key, {choice: table})``; the value of ``key`` picks one.
    """

    kind: str
    bound: object = None
    required: bool = True
    strict: bool = False


# The largest integer value, and the most samples a run may record: larger
# sizes are refused here, before they reach NumPy's allocator.
INT_CAP = 10**8


def _num(minimum=None, strict=False) -> Leaf:
    return Leaf("number", minimum, strict=strict)


def _int(minimum: int) -> Leaf:
    return Leaf("integer", minimum)


def _str(*choices: str) -> Leaf:
    return Leaf("string", choices)


def _list(item: Leaf, message: str, min_len=0, max_len=math.inf, at="") -> Leaf:
    return Leaf("list", (item, min_len, max_len, message, at))


def _obj(table: dict, strings=()) -> Leaf:
    return Leaf("section", (table, strings))


def _variant(key: str, tables: dict) -> Leaf:
    return Leaf("variant", (key, tables))


def _opt(leaf: Leaf) -> Leaf:
    return leaf._replace(required=False)


POS, NONNEG, REAL, INT1, STRING = _num(0, strict=True), _num(0), _num(), _int(1), _str()
_IDM = {"a": POS, "b": POS, "delta": _num(1), "v_f": POS, "tau": POS, "d": POS}
MODELS = {
    "linear_gm": {"T": POS},
    "nonlinear_gm": {"a": POS, "m": _int(0), "l": _int(0)},
    "ovm": {"T": POS},
    "gfm": {"T": POS, "T_brake": POS, "d": POS, "tau": POS, "R": POS},
    "idm": _IDM,
    "idm_alt": _IDM,
    "fvdm": {"T": POS, "lambda": NONNEG},
    "arz": {},
    "jwz": {"T": POS, "c0": NONNEG},
}
# A third-order law wraps a first-order one; wrappers do not nest.
MODELS["third_order"] = {"t_delay": POS, "inner": _variant("name", dict(MODELS))}
MODEL = _variant("name", MODELS)
_K_GRID = {"k_min": POS, "k_max": POS, "count": _int(2)}
_PAIRED = "times and speeds must be equal-length lists"

SECTIONS = {
    "fd": _variant("kind", {
        "triangular": {"v_f": POS, "w": POS, "k_j": POS},
        "greenshields": {"v_f": POS, "k_j": POS},
        "tabulated": {"table": _list(_list(NONNEG, "", 2, 2),
                                     "must be a list of [k, q] pairs, >= 3 rows", 3)},
    }),
    "model": MODEL,
    "steady": _obj(_K_GRID),
    "stability": _obj({**_K_GRID, "sweep": _opt(_obj({
        "param": STRING, "values": _list(POS, "must be a non-empty list", 1)}))}),
    "sim": _obj({
        "method": _str("rk4", "pipes", "newell"),
        "dt": _opt(POS),
        "steps": INT1,
        "boundary": _variant("kind", {
            "constant": {"v0": NONNEG},
            "sinusoid": {"v0": NONNEG, "amplitude": NONNEG, "omega": POS},
            "piecewise": {"times": _list(NONNEG, _PAIRED, 1),
                          "speeds": _list(NONNEG, _PAIRED, 1, at="times")},
            "ring": {"length": POS},
        }),
        "initial": _obj({
            "n_vehicles": _int(2), "spacing": POS, "speed": _opt(NONNEG),
            "lead_position": _opt(REAL),
            "perturbation": _opt(_obj({"relative_amplitude": NONNEG,
                                       "waves": _opt(INT1)})),
        }),
    }),
    "pde": _obj({
        "solver": _str("lwr", "second_order"),
        "x0": _opt(REAL), "dx": POS, "cells": INT1, "dt": POS, "steps": INT1,
        "record_every": _opt(INT1),
        # One object form only, so its kind is a plain key, not a variant.
        "boundary": _opt(_obj({"kind": _str("inflow"), "k_in": NONNEG,
                               "v_in": _opt(NONNEG)}, strings=("periodic",))),
        "initial": _variant("kind", {
            "uniform": {"k": NONNEG},
            "riemann": {"k_left": NONNEG, "k_right": NONNEG, "x_jump": REAL},
            "sine": {"k0": POS, "relative_amplitude": NONNEG, "waves": _opt(INT1)},
        }),
    }),
    "suite": _obj({
        "ring": _obj({"circumference": POS, "k0": POS, "horizon": POS, "dt_cf": POS,
                      "dt_pde": POS, "amplitude": NONNEG,
                      "compare_points": _opt(_int(2)), "threshold": _opt(POS)}),
        "entries": _list(_obj({"scenario": STRING, "model": MODEL,
                               "amplitude": _opt(NONNEG)}), "must be a list"),
        "resolutions": _list(_int(4), "must be a non-empty list of cell counts", 1),
    }),
    "transform": _variant("direction", {
        "to_eulerian": {"input": STRING, "x0": REAL, "dx": POS, "cells": INT1},
        "to_trajectories": {"input": STRING, "n_vehicles": INT1},
    }),
}


def _fail(path: str, message: str):
    raise ConfigurationError(message, path=path)


def _shaped(leaf: Leaf, value) -> bool:
    item, min_len, max_len = leaf.bound[:3]
    return (isinstance(value, list) and min_len <= len(value) <= max_len
            and (item.kind != "list" or all(_shaped(item, v) for v in value)))


def _walk(leaf: Leaf, value, path: str, doc: dict) -> None:
    """Check ``value`` against ``leaf``; raises at the first fault, with its path."""
    kind, bound = leaf.kind, leaf.bound
    if kind == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            _fail(path, "must be a number")
        # json parses NaN, Infinity and 1e999; NaN would also pass every minimum.
        # Comparing keeps an int too large for a float from overflowing.
        if not -sys.float_info.max <= value <= sys.float_info.max:
            _fail(path, "must be a finite number")
        if bound is not None and (value <= bound if leaf.strict else value < bound):
            _fail(path, f"must be {'>' if leaf.strict else '>='} {bound}")
    elif kind == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(path, "must be an integer")
        if value < bound:
            _fail(path, f"must be >= {bound}")
        if value > INT_CAP:
            _fail(path, f"must be <= {INT_CAP}")
    elif kind == "string":
        if not isinstance(value, str):
            _fail(path, "must be a string")
        if bound and value not in bound:
            _fail(path, f"must be one of {sorted(bound)}")
    elif kind == "list":
        item, _, _, message, at = bound
        if not _shaped(leaf, value):
            _fail(f"{path.rpartition('.')[0]}.{at}" if at else path, message)
        for i, member in enumerate(value):
            _walk(item, member, f"{path}[{i}]", doc)
    elif kind == "section" and bound[1] and isinstance(value, str):
        _walk(_str(*bound[1]), value, path, doc)
    else:
        if not isinstance(value, dict):
            _fail(path, "must be an object")
        if kind == "variant":
            key, tables = bound
            name = value.get(key, "")
            _walk(_str(*tables), name, f"{path}.{key}", doc)
            table = tables[name]
        else:
            key, name, table = None, path, bound[0]
        for k in value:
            if k not in table and k != key:
                _fail(f"{path}.{k}", "unknown key")
        for k, sub in table.items():
            if sub.required and k not in value:
                _fail(f"{path}.{k}", "missing required key")
        for k, sub in table.items():
            if k in value:
                _walk(sub, value[k], f"{path}.{k}", doc)
        for section, rule in RULES:
            if section == name:
                rule(value, path, doc)


def validate_document(doc: dict, reads: set[str] | None = None) -> None:
    """Validate the config document; raises with a dotted path.

    Every section's keys are checked. A rule that relates a section to
    another runs only for the sections in ``reads`` (by default, all): a
    section that a command does not read is checked as if it stood alone.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")
    for key in doc:
        if key not in SECTIONS:
            _fail(key, "unknown section")
    for key, leaf in SECTIONS.items():
        if key in doc:
            _walk(leaf, doc[key], key, doc if reads is None or key in reads else {key: doc[key]})


def at_paths(paths: dict, run, *args):
    """``run(*args)``; a refusal that names one of ``paths``' keys (see
    :class:`ConfigurationError`) is re-raised at that key's dotted path."""
    try:
        return run(*args)
    except ConfigurationError as exc:
        if exc.path not in paths:
            raise
        raise ConfigurationError(exc.reason, path=paths[exc.path]) from exc


# ---------------------------------------------------------------------------
# Rules relating two values. Each check gets a section whose keys already
# passed their leaves, the section's path and the whole document.


def _rule(key: str, message: str, broken):
    """A check that fails at ``key`` with ``message`` when ``broken(section, doc)``."""
    def check(cfg, path, doc):
        if broken(cfg, doc):
            _fail(f"{path}.{key}", message)
    return check


def _sweep(cfg, path, doc):
    # Each swept value must keep the (already valid, second-order) model valid.
    if "sweep" not in cfg or "model" not in doc:
        return
    model, param = doc["model"], cfg["sweep"]["param"]
    takes = set(MODELS[model["name"]])
    if param not in takes:
        _fail(f"{path}.sweep.param", f"model {model['name']!r} takes no parameter "
              f"{param!r} (one of {sorted(takes)})")
    for i, value in enumerate(cfg["sweep"]["values"]):
        try:
            _walk(MODEL, {**model, param: value}, "model", doc)
        except ConfigurationError as exc:
            _fail(f"{path}.sweep.values[{i}]", f"swept model is invalid: {exc}")


def _jam_density(fd: dict) -> float:
    return fd["k_j"] if "k_j" in fd else fd["table"][-1][0]


def _rises_from_zero(times: list) -> bool:
    return times[0] == 0 and all(a < b for a, b in zip(times, times[1:]))


def _pipes_dt(cfg, path, doc):
    # The explicit spacing rule runs only within the vehicle-information bound.
    if cfg["method"] == "pipes" and "fd" in doc:
        bound = cfl_max_dt(build_fd(doc))
        if cfg["dt"] > bound * (1 + 1e-12):
            _fail(f"{path}.dt", f"dt={cfg['dt']:g} violates the vehicle-information "
                  f"bound {bound:g}")


def _given_where(key: str, needed, missing: str, unread: str):
    """A check that ``key`` is given exactly where ``needed(section, doc)``."""
    def check(cfg, path, doc):
        if needed(cfg, doc) != (key in cfg):
            _fail(f"{path}.{key}", unread if key in cfg else missing)
    return check


def _not_third_order(message: str, models):
    """A check that fails at the ``name`` of the first third-order model among
    the ``(path, model)`` pairs that ``models(section, path, doc)`` gives."""
    def check(cfg, path, doc):
        for at, model in models(cfg, path, doc):
            if model["name"] == "third_order":
                _fail(f"{at}.name", message)
    return check


_K_RANGE = _rule("k_max", "must exceed k_min",
                 lambda c, d: float(c["k_max"]) <= float(c["k_min"]))
# A law built on the fd has no steady state above the fd's jam density: not
# at a grid's k_max, nor at the ring density of a suite with such a law.
_JAM = "must not exceed the jam density fd.k_j"
_K_JAM = _rule("k_max", _JAM, lambda c, d: "fd" in d and "model" in d and reads_fd(d["model"])
               and c["k_max"] > _jam_density(d["fd"]))
_RING_K_JAM = _rule("ring.k0", _JAM, lambda c, d: "fd" in d
                    and any(reads_fd(entry["model"]) for entry in c["entries"])
                    and c["ring"]["k0"] > _jam_density(d["fd"]))
# A third-order law's delay is in neither the stability symbol nor the
# second-order continuum system.
_NO_CONTINUUM = "the second-order continuum solver does not cover third-order models"
# Each check runs right after the leaves of the section it is listed under: a
# section's dotted path, or a variant's choice wherever that variant appears.
RULES = (
    ("gfm", _rule("T_brake", "must be smaller than T", lambda c, d: c["T_brake"] >= c["T"])),
    ("steady", _K_RANGE),
    ("steady", _K_JAM),
    ("stability", _K_RANGE),
    ("stability", _K_JAM),
    # Before the sweep, so that it never sees a third-order model.
    ("stability", _not_third_order("the stability analysis does not cover third-order models",
                                   lambda c, p, d: [("model", d["model"])] if "model" in d
                                   else [])),
    ("stability", _sweep),
    ("sinusoid", _rule("amplitude", "must not exceed v0 (speeds stay >= 0)",
                       lambda c, d: float(c["amplitude"]) > float(c["v0"]))),
    ("piecewise", _rule("times", _PAIRED, lambda c, d: len(c["times"]) != len(c["speeds"]))),
    ("piecewise", _rule("times", "must start at 0 and increase",
                        lambda c, d: not _rises_from_zero(c["times"]))),
    ("sim", _rule("steps", f"(steps + 1) * initial.n_vehicles must be <= {INT_CAP}",
                  lambda c, d: (c["steps"] + 1) * c["initial"]["n_vehicles"] > INT_CAP)),
    ("sim", _rule("method", "spacing-rule simulators need a triangular fd",
                  lambda c, d: c["method"] != "rk4" and "fd" in d
                  and d["fd"]["kind"] != "triangular")),
    ("sim", _rule("boundary", "spacing-rule simulators need a leader profile",
                  lambda c, d: c["method"] != "rk4" and c["boundary"]["kind"] == "ring")),
    # rk4 and pipes step at sim.dt; newell steps at the fd's time gap.
    ("sim", _given_where("dt", lambda c, d: c["method"] != "newell", "missing required key",
                          "method 'newell' steps at the fd's time gap and takes no dt")),
    ("sim", _pipes_dt),
    # Only rk4 reads the initial speeds; the spacing rules start from positions.
    ("sim.initial", _rule("speed", "missing required key",
                          lambda c, d: d["sim"]["method"] == "rk4" and "speed" not in c)),
    ("pde", _rule("steps", f"(steps // record_every + 1) * cells must be <= {INT_CAP}",
                  lambda c, d: (c["steps"] // c.get("record_every", 1) + 1) * c["cells"]
                  > INT_CAP)),
    ("pde.boundary", _rule("k_in", _JAM,
                           lambda c, d: "fd" in d and c["k_in"] > _jam_density(d["fd"]))),
    ("pde.boundary", _given_where("v_in", lambda c, d: d["pde"]["solver"] == "second_order",
                                   "missing required key (the second-order solver needs "
                                   "the inflow speed)",
                                   "solver 'lwr' takes no inflow speed")),
    ("pde", _not_third_order(_NO_CONTINUUM, lambda c, p, d: [("model", d["model"])]
                             if c["solver"] == "second_order" and "model" in d else [])),
    ("suite", _RING_K_JAM),
    ("suite", _not_third_order(_NO_CONTINUUM, lambda c, p, d: [
        (f"{p}.entries[{i}].model", entry["model"]) for i, entry in enumerate(c["entries"])])),
)


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


def _law(cfg: dict, fd: FundamentalDiagram | None, path: str) -> AccelerationLaw:
    try:
        return law_from_config(cfg, fd)
    except ParameterError as exc:
        raise ConfigurationError(str(exc), path=path) from exc


def build_law(doc: dict) -> AccelerationLaw:
    return _law(require_section(doc, "model"), build_fd(doc) if "fd" in doc else None,
                "model")


def k_grid_from(cfg: dict) -> np.ndarray:
    return np.linspace(cfg["k_min"], cfg["k_max"], cfg["count"])


_LEADERS = {"constant": ConstantLeader, "sinusoid": SinusoidLeader,
            "piecewise": PiecewiseConstantLeader, "ring": Ring}


def build_boundary(cfg):
    # The keys of each sim.boundary kind are its class's fields.
    return _LEADERS[cfg["kind"]](**{k: tuple(v) if isinstance(v, list) else v
                                    for k, v in cfg.items() if k != "kind"})


def build_initial_platoon(sim_cfg: dict) -> PlatoonState:
    init = sim_cfg["initial"]
    n = init["n_vehicles"]
    spacing = init["spacing"]
    base = init.get("lead_position", 0.0) - spacing * np.arange(n)
    if sim_cfg["boundary"]["kind"] == "ring":
        span = sim_cfg["boundary"]["length"]
        if abs(n * spacing - span) > 1e-9 * span:
            raise ConfigurationError(
                "n_vehicles * spacing must equal the ring length",
                path="sim.initial.spacing")
    else:
        span = n * spacing
    x = base.astype(float)
    pert = init.get("perturbation")
    waves = pert.get("waves", 1) if pert else 1
    # n samples of a sine carry the harmonics below n / 2; at n / 2 it is zero
    # at every vehicle, and above it aliases to a lower harmonic.
    if pert and 2 * waves >= n:
        _fail("sim.initial.perturbation.waves", f"2 * waves must be < n_vehicles ({n})")
    if pert and pert["relative_amplitude"] > 0:
        disp = pert["relative_amplitude"] * span / (2 * math.pi * waves)
        x = x + disp * np.sin(2 * math.pi * waves * (base - base[-1]) / span)
    # A spacing-rule run reads no speed, and may give none (see RULES).
    state = PlatoonState(time=0.0, positions=x, speeds=np.full(n, float(init.get("speed", 0.0))))
    try:  # evenly spaced vehicles keep their order; a large perturbation may not
        _validate_ordering(state, build_boundary(sim_cfg["boundary"]))
    except ParameterError as exc:
        _fail("sim.initial.perturbation.relative_amplitude", str(exc))
    return state


def build_pde_initial(cfg: dict, grid: SpatialGrid):
    centers = grid.centers
    init = cfg["initial"]
    if init["kind"] == "uniform":
        return np.full(grid.cells, float(init["k"]))
    if init["kind"] == "riemann":
        return np.where(centers < init["x_jump"], init["k_left"],
                        init["k_right"]).astype(float)
    waves = init.get("waves", 1)
    # Cell centres carry the harmonics up to cells / 2; above it a sine aliases.
    if 2 * waves > grid.cells:
        _fail("pde.initial.waves", f"2 * waves must be <= cells ({grid.cells})")
    return init["k0"] * (1.0 + init["relative_amplitude"]
                         * np.sin(2 * math.pi * waves * (centers - grid.x0) / grid.span))


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
    v_init = _equilibrium_speeds(law, k_init) if law is not None else None
    scenario = EulerianScenario(
        grid=grid, dt=cfg["dt"], steps=cfg["steps"],
        initial_density=k_init, initial_speed=v_init,
        boundary=boundary, fd=fd, law=law,
        record_every=cfg.get("record_every", 1))
    return scenario, solver


def _equilibrium_speeds(law, k_init):
    # One solve per distinct density, in cell order: the first cell whose
    # density has no equilibrium speed is the one refused.
    densities = np.maximum(k_init, 1e-6).tolist()
    speeds = {}
    for k, density in zip(k_init, densities):
        if density not in speeds:
            try:
                res = solve_equilibrium_speed(law, density)
            except DomainError as exc:  # e.g. a density above the fd's jam density
                raise ConfigurationError(f"{law.name} has no steady state at k={k:g}: "
                                         f"{exc}", path="pde.initial") from exc
            if res.status is not EquilibriumStatus.OK:
                raise ConfigurationError(
                    f"{law.name} has no equilibrium speed at k={k:g}; "
                    "cannot seed the speed field", path="pde.initial")
            speeds[density] = res.speed
    return np.array([speeds[density] for density in densities])


def build_suite(doc: dict) -> list[SuiteEntry]:
    cfg = require_section(doc, "suite")
    fd = build_fd(doc) if "fd" in doc else None
    ring_cfg = cfg["ring"]
    entries: list[SuiteEntry] = []
    stems = set()  # each report is written to <scenario>_<model>_cells<n>.csv
    for i, entry in enumerate(cfg["entries"]):
        path, name = f"suite.entries[{i}]", entry["scenario"]
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
            _fail(f"{path}.scenario", "must match [A-Za-z0-9_.-]+ (it names report files)")
        law = _law(entry["model"], fd, f"{path}.model")
        stem = f"{name}_{law.name}"
        if stem in stems:
            _fail(f"{path}.scenario", f"with model {law.name!r} names the report files "
                  "of an earlier entry")
        stems.add(stem)
        ring = RingScenario(**{**ring_cfg, "amplitude": entry.get("amplitude",
                                                                  ring_cfg["amplitude"])})
        entries += [SuiteEntry(scenario=name, law=law, ring=ring, cells=cells)
                    for cells in cfg["resolutions"]]
    return entries
