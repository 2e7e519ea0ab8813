"""Command-line entry point.

Subcommands: fd, steady, stability, simulate-cf, simulate-pde, transform,
compare. Each reads a strict JSON scenario config (--config), writes CSV
files into --out, and prints a one-line summary. Exit codes: 0 success,
1 runtime/model fault, 2 configuration fault. Float columns use repr's
shortest round-trip decimals, so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .continuum import solve_lwr_godunov, solve_second_order, total_vehicles
from .equivalence import run_suite, write_summary_csv
from .errors import ConfigurationError, ParameterError, TrafficLabError
from .fundamental import cfl_max_dt
from .laws import law_from_config
from .platoon import (Ring, simulate_continuous, simulate_newell,
                      simulate_pipes_discrete)
from .stability import stability_map, write_stability_csv
from .steady_state import fundamental_diagram_of
from .transforms import (EulerianField, SpatialGrid, TrajectorySurface,
                         to_eulerian, to_trajectories)

_R = repr  # shortest round-trip float formatting


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(surface: TrajectorySurface, path: Path) -> None:
    speeds = surface.speed_matrix()
    has_accel = surface.accels is not None
    header = ["t", "vehicle", "x", "v"] + (["a"] if has_accel else [])
    rows = []
    times = surface.times
    for i in range(surface.n_steps):
        for n in range(surface.n_vehicles):
            row = [_R(float(times[i])), n, _R(float(surface.positions[i, n])),
                   _R(float(speeds[i, n]))]
            if has_accel:
                row.append(_R(float(surface.accels[i, n])))
            rows.append(row)
    _write_rows(path, header, rows)


def _input_error(message: str) -> ConfigurationError:
    return ConfigurationError(message, path="transform.input")


def _read_csv_rows(path: Path, header: list[str], kind: str, parse) -> list[tuple]:
    """Data rows of a CSV whose header starts with ``header``, parsed by ``parse``."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            matches = (next(reader, None) or [])[:len(header)] == header
            data = [parse(r) for r in reader] if matches else []
    except (OSError, csv.Error, ValueError, IndexError) as exc:
        raise _input_error(f"cannot read {path}: {exc}") from exc
    if not matches:
        raise _input_error(f"{path} is not a {kind} CSV")
    if not data:
        raise _input_error(f"{path} has no data rows")
    return data


def _axis(values, name: str, path: Path) -> tuple[list, dict, float]:
    """Sorted distinct samples, their indices and their even spacing (1 if single)."""
    axis = sorted(set(values))
    steps = np.diff(axis) if len(axis) > 1 else np.ones(1)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
        raise _input_error(f"{path} has unevenly spaced {name} samples")
    return axis, {a: i for i, a in enumerate(axis)}, float(steps[0])


def read_trajectory_csv(path: Path) -> TrajectorySurface:
    data = _read_csv_rows(path, ["t", "vehicle", "x", "v"], "trajectory",
                          lambda r: (float(r[0]), int(r[1]), float(r[2]), float(r[3])))
    times, t_index, dt = _axis([r[0] for r in data], "t", path)
    vehicles = sorted({r[1] for r in data})
    if vehicles != list(range(len(vehicles))):
        raise _input_error(f"{path} vehicle ids must run 0..N-1 without gaps")
    pos = np.full((len(times), len(vehicles)), math.nan)
    spd = np.full_like(pos, math.nan)
    for t, n, x, v in data:
        pos[t_index[t], n] = x
        spd[t_index[t], n] = v
    if np.any(np.isnan(pos)):
        raise _input_error("trajectory CSV has missing (t, vehicle) samples")
    try:
        return TrajectorySurface(t0=times[0], dt=dt, positions=pos, speeds=spd)
    except ParameterError as exc:  # e.g. vehicles out of front-to-rear order
        raise _input_error(f"{path}: {exc}") from exc


def write_field_csv(field: EulerianField, path: Path) -> None:
    q = field.flow()
    rows = []
    times = field.times
    centers = field.cell_centers
    for i in range(field.n_steps):
        for j in range(field.n_cells):
            rows.append([_R(float(times[i])), _R(float(centers[j])),
                         _R(float(field.density[i, j])),
                         _R(float(field.speed[i, j])), _R(float(q[i, j]))])
    _write_rows(path, ["t", "x", "k", "v", "q"], rows)


def read_field_csv(path: Path) -> EulerianField:
    data = _read_csv_rows(path, ["t", "x", "k", "v", "q"], "field",
                          lambda r: (float(r[0]), float(r[1]), float(r[2]), float(r[3])))
    times, t_index, dt = _axis([r[0] for r in data], "t", path)
    xs, x_index, dx = _axis([r[1] for r in data], "x", path)
    k = np.full((len(times), len(xs)), math.nan)
    v = np.full_like(k, math.nan)
    for t, x, kk, vv in data:
        k[t_index[t], x_index[x]] = kk
        v[t_index[t], x_index[x]] = vv
    if np.any(np.isnan(k)):
        raise _input_error("field CSV has missing (t, x) samples")
    return EulerianField(x0=xs[0] - dx / 2, dx=dx, t0=times[0], dt=dt,
                         density=k, speed=v)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_fd(doc: dict, out: Path) -> int:
    fd = cfgmod.build_fd(doc)
    k = np.linspace(0.0, fd.k_j, 1001)
    q = fd.phi(k)
    v = np.empty_like(k)
    v[0] = fd.v_f
    v[1:] = fd.eta(k[1:])
    path = out / "fd.csv"
    _write_rows(path, ["k", "q", "v"],
                ([_R(float(a)), _R(float(b)), _R(float(c))]
                 for a, b, c in zip(k, q, v)))
    print(f"fd: wrote {len(k)} samples to {path} (capacity {fd.capacity!r} veh/s)")
    return 0


def cmd_steady(doc: dict, out: Path) -> int:
    law = cfgmod.build_law(doc)
    grid = cfgmod.k_grid_from(cfgmod.require_section(doc, "steady"))
    curve = fundamental_diagram_of(law, grid)
    path = out / "steady.csv"
    curve.write_csv(path)
    tag = "degenerate" if curve.degenerate else "ok"
    print(f"steady: {law.name} over {len(grid)} densities -> {path} ({tag})")
    return 0


def cmd_stability(doc: dict, out: Path) -> int:
    section = cfgmod.require_section(doc, "stability")
    grid = cfgmod.k_grid_from({k: section[k] for k in ("k_min", "k_max", "count")})
    fd = cfgmod.build_fd(doc) if "fd" in doc else None
    model_cfg = cfgmod.require_section(doc, "model")
    path = out / "stability.csv"
    sweep = section.get("sweep")
    if sweep is None:
        law = cfgmod.build_law(doc)
        rows = stability_map(law, grid)
        write_stability_csv(rows, path)
        n_stable = sum(1 for r in rows if r.report and r.report.exact_string_stable)
        print(f"stability: {law.name}, {n_stable}/{len(rows)} exact-string-stable -> {path}")
        return 0
    rows, swept = [], []
    for value in sweep["values"]:
        law = law_from_config(cfgmod.swept_model(model_cfg, sweep["param"], value), fd)
        law_rows = stability_map(law, grid)
        rows += law_rows
        swept += [value] * len(law_rows)
    write_stability_csv(rows, path, extra={sweep["param"]: swept})
    print(f"stability: swept {sweep['param']} over {len(sweep['values'])} values -> {path}")
    return 0


def cmd_simulate_cf(doc: dict, out: Path) -> int:
    sim = cfgmod.require_section(doc, "sim")
    initial = cfgmod.build_initial_platoon(sim)
    boundary = cfgmod.build_boundary(sim["boundary"])
    method = sim["method"]
    if method == "rk4":
        law = cfgmod.build_law(doc)
        surface = simulate_continuous(law, initial, boundary, sim["dt"], sim["steps"])
        label = law.name
    else:
        fd = cfgmod.build_fd(doc)
        if isinstance(boundary, Ring):
            raise ConfigurationError("spacing-rule simulators need a leader profile",
                                     path="sim.boundary")
        if method == "pipes":
            if sim["dt"] > cfl_max_dt(fd, 1.0) * (1 + 1e-12):
                raise ConfigurationError(
                    f"dt={sim['dt']:g} violates the vehicle-information bound "
                    f"{cfl_max_dt(fd, 1.0):g}", path="sim.dt")
            surface = simulate_pipes_discrete(fd, initial, boundary,
                                              sim["dt"], sim["steps"])
        else:
            surface = simulate_newell(fd, initial, boundary, sim["steps"])
        label = method
    path = out / "trajectories.csv"
    write_trajectory_csv(surface, path)
    print(f"simulate-cf: {label}, {surface.n_vehicles} vehicles x "
          f"{surface.n_steps} steps -> {path} (speed clamps {surface.clamp_events})")
    return 0


def cmd_simulate_pde(doc: dict, out: Path) -> int:
    scenario, solver = cfgmod.build_pde_scenario(doc)
    if solver == "lwr":
        field, stats = solve_lwr_godunov(scenario)
    else:
        field, stats = solve_second_order(scenario)
    path = out / "field.csv"
    write_field_csv(field, path)
    n0 = total_vehicles(field, 0)
    n1 = total_vehicles(field, field.n_steps - 1)
    print(f"simulate-pde: {solver}, {field.n_cells} cells x {field.n_steps} records "
          f"-> {path} (vehicles {n0!r} -> {n1!r})")
    return 0


def cmd_transform(doc: dict, out: Path) -> int:
    cfg = cfgmod.require_section(doc, "transform")
    if cfg["direction"] == "to_eulerian":
        surface = read_trajectory_csv(Path(cfg["input"]))
        grid = SpatialGrid(cfg["x0"], cfg["dx"], cfg["cells"])
        field = to_eulerian(surface, grid)
        path = out / "field.csv"
        write_field_csv(field, path)
        print(f"transform: {surface.n_vehicles} trajectories -> field {path}")
    else:
        field = read_field_csv(Path(cfg["input"]))
        surface = to_trajectories(field, cfg["n_vehicles"])
        path = out / "trajectories.csv"
        write_trajectory_csv(surface, path)
        print(f"transform: field -> {cfg['n_vehicles']} trajectories {path}")
    return 0


def cmd_compare(doc: dict, out: Path) -> int:
    entries, _ = cfgmod.build_suite(doc)
    reports = run_suite(entries)
    summary = out / "summary.csv"
    write_summary_csv(reports, summary)
    report_dir = out / "reports"
    report_dir.mkdir(exist_ok=True)
    for r in reports:
        name = f"{r.scenario}_{r.model}_{r.resolution.replace('=', '')}.csv"
        write_summary_csv([r], report_dir / name)
        print(f"compare: {r.scenario}/{r.model}/{r.resolution}: {r.verdict}"
              + (f" ({r.fault})" if r.fault else ""))
    print(f"compare: {len(reports)} reports -> {summary}")
    return 0


DEMO_CONFIG = {
    "fd": {"kind": "triangular", "v_f": 20.0, "w": 5.0, "k_j": 0.2},
    "model": {"name": "ovm", "T": 0.4},
    "steady": {"k_min": 0.01, "k_max": 0.2, "count": 50},
    "stability": {"k_min": 0.05, "k_max": 0.19, "count": 8,
                  "sweep": {"param": "T", "values": [0.4, 0.6]}},
    "sim": {"method": "rk4", "dt": 0.04, "steps": 500,
            "boundary": {"kind": "ring", "length": 500.0},
            "initial": {"n_vehicles": 40, "spacing": 12.5, "speed": 3.75,
                        "perturbation": {"relative_amplitude": 0.02, "waves": 1}}},
    "pde": {"solver": "lwr", "x0": 0.0, "dx": 10.0, "cells": 100, "dt": 0.2,
            "steps": 300, "record_every": 30, "boundary": "periodic",
            "initial": {"kind": "sine", "k0": 0.08, "relative_amplitude": 0.2}},
    "suite": {
        # Finest resolution keeps dx at twice the vehicle spacing: below one
        # spacing the reconstructed density is a staircase and the continuum
        # arm's short-wave instability dominates the comparison.
        "ring": {"circumference": 1000.0, "k0": 0.08, "amplitude": 0.01,
                 "horizon": 60.0, "dt_cf": 0.025, "dt_pde": 0.125,
                 "compare_points": 24, "threshold": 0.05},
        "entries": [
            {"scenario": "stable", "model": {"name": "ovm", "T": 0.4}},
            {"scenario": "unstable", "model": {"name": "ovm", "T": 0.7}},
            {"scenario": "stable", "model": {"name": "fvdm", "T": 0.6, "lambda": 0.5}},
            {"scenario": "unstable", "model": {"name": "fvdm", "T": 0.8, "lambda": 0.05}},
            {"scenario": "stable", "model": {"name": "idm", "a": 2.0, "b": 2.0,
                                             "delta": 4, "v_f": 30.0, "tau": 1.0,
                                             "d": 2.0}},
            {"scenario": "unstable", "model": {"name": "idm", "a": 0.5, "b": 3.0,
                                               "delta": 4, "v_f": 30.0, "tau": 1.5,
                                               "d": 2.0}},
        ],
        "resolutions": [10, 20, 40],
    },
    "output": {"dir": "."},
}


def seed_demo(out: Path) -> int:
    path = out / "demo_scenario.json"
    with open(path, "w") as fh:
        json.dump(DEMO_CONFIG, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote demo scenario to {path}")
    return 0


def _load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigurationError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    cfgmod.validate_document(doc)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficlab",
        description="Traffic-flow models as car-following platoons and continuum fields.")
    parser.add_argument("--seed-demo", action="store_true",
                        help="write a complete worked scenario file and exit")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command")
    for name in ("fd", "steady", "stability", "simulate-cf", "simulate-pde",
                 "transform", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.seed_demo:
            return seed_demo(out)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        doc = _load_config(args.config)
        if args.command == "fd":
            return cmd_fd(doc, out)
        if args.command == "steady":
            return cmd_steady(doc, out)
        if args.command == "stability":
            return cmd_stability(doc, out)
        if args.command == "simulate-cf":
            return cmd_simulate_cf(doc, out)
        if args.command == "simulate-pde":
            return cmd_simulate_pde(doc, out)
        if args.command == "transform":
            return cmd_transform(doc, out)
        if args.command == "compare":
            return cmd_compare(doc, out)
        parser.print_usage(sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrafficLabError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
