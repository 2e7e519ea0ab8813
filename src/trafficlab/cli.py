"""Command-line entry point.

Subcommands: fd, steady, stability, simulate-cf, simulate-pde, transform,
compare. Each reads a strict JSON scenario config (--config), writes CSV
files into --out, and prints a one-line summary. Exit codes: 0 success,
1 runtime/model fault, 2 configuration fault. Float columns use repr's
shortest round-trip decimals, so identical configs give byte-identical files.
Every CSV goes through one writer, which builds the file column by column;
rows are formatted and written one fixed-size block at a time, so no file's
whole text is held in memory. A numeric column calls repr once per distinct
value (bit pattern) of a block, a grid axis once per distinct value of the
file, not once per cell. Text fields are quoted where csv.writer quotes them,
so the bytes are csv.writer's.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .continuum import solve_lwr_godunov, solve_second_order, total_vehicles
from .equivalence import EquivalenceReport, run_suite
from .errors import ConfigurationError, ParameterError, TrafficLabError, at_paths
from .platoon import simulate_continuous, simulate_newell, simulate_pipes_discrete
from .stability import StabilityMapRow, stability_map
from .steady_state import fundamental_diagram_of
from .transforms import (EulerianField, SpatialGrid, TrajectorySurface,
                         to_eulerian, to_trajectories)


def _field(value) -> str:
    """One value of a text column: a string, quoted where ``csv.writer`` quotes
    it (it holds a comma, a quote, CR or LF); a bool as true/false; a number
    as ``repr`` of its float."""
    if isinstance(value, str):
        quote = any(c in value for c in ',"\r\n')
        return '"' + value.replace('"', '""') + '"' if quote else value
    return str(value).lower() if isinstance(value, bool) else repr(float(value))


def _column_text(column: np.ndarray) -> np.ndarray:
    """Text of each value of ``column``.

    A number's text is ``repr``, the shortest round-trip decimals, called once
    per distinct value. Values are keyed on their 64-bit pattern, so ``-0.0``
    stays apart from ``0.0`` and every NaN reads ``nan``. A text column goes
    value by value through ``_field``.
    """
    column = np.ravel(column)
    if column.dtype.kind in "OU":
        return np.array([_field(v) for v in column.tolist()], dtype=object)
    column = column.astype(np.float64 if column.dtype.kind == "f" else np.int64,
                           copy=False)
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([repr(u) for u in keys.view(column.dtype).tolist()], dtype=object)
    return text[inverse]


# Rows formatted and written at a time; bounds the text held for one file.
_BLOCK_ROWS = 8192


def _csv_blocks(header: list[str], columns):
    """The lines of equal-length columns as CSV, byte for byte as ``csv.writer``
    would write them: the header line, then each block of ``_BLOCK_ROWS`` rows,
    each as a list of lines.

    Rows are formatted one block at a time, so only one block's text is held,
    never the whole file's. A column given as ``(values, index)`` stands for
    ``values[index]``: ``values`` is formatted once per file and each block
    takes its text by index, sorting nothing. A ``repr`` of a number holds no
    comma, quote or line break, so only text fields can need quoting.
    """
    columns = [(_column_text(c[0]), np.ravel(c[1])) if isinstance(c, tuple)
               else np.ravel(c) for c in columns]
    n_rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    yield [",".join(map(_field, header))]
    for start in range(0, n_rows, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = [c[0][c[1][rows]] if isinstance(c, tuple) else _column_text(c[rows])
                 for c in columns]
        yield list(map(",".join, zip(*block)))


def _write_columns(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as CSV (see :func:`_csv_blocks`); lines end in
    CR LF, as in the ``excel`` dialect."""
    with open(path, "w", newline="") as fh:
        for lines in _csv_blocks(header, columns):
            fh.write("\r\n".join(lines) + "\r\n")


def write_trajectory_csv(surface: TrajectorySurface, path: Path) -> None:
    n_steps, n_vehicles = surface.positions.shape
    header = ["t", "vehicle", "x", "v"]
    columns = [(surface.times, np.repeat(np.arange(n_steps), n_vehicles)),
               (np.arange(n_vehicles), np.tile(np.arange(n_vehicles), n_steps)),
               surface.positions, surface.speed_matrix()]
    if surface.accels is not None:
        header.append("a")
        columns.append(surface.accels)
    _write_columns(path, header, columns)


SUMMARY_COLUMNS = ["scenario", "model", "resolution", "l1_k", "linf_k",
                   "l1_v", "linf_v", "growth_cf", "growth_pde", "verdict"]


def write_summary_csv(reports: list[EquivalenceReport], path: Path) -> list[str]:
    """Write the summary CSV; returns its lines, the header first, each ending in CR LF."""
    lines = [line + "\r\n" for block in _csv_blocks(
        SUMMARY_COLUMNS, [np.array([getattr(r, name) for r in reports], dtype=object)
                          for name in SUMMARY_COLUMNS]) for line in block]
    Path(path).write_text("".join(lines), newline="")
    return lines


STABILITY_CSV_COLUMNS = ["k", "v0", "psi_v", "psi_s", "psi_dv",
                         "classic_stable", "exact_stable", "continuum_stable"]
_STABILITY_FIELDS = ("v0", "psi_v", "psi_s", "psi_dv", "classic_string_stable",
                     "exact_string_stable", "continuum_linear_stable")


def write_stability_csv(rows: list[StabilityMapRow], path: Path,
                        extra: dict | None = None) -> None:
    """Stability-map CSV; ``extra`` maps leading columns (e.g. a swept T) to
    per-row values. A row without a report reads ``degenerate`` after its k."""
    extra = extra or {}
    _write_columns(path, list(extra) + STABILITY_CSV_COLUMNS,
                   [np.asarray(v, dtype=float) for v in extra.values()]
                   + [np.array([row.k for row in rows], dtype=float)]
                   + [np.array(["degenerate" if row.report is None else getattr(row.report, name)
                                for row in rows], dtype=object)
                      for name in _STABILITY_FIELDS])


def _input_error(message: str) -> ConfigurationError:
    return ConfigurationError(message, path="transform.input")


def _read_records(path: Path, header: list[str], dtype: np.dtype,
                  kind: str) -> np.ndarray:
    """One ``dtype`` record per data row of a CSV whose header starts with ``header``.

    The file is decoded as ASCII, which is all the writers emit: NumPy's
    ``loadtxt`` integer parser can crash the interpreter on non-ASCII text.
    ``loadtxt`` gets the path, which it reads in chunks; a handle it iterates
    line by line in Python (a 150,500-row ``field.csv``: 110 ms, not 137 ms).
    """
    if path.suffix in (".gz", ".bz2", ".xz", ".lzma"):  # loadtxt would decompress it
        raise _input_error(f"{path} names a compressed file, not a CSV")
    try:
        with open(path, newline="", encoding="ascii") as fh:
            matches = next(csv.reader([fh.readline()]))[:len(header)] == header
        if matches:
            with warnings.catch_warnings():
                # a header-only file is reported below, not as a warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                                  skiprows=1, encoding="ascii", quotechar='"',
                                  usecols=range(len(dtype.names)), ndmin=1)
    except (OSError, csv.Error, ValueError) as exc:
        raise _input_error(f"cannot read {path}: {exc}") from exc
    if not matches:
        raise _input_error(f"{path} is not a {kind} CSV")
    if not data.size:
        raise _input_error(f"{path} has no data rows")
    return data


def _require_finite(path: Path, data: np.ndarray, names) -> None:
    for name in names:
        if not np.all(np.isfinite(data[name])):
            raise _input_error(f"{path} has non-finite {name} values")


def _axis(values: np.ndarray, name: str,
          path: Path) -> tuple[np.ndarray, np.ndarray, float]:
    """Sorted distinct samples, each value's index into them and their even
    spacing (1 if single)."""
    axis, index = np.unique(values, return_inverse=True)
    steps = np.diff(axis) if len(axis) > 1 else np.ones(1)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
        raise _input_error(f"{path} has unevenly spaced {name} samples")
    return axis, index, float(steps[0])


def _grids(fault: str, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int],
           *values: np.ndarray) -> list[np.ndarray]:
    """One ``shape`` matrix per ``values`` column, filled at ``(rows, cols)``.

    Every cell must be given once; ``fault`` says which samples are
    ``"missing"`` or ``"duplicate"`` when formatted with that word. The first
    column must be finite, so a NaN left in its matrix marks a missing sample.
    """
    cells = shape[0] * shape[1]
    if len(rows) != cells:  # also keeps a sparse file from allocating
        raise _input_error(fault.format("missing" if len(rows) < cells else "duplicate"))
    grids = []
    for column in values:
        grid = np.full(shape, math.nan)
        grid[rows, cols] = column
        grids.append(grid)
    if np.any(np.isnan(grids[0])):
        raise _input_error(fault.format("missing"))
    return grids


_TRAJECTORY_RECORD = np.dtype([("t", float), ("vehicle", np.int64), ("x", float),
                               ("v", float)])
_FIELD_RECORD = np.dtype([("t", float), ("x", float), ("k", float), ("v", float)])


def read_trajectory_csv(path: Path) -> TrajectorySurface:
    data = _read_records(path, ["t", "vehicle", "x", "v"], _TRAJECTORY_RECORD,
                         "trajectory")
    _require_finite(path, data, ("t", "x", "v"))
    times, t_index, dt = _axis(data["t"], "t", path)
    vehicles = np.unique(data["vehicle"])
    if vehicles[0] != 0 or vehicles[-1] != len(vehicles) - 1:
        raise _input_error(f"{path} vehicle ids must run 0..N-1 without gaps")
    pos, spd = _grids("trajectory CSV has {} (t, vehicle) samples", t_index,
                      data["vehicle"], (len(times), len(vehicles)), data["x"], data["v"])
    try:
        return TrajectorySurface(t0=float(times[0]), dt=dt, positions=pos, speeds=spd)
    except ParameterError as exc:  # e.g. vehicles out of front-to-rear order
        raise _input_error(f"{path}: {exc}") from exc


def write_field_csv(field: EulerianField, path: Path) -> None:
    n_steps, n_cells = field.density.shape
    _write_columns(path, ["t", "x", "k", "v", "q"],
                   [(field.times, np.repeat(np.arange(n_steps), n_cells)),
                    (field.cell_centers, np.tile(np.arange(n_cells), n_steps)),
                    field.density, field.speed, field.flow()])


def read_field_csv(path: Path) -> EulerianField:
    data = _read_records(path, ["t", "x", "k", "v", "q"], _FIELD_RECORD, "field")
    _require_finite(path, data, ("t", "x", "k"))
    if np.any(data["k"] < 0.0):
        raise _input_error(f"{path} has negative k values")
    if not np.all(np.isfinite(data["v"][data["k"] > 0.0])):
        raise _input_error(f"{path} has non-finite v values where k > 0")
    times, t_index, dt = _axis(data["t"], "t", path)
    xs, x_index, dx = _axis(data["x"], "x", path)
    k, v = _grids("field CSV has {} (t, x) samples", t_index, x_index,
                  (len(times), len(xs)), data["k"], data["v"])
    return EulerianField(x0=float(xs[0]) - dx / 2, dx=dx, t0=float(times[0]), dt=dt,
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
    _write_columns(path, ["k", "q", "v"], [k, q, v])
    print(f"fd: wrote {len(k)} samples to {path} (capacity {fd.capacity!r} veh/s)")
    return 0


def cmd_steady(doc: dict, out: Path) -> int:
    law = cfgmod.build_law(doc)
    grid = cfgmod.k_grid_from(cfgmod.require_section(doc, "steady"))
    curve = fundamental_diagram_of(law, grid)
    path = out / "steady.csv"
    _write_columns(path, ["k", "v", "q"], [curve.k, curve.v, curve.q])
    tag = "degenerate" if curve.degenerate else "ok"
    print(f"steady: {law.name} over {len(grid)} densities -> {path} ({tag})")
    return 0


def cmd_stability(doc: dict, out: Path) -> int:
    section = cfgmod.require_section(doc, "stability")
    grid = cfgmod.k_grid_from(section)
    model = cfgmod.require_section(doc, "model")
    sweep = section.get("sweep")
    rows, swept, lines = [], [], []
    # An unswept run is the model as given, with no leading column.
    for value in sweep["values"] if sweep else [None]:
        law = cfgmod.build_law({**doc, "model": {**model, sweep["param"]: value}}
                               if sweep else doc)
        law_rows = stability_map(law, grid)
        rows += law_rows
        swept += [value] * len(law_rows)
        reports = [row.report for row in law_rows if row.report is not None]
        n_string = sum(r.classic_string_stable for r in reports)
        n_continuum = sum(r.continuum_linear_stable for r in reports)
        label = f"{law.name} {sweep['param']}={value:g}" if sweep else law.name
        lines.append(f"{label}: string-stable {n_string}/{len(law_rows)} densities, "
                     f"continuum-stable {n_continuum}/{len(law_rows)}")
    path = out / "stability.csv"
    write_stability_csv(rows, path, extra={sweep["param"]: swept} if sweep else None)
    for line in lines:  # one line per swept value
        print(f"stability: {line} -> {path}")
    return 0


def cmd_simulate_cf(doc: dict, out: Path) -> int:
    sim = cfgmod.require_section(doc, "sim")
    initial = cfgmod.build_initial_platoon(sim)
    boundary = cfgmod.build_boundary(sim["boundary"])
    method = label = sim["method"]
    if method == "rk4":
        law = cfgmod.build_law(doc)
        surface = at_paths({"dt": "sim.dt"}, simulate_continuous, law, initial, boundary,
                           sim["dt"], sim["steps"])
        label = law.name
    elif method == "pipes":
        surface = simulate_pipes_discrete(cfgmod.build_fd(doc), initial, boundary,
                                          sim["dt"], sim["steps"])
    else:
        surface = simulate_newell(cfgmod.build_fd(doc), initial, boundary, sim["steps"])
    path = out / "trajectories.csv"
    write_trajectory_csv(surface, path)
    print(f"simulate-cf: {label}, {surface.n_vehicles} vehicles x "
          f"{surface.n_steps} steps -> {path} (speed clamps {surface.clamp_events})")
    return 0


def cmd_simulate_pde(doc: dict, out: Path) -> int:
    scenario, solver = cfgmod.build_pde_scenario(doc)
    solve = solve_lwr_godunov if solver == "lwr" else solve_second_order
    field, stats = at_paths({"dt": "pde.dt"}, solve, scenario)
    path = out / "field.csv"
    write_field_csv(field, path)
    n0 = total_vehicles(field, 0)
    n1 = total_vehicles(field, field.n_steps - 1)
    print(f"simulate-pde: {solver}, {field.n_cells} cells x {field.n_steps} records "
          f"-> {path} (vehicles {n0!r} -> {n1!r})")
    return 0


def _cap_samples(n_steps: int, cfg: dict, key: str) -> None:
    if n_steps * cfg[key] > cfgmod.INT_CAP:  # refused before NumPy allocates the output
        raise ConfigurationError(f"the input's {n_steps} time samples * {key} must be "
                                 f"<= {cfgmod.INT_CAP}", path=f"transform.{key}")


def cmd_transform(doc: dict, out: Path) -> int:
    cfg = cfgmod.require_section(doc, "transform")
    if cfg["direction"] == "to_eulerian":
        surface = read_trajectory_csv(Path(cfg["input"]))
        _cap_samples(surface.n_steps, cfg, "cells")
        grid = SpatialGrid(cfg["x0"], cfg["dx"], cfg["cells"])
        field = to_eulerian(surface, grid)
        path = out / "field.csv"
        write_field_csv(field, path)
        print(f"transform: {surface.n_vehicles} trajectories -> field {path}")
    else:
        field = read_field_csv(Path(cfg["input"]))
        if field.n_steps < 2:  # speeds are differences of positions in time
            raise _input_error(f"{cfg['input']} needs at least two time samples "
                               "for to_trajectories")
        _cap_samples(field.n_steps, cfg, "n_vehicles")
        surface = to_trajectories(field, cfg["n_vehicles"])
        path = out / "trajectories.csv"
        write_trajectory_csv(surface, path)
        print(f"transform: field -> {cfg['n_vehicles']} trajectories {path}")
    return 0


def cmd_compare(doc: dict, out: Path) -> int:
    entries = cfgmod.build_suite(doc)
    # run_suite names a law by its first entry; build_suite makes n per suite entry
    n = len(doc["suite"]["resolutions"])
    paths = {key: f"suite.ring.{key}" for key in ("k0", "dt_cf", "dt_pde", "compare_points")}
    reports = at_paths(paths | {f"entries[{j}].model": f"suite.entries[{j // n}].model"
                                for j in range(len(entries))}, run_suite, entries)
    summary = out / "summary.csv"
    header, *rows = write_summary_csv(reports, summary)
    report_dir = out / "reports"
    report_dir.mkdir(exist_ok=True)
    for r, row in zip(reports, rows):
        name = f"{r.scenario}_{r.model}_{r.resolution.replace('=', '')}.csv"
        (report_dir / name).write_text(header + row, newline="")
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
}


def seed_demo(out: Path) -> int:
    path = out / "demo_scenario.json"
    with open(path, "w") as fh:
        json.dump(DEMO_CONFIG, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote demo scenario to {path}")
    return 0


def _load_config(path: str | None, reads: set[str]) -> dict:
    if path is None:
        raise ConfigurationError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigurationError("config is nested too deeply")
    cfgmod.validate_document(doc, reads)
    return doc


COMMANDS = {"fd": cmd_fd, "steady": cmd_steady, "stability": cmd_stability,
            "simulate-cf": cmd_simulate_cf, "simulate-pde": cmd_simulate_pde,
            "transform": cmd_transform, "compare": cmd_compare}
# The sections each command reads. A rule that relates a section to another
# runs only for a command that reads the section (config.validate_document).
READS = {"fd": {"fd"}, "steady": {"fd", "model", "steady"},
         "stability": {"fd", "model", "stability"}, "simulate-cf": {"fd", "model", "sim"},
         "simulate-pde": {"fd", "model", "pde"}, "transform": {"transform"},
         "compare": {"fd", "suite"}}


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficlab",
        description="Traffic-flow models as car-following platoons and continuum fields.")
    parser.add_argument("--seed-demo", action="store_true",
                        help="write a complete worked scenario file and exit")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False)
        # Given after the subcommand, --out replaces the value given before it.
        p.add_argument("--out", default=argparse.SUPPRESS)
    return parser


def _output_dir(name: str, made: list[Path]) -> Path:
    """The --out directory; the directories it makes join ``made``, deepest first."""
    out = Path(name)
    made += [path for path in (out, *out.parents) if not path.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names a file, or a path below one
        raise ConfigurationError(f"cannot create output directory {out}: {exc.strerror}",
                                 path="--out") from exc
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    made: list[Path] = []
    try:
        if args.seed_demo:
            return seed_demo(_output_dir(args.out, made))
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        # The solvers stop on non-finite states themselves, so NumPy's own
        # floating-point warnings would only repeat that fault on stderr.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            config = _load_config(args.config, READS[args.command])
            return COMMANDS[args.command](config, _output_dir(args.out, made))
    except ConfigurationError as exc:
        for path in made:  # a refused run leaves no directory that it made
            with contextlib.suppress(OSError):
                path.rmdir()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrafficLabError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
