"""Span tracing of the program's layers, from the benchmark's side only.

``install`` rebinds the public entry points of each trafficlab module (in
every trafficlab module namespace that imported them) to wrappers that
record one span per call: name, start, end, parent span, plus a few
counters read from the call's arguments or result. Acceleration laws are
traced through a wrapped ``psi`` on a ``dataclasses.replace`` copy of each
law a factory returns; diagram ``phi`` through the diagram classes. Nothing
in the program changes, and ``uninstall`` restores every binding.

Spans are kept in memory in flat arrays and written once, by ``save``, when
the benchmark ends. Self time is a span's duration minus its child spans'
durations (the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import trafficlab
from trafficlab import fundamental, laws

def _rk4_info(p, result):
    initial = p["initial"]
    key = hashlib.sha256(repr((p["law"].name, sorted(p["law"].params.items()),
                               repr(p["boundary"]), p["dt"], p["steps"])).encode()
                         + initial.positions.tobytes() + initial.speeds.tobytes())
    return {"steps": p["steps"], "key": key.hexdigest()}


# (module, attribute, span name, counters(bound arguments, result) -> dict)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "write_trajectory_csv", "cli.csv_write",
     lambda p, r: {"rows": p["surface"].n_steps * p["surface"].n_vehicles}),
    ("cli", "write_field_csv", "cli.csv_write",
     lambda p, r: {"rows": p["field"].n_steps * p["field"].n_cells}),
    ("cli", "read_trajectory_csv", "cli.csv_read",
     lambda p, r: {"rows": r.n_steps * r.n_vehicles}),
    ("cli", "read_field_csv", "cli.csv_read",
     lambda p, r: {"rows": r.n_steps * r.n_cells}),
    ("config", "validate_document", "config.validate", None),
    ("platoon", "simulate_continuous", "platoon.rk4", _rk4_info),
    ("platoon", "simulate_newell", "platoon.newell",
     lambda p, r: {"steps": p["steps"]}),
    ("continuum", "solve_second_order", "continuum.so",
     lambda p, r: {"steps": p["scenario"].steps, "substeps": r[1].substeps}),
    ("continuum", "solve_lwr_godunov", "continuum.godunov",
     lambda p, r: {"steps": p["scenario"].steps, "cells": p["scenario"].grid.cells}),
    ("transforms", "to_eulerian", "transforms.to_eulerian",
     lambda p, r: {"rows": r.n_steps}),
    ("transforms", "to_trajectories", "transforms.to_trajectories",
     lambda p, r: {"rows": r.n_steps}),
    ("steady_state", "solve_equilibrium_speed", "steady_state.solve", None),
    ("stability", "amplification_ratio", "stability.ratio", None),
    ("equivalence", "compare_second_order", "equivalence.report",
     lambda p, r: {"incomparable": int(r.verdict == "incomparable")}),
)

LAW_FACTORIES = ("law_from_config",) + tuple(
    name for name in vars(laws) if name.startswith("make_"))
DIAGRAM_CLASSES = ("TriangularDiagram", "GreenshieldsDiagram", "TabulatedDiagram")


class Tracer:
    """In-memory span store; ``active`` gates recording without unwrapping."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, dict] = {}
        self._stack = [-1]
        self.active = False
        self._undo: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn, counters=None):
        nid = self._name(name)
        signature = inspect.signature(fn) if counters is not None else None
        stack, info = self._stack, self.info
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counters is not None:
                info[idx] = counters(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing the wrappers ---------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "trafficlab" and not mod_name.startswith("trafficlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for mod, attr, name, counters in TARGETS:
            original = getattr(getattr(trafficlab, mod), attr)
            self._rebind(original, self.wrap(name, original, counters))
        for attr in LAW_FACTORIES:
            original = getattr(laws, attr)
            self._rebind(original, self._law_factory(original))
        for cls_name in DIAGRAM_CLASSES:
            cls = getattr(fundamental, cls_name)
            self._undo.append((cls, "phi", cls.phi))
            cls.phi = self.wrap("fundamental.phi", cls.phi)

    def _law_factory(self, factory):
        def traced_factory(*args, **kwargs):
            law = factory(*args, **kwargs)
            if getattr(law.psi, "__wrapped__", None) is not None:
                return law
            return dataclasses.replace(law, psi=self.wrap("laws.evaluate", law.psi))

        traced_factory.__wrapped__ = factory
        return traced_factory

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        """All spans as (name ids, durations, self times)."""
        n = len(self.start)
        nid, parent = _copy(self.name_id, n), _copy(self.parent, n)
        dur = _copy(self.end, n) - _copy(self.start, n)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return nid, dur, dur - children

    def save(self, path: Path) -> None:
        n = len(self.start)
        np.savez_compressed(
            path, name_id=_copy(self.name_id, n), parent=_copy(self.parent, n),
            start=_copy(self.start, n), end=_copy(self.end, n),
            names=np.array(self.names),
            info=np.array(json.dumps({str(i): v for i, v in self.info.items()})))


def _copy(values: array, n: int) -> np.ndarray:
    # A copy, so that no numpy view keeps the array from growing.
    return np.array(memoryview(values)[:n])


# ---------------------------------------------------------------------------
# Per-layer metrics derived from one traced pass
#
# Each entry: (metric, span name, kind, counter, scale, unit). Kinds:
#   count -- number of spans;        total -- sum of a counter over spans;
#   self  -- summed self time (s);   per   -- per-span duration / counter,
#   a time distribution reported as the median, ``.tail`` and ``.n``.

LAYER_METRICS = (
    ("platoon.rk4_calls", "platoon.rk4", "count", None, 1, "count"),
    ("platoon.rk4_steps", "platoon.rk4", "total", "steps", 1, "count"),
    ("platoon.rk4_step_us", "platoon.rk4", "per", "steps", 1e6, "us"),
    ("platoon.rk4_self_s", "platoon.rk4", "self", None, 1, "s"),
    ("laws.evaluate_calls", "laws.evaluate", "count", None, 1, "count"),
    ("laws.evaluate_us", "laws.evaluate", "per", None, 1e6, "us"),
    ("continuum.so_steps", "continuum.so", "total", "steps", 1, "count"),
    ("continuum.so_substeps", "continuum.so", "total", "substeps", 1, "count"),
    ("continuum.so_substep_us", "continuum.so", "per", "substeps", 1e6, "us"),
    ("continuum.so_self_s", "continuum.so", "self", None, 1, "s"),
    ("continuum.godunov_steps", "continuum.godunov", "total", "steps", 1, "count"),
    ("continuum.godunov_cell_step_ns", "continuum.godunov", "per", "cell_steps",
     1e9, "ns"),
    ("continuum.godunov_self_s", "continuum.godunov", "self", None, 1, "s"),
    ("fundamental.phi_calls", "fundamental.phi", "count", None, 1, "count"),
    ("fundamental.phi_us", "fundamental.phi", "per", None, 1e6, "us"),
    ("transforms.to_eulerian_rows", "transforms.to_eulerian", "total", "rows", 1,
     "count"),
    ("transforms.to_eulerian_row_us", "transforms.to_eulerian", "per", "rows", 1e6,
     "us"),
    ("transforms.to_eulerian_self_s", "transforms.to_eulerian", "self", None, 1, "s"),
    ("transforms.to_trajectories_rows", "transforms.to_trajectories", "total",
     "rows", 1, "count"),
    ("transforms.to_trajectories_row_us", "transforms.to_trajectories", "per",
     "rows", 1e6, "us"),
    ("transforms.to_trajectories_self_s", "transforms.to_trajectories", "self",
     None, 1, "s"),
    ("cli.csv_write_rows", "cli.csv_write", "total", "rows", 1, "count"),
    ("cli.csv_write_us_per_row", "cli.csv_write", "per", "rows", 1e6, "us"),
    ("cli.csv_read_rows", "cli.csv_read", "total", "rows", 1, "count"),
    ("cli.csv_read_us_per_row", "cli.csv_read", "per", "rows", 1e6, "us"),
    ("platoon.newell_steps", "platoon.newell", "total", "steps", 1, "count"),
    ("platoon.newell_step_us", "platoon.newell", "per", "steps", 1e6, "us"),
    ("steady_state.solve_calls", "steady_state.solve", "count", None, 1, "count"),
    ("steady_state.solve_us", "steady_state.solve", "per", None, 1e6, "us"),
    ("stability.ratio_calls", "stability.ratio", "count", None, 1, "count"),
    ("stability.ratio_us", "stability.ratio", "per", None, 1e6, "us"),
    ("config.validate_s", "config.validate", "per", None, 1, "s"),
    ("equivalence.report_s", "equivalence.report", "per", None, 1, "s"),
    ("equivalence.self_s", "equivalence.report", "self", None, 1, "s"),
    ("equivalence.incomparable", "equivalence.report", "total", "incomparable", 1,
     "count"),
)

# Metrics besides LAYER_METRICS, computed by the caller of ``layer_metrics``.
EXTRA_METRICS = (("equivalence.cf_unique_ratio", "1"), ("trace.overhead_s", "s"))

# A count must repeat exactly between two runs of one seed.
COUNT_KINDS = ("count", "total")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for metric, _, kind, _, _, unit in LAYER_METRICS:
        units[metric] = unit
        if kind == "per":
            units[metric + ".tail"] = unit
            units[metric + ".n"] = "count"
    units.update(EXTRA_METRICS)
    return units


def tail(samples: np.ndarray) -> float:
    """Highest sample with at least ten samples beyond it (the median if n <= 10)."""
    if samples.size <= 10:
        return float(np.median(samples)) if samples.size else 0.0
    return float(np.sort(samples)[-11])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the tracer's spans (one traced pass)."""
    nid, dur, self_time = tracer.arrays()
    values: dict[str, float] = {}
    for metric, span_name, kind, counter, scale, _ in LAYER_METRICS:
        sid = tracer.ids.get(span_name, -1)
        idx = np.flatnonzero(nid == sid)
        if kind == "count":
            values[metric] = int(idx.size)
        elif kind == "self":
            values[metric] = float(self_time[idx].sum())
        else:
            counts = (np.ones(idx.size) if counter is None else
                      np.array([_counter(tracer.info[i], counter) for i in idx],
                               dtype=float))
            if kind == "total":
                values[metric] = int(counts.sum())
                continue
            samples = dur[idx] * scale / np.maximum(counts, 1)
            values[metric] = float(np.median(samples)) if idx.size else 0.0
            values[metric + ".tail"] = tail(samples)
            values[metric + ".n"] = int(idx.size)
    keys = [tracer.info[i]["key"]
            for i in np.flatnonzero(nid == tracer.ids.get("platoon.rk4", -1))]
    values["equivalence.cf_unique_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    return values


def _counter(info: dict, counter: str) -> float:
    if counter == "cell_steps":
        return info["steps"] * info["cells"]
    return info[counter]
