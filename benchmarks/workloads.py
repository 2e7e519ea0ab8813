"""The benchmark's three workloads: inputs from a seed, one pass, the oracle.

Each workload is built once per process (``build``), run as a pass any number
of times (``run_pass``, the timed part), and each pass is judged by
``check``, which returns the pass's operation counts, its accuracy residual
and the list of oracle violations (empty when every output is correct).
``digest`` gives sha256 digests of a pass's outputs.

The program is driven only through the public API and the in-process CLI
(``trafficlab.cli.main``); module attributes are looked up at call time so
that the traced run can rebind them (see ``spans.py``).

``size="tiny"`` shrinks every workload to about a second for the
benchmark's self-test; the timed runs use ``size="full"``.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import trafficlab as tl
from trafficlab import cli, config
from trafficlab.equivalence import front_position

# The seed whose outputs are digested in digests.json.
DEFAULT_SEED = 0

# Canonical triangular diagram of the acceptance suite: S_j = 5 m, tau = 1 s.
FD_DOC = {"kind": "triangular", "v_f": 20.0, "w": 5.0, "k_j": 0.2}


@dataclass
class Outcome:
    """What one checked pass did: operations, failures, residual, violations."""

    attempted: int
    failed: int
    oracle_err: float = math.nan
    violations: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.violations.append(message)
        return ok


def sha256_files(files: dict[str, Path]) -> dict[str, str]:
    """sha256 of each file, keyed by its label."""
    return {label: hashlib.sha256(path.read_bytes()).hexdigest()
            for label, path in sorted(files.items())}


def _write_json(path: Path, doc: dict) -> str:
    config.validate_document(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# ring-suite: the demo compare suite, 18 paired ring reports


# One car-following run per law, seen through each resolution's grid: the
# fitted growth rate then moves by about 1e-6 relative between the demo
# resolutions, and by about 3e-4 on the self-test's short horizon.
GROWTH_RTOL = 1e-3


class RingSuite:
    """6 laws x 3 resolutions of paired ring runs through ``trafficlab compare``."""

    name = "ring-suite"

    SIZES = {
        #        horizon entries resolutions
        "full": (18.0, 6, [10, 20, 40]),
        "tiny": (12.0, 2, [10, 20]),
    }

    def build(self, seed: int, workdir: Path, size: str = "full") -> dict:
        rng = random.Random(seed)
        horizon, n_entries, resolutions = self.SIZES[size]
        doc = copy.deepcopy(cli.DEMO_CONFIG)
        ring = doc["suite"]["ring"]
        # Amplitude jitter of +-2 % keeps the work and the residual nearly
        # seed-independent while still changing every initial state.
        ring["amplitude"] = 0.01 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
        ring["horizon"] = horizon
        doc["suite"]["entries"] = doc["suite"]["entries"][:n_entries]
        doc["suite"]["resolutions"] = resolutions
        out = workdir / "compare"
        out.mkdir(parents=True, exist_ok=True)
        cfg = _write_json(workdir / "ring_suite.json", doc)
        n_reports = len(doc["suite"]["entries"]) * len(doc["suite"]["resolutions"])
        return {"config": cfg, "out": out, "n_reports": n_reports,
                "ring": ring}

    def run_pass(self, inputs: dict) -> dict:
        rc = cli.main(["compare", "--config", inputs["config"],
                       "--out", str(inputs["out"])])
        return {"rc": rc}

    def digest(self, inputs: dict, result: dict) -> dict[str, str]:
        out = inputs["out"]
        files = [out / "summary.csv"] + sorted((out / "reports").glob("*.csv"))
        return sha256_files({str(p.relative_to(out)): p for p in files})

    def check(self, inputs: dict, result: dict) -> Outcome:
        n = inputs["n_reports"]
        out = Outcome(attempted=n, failed=n)
        if not out.require(result["rc"] == 0, f"compare exited with {result['rc']}"):
            return out
        rows = _read_csv_dicts(inputs["out"] / "summary.csv")
        if not out.require(len(rows) == n, f"summary has {len(rows)} reports, not {n}"):
            return out
        out.failed = sum(r["verdict"] == "incomparable" for r in rows)
        verdicts = [r["verdict"] for r in rows]
        out.require(verdicts.count("within-threshold") == n,
                    f"verdicts {verdicts}: expected {n}/{n} within-threshold")
        growth: dict[tuple[str, str], list[float]] = {}
        for r in rows:
            growth.setdefault((r["scenario"], r["model"]), []).append(float(r["growth_cf"]))
        split = {key: vals for key, vals in growth.items()
                 if max(vals) - min(vals) > GROWTH_RTOL * max(map(abs, vals))}
        out.require(not split, f"growth_cf differs across resolutions: {split}")
        ring = inputs["ring"]
        scale = ring["threshold"] * ring["k0"]
        out.oracle_err = max(float(r["linf_k"]) / scale for r in rows)
        return out


def _read_csv_dicts(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# freq-sweep: acceptance criterion 05 as a workload


FREQ_NOMINAL = (0.2, 0.5, 1.0, 2.0, 4.0)
FREQ_RANGE = (0.2, 4.0)
RATIO_TOL = 0.03  # criterion 05: simulated vs predicted amplitude ratio
FLIP_TOL = 1e-6   # criterion 05: flip within 1e-6 tau of tau / 2


class FreqSweep:
    """Sinusoid-leader RK4 runs vs the amplification ratio, plus the flip bisection."""

    name = "freq-sweep"

    SIZES = {
        #        dt   settle periods frequencies
        "full": (0.02, 10.0, 2, FREQ_NOMINAL),
        "tiny": (0.01, 15.0, 2, FREQ_NOMINAL[-2:]),
    }

    def build(self, seed: int, workdir: Path, size: str = "full") -> dict:
        rng = random.Random(seed)
        dt, settle, periods, nominals = self.SIZES[size]
        # Small relative jitter inside [0.2, 4] rad/s (the step count of a run
        # scales with 1/omega, so wide jitter would change the work per pass),
        # snapped so that one period is a whole number of steps. Settling
        # then also lasts whole periods (see _measured_ratio), so the window
        # starts at the leader's phase 0 and the estimator's residual varies
        # smoothly with omega instead of with the phase the window happens
        # to start at. Snapping moves omega by less than 0.5 %.
        lo, hi = FREQ_RANGE[0] * 1.005, FREQ_RANGE[1] * 0.995
        omegas = []
        for nominal in nominals:
            omega = min(max(nominal * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)), lo), hi)
            omegas.append(2 * math.pi / (round(2 * math.pi / omega / dt) * dt))
        models = [{"name": "ovm", "T": 0.4},
                  {"name": "fvdm", "T": 0.6, "lambda": 0.5}]
        docs = [{"fd": dict(FD_DOC), "model": m} for m in models]
        for doc in docs:
            config.validate_document(doc)
        return {"docs": docs, "omegas": omegas, "v0": 7.5, "s0": 12.5,
                "dt": dt, "settle": settle, "periods": periods,
                "flip_state": (5.0, 10.0), "flip_bracket": (0.1, 0.9)}

    def run_pass(self, inputs: dict) -> dict:
        fd = config.build_fd(inputs["docs"][0])
        runs, errors = [], []
        for doc in inputs["docs"]:
            law = config.build_law(doc)
            for omega in inputs["omegas"]:
                try:
                    measured = _measured_ratio(law, inputs, omega)
                    predicted = abs(tl.amplification_ratio(law, inputs["v0"],
                                                           inputs["s0"], omega))
                    runs.append((law.name, omega, measured, predicted))
                except tl.TrafficLabError as exc:
                    errors.append(f"{law.name} omega={omega!r}: {exc}")
        try:
            flip = _classic_flip(fd, *inputs["flip_state"], *inputs["flip_bracket"])
        except tl.TrafficLabError as exc:
            errors.append(f"flip bisection: {exc}")
            flip = math.nan
        return {"runs": runs, "flip": flip, "tau": fd.time_gap, "errors": errors}

    def check(self, inputs: dict, result: dict) -> Outcome:
        attempted = len(inputs["docs"]) * len(inputs["omegas"]) + 1
        out = Outcome(attempted=attempted, failed=len(result["errors"]))
        if not out.require(not result["errors"], f"operations raised: {result['errors']}"):
            return out
        errors = {f"{law}@{omega!r}": abs(m - p) / p for law, omega, m, p in result["runs"]}
        out.oracle_err = max(errors.values())
        out.detail["ratio_errors"] = errors
        out.require(out.oracle_err <= RATIO_TOL,
                    f"amplitude ratio error {out.oracle_err:.3%} > {RATIO_TOL:.0%}")
        tau = result["tau"]
        flip_err = abs(result["flip"] - 0.5 * tau)
        out.require(flip_err <= FLIP_TOL * tau,
                    f"classic flip at T={result['flip']!r}, {flip_err:.2e} from "
                    f"tau/2 > {FLIP_TOL} tau")
        out.detail["flip_err"] = flip_err
        return out

    def digest(self, inputs: dict, result: dict) -> dict[str, str]:
        text = json.dumps([result["runs"], result["flip"]])
        return {"results": hashlib.sha256(text.encode()).hexdigest()}


def _measured_ratio(law, inputs: dict, omega: float) -> float:
    """Follower/leader speed-amplitude ratio after the transient has settled.

    Criterion 05's estimator over ``periods`` periods, after at least
    ``settle`` seconds rounded up to whole periods.
    """
    v0, s0, dt = inputs["v0"], inputs["s0"], inputs["dt"]
    eps = 0.01 * v0
    leader = tl.SinusoidLeader(v0, eps, omega)
    period = round(2 * math.pi / omega / dt)
    n_settle = math.ceil(inputs["settle"] / dt / period) * period
    n_meas = inputs["periods"] * period
    surface = tl.simulate_continuous(law, tl.uniform_platoon(3, s0, v0), leader,
                                     dt, n_settle + n_meas)
    t = surface.times[n_settle:]
    v1 = surface.speed_matrix()[n_settle:, 1] - v0
    return float(2.0 * np.abs(np.mean(v1 * np.exp(-1j * omega * t))) / eps)


def _classic_flip(fd, v0: float, s0: float, lo: float, hi: float) -> float:
    """Bisect the relaxation time at which the classic criterion flips."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tl.string_stability_classic(tl.make_ovm(mid, fd), v0, s0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# field-roundtrip: first-order CLI pipeline


LEADER_SPEEDS = (18.0, 2.0, 16.0, 0.0, 17.0, 3.0, 15.0)


class FieldRoundtrip:
    """Newell platoon -> field -> trajectories, and an inflow Riemann problem."""

    name = "field-roundtrip"

    SIZES = {
        #         vehicles steps cells  pde_cells pde_steps record_every
        "full": (75, 300, 500, 800, 1500, 100),
        "tiny": (20, 60, 100, 200, 300, 50),
    }

    def build(self, seed: int, workdir: Path, size: str = "full") -> dict:
        rng = random.Random(seed)
        n_veh, steps, cells, pde_cells, pde_steps, rec = self.SIZES[size]
        tau = 1.0 / (FD_DOC["w"] * FD_DOC["k_j"])
        horizon = steps * tau
        # Stop-and-go leader: fast and slow phases of nominal length and speed,
        # jittered a little so that the work per pass hardly depends on the seed.
        phases = len(LEADER_SPEEDS)
        times = [0.0] + [round((i + rng.uniform(-0.05, 0.05)) * horizon / phases, 3)
                         for i in range(1, phases)]
        speeds = [max(v + rng.uniform(-0.5, 0.5), 0.0) for v in LEADER_SPEEDS]
        leader = tl.PiecewiseConstantLeader(tuple(times), tuple(speeds))
        spacing, v_init = 25.0, 20.0
        x_lo = -spacing * (n_veh - 1) - 2 * spacing
        x_hi = leader.displacement(0.0, horizon) + 2 * spacing
        dx = (x_hi - x_lo) / cells

        k_l = 0.03 + rng.uniform(-0.002, 0.002)
        k_r = 0.12 + rng.uniform(-0.005, 0.005)
        pde_dx, pde_dt = 5.0, 0.2
        x_jump = 0.75 * pde_cells * pde_dx

        dirs = {name: workdir / name for name in ("cf", "field", "back", "pde")}
        for d in dirs.values():
            d.mkdir(parents=True, exist_ok=True)
        cf_doc = {"fd": dict(FD_DOC),
                  "sim": {"method": "newell", "steps": steps,
                          "boundary": {"kind": "piecewise", "times": times,
                                       "speeds": speeds},
                          "initial": {"n_vehicles": n_veh, "spacing": spacing,
                                      "speed": v_init}}}
        toe_doc = {"transform": {"direction": "to_eulerian",
                                 "input": str(dirs["cf"] / "trajectories.csv"),
                                 "x0": x_lo, "dx": dx, "cells": cells}}
        tot_doc = {"transform": {"direction": "to_trajectories",
                                 "input": str(dirs["field"] / "field.csv"),
                                 "n_vehicles": n_veh}}
        pde_doc = {"fd": dict(FD_DOC),
                   "pde": {"solver": "lwr", "x0": 0.0, "dx": pde_dx,
                           "cells": pde_cells, "dt": pde_dt, "steps": pde_steps,
                           "record_every": rec,
                           "boundary": {"kind": "inflow", "k_in": k_l},
                           "initial": {"kind": "riemann", "k_left": k_l,
                                       "k_right": k_r, "x_jump": x_jump}}}
        commands = [
            ["simulate-cf", _write_json(workdir / "cf.json", cf_doc), dirs["cf"]],
            ["transform", _write_json(workdir / "to_eulerian.json", toe_doc),
             dirs["field"]],
            ["transform", _write_json(workdir / "to_trajectories.json", tot_doc),
             dirs["back"]],
            ["simulate-pde", _write_json(workdir / "pde.json", pde_doc), dirs["pde"]],
        ]
        return {"commands": commands, "dirs": dirs, "dx": dx,
                "riemann": (k_l, k_r, x_jump, pde_dt * pde_steps, pde_dx)}

    def run_pass(self, inputs: dict) -> dict:
        codes = [cli.main([sub, "--config", cfg, "--out", str(out)])
                 for sub, cfg, out in inputs["commands"]]
        return {"codes": codes}

    def digest(self, inputs: dict, result: dict) -> dict[str, str]:
        d = inputs["dirs"]
        return sha256_files({f"{name}/{file}": d[name] / file for name, file in (
            ("cf", "trajectories.csv"), ("field", "field.csv"),
            ("back", "trajectories.csv"), ("pde", "field.csv"))})

    def check(self, inputs: dict, result: dict) -> Outcome:
        codes = result["codes"]
        out = Outcome(attempted=len(codes), failed=sum(c != 0 for c in codes))
        if not out.require(out.failed == 0, f"CLI exit codes {codes}"):
            return out
        d = inputs["dirs"]
        original = cli.read_trajectory_csv(d["cf"] / "trajectories.csv").positions
        back = cli.read_trajectory_csv(d["back"] / "trajectories.csv").positions
        if not out.require(back.shape == original.shape,
                           f"round trip shape {back.shape} != {original.shape}"):
            return out
        # Interior vehicles: the support edges sit on cell edges, not on the
        # first and last vehicle.
        err = np.abs(back[:, 1:-1] - original[:, 1:-1])
        err_m, dx = float(np.max(err)), inputs["dx"]
        out.require(err_m <= dx, f"round-trip position error {err_m:.3f} m "
                                 f"exceeds one cell ({dx:.3f} m)")
        # The residual is the root-mean-square error in cells: the maximum
        # hangs on where a few vehicles fall relative to cell edges, so it
        # moves by 20 % between seeds, while the mean over all samples holds.
        out.oracle_err = float(np.sqrt(np.mean(err**2))) / dx

        k_l, k_r, x_jump, t_end, pde_dx = inputs["riemann"]
        pde = cli.read_field_csv(d["pde"] / "field.csv")
        fd = tl.TriangularDiagram(FD_DOC["v_f"], FD_DOC["w"], FD_DOC["k_j"])
        expected = x_jump + tl.rankine_hugoniot_speed(fd, k_l, k_r) * t_end
        out.require(abs(pde.times[-1] - t_end) <= 1e-9 * t_end,
                    f"last field record at t={pde.times[-1]!r}, not {t_end!r}")
        front = front_position(pde.cell_centers, pde.density[-1], 0.5 * (k_l + k_r))
        out.require(abs(front - expected) <= 2 * pde_dx,
                    f"shock front at {front:.2f} m, Rankine-Hugoniot position "
                    f"{expected:.2f} m (more than 2 cells apart)")
        out.detail.update(roundtrip_err_m=err_m, dx_m=dx, shock_err_m=front - expected)
        return out


WORKLOADS = {w.name: w for w in (RingSuite(), FreqSweep(), FieldRoundtrip())}
