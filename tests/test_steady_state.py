"""Equilibrium speed-density solving and degeneracy detection."""

import inspect
import math

import numpy as np
import pytest

from trafficlab import (MODEL_CATALOG, AccelerationLaw, DomainError, EquilibriumResult,
                        EquilibriumStatus, GreenshieldsDiagram, TabulatedDiagram,
                        TrafficLabError, TriangularDiagram, fundamental_diagram_of,
                        idm_closed_form_density, make_arz_cf, make_fvdm, make_gfm,
                        make_idm, make_idm_alt, make_linear_gm, make_nonlinear_gm,
                        make_ovm, make_third_order, solve_equilibrium_speed,
                        stability_map, stability_report)
from trafficlab import ConfigurationError, cli, config
from trafficlab.stability import StabilityMapRow

from conftest import GS, TRI, assert_bits_equal


class TestSolve:
    def test_ovm_returns_eta(self, tri):
        law = make_ovm(0.7, tri)
        for k in (0.02, 0.05, 0.1, 0.19):
            res = solve_equilibrium_speed(law, k)
            assert res.status is EquilibriumStatus.OK
            assert res.speed == pytest.approx(tri.eta(k), abs=1e-9)

    def test_linear_gm_degenerate(self):
        res = solve_equilibrium_speed(make_linear_gm(1.5), 0.05)
        assert res.status is EquilibriumStatus.DEGENERATE

    def test_nonlinear_gm_degenerate(self):
        res = solve_equilibrium_speed(make_nonlinear_gm(1.0, 1, 2), 0.05)
        assert res.status is EquilibriumStatus.DEGENERATE

    def test_arz_degenerate(self, gs):
        res = solve_equilibrium_speed(make_arz_cf(gs), 0.05)
        assert res.status is EquilibriumStatus.DEGENERATE

    def test_idm_inverts_closed_form(self):
        law = make_idm(1.0, 1.0, 4, 30.0, 1.0, 2.0)
        k = idm_closed_form_density(15.0, v_f=30.0, tau=1.0, d=2.0, delta=4)
        assert k == pytest.approx(0.05695563744422672)
        res = solve_equilibrium_speed(law, k)
        assert res.status is EquilibriumStatus.OK
        assert res.speed == pytest.approx(15.0, abs=1e-6)

    def test_residual_bound(self, tri):
        law = make_gfm(1.0, 0.4, 2.0, 1.0, 10.0, tri)
        for k in np.linspace(0.03, 0.19, 9):
            res = solve_equilibrium_speed(law, float(k))
            scale = max(1.0, abs(law.evaluate(0.0, 1.0 / k, 0.0)))
            assert res.residual <= 1e-10 * scale

    def test_no_root(self):
        # accel strictly positive on the bracket: no equilibrium speed
        law = AccelerationLaw("always_push", {}, lambda v, s, dv: 1.0 + 0 * v,
                              v_free=30.0)
        res = solve_equilibrium_speed(law, 0.05)
        assert res.status is EquilibriumStatus.NO_ROOT

    def test_multiple_roots_returns_smallest(self):
        law = AccelerationLaw(
            "two_roots", {}, lambda v, s, dv: -(v - 3.0) * (v - 8.0) / 10.0 + 0 * v,
            v_free=10.0)
        res = solve_equilibrium_speed(law, 0.05)
        assert res.status is EquilibriumStatus.OK
        assert res.speed == pytest.approx(3.0, abs=1e-9)
        assert res.multiplicity == 2

    def test_bad_density(self, tri):
        # Refused before any evaluation: a NaN density once solved to OK with
        # a NaN residual (OVM), and NaN or inf to DEGENERATE (linear GM).
        for law in (make_ovm(0.5, tri), make_linear_gm(1.5)):
            for k, match in ((0.0, "must be > 0"), (-0.1, "must be > 0"),
                             (math.nan, "finite"), (math.inf, "finite"),
                             (-math.inf, "finite")):
                with pytest.raises(DomainError, match=match):
                    solve_equilibrium_speed(law, k)


class TestIdmClosedForm:
    def test_free_flow_endpoint(self):
        assert idm_closed_form_density(30.0, 30.0, 1.0, 2.0, 4) == 0.0

    def test_standstill_endpoint(self):
        assert idm_closed_form_density(0.0, 30.0, 1.0, 2.0, 4) == pytest.approx(0.5)

    def test_large_exponent_approaches_two_branch_form(self):
        # delta -> inf: v = min(v_f, (1/k - d)/tau)
        k = idm_closed_form_density(10.0, 30.0, 1.0, 2.0, 200)
        assert k == pytest.approx(1.0 / 12.0, rel=5e-3)
        v_min_form = (1.0 / k - 2.0) / 1.0
        assert v_min_form == pytest.approx(10.0, rel=5e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            idm_closed_form_density(31.0, 30.0, 1.0, 2.0, 4)


class TestCurves:
    def test_nan_density_is_refused(self, tri):
        # the NaN passes the sort check, and once got an OK row
        with pytest.raises(DomainError, match="density must be finite, got nan"):
            fundamental_diagram_of(make_ovm(0.5, tri), [0.1, math.nan])

    def test_ovm_curve_recovers_flow_density(self, tri):
        law = make_ovm(1.0, tri)
        k = np.linspace(0.01, 0.2, 40)
        curve = fundamental_diagram_of(law, k)
        assert not curve.degenerate
        np.testing.assert_allclose(curve.q, tri.phi(k), atol=1e-9)

    def test_fvdm_matches_ovm_curve(self, tri):
        k = np.linspace(0.02, 0.19, 25)
        a = fundamental_diagram_of(make_ovm(0.8, tri), k)
        b = fundamental_diagram_of(make_fvdm(0.8, 1.3, tri), k)
        np.testing.assert_allclose(a.v, b.v, atol=1e-10)

    def test_idm_variants_share_curve(self):
        k = np.linspace(0.02, 0.3, 20)
        a = fundamental_diagram_of(make_idm(1.0, 1.5, 4, 30.0, 1.0, 2.0), k)
        b = fundamental_diagram_of(make_idm_alt(1.0, 1.5, 4, 30.0, 1.0, 2.0), k)
        np.testing.assert_allclose(a.v, b.v, atol=1e-9)

    def test_monotone_curves_report_no_violations(self, tri):
        k = np.linspace(0.02, 0.19, 25)
        curve = fundamental_diagram_of(make_ovm(0.8, tri), k)
        assert curve.monotone_violations == 0
        idm_curve = fundamental_diagram_of(
            make_idm(1.0, 1.5, 4, 30.0, 1.0, 2.0), k)
        assert idm_curve.monotone_violations == 0

    def test_degenerate_flagged(self, gs):
        curve = fundamental_diagram_of(make_arz_cf(gs), np.linspace(0.02, 0.18, 5))
        assert curve.degenerate
        assert all(st is EquilibriumStatus.DEGENERATE for st in curve.statuses)

    def test_csv_export(self, tmp_path):
        doc = {"fd": {"kind": "triangular", **TRI}, "model": {"name": "ovm", "T": 1.0},
               "steady": {"k_min": 0.05, "k_max": 0.15, "count": 3}}
        assert cli.cmd_steady(doc, tmp_path) == 0
        lines = (tmp_path / "steady.csv").read_text().strip().splitlines()
        assert lines[0] == "k,v,q"
        assert len(lines) == 4


# ---------------------------------------------------------------------------
# The solver against its earlier form


def reference_solve(law, k):
    """The solver as it was before it checked the spacing once: every
    evaluation through ``law.evaluate`` (the domain check, then ``psi``) and
    the sign changes found by a Python loop over the scan's pairs."""
    if k <= 0:
        raise DomainError("density must be > 0")
    s = 1.0 / k
    v_max = 2.0 * law.v_free if law.v_free is not None else 100.0
    v = np.linspace(0.0, v_max, 9)
    scale = 1.0
    for dv in (-0.1 * v_max, 0.0, 0.1 * v_max):
        scale = max(scale, float(np.max(np.abs(law.evaluate(v, s, dv)))))
    grid = np.linspace(0.0, v_max, 128)
    g_grid = np.asarray(law.evaluate(grid, s, 0.0), dtype=float)
    if np.max(np.abs(g_grid)) <= 1e-12 * scale:
        return EquilibriumResult(EquilibriumStatus.DEGENERATE)
    signs = np.sign(g_grid)
    crossings = [i for i in range(len(grid) - 1)
                 if signs[i] != signs[i + 1] and signs[i] != 0]
    exact_hits = np.flatnonzero(signs == 0)
    if not crossings and exact_hits.size == 0:
        return EquilibriumResult(EquilibriumStatus.NO_ROOT)
    tol = 1e-12 * max(1.0, abs(float(law.evaluate(0.0, s, 0.0))))
    if exact_hits.size and (not crossings or exact_hits[0] <= crossings[0]):
        v_root = float(grid[exact_hits[0]])
    else:
        i = crossings[0]
        g = lambda v: float(law.evaluate(v, s, 0.0))
        lo, hi, g_lo = float(grid[i]), float(grid[i + 1]), float(g_grid[i])
        for _ in range(90):
            v_root = 0.5 * (lo + hi)
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
            g_mid = g(v_root)
            if g_mid == 0.0:
                break
            if (g_lo < 0) == (g_mid < 0):
                lo, g_lo = v_root, g_mid
            else:
                hi = v_root
        else:
            v_root = 0.5 * (lo + hi)
        for _ in range(4):
            g_v = g(v_root)
            if abs(g_v) <= 1e-3 * tol:
                break
            h = max(1e-7 * abs(v_root), 1e-9)
            slope = (g(v_root + h) - g(v_root - h)) / (2 * h)
            if slope == 0.0:
                break
            step = g_v / slope
            if not math.isfinite(step) or abs(step) > 0.5 * v_max:
                break
            v_root -= step
        v_root = max(v_root, 0.0)
    residual = abs(float(law.evaluate(v_root, s, 0.0)))
    return EquilibriumResult(EquilibriumStatus.OK, speed=v_root, residual=residual,
                             multiplicity=max(len(crossings), 1))


TAB = TabulatedDiagram(np.array([0.0, 0.03, 0.06, 0.12, 0.2]),
                       np.array([0.0, 0.5, 0.6, 0.4, 0.0]))
CATALOG_PARAMS = {
    "linear_gm": {"T": 1.5}, "nonlinear_gm": {"a": 1.0, "m": 1, "l": 2},
    "ovm": {"T": 0.7}, "gfm": {"T": 1.0, "T_brake": 0.4, "d": 2.0, "tau": 1.0, "R": 10.0},
    "idm": {"a": 1.0, "b": 1.5, "delta": 4, "v_f": 30.0, "tau": 1.0, "d": 2.0},
    "idm_alt": {"a": 1.0, "b": 1.5, "delta": 4, "v_f": 30.0, "tau": 1.0, "d": 2.0},
    "fvdm": {"T": 0.8, "lam": 0.5}, "arz": {}, "jwz": {"T": 1.0, "c0": 2.0},
}


def catalog_laws():
    """Every catalog law on each diagram it can take, a third-order wrapper,
    and three custom laws: no root, two roots, and a root on a scan point."""
    laws = {}
    for fd_name, fd in (("tri", TriangularDiagram(**TRI)),
                        ("gs", GreenshieldsDiagram(**GS)), ("tab", TAB)):
        for name, factory in MODEL_CATALOG.items():
            takes_fd = "fd" in inspect.signature(factory).parameters
            laws[f"{name}-{fd_name}"] = factory(**CATALOG_PARAMS[name],
                                                **({"fd": fd} if takes_fd else {}))
    laws["third_order-idm"] = make_third_order(laws["idm-tri"], 0.3)
    laws["third_order-ovm"] = make_third_order(laws["ovm-tab"], 0.3)
    laws["no-root"] = AccelerationLaw("push", {}, lambda v, s, dv: 1.0 + 0 * v, v_free=30.0)
    laws["two-roots"] = AccelerationLaw(
        "two_roots", {}, lambda v, s, dv: -(v - 3.0) * (v - 8.0) / 10.0 + 0 * v, v_free=10.0)
    # The scan is 0, 1, ..., 127. A root on a scan point is bisected from the
    # pair before it; only a root at v = 0 is taken as an exact hit.
    laws["scan-point-root"] = AccelerationLaw(
        "on_grid", {}, lambda v, s, dv: np.where(s < 10.0, -v, (5.0 - v) * (s - 10.0)),
        v_free=63.5)
    # A speed-gap response dwarfs the dv = 0 slice: degenerate only on the
    # scale that the dv != 0 probes set, and a slice just above it.
    for name, slope in (("gap-dominated", 1e-11), ("gap-dominated-slice", 1e-6)):
        laws[name] = AccelerationLaw(
            "gap", {}, lambda v, s, dv, slope=slope: 1e3 * dv + slope * (5.0 - v), v_free=10.0)
    return laws


LAWS = catalog_laws()
DENSITIES = [*np.linspace(0.004, 0.2, 23).tolist(), 0.041, 0.1, 0.199, 0.25, 0.5, 0.0, -0.1]


def outcome(solve, law, k):
    try:
        with np.errstate(all="ignore"):
            return solve(law, k)
    except TrafficLabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_solver_gives_the_reference_bits(name):
    """Status, speed, residual and multiplicity (or the exception) of the
    reference, bit for bit, at every density, degenerate and no-root ones
    and ones outside the law's domain included."""
    law = LAWS[name]
    for k in DENSITIES:
        got, want = outcome(solve_equilibrium_speed, law, k), outcome(reference_solve, law, k)
        if isinstance(want, tuple):
            assert got == want, k
            continue
        assert (got.status, got.multiplicity) == (want.status, want.multiplicity), k
        assert_bits_equal([got.speed, got.residual], [want.speed, want.residual])


def test_reference_cases_are_covered():
    """The law set above reaches every outcome of the solver."""
    results = [outcome(reference_solve, law, k) for law in LAWS.values() for k in DENSITIES]
    assert ({r.status for r in results if isinstance(r, EquilibriumResult)}
            == set(EquilibriumStatus))
    assert any(isinstance(r, tuple) for r in results)  # densities outside a domain
    multiple = reference_solve(LAWS["two-roots"], 0.05)
    assert multiple.multiplicity == 2
    assert [reference_solve(LAWS[name], 0.05).status for name in
            ("gap-dominated", "gap-dominated-slice")] == [EquilibriumStatus.DEGENERATE,
                                                          EquilibriumStatus.OK]
    on_scan = [reference_solve(LAWS["scan-point-root"], k).speed for k in (0.05, 0.2)]
    assert on_scan == [pytest.approx(5.0, abs=1e-12), 0.0]


def reference_stability_map(law, k_grid):
    """``stability_map`` as it was: a solve and a status test per density."""
    rows = []
    for k in np.asarray(k_grid, dtype=float):
        res = solve_equilibrium_speed(law, float(k))
        if res.status is not EquilibriumStatus.OK:
            rows.append(StabilityMapRow(k=float(k), report=None))
            continue
        rows.append(StabilityMapRow(k=float(k),
                                    report=stability_report(law, float(k), v0=res.speed)))
    return rows


@pytest.mark.parametrize("name", ["ovm-tri", "fvdm-tri", "idm-tri", "gfm-gs", "jwz-tab",
                                  "arz-gs", "linear_gm-tri", "third_order-idm", "two-roots",
                                  "no-root"])
def test_stability_map_rows_equal_the_per_density_loop(name):
    """The shared loop gives the same rows on sorted, unsorted, repeating and
    empty grids."""
    law = LAWS[name]
    for grid in (np.linspace(0.02, 0.19, 8), [0.15, 0.03, 0.15, 0.08], [], (0.05,)):
        if law.t_delay is not None and len(grid):  # its delay is not in the symbol
            for stability in (stability_map, reference_stability_map):
                with pytest.raises(DomainError, match="does not cover third-order laws"):
                    stability(law, grid)
            continue
        rows = stability_map(law, grid)
        assert rows == reference_stability_map(law, grid)
        assert all(type(row.k) is float for row in rows)
        assert all(type(row.report.v0) is float for row in rows if row.report)


# ---------------------------------------------------------------------------
# Second-order seeding: one solve per distinct density


def reference_seed(law, k_init):
    """The seeding loop as it was: one solve per cell."""
    speeds = np.empty_like(k_init)
    for i, k in enumerate(k_init):
        res = solve_equilibrium_speed(law, max(float(k), 1e-6))
        if res.status is not EquilibriumStatus.OK:
            raise ConfigurationError(
                f"{law.name} has no equilibrium speed at k={k:g}; "
                "cannot seed the speed field", path="pde.initial")
        speeds[i] = res.speed
    return speeds


def second_order_doc(initial):
    return {"fd": {"kind": "triangular", **TRI}, "model": {"name": "idm", "a": 1.0, "b": 1.5,
                                                            "delta": 4, "v_f": 30.0, "tau": 1.0,
                                                            "d": 2.0},
            "pde": {"solver": "second_order", "dx": 10.0, "cells": 100, "dt": 0.1, "steps": 1,
                    "initial": initial}}


@pytest.mark.parametrize("initial, solves", [
    ({"kind": "uniform", "k": 0.05}, 1),
    ({"kind": "riemann", "k_left": 0.03, "k_right": 0.12, "x_jump": 400.0}, 2),
    ({"kind": "riemann", "k_left": 0.0, "k_right": 1e-7, "x_jump": 400.0}, 1),  # both 1e-6
    ({"kind": "sine", "k0": 0.08, "relative_amplitude": 0.2}, None),
], ids=["uniform", "riemann", "riemann-below-floor", "sine"])
def test_seed_solves_each_density_once(monkeypatch, initial, solves):
    doc = second_order_doc(initial)
    calls = []
    solve = config.solve_equilibrium_speed
    monkeypatch.setattr(config, "solve_equilibrium_speed",
                        lambda law, k: calls.append(k) or solve(law, k))
    scenario, _ = config.build_pde_scenario(doc)
    k_init = scenario.initial_density
    floored = np.maximum(k_init, 1e-6)
    assert calls == list(dict.fromkeys(floored.tolist()))
    assert len(calls) == (solves or len(set(floored.tolist())))
    assert_bits_equal(scenario.initial_speed, reference_seed(config.build_law(doc), k_init))


def test_failing_seed_refuses_the_first_failing_cell():
    """A law with no equilibrium at spacings below 20 m (k > 0.05): the
    refusal names the first such cell's density, with the earlier text."""
    law = AccelerationLaw("push_when_dense", {},
                          lambda v, s, dv: np.where(s < 20.0, 1.0, 10.0 - v) + 0 * v,
                          v_free=30.0)
    k_init = np.array([0.03, 0.03, 0.0, 0.08, 0.09, 0.08, 0.07])
    with pytest.raises(ConfigurationError) as want:
        reference_seed(law, k_init)
    with pytest.raises(ConfigurationError) as got:
        config._equilibrium_speeds(law, k_init)
    assert (str(got.value), got.value.path) == (str(want.value), want.value.path)
    assert "k=0.08;" in str(got.value)
    assert_bits_equal(config._equilibrium_speeds(law, k_init[:3]), reference_seed(law, k_init[:3]))
