"""Equilibrium speed-density solving and degeneracy detection."""

import numpy as np
import pytest

from trafficlab import (AccelerationLaw, DomainError, EquilibriumStatus,
                        fundamental_diagram_of, idm_closed_form_density,
                        make_arz_cf, make_fvdm, make_gfm, make_idm,
                        make_idm_alt, make_linear_gm, make_nonlinear_gm,
                        make_ovm, solve_equilibrium_speed)
from trafficlab import cli

from conftest import TRI


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
        with pytest.raises(DomainError):
            solve_equilibrium_speed(make_ovm(1.0, tri), 0.0)


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
