"""String stability (both criteria) and continuum linear stability."""

import math

import numpy as np
import pytest

from trafficlab import (AccelerationLaw, SingularityError, TriangularDiagram,
                        amplification_ratio, continuum_linear_stability, make_fvdm,
                        make_idm, make_ovm, stability_map, stability_report,
                        string_stability_exact, string_stability_classic)
from trafficlab.stability import continuum_coefficients

from conftest import TRI


def synthetic_law(p_v, p_s, p_dv, v0=10.0, s0=20.0):
    """Linear law with prescribed partials and a steady state at (v0, s0)."""

    def psi(v, s, dv):
        return p_v * (v - v0) + p_s * (s - s0) + p_dv * dv

    def partials(v, s, dv):
        z = np.zeros_like(np.asarray(v, dtype=float))
        return z + p_v, z + p_s, z + p_dv

    return AccelerationLaw("synthetic", {}, psi, partials, v_free=2 * v0)


class TestAmplificationRatio:
    def test_low_frequency_limit_is_one(self, tri):
        law = make_ovm(0.5, tri)
        assert abs(amplification_ratio(law, 5.0, 10.0, 1e-6)) == pytest.approx(1.0, abs=1e-5)

    def test_high_frequency_limit_is_zero(self, tri):
        law = make_ovm(0.5, tri)
        assert abs(amplification_ratio(law, 5.0, 10.0, 1e6)) < 1e-9

    def test_ovm_congested_unit_ratio_at_unit_frequency(self, tri):
        # partials (-1, 1, 0): ratio = 1 / (-1 - i(-1) + 1) = 1/i
        r = amplification_ratio(make_ovm(1.0, tri), 5.0, 10.0, 1.0)
        assert abs(r) == pytest.approx(1.0, rel=1e-12)
        assert np.angle(r) == pytest.approx(-math.pi / 2, rel=1e-9)

    def test_singularity_detected(self):
        law = synthetic_law(0.0, 1.0, 0.0)
        # denominator -w^2 + p_s vanishes at w = 1 when p_v = p_dv = 0
        with pytest.raises(SingularityError):
            amplification_ratio(law, 10.0, 20.0, 1.0)


class TestStringStability:
    def test_ovm_flips_at_half_time_gap(self, tri):
        # 2 T theta_s(s0) < 1 on the congested branch, i.e. T < time_gap/2.
        assert string_stability_classic(make_ovm(0.4, tri), 5.0, 10.0)
        assert not string_stability_classic(make_ovm(0.6, tri), 5.0, 10.0)

    def test_free_flow_always_stable(self, tri):
        for T in (0.2, 1.0, 5.0):
            assert string_stability_classic(make_ovm(T, tri), 20.0, 50.0)
            assert string_stability_exact(make_ovm(T, tri), 20.0, 50.0).stable

    def test_exact_equals_classic_without_gap_rate_term(self, tri, gs, rng):
        laws = [make_ovm(0.3, tri), make_ovm(0.8, tri), make_ovm(0.5, gs)]
        for law in laws:
            for _ in range(17):
                s0 = rng.uniform(6.0, 40.0)
                v0 = float(law.v_free * rng.uniform(0.05, 0.6))
                classic = string_stability_classic(law, v0, s0)
                exact = string_stability_exact(law, v0, s0)
                assert classic == exact.stable

    def test_fvdm_disagreement_case(self, tri):
        # congested partials (-1, 1, 0.6): classic test says 1 > 2 (unstable); the
        # frequency-uniform margin 1 + 1.2 - 2 = 0.2 > 0 says stable.
        law = make_fvdm(1.0, 0.6, tri)
        assert not string_stability_classic(law, 5.0, 10.0)
        exact = string_stability_exact(law, 5.0, 10.0)
        assert exact.stable
        assert exact.margin == pytest.approx(0.2, rel=1e-9)
        assert exact.worst_ratio <= 1.0 + 1e-9

    def test_sweep_sign_matches_margin(self, rng):
        agree = 0
        for _ in range(50):
            p_v = -rng.uniform(0.2, 3.0)
            p_s = rng.uniform(0.05, 2.0)
            p_dv = rng.uniform(0.0, 1.5)
            law = synthetic_law(p_v, p_s, p_dv)
            exact = string_stability_exact(law, 10.0, 20.0)
            sweep_stable = exact.worst_ratio <= 1.0 + 1e-6
            agree += (sweep_stable == exact.stable)
        assert agree == 50

    def test_sweep_stops_at_a_pole(self):
        # psi_v = psi_dv: the denominator is psi_s - w^2, zero at w = sqrt(psi_s)
        with pytest.raises(SingularityError,
                           match=r"^amplification denominator vanishes at omega=0\.707107$"):
            string_stability_exact(synthetic_law(0.3, 0.5, 0.3), 10.0, 20.0)

    @pytest.mark.parametrize("law", [
        make_ovm(0.7, TriangularDiagram(**TRI)),
        make_fvdm(0.8, 0.05, TriangularDiagram(**TRI)),
        make_idm(0.5, 3.0, 4, 30.0, 1.5, 2.0),
    ], ids=["ovm", "fvdm", "idm"])
    def test_worst_frequency_matches_closed_form(self, law):
        # With u = w^2, d|ratio|^2/du = 0 at the positive root of
        # psi_dv^2 u^2 + 2 psi_s^2 u + psi_s^2 margin = 0 (u = -margin/2 when
        # psi_dv = 0), written in the form that stays exact as psi_dv -> 0.
        rep = stability_report(law, 0.08)
        p_s, p_dv = rep.psi_s, rep.psi_dv
        margin = rep.psi_v**2 - 2.0 * rep.psi_v * p_dv - 2.0 * p_s
        assert margin < 0
        u = -p_s**2 * margin / (p_s**2 + abs(p_s) * math.sqrt(p_s**2 - p_dv**2 * margin))
        omega = math.sqrt(u)
        assert rep.worst_omega == pytest.approx(omega, rel=1e-6)
        peak = abs(amplification_ratio(law, rep.v0, rep.s0, omega))
        assert rep.worst_ratio == pytest.approx(peak, rel=1e-12)

    def test_report_notes_disagreement(self, tri):
        rep = stability_report(make_fvdm(1.0, 0.6, tri), 0.1)
        assert rep.classic_string_stable != rep.exact_string_stable
        assert "disagree" in rep.notes


class TestContinuumStability:
    def test_ovm_condition_infeasible_everywhere(self, tri):
        law = make_ovm(0.3, tri)
        for k in (0.05, 0.08, 0.12, 0.19):
            res = continuum_linear_stability(law, tri.eta(k), 1.0 / k)
            assert not res.stable_criterion
            assert not res.stable_roots

    def test_nonnegative_speed_partial_unstable(self):
        law = synthetic_law(0.5, 1.0, 0.0)
        res = continuum_linear_stability(law, 10.0, 20.0)
        assert res.b2 <= 0
        assert not res.stable_criterion

    def test_coefficient_condition_matches_root_oracle(self, rng):
        hits = 0
        for _ in range(50):
            law = synthetic_law(-rng.uniform(0.1, 3.0), rng.uniform(-1.0, 2.0),
                                rng.uniform(-0.5, 1.5))
            v0, s0 = rng.uniform(2.0, 20.0), rng.uniform(6.0, 40.0)
            res = continuum_linear_stability(law, v0, s0)
            hits += (res.stable_criterion == res.stable_roots)
        assert hits == 50

    def test_verdict_invariant_to_wavenumber(self, rng):
        for _ in range(20):
            law = synthetic_law(-rng.uniform(0.1, 3.0), rng.uniform(-1.0, 2.0),
                                rng.uniform(-0.5, 1.5))
            verdicts = {continuum_linear_stability(law, 10.0, 20.0, m=m).stable_criterion
                        for m in (0.5, 1.0, 2.0)}
            assert len(verdicts) == 1

    def test_coefficients_formula(self, tri):
        law = make_ovm(1.0, tri)  # congested partials (-1, 1, 0)
        v0, s0 = 5.0, 10.0
        b1, b2, d1, d2 = continuum_coefficients(law, v0, s0, m=1.0)
        assert b1 == pytest.approx(-v0)
        assert b2 == pytest.approx(0.5)
        assert d1 == pytest.approx(v0**2)
        assert d2 == pytest.approx(-v0 + s0)


class TestStabilityMap:
    def test_ovm_map_flips_with_relaxation_time(self, tri):
        k = np.linspace(0.05, 0.19, 8)  # congested branch
        rows_fast = stability_map(make_ovm(0.4, tri), k)
        rows_slow = stability_map(make_ovm(0.6, tri), k)
        assert all(r.report.classic_string_stable for r in rows_fast)
        assert not any(r.report.classic_string_stable for r in rows_slow)

    def test_free_flow_densities_stable_for_any_relaxation_time(self, tri):
        k = np.array([0.01, 0.02, 0.03])  # below the critical density
        for T in (0.4, 0.6, 2.0):
            rows = stability_map(make_ovm(T, tri), k)
            assert all(r.report.classic_string_stable for r in rows)
            assert all(r.report.exact_string_stable for r in rows)

    def test_degenerate_rows_flagged(self, gs):
        from trafficlab import make_arz_cf
        rows = stability_map(make_arz_cf(gs), np.array([0.05, 0.1]))
        assert all(r.degenerate and r.report is None for r in rows)
