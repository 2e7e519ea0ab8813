"""String stability (both criteria) and continuum linear stability."""

import math

import numpy as np
import pytest

from trafficlab import (AccelerationLaw, DomainError, Linearisation, Ring, RingScenario,
                        SingularityError, TriangularDiagram, amplification_ratio,
                        continuum_linear_stability, linearise, make_arz_cf, make_fvdm, make_idm,
                        make_ovm, make_third_order, mode_growth, partials_at,
                        simulate_continuous, stability_map, stability_report,
                        string_stability_exact, string_stability_classic)
from trafficlab.cli import DEMO_CONFIG
from trafficlab.config import build_law, k_grid_from
from trafficlab.equivalence import ring_initial_state

from conftest import TRI, assert_bits_equal, stackable_pairs


def synthetic_law(p_v, p_s, p_dv, v0=10.0, s0=20.0):
    """Linear law with prescribed partials and a steady state at (v0, s0)."""

    def psi(v, s, dv):
        return p_v * (v - v0) + p_s * (s - s0) + p_dv * dv

    def partials(v, s, dv):
        z = np.zeros_like(np.asarray(v, dtype=float))
        return z + p_v, z + p_s, z + p_dv

    return AccelerationLaw("synthetic", {}, psi, partials, v_free=2 * v0)


def reference_sweep(p_v, p_s, p_dv):
    """The numeric worst-frequency search ``string_stability_exact`` ran before
    its closed form: 200 log-spaced probes over 1e-3 <= w <= 1e3, refined by 60
    golden-section steps. Kept as an independent reference; returns
    ``(worst_omega, worst_ratio)``."""

    def ratio_mag(omega):
        return np.abs((p_s + 1j * omega * p_dv)
                      / (-omega**2 - 1j * omega * p_v + p_s + 1j * omega * p_dv))

    probes = np.linspace(math.log(1e-3), math.log(1e3), 200)
    mags = ratio_mag(np.exp(probes))
    i_best = int(np.argmax(mags))
    a, b = probes[max(i_best - 1, 0)], probes[min(i_best + 1, probes.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = ratio_mag(math.exp(c)), ratio_mag(math.exp(d))
    for _ in range(60):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = ratio_mag(math.exp(d))
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = ratio_mag(math.exp(c))
    log_w = 0.5 * (a + b)
    return math.exp(log_w), max(float(ratio_mag(math.exp(log_w))), float(mags[i_best]))


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
        assert reference_sweep(*partials_at(law, 5.0, 10.0, 0.0))[1] <= 1.0 + 1e-9

    def test_sweep_sign_matches_margin(self, rng):
        agree = 0
        for _ in range(50):
            p_v = -rng.uniform(0.2, 3.0)
            p_s = rng.uniform(0.05, 2.0)
            p_dv = rng.uniform(0.0, 1.5)
            exact = string_stability_exact(synthetic_law(p_v, p_s, p_dv), 10.0, 20.0)
            sweep_stable = reference_sweep(p_v, p_s, p_dv)[1] <= 1.0 + 1e-6
            agree += (sweep_stable == exact.stable)
        assert agree == 50

    def test_closed_form_matches_reference_sweep(self, rng):
        # Unstable states whose peak lies inside the sweep's probe range. The
        # sweep's golden section on a flat peak is the looser side for omega.
        checked = 0
        while checked < 200:
            p_v, p_s = -rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
            p_dv = rng.uniform(-1.0, 1.5)
            exact = string_stability_exact(synthetic_law(p_v, p_s, p_dv), 10.0, 20.0)
            if exact.stable or not 1e-3 < exact.worst_omega < 1e3:
                continue
            omega, ratio = reference_sweep(p_v, p_s, p_dv)
            assert exact.worst_ratio == pytest.approx(ratio, rel=1e-9)
            assert exact.worst_omega == pytest.approx(omega, rel=2e-3)
            checked += 1

    def test_peak_below_the_probe_range(self):
        # margin = -2e-7 puts the peak at w = sqrt(-margin / 2) ~ 3.2e-4, below
        # any fixed probe grid that starts at 1e-3; there |ratio| is still > 1.
        exact = string_stability_exact(synthetic_law(-1.0, 0.5000001, 0.0), 10.0, 20.0)
        assert not exact.stable
        assert exact.worst_ratio > 1.0
        assert exact.worst_omega == pytest.approx(math.sqrt(-exact.margin / 2.0), rel=1e-9)

    def test_stable_supremum_is_the_zero_frequency_limit(self, tri):
        # Congested OVM, partials (-2.5, 2.5, 0): margin 1.25 > 0 and psi_s != 0.
        exact = string_stability_exact(make_ovm(0.4, tri), 5.0, 10.0)
        assert exact.stable
        assert (exact.worst_omega, exact.worst_ratio) == (0.0, 1.0)

    def test_zero_gap_partial_limit(self, tri):
        # psi_s = 0 reduces the ratio to psi_dv / (psi_dv - psi_v + i w), whose
        # supremum is its value as w -> 0, stable or not.
        exact = string_stability_exact(make_fvdm(1.0, 0.3, tri), 20.0, 50.0)  # (-1, 0, 0.3)
        assert exact.stable
        assert (exact.worst_omega, exact.worst_ratio) == (0.0, 0.3 / 1.3)
        exact = string_stability_exact(synthetic_law(-1.0, 0.0, -0.8), 10.0, 20.0)
        assert not exact.stable
        assert exact.worst_omega == 0.0
        assert exact.worst_ratio == pytest.approx(0.8 / 0.2, rel=1e-12)

    def test_zero_gap_partial_pole_at_zero_frequency(self):
        # psi_s = 0 and psi_v = psi_dv: ratio = -i psi_dv / w is unbounded as w -> 0.
        with pytest.raises(SingularityError,
                           match=r"^amplification denominator vanishes at omega=0$"):
            string_stability_exact(synthetic_law(-0.5, 0.0, -0.5), 10.0, 20.0)

    def test_sweep_stops_at_a_pole(self):
        # psi_v = psi_dv: the denominator is psi_s - w^2, zero at w = sqrt(psi_s)
        with pytest.raises(SingularityError,
                           match=r"^amplification denominator vanishes at omega=0\.707107$"):
            string_stability_exact(synthetic_law(0.3, 0.5, 0.3), 10.0, 20.0)

    @pytest.mark.parametrize("partials", [(7.0, 123.456, 7.0), (300.0, 5e5, 300.0)])
    def test_pole_found_at_any_partial_scale(self, partials):
        # psi_v = psi_dv again: |den| at the root is round-off of psi_s, above 1e-14
        with pytest.raises(SingularityError, match=r"^amplification denominator vanishes"):
            string_stability_exact(synthetic_law(*partials), 10.0, 20.0)

    def test_small_partials_are_not_a_pole(self):
        # |den| ~ 1e-15 is small only against 1: its terms are as small
        ratio = amplification_ratio(synthetic_law(-1e-7, 1e-15, 0.0), 10.0, 20.0, 1e-8)
        assert ratio == 0.49723756906077365 - 0.552486187845304j

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

    def test_report_takes_the_partials_once(self, tri, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return partials_at(*args, **kwargs)

        monkeypatch.setattr("trafficlab.stability.partials_at", counted)
        stability_report(make_ovm(0.4, tri), 0.1)
        assert len(calls) == 1

    def test_report_notes_disagreement(self, tri):
        # the report carries both verdicts, which the psi_dv cross term parts
        rep = stability_report(make_fvdm(1.0, 0.6, tri), 0.1)
        assert rep.classic_string_stable != rep.exact_string_stable


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
        res = continuum_linear_stability(law, v0, s0, m=1.0)
        b1, b2, d1, d2 = res.b1, res.b2, res.d1, res.d2
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
        assert all(r.report is None for r in rows)


def criterion_07_states():
    """Criterion 07's 50 sampled states, drawn in its order, as records."""
    rng = np.random.default_rng(7)
    states = []
    for _ in range(50):
        law = synthetic_law(-rng.uniform(0.1, 3.0), rng.uniform(-1.0, 2.0),
                            rng.uniform(-0.5, 1.5))
        states.append(linearise(law, rng.uniform(2.0, 20.0), rng.uniform(6.0, 40.0)))
    return states


def catalog_reports():
    """Each judged row of the demo stability grid, for two laws of every form
    in the catalog that stacks, plus ARZ (degenerate, so never judged)."""
    fd = TriangularDiagram(**TRI)
    laws = [law for pair in stackable_pairs(fd).values() for law in pair] + [make_arz_cf(fd)]
    grid = k_grid_from(DEMO_CONFIG["stability"])
    return [(law, row.report) for law in laws for row in stability_map(law, grid)
            if row.report is not None]


class TestLinearisation:
    def test_continuum_growth_is_the_symbol_at_i_theta(self):
        for rec in criterion_07_states():
            growth = float(mode_growth(rec, 1j * rec.s0))
            eulerian = max(root.imag for root in rec.continuum(1.0).roots)
            assert abs(growth - eulerian) <= 1e-9 * abs(eulerian)

    @pytest.mark.parametrize("m", [1e-3, 1e-2, 0.1, 1.0, 10.0])
    def test_continuum_growth_across_wavenumbers(self, m):
        # Long waves grow at O(theta^2) out of O(1) terms: the bound is absolute,
        # on the scale of the symbol's terms.
        for rec in criterion_07_states():
            theta = m * rec.s0
            growth = float(mode_growth(rec, 1j * theta))
            eulerian = max(root.imag for root in rec.continuum(m).roots)
            scale = (abs(rec.psi_v) + abs(rec.psi_dv) * theta
                     + math.sqrt(abs(rec.psi_s) * theta))
            assert abs(growth - eulerian) <= 1e-12 * scale

    def test_continuum_criterion_in_closed_form(self, rng):
        records = [rec for _, rec in catalog_reports()] + criterion_07_states()
        for _ in range(2000):
            records.append(linearise(synthetic_law(rng.uniform(-3.0, 1.0),
                                                   rng.uniform(-1.0, 2.0),
                                                   rng.uniform(-1.5, 1.5)),
                                     rng.uniform(0.0, 30.0), rng.uniform(5.0, 50.0)))
        for rec in records:
            closed = rec.psi_v < 0 and rec.psi_s * (rec.psi_s + rec.psi_v * rec.psi_dv) < 0
            assert rec.continuum().stable_criterion == closed

    def test_continuum_stable_implies_string_stable(self):
        # With psi_s > 0 the string margin is psi_v^2 - 2 (psi_s + psi_v psi_dv).
        judged = continuum_stable = 0
        for law, rep in catalog_reports():
            if rep.psi_s > 0 and rep.psi_v < 0:
                judged += 1
                if rep.continuum_linear_stable:
                    continuum_stable += 1
                    assert rep.exact_string_stable, (law.name, rep)
        assert judged == 96 and continuum_stable >= 1

    @pytest.mark.parametrize("entry", range(6))
    def test_ring_growth_is_the_symbol_at_each_harmonic(self, entry):
        # The demo ring: 80 vehicles at k0 = 0.08, vehicle j following j - 1.
        law = build_law({**DEMO_CONFIG, "model": DEMO_CONFIG["suite"]["entries"][entry]["model"]})
        rec = stability_report(law, 0.08)
        n = 80
        follow = np.roll(np.eye(n), 1, axis=1)  # row j picks vehicle j - 1
        gap_rate = follow - np.eye(n)  # v_{j-1} - v_j
        jac = np.block([[np.zeros((n, n)), gap_rate],
                        [rec.psi_s * np.eye(n), rec.psi_v * np.eye(n) + rec.psi_dv * gap_rate]])
        eigs = list(np.linalg.eigvals(jac))
        z = np.exp(-2j * np.pi * np.arange(n) / n) - 1.0
        growth = mode_growth(rec, z)
        for z_h, g_h in zip(z, growth):
            roots = np.roots([1.0, -(rec.psi_v + rec.psi_dv * z_h), -rec.psi_s * z_h])
            assert abs(g_h - max(roots.real)) <= 1e-9
            for root in roots:
                nearest = min(range(len(eigs)), key=lambda i: abs(eigs[i] - root))
                assert abs(eigs.pop(nearest) - root) <= 1e-9
        assert not eigs
        assert abs(growth.max() - np.linalg.eigvals(jac).real.max()) <= 1e-9

    @pytest.mark.parametrize("entry", range(6))
    def test_ring_harmonic_is_the_propagator_over_the_horizon(self, entry):
        """The demo ring's harmonic-1 coefficients of spacing and speed are
        exp(M t) y0 at every recorded step of the 60 s run, with
        M = [[0, z], [psi_s, psi_v + psi_dv z]] at z = exp(-i theta) - 1: no
        fitted rate and no window. The spacings include the wrap gap. Bounds
        are relative to each harmonic's largest magnitude. IDM's bound covers
        the nonlinear residual of its run at amplitude 0.01, which OVM and FVDM,
        with a theta that is linear on the congested branch, do not have."""
        ring = RingScenario(**DEMO_CONFIG["suite"]["ring"])
        law = build_law({**DEMO_CONFIG, "model": DEMO_CONFIG["suite"]["entries"][entry]["model"]})
        initial = ring_initial_state(law, ring)
        n = initial.n_vehicles
        surf = simulate_continuous(law, initial, Ring(ring.circumference), ring.dt_cf,
                                   int(round(ring.horizon / ring.dt_cf)))
        x = surf.positions
        spacing = np.concatenate([x[:, -1:] + ring.circumference - x[:, :1],
                                  x[:, :-1] - x[:, 1:]], axis=1)
        got = [np.fft.fft(row, axis=1)[:, 1] / n for row in (spacing, surf.speeds)]
        rec = stability_report(law, ring.k0)
        z = np.exp(-2j * np.pi / n) - 1.0
        lam, vec = np.linalg.eig(np.array([[0.0, z], [rec.psi_s, rec.psi_v + rec.psi_dv * z]]))
        y0 = np.linalg.solve(vec, [got[0][0], got[1][0]])
        want = vec @ (np.exp(np.outer(lam, surf.times)) * y0[:, None])
        bounds = (1e-4, 1e-4) if law.name == "idm" else (1e-8, 1e-6)
        for have, predicted, bound in zip(got, want, bounds):
            assert np.max(np.abs(have - predicted)) <= bound * np.max(np.abs(have))

    def test_wrappers_are_the_record_methods(self):
        for law, rep in catalog_reports():
            rec = linearise(law, rep.v0, rep.s0)
            assert repr(rec) == repr(Linearisation(rep.v0, rep.s0, rep.psi_v, rep.psi_s,
                                                   rep.psi_dv))
            for omega in (0.3, 1.7):
                ratio, own = amplification_ratio(law, rep.v0, rep.s0, omega), rec.ratio(omega)
                assert_bits_equal([ratio.real, ratio.imag], [own.real, own.imag])
            assert string_stability_classic(law, rep.v0, rep.s0) is rec.classic()
            assert repr(string_stability_exact(law, rep.v0, rep.s0)) == repr(rec.exact())
            for m in (1.0, 0.25):
                assert (repr(continuum_linear_stability(law, rep.v0, rep.s0, m=m))
                        == repr(rec.continuum(m)))
            exact, cont = rec.exact(), rec.continuum()
            assert (rep.classic_string_stable, rep.exact_string_stable,
                    rep.continuum_linear_stable) == (rec.classic(), exact.stable,
                                                     cont.stable_criterion and cont.stable_roots)
            assert_bits_equal([rep.worst_omega, rep.worst_ratio],
                              [exact.worst_omega, exact.worst_ratio])


class TestRefusals:
    """States no verdict can judge raise DomainError, not NaN or NumPy's errors."""

    @pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0, -1.0])
    def test_frequency_not_finite_and_positive(self, tri, omega):
        with pytest.raises(DomainError, match="frequency must be finite and > 0"):
            amplification_ratio(make_ovm(0.5, tri), 5.0, 10.0, omega)

    def test_zero_density(self, tri):
        with pytest.raises(DomainError):
            stability_report(make_ovm(0.5, tri), 0.0)

    def test_zero_density_with_a_given_speed(self, tri):
        with pytest.raises(DomainError, match="no steady state to judge"):
            stability_report(make_ovm(0.5, tri), 0.0, v0=5.0)

    # The steady-state solve refuses a non-finite density before evaluating
    # the law, so a NaN never reaches linearise.
    def test_nan_density(self, tri):
        with pytest.raises(DomainError, match="density must be finite, got nan"):
            stability_report(make_ovm(0.5, tri), math.nan)

    def test_nan_density_in_a_map(self, tri):
        with pytest.raises(DomainError, match="density must be finite, got nan"):
            stability_map(make_ovm(0.5, tri), [0.1, math.nan])

    @pytest.mark.parametrize("v0, s0", [(math.nan, 10.0), (math.inf, 10.0), (5.0, math.inf),
                                        (5.0, -1.0), (5.0, 0.0)])
    def test_linearise_refuses_what_it_cannot_judge(self, tri, v0, s0):
        with pytest.raises(DomainError, match="no steady state to judge"):
            linearise(make_ovm(0.5, tri), v0, s0)

    def test_third_order_law_is_not_judged_as_its_inner_law(self, tri):
        """The partials of psi leave out the delay, so every verdict refuses a
        third-order law instead of giving its inner law's."""
        law = make_third_order(make_ovm(0.4, tri), 2.0)
        for judge in (lambda: linearise(law, 3.75, 12.5),
                      lambda: amplification_ratio(law, 3.75, 12.5, 0.5),
                      lambda: stability_report(law, 0.08),
                      lambda: stability_map(law, [0.05, 0.1])):
            with pytest.raises(DomainError, match="ovm[+]delay: the stability analysis "
                               "does not cover third-order laws"):
                judge()
