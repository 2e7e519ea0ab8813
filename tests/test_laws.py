"""Acceleration-law library: values, reductions, and partial derivatives."""

import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import GS, TRI, stackable_pairs
from trafficlab import (AccelerationLaw, ConstantLeader, DomainError, EvaluationError,
                        GreenshieldsDiagram, ParameterError, PlatoonState,
                        TabulatedDiagram,
                        TrafficLabError, TriangularDiagram, idm_closed_form_density,
                        law_from_config, linearise,
                        make_arz_cf, make_aw_rascle_cf, make_fvdm, make_gfm,
                        make_idm, make_idm_alt, make_jwz_cf, make_linear_gm,
                        make_nonlinear_gm, make_ovm, make_third_order,
                        partials_at, simulate_continuous)
from trafficlab import config
from trafficlab.laws import MODEL_CATALOG, law_spans


def finite_difference_partials(law, v, s, dv):
    h_v = max(1e-6 * abs(v), 1e-8)
    h_s = max(1e-6 * abs(s), 1e-8)
    h_dv = max(1e-6 * max(abs(dv), abs(v)), 1e-8)
    return (
        (law.evaluate(v + h_v, s, dv) - law.evaluate(v - h_v, s, dv)) / (2 * h_v),
        (law.evaluate(v, s + h_s, dv) - law.evaluate(v, s - h_s, dv)) / (2 * h_s),
        (law.evaluate(v, s, dv + h_dv) - law.evaluate(v, s, dv - h_dv)) / (2 * h_dv),
    )


class TestLinearGm:
    def test_value(self):
        law = make_linear_gm(2.0)
        assert law.evaluate(10.0, 30.0, 4.0) == pytest.approx(2.0)

    def test_zero_speed_difference(self):
        law = make_linear_gm(2.0)
        for v, s in [(0.0, 5.0), (25.0, 100.0)]:
            assert law.evaluate(v, s, 0.0) == 0.0

    def test_partials(self):
        p_v, p_s, p_dv = partials_at(make_linear_gm(2.0), 10.0, 30.0, 4.0)
        assert (p_v, p_s, p_dv) == (0.0, 0.0, 0.5)

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            make_linear_gm(0.0)


class TestNonlinearGm:
    def test_value(self):
        law = make_nonlinear_gm(1.0, 0, 1)
        assert law.evaluate(10.0, 20.0, 2.0) == pytest.approx(0.1)

    def test_reduces_to_linear(self):
        nl = make_nonlinear_gm(0.5, 0, 0)
        lin = make_linear_gm(2.0)
        for v, s, dv in [(3.0, 10.0, 1.0), (0.0, 50.0, -2.0), (12.0, 7.0, 0.3)]:
            assert nl.evaluate(v, s, dv) == pytest.approx(lin.evaluate(v, s, dv))

    def test_speed_partial_vanishes_at_zero_gap_rate(self):
        p_v, _, _ = partials_at(make_nonlinear_gm(1.0, 2, 1), 10.0, 20.0, 0.0)
        assert p_v == 0.0

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(EvaluationError):
            make_nonlinear_gm(1.0, 0, 1).evaluate(5.0, 0.0, 1.0)


class TestOvm:
    def test_equilibrium(self, tri):
        law = make_ovm(1.0, tri)
        assert law.evaluate(5.0, 10.0, 123.0) == 0.0

    def test_partials_congested(self, tri):
        p_v, p_s, p_dv = partials_at(make_ovm(1.0, tri), 5.0, 10.0, 0.0)
        assert p_v == -1.0
        assert p_s == pytest.approx(tri.w * tri.k_j)  # 1/time_gap
        assert p_dv == 0.0


class TestGfm:
    def make(self, tri):
        return make_gfm(T=1.0, T_brake=0.4, d=2.0, tau=1.0, R=10.0, fd=tri)

    def test_opening_gap_reduces_to_ovm(self, tri):
        gfm = self.make(tri)
        ovm = make_ovm(1.0, tri)
        for v, s, dv in [(5.0, 10.0, 0.0), (3.0, 15.0, 2.0), (8.0, 30.0, 0.5)]:
            assert gfm.evaluate(v, s, dv) == pytest.approx(ovm.evaluate(v, s, dv))

    def test_braking_decays_with_spacing(self, tri):
        gfm = self.make(tri)
        ovm = make_ovm(1.0, tri)
        diff = gfm.evaluate(10.0, 400.0, -3.0) - ovm.evaluate(10.0, 400.0, -3.0)
        assert abs(diff) < 1e-12

    def test_closing_gap_brakes(self, tri):
        gfm = self.make(tri)
        ovm = make_ovm(1.0, tri)
        assert gfm.evaluate(6.0, 12.0, -3.0) < ovm.evaluate(6.0, 12.0, -3.0)

    def test_partials_away_from_kink(self, tri, rng):
        gfm = self.make(tri)
        for _ in range(50):
            v = rng.uniform(1.0, 15.0)
            s = rng.uniform(6.0, 40.0)
            dv = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0)
            got = partials_at(gfm, v, s, dv)
            want = finite_difference_partials(gfm, v, s, dv)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_parameter_order(self, tri):
        with pytest.raises(ParameterError):
            make_gfm(T=0.4, T_brake=1.0, d=2.0, tau=1.0, R=10.0, fd=tri)


class TestIdm:
    def make(self):
        return make_idm(a=1.0, b=1.0, delta=4, v_f=30.0, tau=1.0, d=2.0)

    def test_max_acceleration_from_rest(self):
        assert self.make().evaluate(0.0, 1e9, 0.0) == pytest.approx(1.0)

    def test_free_flow_equilibrium(self):
        assert self.make().evaluate(30.0, 1e9, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_steady_state_from_closed_form(self):
        law = self.make()
        k = idm_closed_form_density(15.0, v_f=30.0, tau=1.0, d=2.0, delta=4)
        assert law.evaluate(15.0, 1.0 / k, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_alt_variant_differs_only_off_equilibrium(self):
        std = self.make()
        pap = make_idm_alt(a=1.0, b=1.0, delta=4, v_f=30.0, tau=1.0, d=2.0)
        assert std.evaluate(12.0, 20.0, 0.0) == pap.evaluate(12.0, 20.0, 0.0)
        assert std.evaluate(12.0, 20.0, -2.0) != pap.evaluate(12.0, 20.0, -2.0)
        # conventional sign brakes harder when closing
        assert std.evaluate(12.0, 20.0, -2.0) < pap.evaluate(12.0, 20.0, -2.0)


class TestFvdm:
    def test_reduces_to_ovm_at_zero_gain(self, tri):
        fv = make_fvdm(1.0, 0.0, tri)
        ovm = make_ovm(1.0, tri)
        for v, s, dv in [(5.0, 10.0, -1.0), (2.0, 8.0, 3.0), (15.0, 40.0, 0.0)]:
            assert fv.evaluate(v, s, dv) == ovm.evaluate(v, s, dv)

    def test_gap_rate_partial_is_gain(self, tri):
        _, _, p_dv = partials_at(make_fvdm(1.0, 0.6, tri), 5.0, 10.0, -1.0)
        assert p_dv == 0.6


class TestAwRascleFamily:
    def test_arz_with_greenshields(self, gs):
        # eta'(k) = -v_f/k_j, so psi = (v_f/k_j) dv / s^2.
        law = make_arz_cf(gs)
        assert law.evaluate(7.0, 10.0, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_jwz_equilibrium(self, tri):
        law = make_jwz_cf(1.0, 5.0, tri)
        assert law.evaluate(5.0, 10.0, 0.0) == 0.0

    def test_jwz_matches_general_form_with_matched_pressure(self, tri):
        c0 = 5.0
        jwz = make_jwz_cf(1.0, c0, tri)
        gen = make_aw_rascle_cf(1.0, lambda k: c0 / k, tri)
        for v, s, dv in [(5.0, 10.0, 1.0), (2.0, 7.0, -2.0), (10.0, 30.0, 0.5)]:
            assert gen.evaluate(v, s, dv) == pytest.approx(jwz.evaluate(v, s, dv),
                                                           rel=1e-12)

    def test_general_form_equilibrium(self, tri):
        gen = make_aw_rascle_cf(2.0, lambda k: 1.0 / k, tri)
        assert gen.evaluate(tri.theta(12.0), 12.0, 0.0) == 0.0


def third_order_relaxation(c, a0, t_delay, dt=0.005, steps=800):
    """The follower's recorded acceleration in an RK4 run of the third-order
    wrapper around the constant law psi = c, started at acceleration a0, and
    the closed form c + (a0 - c) exp(-t / t_delay) at the recorded times."""
    constant = AccelerationLaw("constant", {}, lambda v, s, dv: c + 0.0 * v)
    init = PlatoonState(time=0.0, positions=np.array([0.0, -50.0]),
                        speeds=np.array([10.0, 10.0]), accels=np.array([0.0, a0]))
    surf = simulate_continuous(make_third_order(constant, t_delay), init,
                               ConstantLeader(10.0), dt, steps)
    return surf.accels[:, 1], c + (a0 - c) * np.exp(-surf.times / t_delay)


class TestThirdOrder:
    """The RK4 stage is the one statement of the delay rule, so these run it.
    RK4's error on da/dt = (c - a) / t_delay is z^5 / 120 of |a - c| per step
    (z = dt / t_delay <= 0.01 here), which adds up to at most about 3.1e-11 of
    |a0 - c|, under the 1e-9 asserted."""

    def test_relaxed_state_has_zero_jerk(self):
        got, _ = third_order_relaxation(0.3, 0.3, 0.5)
        assert np.all(got == 0.3)

    def test_large_delay_gives_small_jerk(self):
        moved = []
        for t_delay in (0.5, 50.0):
            got, want = third_order_relaxation(0.3, -1.0, t_delay)
            assert np.max(np.abs(got - want)) <= 1e-9 * 1.3
            moved.append(abs(got[-1] - got[0]))
        assert moved[1] < 0.1 * moved[0]

    def test_step_response_relaxes_exponentially(self):
        # five time constants, from rest toward the constant target
        got, want = third_order_relaxation(0.7, 0.0, 0.8)
        assert np.max(np.abs(got - want)) <= 1e-9 * 0.7

    def test_nesting_rejected(self, tri):
        law = make_third_order(make_ovm(1.0, tri), 0.5)
        with pytest.raises(ParameterError):
            make_third_order(law, 0.5)

    @pytest.mark.parametrize("t_delay", [0.0, -1.0, math.nan, math.inf])
    def test_delay_must_be_finite_and_positive(self, t_delay):
        constant = AccelerationLaw("constant", {}, lambda v, s, dv: 0.0 * v)
        for build in (lambda: AccelerationLaw("constant", {}, constant.psi, t_delay=t_delay),
                      lambda: make_third_order(constant, t_delay)):
            with pytest.raises(ParameterError, match="t_delay must be finite and > 0"):
                build()

    def test_a_delay_alone_makes_a_law_third_order(self):
        """The delay is the one statement of a law's order: a law given
        ``t_delay`` directly runs the delay rule, bit for bit as the wrapper
        does, and the stability analysis refuses it."""
        law = AccelerationLaw("constant", {}, lambda v, s, dv: 0.7 + 0.0 * v, t_delay=0.8)
        init = PlatoonState(time=0.0, positions=np.array([0.0, -50.0]),
                            speeds=np.array([10.0, 10.0]), accels=np.array([0.0, 0.0]))
        surf = simulate_continuous(law, init, ConstantLeader(10.0), 0.005, 800)
        assert surf.accels is not None
        assert surf.accels[:, 1].tobytes() == third_order_relaxation(0.7, 0.0, 0.8)[0].tobytes()
        with pytest.raises(DomainError, match="does not cover third-order laws"):
            linearise(law, 10.0, 50.0)


class TestPartialsConsistency:
    """Analytic gradients agree with central differences at random points."""

    def test_all_laws_with_analytic_partials(self, tri, gs, rng):
        laws = [
            make_linear_gm(1.7),
            make_nonlinear_gm(0.8, 2, 2),
            make_ovm(0.9, gs),
            make_fvdm(0.7, 0.4, gs),
            make_jwz_cf(1.1, 4.0, gs),
            make_idm(1.2, 1.6, 4, 30.0, 1.1, 2.0),
            make_idm_alt(1.2, 1.6, 4, 30.0, 1.1, 2.0),
        ]
        for law in laws:
            assert law.partials is not None
            for _ in range(100):
                v = rng.uniform(0.5, 20.0)
                s = rng.uniform(6.0, 60.0)
                dv = rng.uniform(-3.0, 3.0)
                got = np.asarray(partials_at(law, v, s, dv), dtype=float)
                want = np.asarray(finite_difference_partials(law, v, s, dv))
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8,
                                           err_msg=law.name)

    def test_vectorized_evaluation(self, tri):
        law = make_ovm(1.0, tri)
        v = np.array([5.0, 6.0])
        s = np.array([10.0, 12.0])
        out = law.evaluate(v, s, np.zeros(2))
        np.testing.assert_allclose(out, [0.0, tri.theta(12.0) - 6.0])


def assert_rows_are_their_own(laws, spans, rng):
    """psi and partials_at through each stack give every row its own law's bits."""
    v, s, dv = (rng.uniform(low, high, (len(laws), 7))
                for low, high in ((0.5, 20.0), (6.0, 60.0), (-3.0, 3.0)))
    stacked = np.empty((4,) + v.shape)
    for law, rows, columns in spans:
        stacked[:, rows] = [law.psi(v[rows], s[rows], dv[rows], **columns),
                            *partials_at(law, v[rows], s[rows], dv[rows], **columns)]
    for row, own in enumerate(laws):
        alone = [own.psi(v[row], s[row], dv[row]), *partials_at(own, v[row], s[row], dv[row])]
        for got, want in zip(stacked, alone):
            assert got[row].tobytes() == np.asarray(want, dtype=float).tobytes()


class TestStacking:
    """Neighbouring laws of one built-in form evaluate as one call, each row
    bitwise its own."""

    @pytest.mark.parametrize("form", sorted(stackable_pairs(TriangularDiagram(**TRI))))
    def test_stacked_rows_match_their_own_laws(self, form, tri, rng):
        a, b = stackable_pairs(tri)[form]
        laws = [b, a, b]
        spans = law_spans(laws)
        assert len(spans) == 1
        law, rows, columns = spans[0]
        assert (law, rows) == (b, slice(0, 3))
        assert all(c.shape == (3, 1) for c in columns.values()) and columns
        assert_rows_are_their_own(laws, spans, rng)

    @pytest.mark.parametrize("form", sorted(stackable_pairs(TriangularDiagram(**TRI))))
    def test_interleaved_laws_form_one_stack_per_run(self, form, tri, rng):
        pairs = stackable_pairs(tri)
        a, a_too = pairs[form]  # these two would stack as neighbours
        # OVM, FVDM and JWZ share one form, so theirs is linear GM too.
        other = pairs["linear_gm" if form in {"ovm", "fvdm", "jwz"} else "ovm"][0]
        laws = [a, other, a_too]
        spans = law_spans(laws)
        assert spans == [(a, 0, {}), (other, 1, {}), (a_too, 2, {})]
        assert_rows_are_their_own(laws, spans, rng)

    @pytest.mark.parametrize("forms", [("ovm", "fvdm", "jwz"), ("ovm", "jwz"),
                                       ("ovm", "fvdm"), ("fvdm", "jwz")])
    def test_relaxation_laws_stack_with_the_constants_some_member_has(self, forms, tri,
                                                                      rng):
        pairs = stackable_pairs(tri)
        laws = [law for form in forms for law in pairs[form]]
        spans = law_spans(laws)
        assert [(law, rows) for law, rows, _ in spans] == [(laws[0], slice(0, len(laws)))]
        columns = spans[0][2]
        have = {"T"} | {name for form, name in (("fvdm", "lam"), ("jwz", "c0"))
                        if form in forms}
        assert set(columns) == have
        for name, column in columns.items():
            own = [float(law.params.get("lambda" if name == "lam" else name, 0.0))
                   for law in laws]
            assert column.tobytes() == np.array(own)[:, None].tobytes()
        assert_rows_are_their_own(laws, spans, rng)

    def test_what_stacks_only_with_equal_laws(self, tri):
        a, b = stackable_pairs(tri)["ovm"]
        replaced = dataclasses.replace(b, psi=lambda v, s, dv: b.psi(v, s, dv))

        def traced(*args, **columns):
            return b.psi(*args, **columns)

        traced.__wrapped__ = b.psi  # a wrapper that names its kernel stacks as it does
        slow, fast = make_third_order(a, 0.3), make_third_order(b, 1.0)
        arz = make_arz_cf(tri)
        own_partials = dataclasses.replace(b, partials=lambda v, s, dv: b.partials(v, s, dv))
        laws = [a, dataclasses.replace(b, psi=traced), replaced, slow, slow, fast, arz, arz,
                own_partials]
        assert [(law, rows, bool(columns)) for law, rows, columns in law_spans(laws)] == [
            (a, slice(0, 2), True), (replaced, 2, False), (slow, slice(3, 5), False),
            (fast, 5, False), (arz, slice(6, 8), False), (own_partials, 8, False)]


@given(v=st.floats(min_value=0.0, max_value=40.0),
       s=st.floats(min_value=5.2, max_value=500.0),
       dv=st.floats(min_value=-20.0, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_evaluation_finite_on_domain(v, s, dv):
    """Every catalog law stays finite for v >= 0, s above its minimum."""
    fd = TriangularDiagram(v_f=20.0, w=5.0, k_j=0.2)
    laws = [
        make_linear_gm(1.0),
        make_nonlinear_gm(1.0, 1, 2),
        make_ovm(0.8, fd),
        make_gfm(1.0, 0.5, 2.0, 1.0, 10.0, fd),
        make_idm(1.0, 1.5, 4, 30.0, 1.0, 2.0),
        make_fvdm(0.8, 0.5, fd),
        make_arz_cf(fd),
        make_jwz_cf(1.0, 5.0, fd),
    ]
    for law in laws:
        if s <= law.s_min:
            continue
        assert math.isfinite(float(law.evaluate(v, s, dv))), law.name


CATALOG_PARAMS = {
    "linear_gm": {"T": 1.0},
    "nonlinear_gm": {"a": 1.0, "m": 1, "l": 1},
    "ovm": {"T": 1.0},
    "gfm": {"T": 1.0, "T_brake": 0.5, "d": 2.0, "tau": 1.0, "R": 10.0},
    "idm": {"a": 1.0, "b": 1.5, "delta": 4, "v_f": 30.0, "tau": 1.0, "d": 2.0},
    "idm_alt": {"a": 1.0, "b": 1.5, "delta": 4, "v_f": 30.0, "tau": 1.0, "d": 2.0},
    "fvdm": {"T": 1.0, "lambda": 0.5},
    "arz": {},
    "jwz": {"T": 1.0, "c0": 5.0},
}


class TestCatalog:
    def test_every_entry_buildable(self, tri):
        for name in MODEL_CATALOG:
            law = law_from_config({"name": name, **CATALOG_PARAMS[name]}, tri)
            assert law.name == name

    def test_config_schema_names_each_factorys_parameters(self):
        """One model list in both tables; a schema's keys are its factory's
        parameters but ``fd``, with ``lam`` read as ``lambda``."""
        assert set(config.MODELS) == set(MODEL_CATALOG) | {"third_order"}
        for name, factory in MODEL_CATALOG.items():
            params = set(inspect.signature(factory).parameters) - {"fd"}
            assert set(config.MODELS[name]) == {
                "lambda" if p == "lam" else p for p in params}, name

    def test_third_order_from_config(self, tri):
        law = law_from_config({"name": "third_order", "t_delay": 0.5,
                               "inner": {"name": "ovm", "T": 1.0}}, tri)
        assert law.t_delay == 0.5


# -- Domain checks ---------------------------------------------------------
#
# Where a law is undefined, evaluate and partials_at raise, and each
# raises the exception (type and text) that the law's family calls for: a
# spacing at or below zero for the laws that divide by it, a spacing below
# the jam spacing for the laws that read theta(s), and a density above the
# jam density for the pure-anticipation law, which reads eta'(1/s). A NaN
# spacing passes every check.

DIAGRAMS = {
    "tri": TriangularDiagram(**TRI),
    "gs": GreenshieldsDiagram(**GS),
    "tab": TabulatedDiagram(k_table=np.array([0.0, 0.03, 0.06, 0.2]),
                            q_table=np.array([0.0, 0.6, 0.75, 0.0])),
}
DIVIDES_BY_SPACING = {"nonlinear_gm", "idm", "idm_alt", "aw_rascle", "arz"}
READS_THETA = {"ovm", "gfm", "fvdm", "jwz", "aw_rascle"}


def domain_laws():
    """Every catalog law (on each diagram where it needs one), the general
    anticipation law, and the third-order wrap of each, with its diagram."""
    for name, factory in MODEL_CATALOG.items():
        needs_fd = "fd" in inspect.signature(factory).parameters
        for fd_name, fd in DIAGRAMS.items() if needs_fd else [("tri", DIAGRAMS["tri"])]:
            law = law_from_config({"name": name, **CATALOG_PARAMS[name]}, fd)
            yield f"{name}-{fd_name}", law, fd
    for fd_name, fd in DIAGRAMS.items():
        yield (f"aw_rascle-{fd_name}",
               make_aw_rascle_cf(lambda k: 1.0 + k, lambda k: -2.0 * k, fd), fd)


DOMAIN_LAWS = [(f"{tag}{suffix}", law if wrap is None else make_third_order(law, wrap), fd)
               for tag, law, fd in domain_laws()
               for suffix, wrap in (("", None), ("+delay", 0.5))]


def expected_fault(name: str, fd, point: str):
    """The (type, text) that a law named ``name`` raises at the spacing
    ``point``, or None where it evaluates."""
    if point == "nan":
        return None
    if point == "zero" and name in DIVIDES_BY_SPACING:
        return EvaluationError, "spacing must be positive"
    if name in READS_THETA:
        return DomainError, f"spacing below jam spacing {fd.jam_spacing:g}"
    if point == "below_jam" and name == "arz":
        return DomainError, f"density above jam density {fd.k_j:g}"
    return None


def fault_of(fn, *args):
    try:
        fn(*args)
    except TrafficLabError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("point", ["zero", "below_jam", "nan"])
@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("law, fd", [case[1:] for case in DOMAIN_LAWS],
                         ids=[case[0] for case in DOMAIN_LAWS])
def test_domain_checks_raise_where_the_law_is_undefined(law, fd, point, vector):
    bad = {"zero": 0.0, "below_jam": fd.jam_spacing * (1.0 - 1e-9), "nan": math.nan}[point]
    args = (5.0, bad, 0.5)
    if vector:  # the bad spacing beside a good one
        args = (np.array([6.0, 5.0]), np.array([3.0 * fd.jam_spacing, bad]),
                np.array([-0.5, 0.5]))
    base = law.name.removesuffix("+delay")
    want = expected_fault(base, fd, point)
    with np.errstate(all="ignore"):
        assert fault_of(law.evaluate, *args) == want
        assert fault_of(partials_at, law, *args) == want


@pytest.mark.parametrize("law", [case[1] for case in DOMAIN_LAWS],
                         ids=[case[0] for case in DOMAIN_LAWS])
def test_domain_check_accepts_s_min(law):
    """The solvers call the bare psi on spacings at or above s_min, so the
    check must pass there, and psi must equal the checked evaluate."""
    s = np.array([law.s_min, law.s_min * (1.0 + 1e-12), 2.0 * law.s_min, 40.0])
    law.check(law.s_min)
    law.check(s)
    args = (np.array([0.0, 3.0, 8.0, 15.0]), s, np.array([-1.0, 0.0, 0.5, 2.0]))
    assert law.evaluate(*args).tobytes() == law.psi(*args).tobytes()


# -- Bound constants ---------------------------------------------------------
#
# A built-in kernel holds its constants as 0-d arrays, bound once per law.
# Every call must give the bits that the same constants passed as Python
# floats give, alone and stacked as (members, 1) columns.

FD_FREE = {"linear_gm", "nonlinear_gm", "idm", "idm_alt"}
BOUND_CASES = [(f"{form}-{fd_name}", pair)
               for fd_name, fd in DIAGRAMS.items()
               for form, pair in sorted(stackable_pairs(fd).items())
               if fd_name == "tri" or form not in FD_FREE]
BOUND_CASES += [("nonlinear_gm-m0", (make_nonlinear_gm(0.8, 0, 2), make_nonlinear_gm(0.5, 0, 2))),
                ("nonlinear_gm-l0", (make_nonlinear_gm(0.8, 2, 0), make_nonlinear_gm(0.5, 2, 0)))]


def float_constants(law):
    return {name: float(x) for name, x in inspect.unwrap(law.psi).__kwdefaults__.items()
            if x is not None}


def assert_same_bits(got, want):
    for g, w in zip(*(x if isinstance(x, tuple) else (x,) for x in (got, want))):
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def bound_points(rng, law, shape):
    v, s, dv = (rng.uniform(low, high, shape)
                for low, high in ((0.0, 30.0), (law.s_min, 80.0), (-4.0, 4.0)))
    v.flat[:3], s.flat[:3], dv.flat[:3] = (0.0, 5.0, math.nan), law.s_min, (0.0, -0.0, 1.0)
    return v, s, dv


@pytest.mark.parametrize("pair", [case[1] for case in BOUND_CASES],
                         ids=[case[0] for case in BOUND_CASES])
def test_bound_constants_give_the_bits_of_float_constants(pair, rng):
    with np.errstate(all="ignore"):
        for law in pair:
            floats = float_constants(law)
            assert floats
            for point in (bound_points(rng, law, (40,)), (6.0, 2.0 * law.s_min + 1.0, -0.5)):
                for kernel in (law.psi, law.partials):
                    assert_same_bits(kernel(*point), kernel(*point, **floats))
        (law, rows, columns), = law_spans(pair)
        v, s, dv = bound_points(rng, law, (2, 9))
        stacked = [law.psi(v, s, dv, **columns), law.partials(v, s, dv, **columns)]
        for row, own in enumerate(pair):
            floats = float_constants(own)
            for kernel, got in zip((own.psi, own.partials), stacked):
                want = kernel(v[row], s[row], dv[row], **floats)
                assert_same_bits(tuple(np.asarray(g)[row] for g in got)
                                 if isinstance(got, tuple) else got[row], want)


@pytest.mark.parametrize("pair", [case[1] for case in BOUND_CASES],
                         ids=[case[0] for case in BOUND_CASES])
def test_psi_dv_kernel_gives_the_bits_of_the_third_partial(pair, rng):
    """The kernel the continuum speed bound calls is ``partials(...)[2]``, alone
    and stacked with ``law_spans`` columns."""
    with np.errstate(all="ignore"):
        for law in pair:
            for point in (bound_points(rng, law, (40,)), (6.0, 2.0 * law.s_min + 1.0, -0.5)):
                assert_same_bits(law.partials.psi_dv(*point), law.partials(*point)[2])
        (law, rows, columns), = law_spans(pair)
        v, s, dv = bound_points(rng, law, (2, 9))
        stacked = law.partials.psi_dv(v, s, dv, **columns)
        assert_same_bits(stacked, law.partials(v, s, dv, **columns)[2])
        for row, own in enumerate(pair):
            assert_same_bits(stacked[row], own.partials.psi_dv(v[row], s[row], dv[row]))


def test_the_kernel_pins_cover_every_catalog_law_with_analytic_partials():
    assert set(stackable_pairs(DIAGRAMS["tri"])) == {
        name for name in MODEL_CATALOG if name != "arz"}
    assert make_arz_cf(DIAGRAMS["tri"]).partials is None


def idm_with_float_constants(law, closing_sign):
    """IDM's psi and partials written out with every constant a Python float,
    the closing sign a factor of its own: the kernels carry it in their signed
    2 sqrt(ab), so equal bits prove that fold exact."""
    c, delta = float_constants(law), float(law.params["delta"])
    a, v_f, tau, d, signed = (c[k] for k in ("a", "v_f", "tau", "d", "signed_two_sqrt_ab"))
    assert math.copysign(1.0, signed) == closing_sign
    two_sqrt_ab = abs(signed)

    def psi(v, s, dv):
        g = d + tau * v + closing_sign * v * dv / two_sqrt_ab
        return a * (1.0 - np.power(v / v_f, delta) - (g / s) ** 2)

    def partials(v, s, dv):
        g = d + tau * v + closing_sign * v * dv / two_sqrt_ab
        p_v = a * (-delta * np.power(v / v_f, delta - 1.0) / v_f
                   - 2.0 * g / s**2 * (tau + closing_sign * dv / two_sqrt_ab))
        p_s = 2.0 * a * g**2 / s**3
        p_dv = -2.0 * a * g / s**2 * (closing_sign * v / two_sqrt_ab)
        return p_v, p_s + 0 * v, p_dv + 0 * v

    return psi, partials


@pytest.mark.parametrize("factory, closing_sign", [(make_idm, -1.0), (make_idm_alt, 1.0)])
@pytest.mark.parametrize("delta", [4, 1, 2.5])
def test_idm_structural_constants_give_the_bits_of_float_constants(factory, closing_sign,
                                                                   delta, rng):
    """IDM's delta, closing sign and 1.0 are 0-d arrays: alone and stacked,
    its kernels give the bits of the formula with Python-float constants."""
    pair = (factory(1.0, 1.5, delta, 20.0, 1.0, 2.0), factory(0.7, 2.0, delta, 25.0, 1.4, 3.0))
    with np.errstate(all="ignore"):
        for law in pair:
            want = idm_with_float_constants(law, closing_sign)
            for point in (bound_points(rng, law, (40,)), (6.0, 2.0 * law.s_min + 1.0, -0.5)):
                for kernel, reference in zip((law.psi, law.partials), want):
                    assert_same_bits(kernel(*point), reference(*point))
        (law, rows, columns), = law_spans(pair)
        v, s, dv = bound_points(rng, law, (2, 9))
        stacked = [law.psi(v, s, dv, **columns), law.partials(v, s, dv, **columns)]
        for row, own in enumerate(pair):
            for got, reference in zip(stacked, idm_with_float_constants(own, closing_sign)):
                want = reference(v[row], s[row], dv[row])
                assert_same_bits(tuple(g[row] for g in got)
                                 if isinstance(got, tuple) else got[row], want)


def relaxation_with_float_constants(law, fd):
    """OVM, FVDM and JWZ's psi, partials and psi_dv written out each as its own
    formula, with every constant a Python float."""
    T, lam, c0 = (float(law.params[k]) if k in law.params else None
                  for k in ("T", "lambda", "c0"))

    def zeros(v):
        return np.zeros_like(np.asarray(v, dtype=float))

    if law.name == "ovm":
        def psi(v, s, dv):
            return (fd._theta(s) - v) / T

        def psi_dv(v, s, dv):
            return zeros(v)

        def partials(v, s, dv):
            return zeros(v) - 1.0 / T, fd._theta_prime(s) / T + zeros(v), psi_dv(v, s, dv)
    elif law.name == "fvdm":
        def psi(v, s, dv):
            return (fd._theta(s) - v) / T + lam * dv

        def psi_dv(v, s, dv):
            return zeros(v) + lam

        def partials(v, s, dv):
            return zeros(v) - 1.0 / T, fd._theta_prime(s) / T + zeros(v), psi_dv(v, s, dv)
    else:
        def psi(v, s, dv):
            return (fd._theta(s) - v) / T + c0 * dv / s

        def psi_dv(v, s, dv):
            return zeros(v) + c0 / s

        def partials(v, s, dv):
            return (zeros(v) - 1.0 / T, fd._theta_prime(s) / T - c0 * dv / s**2 + zeros(v),
                    psi_dv(v, s, dv))

    return psi, partials, psi_dv


def relaxation_points(rng, law, rows):
    """``bound_points`` with every sign of zero in v and dv, at s_min and above."""
    v, s, dv = bound_points(rng, law, (rows, 16))
    for j, (v0, dv0) in enumerate(itertools.product((0.0, -0.0), repeat=2)):
        v[:, 3 + 2 * j: 5 + 2 * j], dv[:, 3 + 2 * j: 5 + 2 * j] = v0, dv0
        s[:, 3 + 2 * j] = law.s_min
    return v, s, dv


@pytest.mark.parametrize("fd_name", sorted(DIAGRAMS))
def test_relaxation_kernel_gives_the_bits_of_each_laws_own_formula(fd_name, rng):
    """One kernel serves OVM, FVDM and JWZ: alone and stacked, psi, partials and
    partials.psi_dv give each law's own formula bit for bit, signed zeros
    included; FVDM with lambda = 0 and JWZ with c0 = 0 keep their term."""
    fd = DIAGRAMS[fd_name]
    laws = [make_ovm(0.6, fd), make_fvdm(0.8, 0.05, fd), make_jwz_cf(1.0, 2.0, fd),
            make_fvdm(0.5, 0.0, fd), make_jwz_cf(0.7, 0.0, fd), make_ovm(0.9, fd)]
    with np.errstate(all="ignore"):
        for law in laws:
            want = relaxation_with_float_constants(law, fd)
            for point in (relaxation_points(rng, law, 3), (6.0, 2.0 * law.s_min + 1.0, -0.5),
                          (-0.0, law.s_min, 0.0)):
                for kernel, reference in zip((law.psi, law.partials, law.partials.psi_dv), want):
                    assert_same_bits(kernel(*point), reference(*point))
        (law, rows, columns), = law_spans(laws)
        assert rows == slice(0, len(laws))
        v, s, dv = relaxation_points(rng, law, len(laws))
        stacked = [kernel(v, s, dv, **columns)
                   for kernel in (law.psi, law.partials, law.partials.psi_dv)]
        for row, own in enumerate(laws):
            for got, reference in zip(stacked, relaxation_with_float_constants(own, fd)):
                want = reference(v[row], s[row], dv[row])
                assert_same_bits(tuple(g[row] for g in got)
                                 if isinstance(got, tuple) else got[row], want)
    # A lone law computes no term it does not have: OVM ignores a NaN speed gap.
    assert all(np.isfinite(laws[0].psi(np.array([5.0]), 20.0, math.nan)))
    assert [bool(np.isnan(law.psi(5.0, 20.0, math.nan))) for law in laws[1:5]] == [True] * 4


@pytest.mark.parametrize("params", [TRI, dict(v_f=30, w=6, k_j=0.15),
                                    dict(v_f=33.3, w=5.7, k_j=0.1429)])
def test_triangular_theta_gives_the_bits_of_float_constants(params, rng):
    fd = TriangularDiagram(**params)
    v_f, w, k_j = (float(params[k]) for k in ("v_f", "w", "k_j"))
    s = np.concatenate([rng.uniform(1.0 / k_j, 200.0, 50),
                        [1.0 / k_j, (v_f / w + 1.0) / k_j, math.inf, math.nan]])
    for point in (s, s.reshape(2, -1), 12.5):
        assert_same_bits(fd._theta(point), np.minimum(v_f, w * (k_j * point - 1.0)))
        assert_same_bits(fd._theta_prime(point),
                         np.where(point <= (v_f / w + 1.0) / k_j, w * k_j, 0.0))
