"""Fundamental diagram shapes, identities, and the time-step bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from trafficlab import (DomainError, EvaluationError, GreenshieldsDiagram,
                        ParameterError, TabulatedDiagram, TriangularDiagram,
                        cfl_max_dt, diagram_from_config)
from trafficlab.fundamental import (_EDGE_TOL, _check_density_positive,
                                    _check_density_range, _check_spacing_range)
from trafficlab.laws import _check_spacing_positive

from conftest import GS, TRI


def sampled_greenshields_table(n=2001):
    k = np.linspace(0.0, GS["k_j"], n)
    q = GS["v_f"] * k * (1.0 - k / GS["k_j"])
    q[0] = q[-1] = 0.0
    return TabulatedDiagram(k_table=k, q_table=q)


class TestFlowDensity:
    def test_triangular_free_branch(self, tri):
        assert tri.phi(0.01) == pytest.approx(0.2, abs=1e-15)

    def test_greenshields_midpoint(self, gs):
        assert gs.phi(0.1) == pytest.approx(1.0, abs=1e-15)

    def test_triangular_capacity_at_breakpoint(self, tri):
        k_star = tri.w * tri.k_j / (tri.v_f + tri.w)
        assert k_star == pytest.approx(0.04)
        assert tri.phi(k_star) == pytest.approx(0.8, rel=1e-12)
        assert tri.capacity == pytest.approx(0.8, rel=1e-12)

    def test_endpoints_vanish(self, tri, gs):
        for fd in (tri, gs, sampled_greenshields_table()):
            assert fd.phi(0.0) == 0.0
            assert abs(fd.phi(fd.k_j)) < 1e-12

    def test_domain_error(self, tri):
        with pytest.raises(DomainError):
            tri.phi(-0.01)
        with pytest.raises(DomainError):
            tri.phi(0.25)


class TestSpeedSpacing:
    def test_jam_spacing_gives_zero(self, tri):
        assert tri.theta(5.0) == 0.0

    def test_greenshields_value(self, gs):
        assert gs.theta(10.0) == pytest.approx(10.0, abs=1e-12)

    def test_below_jam_spacing_rejected(self, tri):
        with pytest.raises(DomainError):
            tri.theta(4.99)

    @given(st.floats(min_value=5.0001, max_value=500.0))
    @settings(max_examples=200)
    def test_identity_theta_from_phi(self, s):
        for fd in (TriangularDiagram(**TRI), GreenshieldsDiagram(**GS)):
            assert fd.theta(s) == pytest.approx(s * fd.phi(1.0 / s),
                                                rel=1e-12, abs=1e-12 * fd.v_f)


class TestSpeedDensity:
    def test_triangular_congested(self, tri):
        assert tri.eta(0.1) == pytest.approx(5.0, abs=1e-12)

    def test_greenshields_slope_constant(self, gs):
        k = np.linspace(0.01, 0.19, 20)
        np.testing.assert_allclose(gs.eta_prime(k), -100.0, rtol=1e-12)

    def test_tabulated_slope_matches_analytic(self, gs):
        # interpolant slope error is ~table-step/k relative, so a dense table
        # sampled on the congested range meets the 1e-4 target
        tab = sampled_greenshields_table(n=80001)
        k = np.linspace(0.1, 0.18, 30)
        np.testing.assert_allclose(tab.eta_prime(k), gs.eta_prime(k), rtol=1e-4)

    def test_eta_nonincreasing(self, tri, gs):
        k = np.linspace(1e-4, 0.2, 500)
        for fd in (tri, gs, sampled_greenshields_table()):
            assert np.all(np.diff(fd.eta(k)) <= 1e-12)

    def test_flow_equals_density_times_speed(self, tri, gs):
        k = np.linspace(1e-4, 0.2, 1000)
        for fd in (tri, gs):
            np.testing.assert_allclose(fd.phi(k), k * fd.eta(k),
                                       rtol=1e-12, atol=1e-12 * fd.capacity)

    def test_concavity_by_second_differences(self, tri, gs):
        k = np.linspace(0.0, 0.2, 401)
        for fd in (tri, gs, sampled_greenshields_table()):
            q = fd.phi(k)
            assert np.all(np.diff(q, 2) <= 1e-9)


class TestTimeStepBound:
    def test_triangular_equals_time_gap(self, tri):
        assert cfl_max_dt(tri) == pytest.approx(1.0, rel=1e-12)
        assert tri.time_gap == pytest.approx(1.0, rel=1e-12)

    def test_greenshields_bound(self, gs):
        # theta'(s) = v_f/(s^2 k_j) peaks at the jam spacing: v_f * k_j.
        assert cfl_max_dt(gs) == pytest.approx(0.25, rel=1e-12)

    def test_tabulated_close_to_analytic(self, gs):
        tab = sampled_greenshields_table()
        assert cfl_max_dt(tab) == pytest.approx(0.25, rel=1e-3)

    def test_flat_diagram_gives_infinite_bound(self):
        flat = TabulatedDiagram(k_table=np.array([0.0, 0.1, 0.2]),
                                q_table=np.zeros(3))
        assert cfl_max_dt(flat) == math.inf


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            TriangularDiagram(v_f=-1.0, w=5.0, k_j=0.2)
        with pytest.raises(ParameterError):
            GreenshieldsDiagram(v_f=20.0, k_j=0.0)
        with pytest.raises(ParameterError):
            TabulatedDiagram(k_table=np.array([0.0, 0.1, 0.2]),
                             q_table=np.array([0.5, 1.0, 0.0]))

    def test_from_config(self):
        fd = diagram_from_config({"kind": "triangular", **TRI})
        assert isinstance(fd, TriangularDiagram)
        fd = diagram_from_config({"kind": "tabulated",
                                  "table": [[0.0, 0.0], [0.1, 1.0], [0.2, 0.0]]})
        assert fd.capacity == 1.0
        assert fd.critical_density == 0.1


# The domain checks as they were written with np.any, kept as references for
# the single-reduction checks of the package.

def reference_check_density_range(k, k_j):
    if np.any(k < -_EDGE_TOL * k_j) or np.any(k > k_j * (1.0 + _EDGE_TOL)):
        raise DomainError(f"density outside [0, k_j={k_j:g}]")


def reference_check_density_positive(k, k_j):
    if np.any(k <= 0):
        raise DomainError("density must be > 0 for speed-density evaluation")
    if np.any(k > k_j * (1.0 + _EDGE_TOL)):
        raise DomainError(f"density above jam density {k_j:g}")


def reference_check_spacing_range(s, s_j):
    if np.any(s < s_j * (1.0 - _EDGE_TOL)):
        raise DomainError(f"spacing below jam spacing {s_j:g}")


def reference_check_spacing_positive(s):
    if np.any(np.asarray(s) <= 0.0):
        raise EvaluationError("spacing must be positive")


# name: (check, reference, the bounds it compares against for a given k_j/s_j)
DOMAIN_CHECKS = {
    "density_range": (_check_density_range, reference_check_density_range,
                      lambda b: (-_EDGE_TOL * b, b * (1.0 + _EDGE_TOL))),
    "density_positive": (_check_density_positive, reference_check_density_positive,
                         lambda b: (0.0, b * (1.0 + _EDGE_TOL))),
    "spacing_range": (_check_spacing_range, reference_check_spacing_range,
                      lambda b: (b * (1.0 - _EDGE_TOL),)),
    "spacing_positive": (lambda s, _: _check_spacing_positive(s),
                         lambda s, _: reference_check_spacing_positive(s),
                         lambda b: (0.0,)),
}


def check_inputs(bounds):
    """Python scalars, 0-d, empty and small float or int arrays, drawn around
    ``bounds``: each bound and its neighbouring floats, NaN, +-inf, +-0.0."""
    near = [v for b in bounds for v in (np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf))]
    floats = st.one_of(
        st.sampled_from(near + [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324]),
        st.floats())
    ints = st.one_of(st.integers(-3, 3), st.integers(-2**63, 2**63 - 1))
    shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
    return st.one_of(floats, ints,
                     hnp.arrays(np.float64, shapes, elements=floats),
                     hnp.arrays(np.int64, shapes, elements=ints))


def raised(check, x, bound):
    try:
        check(x, bound)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return None


@given(data=st.data(), name=st.sampled_from(sorted(DOMAIN_CHECKS)),
       bound=st.one_of(st.sampled_from([0.2, 5.0, 1.0]),
                       st.floats(min_value=1e-6, max_value=1e6)))
@settings(max_examples=400, deadline=None)
def test_domain_checks_raise_exactly_where_np_any_did(data, name, bound):
    check, reference, bounds = DOMAIN_CHECKS[name]
    x = data.draw(check_inputs(bounds(bound)), label="x")
    assert raised(check, x, bound) == raised(reference, x, bound)
