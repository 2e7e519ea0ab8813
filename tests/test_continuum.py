"""Finite-volume/upwind solvers: oracles, conservation, boundedness."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trafficlab import (AccelerationLaw, ConfigurationError, EulerianScenario,
                        GreenshieldsDiagram, InflowOutflow, Periodic, SolverFault,
                        SpatialGrid, TabulatedDiagram, TriangularDiagram,
                        lwr_riemann_density, make_fvdm, make_idm,
                        make_linear_gm, make_ovm, make_third_order,
                        rankine_hugoniot_speed, solve_lwr_godunov,
                        solve_second_order, solve_second_order_batch, total_vehicles)
from trafficlab.equivalence import front_position
from trafficlab.laws import law_spans

from conftest import GS, TRI, assert_bits_equal, stackable_pairs


def riemann_scenario(fd, k_l, k_r, x_jump, dx, length, horizon, cfl=0.45):
    cells = int(round(length / dx))
    grid = SpatialGrid(0.0, dx, cells)
    k0 = np.where(grid.centers < x_jump, k_l, k_r).astype(float)
    steps = int(math.ceil(horizon * fd.max_wave_speed() / (cfl * dx)))
    boundary = InflowOutflow(k_in=k_l)
    return EulerianScenario(grid=grid, dt=horizon / steps, steps=steps,
                            initial_density=k0, boundary=boundary, fd=fd,
                            record_every=steps)


class TestGodunov:
    def test_uniform_periodic_is_constant(self, tri):
        grid = SpatialGrid(0.0, 10.0, 50)
        sc = EulerianScenario(grid=grid, dt=0.2, steps=200,
                              initial_density=np.full(50, 0.07), fd=tri)
        field, _ = solve_lwr_godunov(sc)
        assert np.all(field.density == 0.07)

    def test_shock_speed_matches_jump_condition(self, tri):
        horizon = 90.0
        sc = riemann_scenario(tri, 0.02, 0.2, 1000.0, 5.0, 1200.0, horizon)
        field, _ = solve_lwr_godunov(sc)
        rh = rankine_hugoniot_speed(tri, 0.02, 0.2)
        predicted = 1000.0 + rh * horizon
        measured = front_position(sc.grid.centers, field.density[-1], 0.11)
        assert abs(measured - predicted) <= 2 * sc.grid.dx

    def test_shock_l1_first_order_convergence(self, tri):
        horizon = 90.0
        errs = []
        for dx in (20.0, 10.0, 5.0):
            sc = riemann_scenario(tri, 0.02, 0.2, 1000.0, dx, 1200.0, horizon)
            field, _ = solve_lwr_godunov(sc)
            exact = lwr_riemann_density(tri, 0.02, 0.2, 1000.0, horizon,
                                        sc.grid.centers)
            errs.append(np.sum(np.abs(field.density[-1] - exact)) * dx)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 1.0) <= 0.3

    def test_greenshields_rarefaction_converges_to_fan(self, gs):
        horizon = 40.0
        errs = []
        for dx in (20.0, 10.0, 5.0):
            cells = int(round(2400.0 / dx))
            grid = SpatialGrid(0.0, dx, cells)
            k0 = np.where(grid.centers < 1600.0, 0.18, 0.02).astype(float)
            steps = int(math.ceil(horizon * gs.max_wave_speed() / (0.45 * dx)))
            sc = EulerianScenario(grid=grid, dt=horizon / steps, steps=steps,
                                  initial_density=k0,
                                  boundary=InflowOutflow(k_in=0.18), fd=gs,
                                  record_every=steps)
            field, _ = solve_lwr_godunov(sc)
            exact = lwr_riemann_density(gs, 0.18, 0.02, 1600.0, horizon,
                                        grid.centers)
            errs.append(np.sum(np.abs(field.density[-1] - exact)) * dx)
        assert errs[0] > errs[1] > errs[2]
        order = math.log2(errs[0] / errs[2]) / 2
        assert order >= 0.7

    def test_tabulated_diagram_reproduces_shock(self, tri):
        # a dense piecewise-linear sampling of the two-branch diagram must
        # drive the same shock as the closed-form one
        from trafficlab import TabulatedDiagram
        k_tab = np.linspace(0.0, tri.k_j, 4001)
        q_tab = tri.phi(k_tab)
        tab = TabulatedDiagram(k_table=k_tab, q_table=q_tab)
        horizon = 90.0
        sc = riemann_scenario(tab, 0.02, 0.2, 1000.0, 5.0, 1200.0, horizon)
        field, _ = solve_lwr_godunov(sc)
        rh = rankine_hugoniot_speed(tri, 0.02, 0.2)
        measured = front_position(sc.grid.centers, field.density[-1], 0.11)
        assert measured == pytest.approx(1000.0 + rh * horizon, abs=2 * sc.grid.dx)

    def test_triangular_rarefaction_converges_to_composite(self, tri):
        # both waves of the triangular fan are contacts (the flux branches
        # are linear), which first-order upwinding smears diffusively: the
        # L1 error decreases under refinement at order ~1/2, not 1
        horizon = 40.0
        errs = []
        for dx in (20.0, 10.0, 5.0):
            cells = int(round(2400.0 / dx))
            grid = SpatialGrid(0.0, dx, cells)
            k0 = np.where(grid.centers < 1200.0, 0.2, 0.02).astype(float)
            steps = int(math.ceil(horizon * tri.max_wave_speed() / (0.45 * dx)))
            sc = EulerianScenario(grid=grid, dt=horizon / steps, steps=steps,
                                  initial_density=k0,
                                  boundary=InflowOutflow(k_in=0.2), fd=tri,
                                  record_every=steps)
            field, _ = solve_lwr_godunov(sc)
            exact = lwr_riemann_density(tri, 0.2, 0.02, 1200.0, horizon,
                                        grid.centers)
            errs.append(np.sum(np.abs(field.density[-1] - exact)) * dx)
        assert errs[0] > errs[1] > errs[2]
        order = math.log2(errs[0] / errs[2]) / 2
        assert 0.3 <= order <= 0.7

    def test_discrete_maximum_principle(self, tri, rng):
        grid = SpatialGrid(0.0, 10.0, 80)
        k0 = 0.04 + 0.12 * rng.random(80)
        sc = EulerianScenario(grid=grid, dt=0.2, steps=500, initial_density=k0,
                              fd=tri, record_every=10)
        field, _ = solve_lwr_godunov(sc)
        assert np.min(field.density) >= np.min(k0) - 1e-12
        assert np.max(field.density) <= np.max(k0) + 1e-12

    def test_periodic_conservation(self, tri):
        grid = SpatialGrid(0.0, 10.0, 120)
        k0 = 0.06 + 0.04 * np.sin(2 * np.pi * np.arange(120) / 120)
        sc = EulerianScenario(grid=grid, dt=0.2, steps=2000, initial_density=k0,
                              fd=tri, record_every=100)
        field, _ = solve_lwr_godunov(sc)
        totals = [total_vehicles(field, i) for i in range(field.n_steps)]
        assert (max(totals) - min(totals)) / totals[0] <= 1e-12

    def test_inflow_outflow_bookkeeping(self, tri):
        sc = riemann_scenario(tri, 0.03, 0.05, 600.0, 10.0, 1000.0, 60.0)
        field, stats = solve_lwr_godunov(sc)
        change = total_vehicles(field, -1) - total_vehicles(field, 0)
        assert change == pytest.approx(stats.inflow - stats.outflow, abs=1e-10)

    def test_nan_step_refused(self, tri):
        # NaN passed a dt <= 0 test, and Godunov returned an all-NaN field
        with pytest.raises(ConfigurationError, match="need dt > 0"):
            EulerianScenario(grid=SpatialGrid(0.0, 10.0, 20), dt=math.nan, steps=5,
                             initial_density=np.full(20, 0.05), fd=tri)

    def test_cfl_checked(self, tri):
        grid = SpatialGrid(0.0, 10.0, 50)
        sc = EulerianScenario(grid=grid, dt=1.0, steps=10,
                              initial_density=np.full(50, 0.05), fd=tri)
        with pytest.raises(ConfigurationError):
            solve_lwr_godunov(sc)

    @pytest.mark.parametrize("cell, k_in", [
        (math.nan, 0.05), (math.inf, 0.05), (0.05, math.nan), (0.05, math.inf),
        (0.05, 0.5)],
        ids=["nan-density", "inf-density", "nan-k_in", "inf-k_in", "above-jam"])
    def test_non_finite_input_rejected(self, tri, cell, k_in):
        # a NaN density or k_in passes a range check written as k < 0
        k0 = np.full(20, 0.05)
        k0[7] = cell
        sc = EulerianScenario(grid=SpatialGrid(0.0, 10.0, 20), dt=0.2, steps=5,
                              initial_density=k0, boundary=InflowOutflow(k_in=k_in),
                              fd=tri)
        with pytest.raises(ConfigurationError, match="finite"):
            solve_lwr_godunov(sc)


@pytest.mark.parametrize("branch, c", [("congested", 0.05), ("congested", 0.1),
                                       ("congested", 0.225), ("free", 0.05),
                                       ("free", 0.45), ("free", 0.9)])
def test_godunov_inside_one_branch_is_the_upwind_multiplier(tri, branch, c):
    """On a state strictly inside one branch of the triangular diagram,
    periodic Godunov is linear upwinding: each step multiplies the Fourier mode
    e^{i j theta} by 1 - c + c e^{-i theta} in free flow (c = v_f dt / dx) and by
    1 - c + c e^{+i theta} in congestion (c = w dt / dx), to 1e-12 of the
    density's scale. Out of scope: states that cross k_c, where the flux
    switches branch, non-triangular diagrams, and ``compare_lwr``'s bump
    prediction."""
    cells, steps = 200, 400
    grid = SpatialGrid(0.0, 10.0, cells)
    bump = np.exp(-((np.arange(cells) - 60) / 8.0) ** 2)
    if branch == "free":  # k in [0.02, 0.03], below k_c = 0.04
        k0, speed, sign = 0.02 + 0.01 * bump, tri.v_f, -1
    else:  # k in [0.12, 0.17], above k_c
        k0, speed, sign = 0.12 + 0.05 * bump, tri.w, 1
    sc = EulerianScenario(grid=grid, dt=c * grid.dx / speed, steps=steps,
                          initial_density=k0, fd=tri, record_every=50)
    field, _ = solve_lwr_godunov(sc)
    assert field.n_steps == 9
    in_branch = field.density < tri.critical_density
    assert np.all(in_branch if branch == "free" else ~in_branch)
    growth = 1 - c + c * np.exp(sign * 1j * 2 * np.pi * np.fft.fftfreq(cells))
    for row, density in enumerate(field.density):
        want = np.fft.ifft(np.fft.fft(k0) * growth ** (row * sc.record_every)).real
        assert np.max(np.abs(density - want)) <= 1e-12 * np.max(want), row


def two_call_godunov(scenario):
    """The Godunov loop with one ``phi`` call for demand and one for supply."""
    fd, k = scenario.fd, scenario.initial_density.copy()
    dx, dt, k_c = scenario.grid.dx, scenario.dt, fd.critical_density
    periodic = isinstance(scenario.boundary, Periodic)
    left, right = np.empty(k.size + 1), np.empty(k.size + 1)
    rows, inflow, outflow = [k], 0.0, 0.0
    for step in range(scenario.steps):
        left[1:], right[:-1] = k, k
        if periodic:
            left[0], right[-1] = k[-1], k[0]
        else:
            left[0], right[-1] = scenario.boundary.k_in, k[-1]
        flux = np.minimum(fd.phi(np.minimum(left, k_c)), fd.phi(np.maximum(right, k_c)))
        k = k - (dt / dx) * (flux[1:] - flux[:-1])
        if not periodic:
            inflow += flux[0] * dt
            outflow += flux[-1] * dt
        if (step + 1) % scenario.record_every == 0:
            rows.append(k)
    density = np.array(rows)
    with np.errstate(invalid="ignore", divide="ignore"):
        speed = np.where(density > 0.0, fd.phi(np.clip(density, 0.0, fd.k_j)) / density,
                         fd.v_f)
    return density, speed, inflow, outflow


@pytest.mark.parametrize("diagram", ["triangular", "greenshields", "tabulated"])
@pytest.mark.parametrize("boundary", [Periodic(), InflowOutflow(k_in=0.15)],
                         ids=["periodic", "inflow"])
def test_godunov_one_phi_call_per_step_matches_two_calls(diagram, boundary, rng):
    """Demand and supply from one ``phi`` call keep the bits of two calls."""
    fd = {"triangular": TriangularDiagram(**TRI),
          "greenshields": GreenshieldsDiagram(**GS),
          "tabulated": TabulatedDiagram(k_table=np.array([0.0, 0.03, 0.08, 0.2]),
                                        q_table=np.array([0.0, 0.5, 0.6, 0.0]))}[diagram]
    cells, steps, dx = 40, 60, 10.0
    k0 = fd.k_j * rng.random(cells)
    k0[5:9] = 0.0
    sc = EulerianScenario(grid=SpatialGrid(0.0, dx, cells), steps=steps, record_every=7,
                          dt=0.8 * dx / fd.max_wave_speed(), initial_density=k0,
                          boundary=boundary, fd=fd)
    phi, calls = type(fd).phi, []

    def counted(self, k):
        calls.append(np.shape(k))
        return phi(self, k)

    with mock.patch.object(type(fd), "phi", counted):
        field, stats = solve_lwr_godunov(sc)
    density, speed, inflow, outflow = two_call_godunov(sc)
    assert calls == [(2, cells + 1)] * steps + [density.shape]
    for got, want in ((field.density, density), (field.speed, speed),
                      (stats.inflow, inflow), (stats.outflow, outflow)):
        assert_bits_equal(got, want)


class TestSecondOrder:
    def test_equilibrium_stationary(self, tri):
        law = make_ovm(1.0, tri)
        grid = SpatialGrid(0.0, 10.0, 100)
        v_eq = np.full(100, tri.eta(0.1))
        sc = EulerianScenario(grid=grid, dt=0.2, steps=1000,
                              initial_density=np.full(100, 0.1),
                              initial_speed=v_eq, law=law, record_every=100)
        field, stats = solve_second_order(sc)
        assert stats.substeps >= 1000
        assert np.max(np.abs(field.density - 0.1)) <= 1e-8
        assert np.max(np.abs(field.speed - v_eq[0])) <= 1e-8

    def test_relaxation_model_perturbation_grows(self, tri):
        # the relaxation continuum has an infeasible linear-stability
        # condition: small wavy perturbations must grow at every state
        law = make_ovm(0.4, tri)
        grid = SpatialGrid(0.0, 12.5, 80)
        k0 = 0.08 * (1 + 0.01 * np.sin(2 * np.pi * np.arange(80) / 80))
        sc = EulerianScenario(grid=grid, dt=0.125, steps=480,
                              initial_density=k0,
                              initial_speed=np.full(80, tri.eta(0.08)),
                              law=law, record_every=480)
        field, _ = solve_second_order(sc)
        amp = [2 * abs(np.fft.rfft(field.density[i])[1]) / 80 for i in (0, -1)]
        assert amp[1] > amp[0]

    def test_linear_gm_advects_speed_feature(self):
        # characteristic speed v - 1/(T k): 10 - 20 = -10 m/s
        law = make_linear_gm(1.0)
        grid = SpatialGrid(0.0, 5.0, 400)
        x = grid.centers
        v0 = 10.0 + 0.1 * np.exp(-((x - 1500.0) / 100.0) ** 2)
        sc = EulerianScenario(grid=grid, dt=0.05, steps=400,
                              initial_density=np.full(400, 0.05),
                              initial_speed=v0, law=law, record_every=400)
        field, _ = solve_second_order(sc)
        peak_shift = (x[np.argmax(field.speed[-1])] - x[np.argmax(v0)])
        measured = peak_shift / 20.0
        assert measured == pytest.approx(-10.0, rel=0.05)

    def test_pure_advection_when_source_vanishes(self):
        null_law = AccelerationLaw("coasting", {}, lambda v, s, dv: 0.0 * v,
                                   v_free=20.0)
        grid = SpatialGrid(0.0, 5.0, 200)
        x = grid.centers
        k0 = 0.05 + 0.01 * np.sin(2 * np.pi * x / 1000.0)
        v0 = np.full(200, 8.0)
        sc = EulerianScenario(grid=grid, dt=0.1, steps=250, initial_density=k0,
                              initial_speed=v0, law=null_law, record_every=250)
        field, _ = solve_second_order(sc)
        # uniform speed: density advects at v0; compare against shifted profile
        shift = 8.0 * 25.0
        exact = 0.05 + 0.01 * np.sin(2 * np.pi * ((x - shift) % 1000.0) / 1000.0)
        assert np.max(np.abs(field.speed[-1] - 8.0)) <= 1e-12
        assert np.mean(np.abs(field.density[-1] - exact)) <= 2e-3

    def test_periodic_conservation(self, tri):
        law = make_ovm(1.0, tri)
        grid = SpatialGrid(0.0, 10.0, 100)
        k0 = 0.08 * (1 + 0.05 * np.sin(2 * np.pi * np.arange(100) / 100))
        sc = EulerianScenario(grid=grid, dt=0.2, steps=1000, initial_density=k0,
                              initial_speed=tri.eta(k0), law=law,
                              record_every=100)
        field, _ = solve_second_order(sc)
        totals = [total_vehicles(field, i) for i in range(field.n_steps)]
        assert (max(totals) - min(totals)) / totals[0] <= 1e-10

    def test_inflow_outflow_bookkeeping(self, tri):
        law = make_ovm(1.0, tri)
        grid = SpatialGrid(0.0, 10.0, 100)
        k0 = np.full(100, 0.06)
        sc = EulerianScenario(grid=grid, dt=0.2, steps=300, initial_density=k0,
                              initial_speed=tri.eta(k0), law=law,
                              boundary=InflowOutflow(k_in=0.08, v_in=tri.eta(0.08)),
                              record_every=300)
        field, stats = solve_second_order(sc)
        change = total_vehicles(field, -1) - total_vehicles(field, 0)
        assert change == pytest.approx(stats.inflow - stats.outflow, abs=1e-10)

    def test_third_order_rejected(self, tri):
        law = make_third_order(make_ovm(1.0, tri), 0.5)
        grid = SpatialGrid(0.0, 10.0, 10)
        sc = EulerianScenario(grid=grid, dt=0.1, steps=5,
                              initial_density=np.full(10, 0.05),
                              initial_speed=np.full(10, 5.0), law=law)
        with pytest.raises(ConfigurationError):
            solve_second_order(sc)

    def test_missing_speed_rejected(self, tri):
        law = make_ovm(1.0, tri)
        grid = SpatialGrid(0.0, 10.0, 10)
        sc = EulerianScenario(grid=grid, dt=0.1, steps=5,
                              initial_density=np.full(10, 0.05), law=law)
        with pytest.raises(ConfigurationError):
            solve_second_order(sc)

    def test_non_finite_substep_faults(self):
        # the source is infinite in the one sparser cell (index 3): the solver
        # must stop on that substep, not return a field holding inf
        law = AccelerationLaw(
            "blowup", {}, lambda v, s, dv: np.where(s > 22.0, np.inf, 0.0),
            lambda v, s, dv: (0.0 * v, 0.0 * v, 0.0 * v), v_free=20.0)
        k0 = np.full(10, 0.05)
        k0[3] = 0.04
        sc = EulerianScenario(grid=SpatialGrid(0.0, 10.0, 10), dt=0.1, steps=1,
                              initial_density=k0, initial_speed=np.full(10, 5.0),
                              law=law)
        with pytest.raises(SolverFault) as exc:
            solve_second_order(sc)
        assert (exc.value.step, exc.value.cell) == (0, 3)
        assert "non-finite" in str(exc.value)

    @pytest.mark.parametrize("what, cell, value", [
        ("densities", 4, math.nan), ("densities", 0, math.inf), ("speeds", 7, math.nan),
        ("speeds", 9, -math.inf)])
    def test_non_finite_initial_state_rejected(self, tri, what, cell, value):
        # NaN used to reach math.ceil in the substep count as a bare ValueError
        k, v = np.full(10, 0.05), np.full(10, 5.0)
        (k if what == "densities" else v)[cell] = value
        sc = EulerianScenario(grid=SpatialGrid(0.0, 10.0, 10), dt=0.1, steps=5,
                              initial_density=k, initial_speed=v, law=make_ovm(1.0, tri))
        with pytest.raises(ConfigurationError, match=f"initial {what} must be finite"):
            solve_second_order(sc)

    def test_non_finite_speed_bound_faults_with_its_step(self):
        # the speed derivative turns NaN once a speed passes 6 m/s: under the
        # constant acceleration of 1 m/s^2 that is 6.1 m/s at the start of step 11
        law = AccelerationLaw(
            "nan-bound", {}, lambda v, s, dv: 1.0 + 0.0 * v,
            lambda v, s, dv: (0.0 * v, 0.0 * v, np.where(v > 6.0, np.nan, 0.0)),
            v_free=20.0)
        sc = EulerianScenario(grid=SpatialGrid(0.0, 10.0, 10), dt=0.1, steps=40,
                              initial_density=np.full(10, 0.05),
                              initial_speed=np.full(10, 5.0), law=law)
        with pytest.raises(SolverFault, match="speed bound") as exc:
            solve_second_order(sc)
        assert exc.value.step == 11


def assert_same_run(got, want):
    """Bitwise equal fields and equal run statistics."""
    (field, stats), (field_0, stats_0) = got, want
    assert stats == stats_0
    assert (field.x0, field.dx, field.t0, field.dt) == (field_0.x0, field_0.dx,
                                                        field_0.t0, field_0.dt)
    for name in ("density", "speed"):
        a, b = getattr(field, name), getattr(field_0, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def standalone(scenario):
    """A one-member run's result, or the exception it raised."""
    try:
        return solve_second_order(scenario)
    except Exception as exc:
        return exc


def assert_members_match(scenarios, faults=False):
    """The batch returns each member's own run bitwise or, where faults are
    allowed, raises an exception of the type and text of one member's own."""
    want = [standalone(sc) for sc in scenarios]
    try:
        results = solve_second_order_batch(scenarios)
    except Exception as exc:
        assert faults, exc
        assert any(type(own) is type(exc) and str(own) == str(exc) for own in want), exc
        return None
    assert len(results) == len(scenarios)
    for got, own in zip(results, want):
        assert not isinstance(own, Exception), own
        assert_same_run(got, own)
    return results


def ring_member(law, k0, amplitude, speed, cells=20, dx=10.0, dt=0.5, steps=40,
                record_every=4, boundary=Periodic()):
    x = np.arange(cells)
    return EulerianScenario(
        grid=SpatialGrid(0.0, dx, cells), dt=dt, steps=steps,
        initial_density=k0 * (1 + amplitude * np.sin(2 * np.pi * x / cells)),
        initial_speed=np.full(cells, speed), law=law, record_every=record_every,
        boundary=boundary)


TRI_FD = TriangularDiagram(**TRI)
OVM, FVDM = make_ovm(0.4, TRI_FD), make_fvdm(0.6, 0.5, TRI_FD)
IDM = make_idm(2.0, 2.0, 4, 30.0, 1.0, 2.0)


class TestBatch:
    def test_mixed_laws_with_different_substep_counts(self):
        members = [ring_member(OVM, 0.08, 0.05, 3.0), ring_member(FVDM, 0.08, 0.05, 3.0),
                   ring_member(IDM, 0.05, 0.05, 9.0)]
        # the members take different substep counts within the first step
        first = [solve_second_order(EulerianScenario(**{**sc.__dict__, "steps": 1,
                                                        "record_every": 1}))[1].substeps
                 for sc in members]
        assert len(set(first)) == 3
        assert_members_match(members)

    @pytest.mark.parametrize("form", sorted(stackable_pairs(TRI_FD)))
    def test_same_form_members_with_different_substep_counts(self, form):
        a, b = stackable_pairs(TRI_FD)[form]
        members = [ring_member(b, 0.08, 0.05, 2.0, dt=0.25),
                   ring_member(a, 0.1, 0.05, 12.0, dt=0.25),
                   ring_member(b, 0.06, 0.2, 6.0, dt=0.25)]
        results = assert_members_match(members)
        # members of one stack take different substep counts: the masked path ran
        assert len({stats.substeps for _, stats in results}) > 1

    def test_replaced_partials_keep_their_own_speed_bound(self):
        slow = make_ovm(0.9, TRI_FD)  # stacks with OVM until its partials are replaced
        steep = dataclasses.replace(slow, partials=lambda v, s, dv: (
            *slow.partials(v, s, dv)[:2], np.full(np.shape(v), 2.0)))
        members = [ring_member(OVM, 0.08, 0.05, 3.0, dt=0.25),
                   ring_member(steep, 0.08, 0.05, 3.0, dt=0.25)]
        results = assert_members_match(members)
        assert results[1][1].substeps > results[0][1].substeps

    def test_inflow_batch(self, tri):
        members = [ring_member(law, 0.06, 0.1, float(tri.eta(0.06)), dt=0.25,
                               boundary=InflowOutflow(k_in=k_in, v_in=float(tri.eta(k_in))))
                   for law, k_in in ((OVM, 0.08), (FVDM, 0.05), (OVM, 0.07))]
        for field, stats in assert_members_match(members):
            change = total_vehicles(field, -1) - total_vehicles(field, 0)
            assert change == pytest.approx(stats.inflow - stats.outflow, abs=1e-10)

    def test_members_sharing_a_law_are_evaluated_together(self):
        shapes = []

        def psi(v, s, dv):
            shapes.append(np.shape(v))
            return OVM.psi(v, s, dv)

        law = AccelerationLaw("ovm-counted", OVM.params, psi, OVM.partials,
                              s_min=OVM.s_min, v_free=OVM.v_free)
        one = ring_member(law, 0.08, 0.05, 3.0)
        # the same state a quarter lap on: the same speed bound and substep counts
        other = EulerianScenario(**{**one.__dict__,
                                    "initial_density": np.roll(one.initial_density, 5)})
        (_, stats), _ = assert_members_match([one, other])
        shapes.clear()
        solve_second_order_batch([one, other])
        # one call per substep on both members' 40 cells of the flat state
        assert shapes == [(40,)] * stats.substeps

    def test_inflow_batch_on_two_grids(self, tri):
        members = [ring_member(law, 0.06, 0.1, float(tri.eta(0.06)), cells=cells, dx=dx,
                               dt=0.25, boundary=InflowOutflow(k_in=k_in,
                                                               v_in=float(tri.eta(k_in))))
                   for law, k_in, cells, dx in ((OVM, 0.08, 10, 10.0), (FVDM, 0.05, 20, 7.5),
                                                (OVM, 0.07, 20, 7.5))]
        results = assert_members_match(members)
        for (_, stats), sc in zip(results, members):
            _, own = solve_second_order(sc)
            assert (stats.inflow, stats.outflow) == (own.inflow, own.outflow)
            assert stats.inflow > 0 and stats.outflow > 0

    def test_one_stack_over_three_grids(self):
        a, b = stackable_pairs(TRI_FD)["ovm"]
        members = [ring_member(b, 0.08, 0.05, 2.0, cells=5, dx=20.0, dt=0.25),
                   ring_member(a, 0.1, 0.05, 12.0, cells=20, dx=5.0, dt=0.25),
                   ring_member(b, 0.06, 0.2, 6.0, cells=10, dx=7.5, dt=0.25)]
        assert len(law_spans([sc.law for sc in members])) == 1
        results = assert_members_match(members)
        assert len({stats.substeps for _, stats in results}) == 3

    @pytest.mark.parametrize("fault", ["non-finite", "negative"])
    def test_fault_names_the_cell_in_its_own_grid(self, fault):
        k0 = np.full(10, 0.05)
        k0[3] = 0.1 if fault == "negative" else 0.04
        if fault == "negative":
            # a strong constant acceleration outruns the step's speed bound in
            # its second substep, and the denser cell 3 empties below zero
            law = AccelerationLaw("push", {}, lambda v, s, dv: 200.0 + 0.0 * v,
                                  lambda v, s, dv: (0.0 * v, 0.0 * v, 0.0 * v), v_free=20.0)
        else:  # the source is infinite in the one sparser cell, as above
            law = AccelerationLaw(
                "blowup", {}, lambda v, s, dv: np.where(s > 22.0, np.inf, 0.0),
                lambda v, s, dv: (0.0 * v, 0.0 * v, 0.0 * v), v_free=20.0)
        faulty = EulerianScenario(grid=SpatialGrid(0.0, 10.0, 10), dt=1.0, steps=2,
                                  initial_density=k0, initial_speed=np.full(10, 5.0), law=law)
        healthy = [ring_member(OVM, 0.08, 0.05, 3.0, cells=cells, dx=dx, dt=1.0, steps=2,
                               record_every=1) for cells, dx in ((20, 20.0), (5, 40.0))]
        with pytest.raises(SolverFault) as own:
            solve_second_order(faulty)
        assert (own.value.step, own.value.cell) == (0, 3)
        assert fault in str(own.value)
        with pytest.raises(SolverFault) as batch:
            solve_second_order_batch([healthy[0], faulty, healthy[1]])
        assert str(batch.value) == str(own.value)
        assert (batch.value.step, batch.value.cell) == (0, 3)

    def test_max_substeps_is_each_members_own(self, tri):
        members = [ring_member(OVM, 0.08, 0.05, 3.0), ring_member(FVDM, 0.08, 0.05, 3.0),
                   ring_member(IDM, 0.05, 0.05, 9.0, cells=10, dx=20.0)]
        results = assert_members_match(members)
        own = [solve_second_order(sc)[1].max_substeps for sc in members]
        assert [stats.max_substeps for _, stats in results] == own
        assert len(set(own)) > 1
        # the uniform equilibrium keeps its speed bound, so every step takes
        # the same count: ceil(0.9 * 7.5 / (0.25 * 10)) = 3
        steady = ring_member(OVM, 0.08, 0.0, float(tri.eta(0.08)), cells=10, dt=0.9,
                             steps=10, record_every=2)
        _, stats = solve_second_order(steady)
        assert stats.max_substeps == stats.substeps // steady.steps == 3
        assert stats.substeps == 30
        godunov = dataclasses.replace(steady, dt=0.25, fd=tri)
        assert solve_lwr_godunov(godunov)[1].max_substeps == 0

    def test_clamp_counters_count_each_cell_and_substep(self):
        """A periodic uniform state stays uniform, so a clamp that one cell
        takes every cell takes on every substep: 12 cells x 10 substeps."""
        # OVM's s_min is 1.01 / k_j = 5.05 m, above the spacing 1 / 0.199
        dense = ring_member(OVM, 0.199, 0.0, 0.0, cells=12, steps=10, record_every=5)
        # IDM brakes below its jam spacing d = 2 m, and a stopped car cannot reverse
        braking = ring_member(IDM, 1 / 1.5, 0.0, 0.0, cells=12, steps=10, record_every=5)
        runs = [solve_second_order(sc)[1] for sc in (dense, braking)]
        assert [(r.substeps, r.dense_spacing_clamps, r.speed_clamps) for r in runs] == [
            (10, 120, 0), (10, 0, 120)]
        batch = solve_second_order_batch([dense, braking])
        assert [stats for _, stats in batch] == runs

    def test_members_must_share_steps_and_boundary_kind(self):
        one = ring_member(OVM, 0.08, 0.05, 3.0)
        for change in ({"steps": 20}, {"dt": 0.25}, {"record_every": 2},
                       {"boundary": InflowOutflow(k_in=0.08, v_in=5.0)}):
            with pytest.raises(ConfigurationError, match="must share"):
                solve_second_order_batch([one, EulerianScenario(**{**one.__dict__, **change})])
        assert solve_second_order_batch([]) == []


@st.composite
def continuum_batches(draw):
    """Members each on its own grid, with laws drawn (and sometimes repeated) at
    random."""
    size = draw(st.integers(1, 4))
    dt, steps = draw(st.sampled_from((0.125, 0.25, 0.5))), draw(st.integers(1, 30))
    record_every = draw(st.integers(1, 4))
    members = []
    for _ in range(size):
        law = draw(st.sampled_from((OVM, FVDM, IDM, make_linear_gm(1.0))))
        k0, amplitude = draw(st.floats(0.02, 0.15)), draw(st.sampled_from((0.0, 0.05, 0.6)))
        members.append(ring_member(law, k0, amplitude, draw(st.floats(0.0, 15.0)),
                                   cells=draw(st.sampled_from((5, 10, 20, 40))),
                                   dx=draw(st.sampled_from((5.0, 7.5, 10.0, 20.0))),
                                   dt=dt, steps=steps, record_every=record_every))
    return members


@settings(max_examples=40, deadline=None)
@given(continuum_batches())
def test_batch_matches_one_member_runs(members):
    assert_members_match(members, faults=True)
