"""Finite-volume/upwind solvers: oracles, conservation, boundedness."""

import math

import numpy as np
import pytest

from trafficlab import (AccelerationLaw, ConfigurationError, EulerianScenario,
                        InflowOutflow, SolverFault, SpatialGrid, lwr_riemann_density,
                        make_linear_gm, make_ovm, make_third_order,
                        rankine_hugoniot_speed, solve_lwr_godunov,
                        solve_second_order, total_vehicles)
from trafficlab.equivalence import front_position


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
