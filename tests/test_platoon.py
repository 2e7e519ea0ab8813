"""Platoon simulators: equilibrium fixed points, reductions, convergence."""

import math

import numpy as np
import pytest

from trafficlab import (CollisionError, ConfigurationError, ConstantLeader,
                        PiecewiseConstantLeader, PlatoonState, Ring,
                        SinusoidLeader,
                        make_linear_gm, make_ovm, make_third_order,
                        rankine_hugoniot_speed, simulate_continuous,
                        simulate_newell, simulate_pipes_discrete,
                        uniform_platoon)


class TestContinuous:
    def test_equilibrium_is_fixed_point(self, tri):
        law = make_ovm(1.0, tri)
        v0 = tri.theta(10.0)
        init = uniform_platoon(6, 10.0, v0)
        surf = simulate_continuous(law, init, ConstantLeader(v0), 0.05, 1000)
        assert np.max(np.abs(surf.spacings() - 10.0)) <= 1e-10
        assert np.max(np.abs(surf.speed_matrix() - v0)) <= 1e-10

    def test_ring_equilibrium_is_fixed_point(self, tri):
        law = make_ovm(1.0, tri)
        n, L = 40, 500.0
        init = PlatoonState(time=0.0,
                            positions=(L - 12.5 * np.arange(n)) - 12.5,
                            speeds=np.full(n, tri.theta(12.5)))
        surf = simulate_continuous(law, init, Ring(L), 0.05, 500)
        assert np.max(np.abs(surf.spacings() - 12.5)) <= 1e-9

    def test_rk4_fourth_order_convergence(self, gs):
        law = make_ovm(1.0, gs)
        init = PlatoonState(time=0.0,
                            positions=np.array([0.0, -20.0, -45.0, -65.0]),
                            speeds=np.array([8.0, 6.0, 9.0, 7.0]))

        def final_positions(dt):
            steps = int(round(4.0 / dt))
            return simulate_continuous(law, init, ConstantLeader(8.0),
                                       dt, steps).positions[-1]

        ref = final_positions(0.0025)
        errs = [np.max(np.abs(final_positions(dt) - ref))
                for dt in (0.08, 0.04, 0.02)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 4.0) <= 0.5

    def test_ring_perturbation_grows_past_stability_boundary(self, tri):
        # relaxation above half the time gap: string unstable, the seeded
        # wave amplifies; below it the wave dies out (checked to under 10%)
        grow = self._ring_mode_ratio(tri, T=0.6, horizon=60.0)
        decay = self._ring_mode_ratio(tri, T=0.4, horizon=240.0)
        assert grow > 1.2
        assert decay < 0.10

    @staticmethod
    def _ring_mode_ratio(tri, T, horizon):
        L, n = 250.0, 20
        s0 = L / n
        base = (n - 1 - np.arange(n)) * s0
        disp = 0.01 * L / (2 * math.pi)
        init = PlatoonState(time=0.0,
                            positions=base + disp * np.sin(2 * math.pi * base / L),
                            speeds=np.full(n, tri.theta(s0)))
        dt = 0.05 * T
        steps = int(round(horizon / dt))
        surf = simulate_continuous(make_ovm(T, tri), init, Ring(L), dt, steps)

        def amp(step):
            from trafficlab import SpatialGrid, to_eulerian
            field = to_eulerian(surf.slice_steps(step, step + 1),
                                SpatialGrid(0.0, L / 25, 25))
            return 2 * abs(np.fft.rfft(field.density[0])[1]) / 25

        return amp(steps) / amp(0)

    def test_determinism_bitwise(self, tri):
        law = make_ovm(0.8, tri)
        init = uniform_platoon(5, 12.0, 3.0)
        leader = SinusoidLeader(3.0, 0.5, 0.7)
        a = simulate_continuous(law, init, leader, 0.05, 400)
        b = simulate_continuous(law, init, leader, 0.05, 400)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.speeds, b.speeds)

    def test_collision_aborts_with_report(self):
        law = make_linear_gm(2.0)  # too sluggish to avoid the stopped leader
        init = PlatoonState(time=0.0, positions=np.array([0.0, -10.0]),
                            speeds=np.array([0.0, 20.0]))
        with pytest.raises(CollisionError) as exc:
            simulate_continuous(law, init, ConstantLeader(0.0), 0.1, 100)
        assert exc.value.vehicle == 1
        assert 0.0 < exc.value.time < 2.0

    def test_speed_clamping_counted(self):
        # an acceleration-delayed speed-difference follower is underdamped
        # (complex characteristic roots for T' > T/4), so chasing a stopped
        # leader overshoots below zero speed; spacing is huge, so no collision
        law = make_third_order(make_linear_gm(0.5), 1.0)
        init = PlatoonState(time=0.0, positions=np.array([1e4, 0.0]),
                            speeds=np.array([0.0, 5.0]))
        surf = simulate_continuous(law, init, ConstantLeader(0.0), 0.05, 400)
        assert surf.clamp_events >= 1
        assert surf.slice_steps(0, None, 2).clamp_events == surf.clamp_events
        assert np.all(surf.speeds >= 0.0)

    def test_dt_guard(self, tri):
        law = make_ovm(0.5, tri)  # guard: 0.1 * T = 0.05
        init = uniform_platoon(3, 10.0, 5.0)
        with pytest.raises(ConfigurationError):
            simulate_continuous(law, init, ConstantLeader(5.0), 0.2, 10)

    def test_third_order_tracks_second_order_for_small_delay(self, tri):
        base = make_ovm(1.0, tri)
        wrapped = make_third_order(base, 0.01)
        init = uniform_platoon(4, 12.0, tri.theta(12.0))
        leader = PiecewiseConstantLeader((0.0, 5.0), (tri.theta(12.0), 3.0))
        a = simulate_continuous(base, init, leader, 0.001, 8000)
        b = simulate_continuous(wrapped, init, leader, 0.001, 8000)
        assert np.max(np.abs(a.positions - b.positions)) < 0.2
        assert b.accels is not None


class TestSpacingRule:
    def test_single_update_value(self, tri):
        init = PlatoonState(time=0.0, positions=np.array([10.0, 0.0]),
                            speeds=np.zeros(2))
        surf = simulate_pipes_discrete(tri, init, ConstantLeader(0.0), 1.0, 1)
        assert surf.positions[1, 1] == 5.0  # min(v_f, (10 - 5)/1) * 1

    def test_congested_equilibrium_advances_exactly(self, tri):
        v0 = 10.0
        spacing = tri.jam_spacing + tri.time_gap * v0  # 15, binary exact
        init = uniform_platoon(5, spacing, v0)
        surf = simulate_pipes_discrete(tri, init, ConstantLeader(v0), 0.5, 20)
        steps = np.diff(surf.positions, axis=0)
        assert np.all(steps == v0 * 0.5)

    def test_cfl_violation_refused(self, tri):
        init = uniform_platoon(3, 15.0, 10.0)
        with pytest.raises(ConfigurationError):
            simulate_pipes_discrete(tri, init, ConstantLeader(10.0), 1.5, 10)

    def test_newell_requires_triangular(self, gs):
        init = uniform_platoon(3, 15.0, 10.0)
        with pytest.raises(ConfigurationError):
            simulate_newell(gs, init, ConstantLeader(10.0), 5)

    def test_newell_free_flow_advance(self, tri):
        init = uniform_platoon(4, 60.0, tri.v_f)
        surf = simulate_newell(tri, init, ConstantLeader(tri.v_f), 10)
        steps = np.diff(surf.positions, axis=0)
        assert np.all(steps == tri.time_gap * tri.v_f)

    def test_newell_jam_is_frozen(self, tri):
        init = PlatoonState(time=0.0,
                            positions=-tri.jam_spacing * np.arange(5),
                            speeds=np.zeros(5))
        surf = simulate_newell(tri, init, ConstantLeader(0.0), 20)
        assert np.all(surf.positions == surf.positions[0])

    def test_pipes_at_time_gap_equals_newell_bitwise(self, tri):
        init = uniform_platoon(8, 18.0, 7.0)
        leader = SinusoidLeader(7.0, 1.0, 0.4)
        a = simulate_pipes_discrete(tri, init, leader, tri.time_gap, 60)
        b = simulate_newell(tri, init, leader, 60)
        assert np.array_equal(a.positions, b.positions)

    def test_newell_queue_tail_speed_matches_jump_condition(self, tri):
        # capacity-flow platoon running into a standing queue: the stopped/
        # moving interface recedes at the jump speed of the two states
        s_free = 25.0  # capacity spacing: 1/k_star
        n_free, n_jam = 120, 20
        jam = -tri.jam_spacing * np.arange(n_jam)
        free = jam[-1] - s_free * (1 + np.arange(n_free))
        init = PlatoonState(time=0.0, positions=np.concatenate([jam, free]),
                            speeds=np.zeros(n_free + n_jam))
        steps = 80
        surf = simulate_newell(tri, init, ConstantLeader(0.0), steps)
        stopped_t0 = np.flatnonzero(surf.positions[1] - surf.positions[0] < 1e-9)
        stopped_tN = np.flatnonzero(surf.positions[-1] - surf.positions[-2] < 1e-9)
        tail_x0 = surf.positions[0, stopped_t0[-1]]
        tail_xN = surf.positions[-1, stopped_tN[-1]]
        measured = (tail_xN - tail_x0) / (steps * tri.time_gap)
        expected = rankine_hugoniot_speed(tri, tri.critical_density, tri.k_j)
        assert expected == pytest.approx(-tri.w)
        assert measured == pytest.approx(expected, abs=s_free / (steps * tri.time_gap))
