"""Platoon simulators: equilibrium fixed points, reductions, convergence."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import GS, TRI, assert_bits_equal, stackable_pairs
from trafficlab import (CollisionError, ConfigurationError, ConstantLeader,
                        EvaluationError, GreenshieldsDiagram, ParameterError,
                        PiecewiseConstantLeader, PlatoonState, Ring, SinusoidLeader,
                        SolverFault, TabulatedDiagram, TrafficLabError, TriangularDiagram,
                        make_arz_cf, make_aw_rascle_cf, make_fvdm, make_gfm,
                        make_idm, make_idm_alt, make_jwz_cf, make_linear_gm,
                        make_nonlinear_gm, make_ovm, make_third_order,
                        rankine_hugoniot_speed, simulate_continuous,
                        simulate_newell, simulate_pipes_discrete,
                        simulate_platoons, uniform_platoon)
from trafficlab.laws import AccelerationLaw
from trafficlab.platoon import RK4_DT_FRACTION, _validate_ordering
from trafficlab.transforms import TrajectorySurface


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

    def test_spacing_at_s_min_collides_and_one_ulp_above_runs(self):
        # The guard is strict: a spacing equal to s_min is a collision.
        law = make_linear_gm(1.0)  # s_min = 0.1; a stopped platoon keeps its spacing
        at, above = (PlatoonState(time=0.0, positions=np.array([0.0, -gap]), speeds=np.zeros(2))
                     for gap in (law.s_min, np.nextafter(law.s_min, 1.0)))
        with pytest.raises(CollisionError) as exc:
            simulate_continuous(law, at, ConstantLeader(0.0), 0.1, 50)
        assert (exc.value.time, exc.value.vehicle) == (0.0, 1)
        surf = simulate_continuous(law, above, ConstantLeader(0.0), 0.1, 50)
        assert surf.positions.shape == (51, 2)
        assert np.array_equal(surf.positions, np.broadcast_to(above.positions, (51, 2)))

    def test_custom_law_check_inside_psi_propagates(self):
        # The solver calls psi unchecked above s_min, so a law whose s_min lies
        # outside its domain raises from its own psi, and that error escapes.
        def psi(v, s, dv):
            if np.fmin.reduce(s, axis=None) < 8.0:
                raise EvaluationError("custom law needs s >= 8")
            return dv / 2.0

        law = AccelerationLaw("custom", {}, psi, s_min=0.1)
        init = PlatoonState(time=0.0, positions=np.array([0.0, -10.0, -20.0]),
                            speeds=np.array([0.0, 5.0, 5.0]))
        with pytest.raises(EvaluationError, match="custom law needs s >= 8"):
            simulate_platoons([(law, init, ConstantLeader(0.0))] * 2, 0.1, 100)

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

    def test_lead_column_records_profile_acceleration(self, tri):
        leader = SinusoidLeader(7.5, 2.0, 1.0)
        law = make_third_order(make_ovm(0.4, tri), 0.3)
        surf = simulate_continuous(law, uniform_platoon(3, 20.0, 7.5), leader, 0.01, 400)
        t = surf.times
        assert np.array_equal(surf.accels[:, 0], [leader.accel_at(ti) for ti in t])
        assert np.allclose(surf.accels[:, 0], 2.0 * np.cos(t), rtol=0, atol=1e-12)
        # the recorded acceleration is the derivative of the recorded speed
        assert np.allclose(np.gradient(surf.speeds[:, 0], 0.01)[1:-1],
                           surf.accels[1:-1, 0], rtol=0, atol=1e-3)

    def test_stepwise_profiles_record_zero_acceleration(self):
        for leader in (ConstantLeader(5.0), PiecewiseConstantLeader((0.0, 1.0), (5.0, 2.0))):
            assert [leader.accel_at(t) for t in (0.0, 0.5, 1.0, 2.0)] == [0.0] * 4

    @pytest.mark.parametrize("make", [
        lambda: ConstantLeader(-1.0),
        lambda: ConstantLeader(math.nan),
        lambda: ConstantLeader(math.inf),
        lambda: SinusoidLeader(-1.0, 0.0, 1.0),
        lambda: SinusoidLeader(math.inf, 0.5, 1.0),
        lambda: SinusoidLeader(1.0, 2.0, 1.0),
        lambda: SinusoidLeader(1.0, -2.0, 1.0),
        lambda: SinusoidLeader(1.0, math.nan, 1.0),
        lambda: SinusoidLeader(1.0, 0.5, 0.0),
        lambda: SinusoidLeader(1.0, 0.5, math.nan),
        lambda: SinusoidLeader(1.0, 0.5, math.inf),
        lambda: PiecewiseConstantLeader((0.0, 1.0), (1.0, -1.0)),
        lambda: PiecewiseConstantLeader((0.0, 1.0), (1.0, math.nan)),
        lambda: PiecewiseConstantLeader((0.0, 1.0), (math.inf, 1.0)),
        # a NaN breakpoint passed the ordering test: displacement(0, 5) read 18
        lambda: PiecewiseConstantLeader((0.0, math.nan, 2.0), (1.0, 2.0, 4.0)),
        lambda: PiecewiseConstantLeader((0.0, math.inf), (1.0, 2.0)),
    ], ids=["constant-negative", "constant-nan", "constant-inf", "sinusoid-negative-v0",
            "sinusoid-inf-v0", "sinusoid-amplitude", "sinusoid-negative-amplitude",
            "sinusoid-nan-amplitude", "sinusoid-zero-omega", "sinusoid-nan-omega",
            "sinusoid-inf-omega", "piecewise-negative", "piecewise-nan", "piecewise-inf",
            "piecewise-nan-time", "piecewise-inf-time"])
    def test_leader_profiles_refuse_reversing_or_non_finite_input(self, make):
        with pytest.raises(ParameterError):
            make()

    @pytest.mark.parametrize("run", [
        lambda tri: simulate_platoons([(make_ovm(0.5, tri), uniform_platoon(3, 12.5, 5.0),
                                        Ring(37.5))], math.nan, 10),
        lambda tri: simulate_pipes_discrete(tri, uniform_platoon(3, 15.0, 10.0),
                                            ConstantLeader(10.0), math.nan, 10),
    ], ids=["rk4", "spacing-rule"])
    def test_nan_step_refused(self, tri, run):
        # NaN passed a dt <= 0 test: an all-NaN surface, or a late SolverFault
        with pytest.raises(ConfigurationError, match="need dt > 0 and steps >= 1"):
            run(tri)

    @pytest.mark.parametrize("field, value", [
        ("time", math.nan), ("time", math.inf), ("positions", math.nan),
        ("positions", -math.inf), ("speeds", math.nan), ("speeds", math.inf),
        ("accels", math.nan), ("accels", -math.inf)])
    def test_state_refuses_non_finite_values(self, field, value):
        # a NaN passed the speed sign and ordering checks, and the run stopped
        # later on a non-finite spacing
        state = {"time": 0.0, "positions": np.array([25.0, 12.5, 0.0]),
                 "speeds": np.full(3, 5.0), "accels": np.zeros(3)}
        if field == "time":
            state["time"] = value
        else:
            state[field][1] = value
        with pytest.raises(ParameterError, match="must be finite"):
            PlatoonState(**state)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_ring_refuses_non_finite_or_empty_length(self, length):
        # an infinite ring left the front vehicle without a leader, silently
        with pytest.raises(ParameterError, match="ring length must be finite and > 0"):
            Ring(length)

    def test_leader_profiles_accept_their_edges(self):
        assert ConstantLeader(0.0).speed_at(1.0) == 0.0
        for amplitude in (1.0, -1.0):  # the speed touches 0 and never goes below
            leader = SinusoidLeader(1.0, amplitude, 2.0)
            assert min(leader.speed_at(0.01 * i) for i in range(400)) >= 0.0
        assert PiecewiseConstantLeader((0.0, 1.0), (0.0, 2.0)).speed_at(1.5) == 2.0

    @pytest.mark.parametrize("boundary", [Ring(500.0), ConstantLeader(7.5)],
                             ids=["ring", "open-road"])
    def test_non_finite_state_stops_with_solver_fault(self, boundary):
        # v**400 overflows to inf and inf * (dv = 0) is NaN at the first stage
        law = make_nonlinear_gm(1.0, 400, 1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SolverFault, match=r"non-finite spacing at t=0.005 s, vehicle"):
            simulate_continuous(law, uniform_platoon(40, 12.5, 7.5, 487.5), boundary, 0.01, 50)

    def test_non_finite_last_step_stops_with_solver_fault(self):
        # Only the last stage (speed 7.51) reaches the surge, so the infinite
        # speed is in the final state and never in a spacing.
        law = AccelerationLaw("surge", {}, lambda v, s, dv: np.where(v > 7.507, np.inf, 1.0))
        init = uniform_platoon(3, 12.5, 7.5)
        with pytest.raises(SolverFault, match=r"^non-finite state at t=0.01 s, vehicle 1$"):
            simulate_continuous(law, init, ConstantLeader(7.5), 0.01, 1)
        stale = reference_simulate_continuous(law, init, ConstantLeader(7.5), 0.01, 1)
        assert np.isinf(stale.speeds[-1, 1:]).all()


# The scalar profile formulas as they stood before profiles took time arrays,
# kept as the reference for the array evaluation.
def reference_profile(leader):
    """(speed_at, accel_at, displacement) of ``leader`` on Python floats."""
    if isinstance(leader, ConstantLeader):
        return (lambda t: leader.v0, lambda t: 0.0,
                lambda t0, t1: leader.v0 * (t1 - t0))
    if isinstance(leader, SinusoidLeader):
        v0, amplitude, omega = leader.v0, leader.amplitude, leader.omega
        return (lambda t: v0 + amplitude * math.sin(omega * t),
                lambda t: amplitude * omega * math.cos(omega * t),
                lambda t0, t1: (v0 * (t1 - t0) + amplitude / omega
                                * (math.cos(omega * t0) - math.cos(omega * t1))))

    def speed_at(t):
        idx = 0
        for i, brk in enumerate(leader.times):
            if t >= brk:
                idx = i
        return leader.speeds[idx]

    def displacement(t0, t1):
        total = 0.0
        edges = list(leader.times) + [math.inf]
        for i, v in enumerate(leader.speeds):
            lo = max(t0, edges[i])
            hi = min(t1, edges[i + 1])
            if hi > lo:
                total += v * (hi - lo)
        return total

    return speed_at, lambda t: 0.0, displacement


PROFILES = [ConstantLeader(7.5), SinusoidLeader(7.5, 2.0, 0.4),
            PiecewiseConstantLeader((0.0, 5.0, 9.0, 12.25), (10.0, 4.0, 8.0, 0.0))]


@pytest.mark.parametrize("leader", PROFILES, ids=["constant", "sinusoid", "piecewise"])
def test_profile_arrays_match_scalar_evaluation_bitwise(leader):
    """Each array evaluation equals the scalar one and the reference, element by
    element: the lead track evaluates the profile on arrays (np.sin, np.cos), the
    step-by-step references on floats."""
    rng = np.random.default_rng(29)
    breaks = np.array(getattr(leader, "times", ()), dtype=float)
    t0 = np.concatenate([[0.0], breaks, np.nextafter(breaks, -math.inf),
                         np.nextafter(breaks, math.inf), rng.uniform(0.0, 200.0, 10**4)])
    if isinstance(leader, PiecewiseConstantLeader):
        t0 = np.concatenate([[-0.0, -5e-324, -1.0, -7.5], t0, rng.uniform(-10.0, 0.0, 100)])
    # every span from t0 over a step, and between two sampled times either way
    t0, t1 = np.tile(t0, 2), np.concatenate([t0 + rng.uniform(0.0, 3.0, t0.size),
                                              rng.permutation(t0)])
    for evaluate, reference, times in zip(
            (leader.speed_at, leader.accel_at, leader.displacement),
            reference_profile(leader), ((t0,), (t0,), (t0, t1))):
        points = list(zip(*(t.tolist() for t in times)))
        each = [evaluate(*point) for point in points]
        assert all(np.ndim(value) == 0 and isinstance(value, float) for value in each)
        assert_bits_equal(evaluate(*times), each)
        assert_bits_equal(each, [float(reference(*point)) for point in points])


# The RK4 integrator as it stood before its state was stacked into one
# array, kept verbatim as the reference for the stacked version.
def reference_simulate_continuous(law: AccelerationLaw, initial: PlatoonState,
                                  boundary, dt: float, steps: int) -> TrajectorySurface:
    """Fixed-step RK4 integration of the coupled car-following system.

    With a leader profile, vehicle 0 follows the profile exactly (its position
    is advanced by the profile's exact displacement integral each step) and
    appears as column 0 of the returned surface. On a ring every vehicle
    follows its predecessor, wrapping modulo the circumference.

    Speeds are clamped at zero after each step; clamp counts are reported on
    the surface. A spacing at or below the law's minimum at any stage aborts
    with :class:`CollisionError`.
    """
    if dt <= 0 or steps < 1:
        raise ConfigurationError("need dt > 0 and steps >= 1")
    guard = RK4_DT_FRACTION * law.time_scale
    if dt > guard * (1 + 1e-12):
        raise ConfigurationError(
            f"dt={dt:g} exceeds stability guard {guard:g} for {law.name}")
    _validate_ordering(initial, boundary)
    ring = isinstance(boundary, Ring)
    third = law.t_delay is not None
    n = initial.n_vehicles
    if not ring and n < 2:
        raise ConfigurationError("linear-road run needs the leader plus a follower")

    x = initial.positions.copy()
    v = initial.speeds.copy()
    a = (initial.accels.copy() if initial.accels is not None
         else np.zeros(n)) if third else None

    pos_out = np.empty((steps + 1, n))
    spd_out = np.empty((steps + 1, n))
    acc_out = np.empty((steps + 1, n)) if third else None

    if ring:
        xf, vf = x, v
        af = a
        lead_x = lead_v = None
    else:
        xf, vf = x[1:].copy(), v[1:].copy()
        af = a[1:].copy() if third else None
        lead_x, lead_v = float(x[0]), boundary.speed_at(0.0)

    # Leader state of each follower at a stage: its predecessor's, and for the
    # front follower the lead vehicle's (on a ring, the rear vehicle one lap on).
    lead_xs = np.empty(xf.shape[0])
    lead_vs = np.empty(xf.shape[0])
    first_vehicle = 0 if ring else 1
    s_min, psi = law.s_min, law.psi

    def follower_rates(t, xf, vf, af, lead_x, lead_v):
        if ring:
            lead_x, lead_v = xf[-1] + boundary.length, vf[-1]
        lead_xs[0], lead_xs[1:] = lead_x, xf[:-1]
        lead_vs[0], lead_vs[1:] = lead_v, vf[:-1]
        s = lead_xs - xf
        # fmin skips NaN, so a NaN spacing cannot mask a collision elsewhere.
        if np.fmin.reduce(s) <= s_min:
            raise CollisionError(t, int(np.argmax(s <= s_min)) + first_vehicle)
        accel = psi(np.maximum(vf, 0.0), s, lead_vs - vf)
        if third:
            return vf, af, (accel - af) / law.t_delay
        return vf, accel, None

    def record(i):
        if ring:
            pos_out[i], spd_out[i] = xf, vf
            if third:
                acc_out[i] = af
        else:
            pos_out[i, 0], spd_out[i, 0] = lead_x, boundary.speed_at(i * dt)
            pos_out[i, 1:], spd_out[i, 1:] = xf, vf
            if third:
                acc_out[i, 0] = 0.0
                acc_out[i, 1:] = af

    record(0)
    clamps = 0
    half = 0.5 * dt
    lx = lv = (None, None, None)
    for i in range(steps):
        t = i * dt
        if not ring:
            d_half = boundary.displacement(t, t + half)
            d_full = boundary.displacement(t, t + dt)
            v_half = boundary.speed_at(t + half)
            lx = (lead_x + d_half, lead_x + d_half, lead_x + d_full)
            lv = (v_half, v_half, boundary.speed_at(t + dt))

        k1 = follower_rates(t, xf, vf, af, lead_x, lead_v)
        k2 = follower_rates(t + half, xf + half * k1[0], vf + half * k1[1],
                            None if not third else af + half * k1[2], lx[0], lv[0])
        k3 = follower_rates(t + half, xf + half * k2[0], vf + half * k2[1],
                            None if not third else af + half * k2[2], lx[1], lv[1])
        k4 = follower_rates(t + dt, xf + dt * k3[0], vf + dt * k3[1],
                            None if not third else af + dt * k3[2], lx[2], lv[2])

        xf = xf + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        vf = vf + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if third:
            af = af + dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        below = vf < 0.0
        if below.any():
            clamps += int(np.count_nonzero(below))
            vf = np.where(below, 0.0, vf)
        if not ring:
            lead_x, lead_v = lx[2], lv[2]
        record(i + 1)

    return TrajectorySurface(
        t0=initial.time, dt=dt, positions=pos_out, speeds=spd_out,
        accels=acc_out, ring_length=boundary.length if ring else None,
        clamp_events=clamps,
    )


TRI_FD, GS_FD = TriangularDiagram(**TRI), GreenshieldsDiagram(**GS)
TAB_FD = TabulatedDiagram(k_table=np.array([0.0, 0.03, 0.06, 0.2]),
                          q_table=np.array([0.0, 0.6, 0.75, 0.0]))
REFERENCE_LAWS = (
    make_ovm(0.6, TRI_FD), make_ovm(1.0, GS_FD), make_fvdm(0.6, 0.5, TRI_FD),
    make_idm(1.0, 1.5, 4.0, 20.0, 1.0, 2.0), make_idm_alt(1.0, 1.5, 4.0, 20.0, 1.0, 2.0),
    make_gfm(2.0, 0.5, 2.0, 1.0, 5.0, TRI_FD), make_nonlinear_gm(1.0, 1, 1),
    make_nonlinear_gm(1.0, 400, 1),  # v**400 overflows above about 5.9 m/s
    make_jwz_cf(1.0, 2.0, GS_FD), make_linear_gm(0.5), make_ovm(0.8, TAB_FD),
    make_aw_rascle_cf(lambda k: 0.5 + 2.0 * k, lambda k: -3.0 * k, TRI_FD),
    make_arz_cf(GS_FD),
)


@st.composite
def platoon_runs(draw):
    """A law, a ring or leader profile, a perturbed platoon and a step size."""
    law = draw(st.sampled_from(REFERENCE_LAWS))
    if draw(st.booleans()):  # with t_delay > T/4 the linear GM is underdamped and clamps
        law = make_third_order(law, draw(st.sampled_from((0.3, 1.0))))
    n = draw(st.integers(2, 12))
    spacing = draw(st.floats(3.0, 40.0))  # below s_min too: tight platoons collide
    speed = draw(st.floats(0.0, 15.0))
    jitter = st.just([0.0] * n) | st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)
    positions = spacing * (n - 1 - np.arange(n) + np.array(draw(jitter)))
    speeds = speed * (1.0 + np.array(draw(jitter)))
    accels = draw(st.none() | st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    initial = PlatoonState(time=0.0, positions=positions, speeds=speeds, accels=accels)
    v0 = draw(st.floats(0.0, 15.0))
    boundary = draw(st.sampled_from((
        Ring(n * spacing), ConstantLeader(v0),
        SinusoidLeader(v0, 0.5 * v0, 0.7) if v0 > 0 else ConstantLeader(v0),
        PiecewiseConstantLeader((0.0, 0.6), (v0, 0.0)))))
    dt = RK4_DT_FRACTION * law.time_scale * draw(st.sampled_from((0.25, 0.5, 1.0)))
    return law, initial, boundary, dt, draw(st.integers(1, 40))


def outcome(simulate, *args):
    try:
        return simulate(*args), None
    except TrafficLabError as exc:
        return None, exc


@settings(max_examples=120, deadline=None)
@given(platoon_runs())
def test_stacked_rk4_matches_reference(run):
    law, initial, boundary, dt, steps = run
    non_finite = []  # non-empty once the reference's law sees or returns a non-finite value

    def watched_psi(v, s, dv):
        accel = law.psi(v, s, dv)
        if not all(np.isfinite(z).all() for z in (v, s, dv, accel)):
            non_finite.append(True)
        return accel

    watched = dataclasses.replace(law, psi=watched_psi)
    with np.errstate(over="ignore", invalid="ignore"):
        ref, ref_exc = outcome(reference_simulate_continuous, watched, initial, boundary,
                               dt, steps)
        new, new_exc = outcome(simulate_continuous, law, initial, boundary, dt, steps)
    if ref is not None and not all(np.isfinite(m).all() for m in
                                   (ref.positions, ref.speeds, ref.accels)
                                   if m is not None):
        assert isinstance(new_exc, SolverFault)
        return
    if non_finite and isinstance(new_exc, SolverFault):
        return  # the reference ran on through a non-finite state
    assert type(new_exc) is type(ref_exc) and str(new_exc) == str(ref_exc)
    if ref is None:
        return
    lead = 0 if isinstance(boundary, Ring) else 1
    assert new.positions.tobytes() == ref.positions.tobytes()
    assert new.speeds.tobytes() == ref.speeds.tobytes()
    assert (new.accels is None) == (ref.accels is None)
    if new.accels is not None:
        assert new.accels[:, lead:].tobytes() == ref.accels[:, lead:].tobytes()
        if lead:
            profile = [boundary.accel_at(i * dt) for i in range(steps + 1)]
            assert new.accels[:, 0].tolist() == profile
            assert not ref.accels[:, 0].any()  # the reference wrote 0.0
    assert new.clamp_events == ref.clamp_events
    assert new.ring_length == ref.ring_length


def assert_same_surface(batched, alone):
    assert batched.positions.tobytes() == alone.positions.tobytes()
    assert batched.speeds.tobytes() == alone.speeds.tobytes()
    assert (batched.accels is None) == (alone.accels is None)
    if alone.accels is not None:
        assert batched.accels.tobytes() == alone.accels.tobytes()
    assert batched.clamp_events == alone.clamp_events
    assert (batched.t0, batched.dt, batched.ring_length) == (alone.t0, alone.dt,
                                                             alone.ring_length)


BOUNDARIES = {
    "ring": lambda b: Ring(6 * 12.5),
    "constant": lambda b: ConstantLeader(5.0 + b),
    "sinusoid": lambda b: SinusoidLeader(6.0, 1.5, 0.4 + 0.3 * b),
    "piecewise": lambda b: PiecewiseConstantLeader((0.0, 1.0 + b), (6.0, 2.0 + b)),
}


class TestBatch:
    """Every member of a batch is bitwise its own one-member run."""

    @staticmethod
    def members(kind, third, laws=None):
        if laws is None:
            ovm = make_ovm(0.6, TRI_FD)
            laws = [ovm, make_idm(1.0, 1.5, 4.0, 20.0, 1.0, 2.0), ovm,
                    make_fvdm(0.6, 0.5, GS_FD)]
            if third:
                laws = [make_third_order(law, 0.3) for law in laws]
        members = []
        for b, law in enumerate(laws):
            jitter = 0.2 * np.sin(np.arange(6) * (b + 1.0))
            initial = PlatoonState(time=0.0, positions=12.5 * (5 - np.arange(6) + jitter),
                                   speeds=np.full(6, 6.0) + jitter,
                                   accels=np.full(6, 0.1 * b) if third else None)
            members.append((law, initial, BOUNDARIES[kind](b)))
        return members

    @pytest.mark.parametrize("third", [False, True], ids=["second", "third"])
    @pytest.mark.parametrize("kind", list(BOUNDARIES))
    def test_members_match_their_own_runs(self, kind, third):
        members = self.members(kind, third)
        alone = [simulate_continuous(*m, 0.02, 150) for m in members]
        for batched, own in zip(simulate_platoons(members, 0.02, 150), alone):
            assert_same_surface(batched, own)
        for batched, own in zip(simulate_platoons(members, 0.02, 150, record_every=7),
                                alone):
            assert_same_surface(batched, own.slice_steps(0, None, 7))

    @pytest.mark.parametrize("third", [False, True], ids=["second", "third"])
    @pytest.mark.parametrize("kind", ["ring", "sinusoid"])
    @pytest.mark.parametrize("form", sorted(stackable_pairs(TRI_FD)))
    def test_same_form_members_match_their_own_runs(self, form, kind, third):
        a, b = stackable_pairs(TRI_FD)[form]
        laws = [b, a, b]
        if third:  # the inner laws share a form, the delays differ
            laws = [make_third_order(b, 0.3), make_third_order(a, 1.0),
                    make_third_order(b, 1.0)]
        members = self.members(kind, third, laws)
        alone = [simulate_continuous(*m, 0.02, 150) for m in members]
        for batched, own in zip(simulate_platoons(members, 0.02, 150), alone):
            assert_same_surface(batched, own)

    def test_stacks_beside_custom_and_replaced_laws(self):
        a, b = stackable_pairs(TRI_FD)["fvdm"]
        laws = [a, make_aw_rascle_cf(lambda k: 0.5 + 2.0 * k, lambda k: -3.0 * k, TRI_FD),
                b, dataclasses.replace(b, psi=lambda v, s, dv: b.psi(v, s, dv)),
                make_arz_cf(TRI_FD), a]
        members = self.members("sinusoid", False, laws)
        alone = [simulate_continuous(*m, 0.02, 150) for m in members]
        for batched, own in zip(simulate_platoons(members, 0.02, 150), alone):
            assert_same_surface(batched, own)

    def test_same_form_laws_are_evaluated_together(self):
        shapes = []

        def traced(law):  # a copy whose psi names its kernel, as a tracer's does
            def psi(*args, **columns):
                shapes.append(np.shape(args[0]))
                return law.psi(*args, **columns)
            psi.__wrapped__ = law.psi
            return dataclasses.replace(law, psi=psi)

        a, b = (traced(law) for law in stackable_pairs(TRI_FD)["ovm"])
        members = [(law, uniform_platoon(6, 12.5, 6.0), Ring(75.0)) for law in (a, b, a)]
        simulate_platoons(members, 0.02, 10)
        assert shapes == [(3, 6)] * 40

    def test_stack_constants_reach_the_kernel_in_the_rows_shape(self):
        """Every array a stack's kernel gets has its rows' shape, with no zero
        stride: a (members, 1) column or a broadcast view of one is slower."""
        operands = []

        def recorded(law):  # a copy whose psi names its kernel, so it still stacks
            def psi(*args, **columns):
                operands.append([(x.shape, x.strides) for x in (*args, *columns.values())])
                return law.psi(*args, **columns)
            psi.__wrapped__ = law.psi
            return dataclasses.replace(law, psi=psi)

        laws = (make_idm(2.0, 2.0, 4, 30.0, 1.0, 2.0),  # the demo suite's two IDM laws
                make_idm(0.5, 3.0, 4, 30.0, 1.5, 2.0))
        members = self.members("ring", False, laws)
        batched = simulate_platoons([(recorded(law), *rest) for law, *rest in members],
                                    0.02, 150)
        assert len(operands) == 4 * 150
        for call in operands:
            assert len(call) == 8  # v, s, dv and the five constants that differ
            assert all(shape == (2, 6) and 0 not in strides for shape, strides in call)
        for surface, member in zip(batched, members):
            assert_same_surface(surface, simulate_continuous(*member, 0.02, 150))

    def test_each_distinct_law_is_evaluated_once_per_stage(self):
        """One psi call per stage for each run of neighbouring equal laws."""
        shapes = {}

        def counted(law):
            def psi(v, s, dv):
                shapes.setdefault(law.name, []).append(np.shape(v))
                return law.psi(v, s, dv)
            return dataclasses.replace(law, psi=psi)

        ovm, idm = counted(make_ovm(0.6, TRI_FD)), counted(make_idm(1.0, 1.5, 4.0, 20.0, 1.0, 2.0))

        def members(*laws):
            return [(law, uniform_platoon(6, 12.5, 6.0), Ring(75.0)) for law in laws]

        simulate_platoons(members(ovm, ovm, idm), 0.02, 10)
        assert shapes == {"ovm": [(2, 6)] * 40, "idm": [(6,)] * 40}
        shapes.clear()
        simulate_platoons(members(ovm, ovm), 0.02, 10)  # one law: one call on the whole batch
        assert shapes == {"ovm": [(2, 6)] * 40}
        shapes.clear()
        # Only neighbours stack: an interleaved batch makes one call per run of them.
        batched = simulate_platoons(members(ovm, idm, ovm), 0.02, 10)
        assert shapes == {"ovm": [(6,)] * 80, "idm": [(6,)] * 40}
        for surface, member in zip(batched, members(ovm, idm, ovm)):
            assert_same_surface(surface, simulate_continuous(*member, 0.02, 10))

    def test_clamps_are_counted_per_member(self):
        law = make_third_order(make_linear_gm(0.5), 1.0)  # underdamped: overshoots below 0
        chasing = PlatoonState(time=0.0, positions=np.array([1e4, 0.0]),
                               speeds=np.array([0.0, 5.0]))
        cruising = PlatoonState(time=0.0, positions=np.array([1e4, 0.0]),
                                speeds=np.array([0.0, 0.0]))
        members = [(law, cruising, ConstantLeader(0.0)), (law, chasing, ConstantLeader(0.0))]
        batched = simulate_platoons(members, 0.05, 400)
        alone = [simulate_continuous(*m, 0.05, 400) for m in members]
        assert [s.clamp_events for s in batched] == [s.clamp_events for s in alone]
        assert batched[0].clamp_events == 0 < batched[1].clamp_events
        for b, own in zip(batched, alone):
            assert_same_surface(b, own)

    def test_collision_names_member_and_vehicle(self):
        law = make_linear_gm(2.0)  # too sluggish to avoid the stopped leader
        crash = PlatoonState(time=0.0, positions=np.array([0.0, -10.0]),
                             speeds=np.array([0.0, 20.0]))
        calm = PlatoonState(time=0.0, positions=np.array([0.0, -100.0]),
                            speeds=np.array([0.0, 0.0]))
        with pytest.raises(CollisionError) as alone:
            simulate_continuous(law, crash, ConstantLeader(0.0), 0.1, 100)
        members = [(law, calm, ConstantLeader(0.0)),
                   (make_ovm(0.6, TRI_FD), calm, ConstantLeader(0.0)),
                   (law, crash, ConstantLeader(0.0))]
        with pytest.raises(CollisionError) as batched:
            simulate_platoons(members, 0.05, 200)  # the OVM's guard: dt <= 0.06
        assert batched.value.member == 2 and batched.value.vehicle == 1
        with pytest.raises(CollisionError) as batched:
            simulate_platoons(members[::2], 0.1, 100)
        assert (batched.value.member, batched.value.vehicle) == (1, alone.value.vehicle)
        assert str(batched.value) == str(alone.value).replace(
            "vehicle", "member 1, vehicle")
        assert alone.value.member is None

    @pytest.mark.parametrize("gap", [np.nextafter(0.1, 1.0), 5.0], ids=["ulp-above", "at-floor"])
    def test_member_above_its_own_smaller_s_min_does_not_collide(self, gap):
        # The wide member's s_min is the batch's floor, so a spacing at or below
        # it takes the closer look, where each member meets its own s_min only.
        near = make_linear_gm(1.0)  # s_min = 0.1
        wide = dataclasses.replace(near, s_min=5.0)

        def stopped(gap):
            return PlatoonState(time=0.0, positions=np.array([0.0, -gap]), speeds=np.zeros(2))

        members = [(near, stopped(gap), ConstantLeader(0.0)),
                   (wide, stopped(10.0), ConstantLeader(0.0))]
        batched = simulate_platoons(members, 0.1, 50)
        for surface, member in zip(batched, members):
            assert_same_surface(surface, simulate_continuous(*member, 0.1, 50))
        members[1] = (wide, stopped(wide.s_min), ConstantLeader(0.0))  # the wide member's tie
        with pytest.raises(CollisionError) as exc:
            simulate_platoons(members, 0.1, 50)
        assert (exc.value.time, exc.value.member, exc.value.vehicle) == (0.0, 1, 1)

    def test_collision_in_a_stack_names_its_member(self):
        crash = PlatoonState(time=0.0, positions=np.array([0.0, -10.0]),
                             speeds=np.array([0.0, 20.0]))
        calm = PlatoonState(time=0.0, positions=np.array([0.0, -100.0]),
                            speeds=np.array([0.0, 0.0]))
        sluggish = make_linear_gm(2.0)  # too sluggish to avoid the stopped leader
        with pytest.raises(CollisionError) as alone:
            simulate_continuous(sluggish, crash, ConstantLeader(0.0), 0.05, 200)
        # the linear GMs stack as batch rows 0 and 1, the OVM is row 2
        members = [(make_linear_gm(1.0), calm, ConstantLeader(0.0)),
                   (make_ovm(0.6, TRI_FD), calm, ConstantLeader(0.0)),
                   (sluggish, crash, ConstantLeader(0.0))]
        with pytest.raises(CollisionError) as batched:
            simulate_platoons(members, 0.05, 200)
        assert batched.value.member == 2
        assert str(batched.value) == str(alone.value).replace("vehicle", "member 2, vehicle")

    @pytest.mark.parametrize("boundary", [Ring(500.0), ConstantLeader(7.5)],
                             ids=["ring", "open-road"])
    def test_non_finite_state_names_member_and_vehicle(self, boundary):
        platoon = uniform_platoon(40, 12.5, 7.5, 487.5)
        overflow = make_nonlinear_gm(1.0, 400, 1)  # v**400 overflows at 7.5 m/s
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverFault) as alone:
                simulate_continuous(overflow, platoon, boundary, 0.01, 50)
            with pytest.raises(SolverFault) as batched:
                simulate_platoons([(make_nonlinear_gm(1.0, 1, 1), platoon, boundary),
                                   (overflow, platoon, boundary)], 0.01, 50)
        assert str(alone.value).startswith("non-finite spacing at t=0.005 s, vehicle ")
        assert str(batched.value) == str(alone.value).replace("vehicle", "member 1, vehicle")

    def test_infinite_spacing_counts_only_where_its_member_looks_closer(self):
        # the third member's rear vehicle runs off to -inf at t=0.015 s, where
        # only the first member's tight spacing takes the batch's closer look;
        # alone, the third member's own check first fails at t=0.03 s
        lead = SinusoidLeader(6.0, 1.5, 0.5)
        runaway = PlatoonState(time=0.0, positions=np.array([38.0, -3.0]),
                               speeds=np.array([10.0, 9.0]))
        members = [(make_nonlinear_gm(1.0, 1, 1), uniform_platoon(2, 3.0, 8.0), lead),
                   (make_ovm(0.6, TRI_FD), uniform_platoon(2, 12.5, 6.0), lead),
                   (make_nonlinear_gm(1.0, 400, 1), runaway, lead)]
        with np.errstate(all="ignore"):
            with pytest.raises(SolverFault) as alone:
                simulate_continuous(*members[2], 0.03, 30)
            with pytest.raises(SolverFault) as batched:
                simulate_platoons(members, 0.03, 30)
        assert str(alone.value) == "non-finite spacing at t=0.03 s, vehicle 1"
        assert str(batched.value) == "non-finite spacing at t=0.03 s, member 2, vehicle 1"

    def test_non_finite_last_step_names_member(self):
        surge = AccelerationLaw("surge", {}, lambda v, s, dv: np.where(v > 7.507, np.inf, 1.0))
        steady = make_linear_gm(0.5)
        members = [(steady, uniform_platoon(3, 12.5, 7.5), ConstantLeader(7.5)),
                   (surge, uniform_platoon(3, 12.5, 7.5), ConstantLeader(7.5))]
        with pytest.raises(SolverFault, match=r"^non-finite state at t=0.01 s, "
                                              r"member 1, vehicle 1$"):
            simulate_platoons(members, 0.01, 1)

    def test_members_must_share_shape(self):
        law = make_ovm(0.6, TRI_FD)
        one = (law, uniform_platoon(3, 12.5, 6.0), ConstantLeader(6.0))
        assert simulate_platoons([], 0.02, 10) == []
        for other in [(law, uniform_platoon(4, 12.5, 6.0), ConstantLeader(6.0)),
                      (make_third_order(law, 0.3), uniform_platoon(3, 12.5, 6.0),
                       ConstantLeader(6.0)),
                      (law, uniform_platoon(3, 12.5, 6.0, 25.0), Ring(37.5))]:
            with pytest.raises(ConfigurationError, match="must share"):
                simulate_platoons([one, other], 0.02, 10)
        for record_every in (0, 1.5):
            with pytest.raises(ConfigurationError, match="record_every"):
                simulate_platoons([one], 0.02, 10, record_every)


@st.composite
def platoon_batches(draw):
    """Members that share a vehicle count, law order and boundary kind."""
    size, n = draw(st.integers(1, 4)), draw(st.integers(2, 8))
    kind = draw(st.sampled_from(list(BOUNDARIES)))
    t_delay = draw(st.none() | st.sampled_from((0.3, 1.0)))
    members = []
    for _ in range(size):  # a law drawn twice is one law, evaluated once per stage
        law = draw(st.sampled_from(REFERENCE_LAWS))
        if t_delay is not None:
            law = make_third_order(law, t_delay)
        spacing, speed = draw(st.floats(3.0, 40.0)), draw(st.floats(0.0, 15.0))
        jitter = st.just([0.0] * n) | st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)
        initial = PlatoonState(time=0.0,
                               positions=spacing * (n - 1 - np.arange(n) + np.array(draw(jitter))),
                               speeds=speed * (1.0 + np.array(draw(jitter))))
        boundary = (Ring(n * spacing) if kind == "ring"
                    else BOUNDARIES[kind](draw(st.floats(0.0, 3.0))))
        members.append((law, initial, boundary))
    guard = min(law.time_scale for law, _, _ in members)
    dt = RK4_DT_FRACTION * guard * draw(st.sampled_from((0.25, 0.5, 1.0)))
    return members, dt, draw(st.integers(1, 40)), draw(st.integers(1, 5))


@settings(max_examples=80, deadline=None)
@given(platoon_batches())
def test_batch_matches_one_member_runs(batch):
    members, dt, steps, record_every = batch
    with np.errstate(all="ignore"):
        alone = [outcome(simulate_continuous, *m, dt, steps) for m in members]
        surfaces, exc = outcome(simulate_platoons, members, dt, steps, record_every)
    faults = [(b, e) for b, (_, e) in enumerate(alone) if e is not None]
    if not faults:
        assert exc is None
        for batched, (own, _) in zip(surfaces, alone):
            assert_same_surface(batched, own.slice_steps(0, None, record_every))
        return
    # The batch stops at a fault that one of its members meets alone; with
    # more than one member, the message names that member.
    assert exc is not None
    named = [type(e) is type(exc) and str(exc) == (
        str(e) if len(members) == 1 else str(e).replace("vehicle", f"member {b}, vehicle"))
        for b, e in faults]
    assert any(named)


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

    @pytest.mark.parametrize("c", [0.4, 1.0])
    def test_congested_platoon_is_the_exact_linear_map(self, tri, c):
        """In the congested branch each step is X <- (1 - c) X + c (X_lead - S_j),
        c = dt / tau: to 1e-12 of the positions' scale, and bitwise at c = 1,
        the Newell step. A vehicle that reaches free flow leaves this map."""
        n, steps, s_j = 80, 200, tri.jam_spacing
        spacing = s_j + np.random.default_rng(80).uniform(2.0, 10.0, n - 1)
        x0 = -np.concatenate([[0.0], np.cumsum(spacing)])
        init = PlatoonState(time=0.0, positions=x0, speeds=np.zeros(n))
        x = simulate_pipes_discrete(tri, init, ConstantLeader(3.0), c * tri.time_gap,
                                    steps).positions
        # every follower's spacing stays below the free-flow spacing S_j + v_f tau
        assert np.all(x[:-1, :-1] - x[:-1, 1:] < s_j + tri.v_f * tri.time_gap)
        want = np.empty_like(x)
        want[0], want[:, 0] = x0, x[:, 0]
        for i in range(steps):
            want[i + 1, 1:] = (1 - c) * want[i, 1:] + c * (want[i, :-1] - s_j)
        if c == 1.0:
            assert_bits_equal(x, want)
        else:
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    def test_cfl_violation_refused(self, tri):
        init = uniform_platoon(3, 15.0, 10.0)
        with pytest.raises(ConfigurationError):
            simulate_pipes_discrete(tri, init, ConstantLeader(10.0), 1.5, 10)

    @pytest.mark.parametrize("run", [
        lambda tri: simulate_pipes_discrete(tri, uniform_platoon(3, 15.0, 10.0, 30.0),
                                            Ring(45.0), 0.5, 10),
        lambda tri: simulate_newell(tri, uniform_platoon(3, 15.0, 10.0, 30.0), Ring(45.0), 10),
    ], ids=["pipes", "newell"])
    def test_ring_refused(self, tri, run):
        # the first step read the ring's displacement: an AttributeError
        with pytest.raises(ConfigurationError, match="need a leader profile"):
            run(tri)

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
