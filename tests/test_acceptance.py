"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not calibrated elsewhere.
"""

import json
import math

import numpy as np

import trafficlab as tl
from trafficlab.cli import DEMO_CONFIG, main as cli_main
from trafficlab.equivalence import RingScenario
from trafficlab.transforms import TRANSFORM_IDENTITY_ROWS

from conftest import GS, TRI
from test_stability import reference_sweep
from test_transforms import identity_row_levels

TRI_FD = tl.TriangularDiagram(**TRI)
GS_FD = tl.GreenshieldsDiagram(**GS)


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_fd_identities():
    """theta(S) = S phi(1/S), phi(k) = k eta(k), triangular capacity."""
    worst = 0.0
    for fd in (TRI_FD, GS_FD):
        # rtol with an atol floor at the function scale: the identities cross
        # zero at the jam point, where a bare ratio just divides round-off
        s = np.linspace(fd.jam_spacing * (1 + 1e-9), 60 * fd.jam_spacing, 1000)
        lhs, rhs = fd.theta(s), s * fd.phi(1.0 / s)
        worst = max(worst, np.max(np.abs(lhs - rhs) / (np.abs(rhs) + fd.v_f)))
        k = np.linspace(fd.k_j * 1e-6, fd.k_j, 1000)
        lhs, rhs = fd.phi(k), k * fd.eta(k)
        worst = max(worst, np.max(np.abs(lhs - rhs) / (np.abs(rhs) + fd.capacity)))
    cap_formula = TRI_FD.v_f * TRI_FD.w * TRI_FD.k_j / (TRI_FD.v_f + TRI_FD.w)
    cap_err = abs(TRI_FD.capacity - cap_formula) / cap_formula
    ok = worst <= 1e-12 and cap_err <= 1e-12
    report(1, ok, f"identity rel err {worst:.2e}, capacity rel err {cap_err:.2e} "
                  f"(tolerance 1e-12, 1000 samples per identity)")


def test_criterion_02_pipes_newell_identity():
    """Discrete spacing rule at dt = time gap is bitwise the Newell rule, and
    both are bitwise Newell's rule stepped in the test itself."""
    fd = TRI_FD
    tau = fd.time_gap
    scenarios = [
        ("congested equilibrium", tl.uniform_platoon(10, 15.0, 10.0),
         tl.ConstantLeader(10.0), 60),
        ("free flow", tl.uniform_platoon(8, 60.0, fd.v_f),
         tl.ConstantLeader(fd.v_f), 40),
        ("queue release", tl.PlatoonState(
            time=0.0, positions=-fd.jam_spacing * np.arange(12),
            speeds=np.zeros(12)),
         tl.PiecewiseConstantLeader((0.0, 5.0), (0.0, 15.0)), 50),
        ("oscillating leader", tl.uniform_platoon(10, 18.0, 7.0),
         tl.SinusoidLeader(7.0, 1.5, 0.4), 80),
        ("slowdown", tl.uniform_platoon(9, 30.0, 15.0),
         tl.PiecewiseConstantLeader((0.0, 10.0, 25.0), (15.0, 2.0, 12.0)), 60),
    ]
    all_equal = True
    for name, initial, leader, steps in scenarios:
        a = tl.simulate_pipes_discrete(fd, initial, leader, tau, steps)
        b = tl.simulate_newell(fd, initial, leader, steps)
        # Newell's rule stepped here, independently of both simulators
        ref = np.empty((steps + 1, initial.n_vehicles))
        ref[0] = initial.positions
        for i in range(steps):
            ref[i + 1, 1:] = np.minimum(ref[i, 1:] + tau * fd.v_f, ref[i, :-1] - fd.jam_spacing)
            ref[i + 1, 0] = ref[i, 0] + leader.displacement(i * tau, i * tau + tau)
        if not (np.array_equal(a.positions, b.positions)
                and np.array_equal(b.positions, ref)):
            all_equal = False
    report(2, all_equal, f"bitwise-equal trajectories and Newell reference on "
                         f"{len(scenarios)} scenarios")


def test_criterion_03_lwr_oracle():
    """Both arms hit the jump-condition shock speed; Godunov L1 converges."""
    fd = TRI_FD
    profile = tl.RiemannProfile(0.02, 0.2, 0.0)
    rep = tl.compare_lwr(fd, profile, -2400.0, 400.0, 900.0, [10.0])
    entry = rep.entries[0]
    err_god = rep.front_error_rel(entry.front_godunov)
    err_new = rep.front_error_rel(entry.front_newell)

    horizon, errs = 90.0, []
    for dx in (20.0, 10.0, 5.0):
        cells = int(round(1200.0 / dx))
        grid = tl.SpatialGrid(0.0, dx, cells)
        k0 = np.where(grid.centers < 1000.0, 0.02, 0.2).astype(float)
        steps = int(math.ceil(horizon * fd.max_wave_speed() / (0.45 * dx)))
        sc = tl.EulerianScenario(grid=grid, dt=horizon / steps, steps=steps,
                                 initial_density=k0,
                                 boundary=tl.InflowOutflow(k_in=0.02), fd=fd,
                                 record_every=steps)
        field, _ = tl.solve_lwr_godunov(sc)
        exact = tl.lwr_riemann_density(fd, 0.02, 0.2, 1000.0, horizon,
                                       grid.centers)
        errs.append(float(np.sum(np.abs(field.density[-1] - exact)) * dx))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = (err_god <= 0.03 and err_new <= 0.03
          and all(abs(o - 1.0) <= 0.3 for o in orders))
    report(3, ok, f"front rel err godunov {err_god:.3%}, platoon {err_new:.3%} "
                  f"(<=3%); L1 orders {orders[0]:.2f}, {orders[1]:.2f} (1 +- 0.3)")


def test_criterion_04_steady_state_equivalence():
    """Relaxation laws recover eta; IDM closed form; degenerate detection."""
    fd = TRI_FD
    k = np.linspace(0.01, 0.2, 60)
    worst = 0.0
    for law in (tl.make_ovm(0.7, fd), tl.make_fvdm(0.7, 0.8, fd),
                tl.make_gfm(1.0, 0.4, 2.0, 1.0, 10.0, fd)):
        curve = tl.fundamental_diagram_of(law, k)
        worst = max(worst, float(np.max(np.abs(curve.v - fd.eta(k)))))

    idm = tl.make_idm(1.0, 1.0, 4, 30.0, 1.0, 2.0)
    inv_err = 0.0
    for v_target in (5.0, 15.0, 25.0):
        k_cf = tl.idm_closed_form_density(v_target, 30.0, 1.0, 2.0, 4)
        res = tl.solve_equilibrium_speed(idm, k_cf)
        inv_err = max(inv_err, abs(res.speed - v_target))

    # large-exponent limit, sampled on the congested branch away from the
    # kink where the two-branch form is the pointwise limit
    idm200 = tl.make_idm(1.0, 1.0, 200, 30.0, 1.0, 2.0)
    lim_err = 0.0
    for v_target in np.linspace(3.0, 27.0, 9):
        k_cf = tl.idm_closed_form_density(v_target, 30.0, 1.0, 2.0, 200)
        v_min_form = min(30.0, (1.0 / k_cf - 2.0) / 1.0)
        res = tl.solve_equilibrium_speed(idm200, k_cf)
        lim_err = max(lim_err, abs(res.speed - v_min_form) / v_min_form)

    deg_lin = tl.solve_equilibrium_speed(tl.make_linear_gm(1.5), 0.05).status
    deg_arz = tl.solve_equilibrium_speed(tl.make_arz_cf(GS_FD), 0.05).status
    ok = (worst <= 1e-9 and inv_err <= 1e-6 and lim_err <= 0.005
          and deg_lin is tl.EquilibriumStatus.DEGENERATE
          and deg_arz is tl.EquilibriumStatus.DEGENERATE)
    report(4, ok, f"eta recovery {worst:.2e} (<=1e-9), IDM inversion {inv_err:.2e} "
                  f"(<=1e-6), delta=200 limit {lim_err:.2%} (<=0.5%), "
                  f"degenerate: {deg_lin.value}/{deg_arz.value}")


def measured_amplitude_ratios(law, v0, s0, omegas, dt=0.01, settle=40.0, periods=8):
    """Follower/leader amplitude ratio at each frequency, from one batched run.

    Every member runs to the longest horizon and is cut back to its own steps;
    each member is bitwise its own run, so the ratios are those of separate runs.
    """
    eps = 0.01 * v0
    leaders = [tl.SinusoidLeader(v0, eps, omega) for omega in omegas]
    n_settle = int(round(settle / dt))
    n_meas = [int(round(periods * 2 * math.pi / omega / dt)) for omega in omegas]
    init = tl.uniform_platoon(3, s0, v0)
    surfaces = tl.simulate_platoons([(law, init, leader) for leader in leaders], dt,
                                    n_settle + max(n_meas))
    ratios = []
    for omega, n, surf in zip(omegas, n_meas, surfaces):
        surf = surf.slice_steps(0, n_settle + n + 1)
        t = surf.times[n_settle:]
        v1 = surf.speed_matrix()[n_settle:, 1] - v0
        ratios.append(2.0 * np.abs(np.mean(v1 * np.exp(-1j * omega * t))) / eps)
    return ratios


def test_criterion_05_string_stability():
    """Verdict flips at half the time gap; simulation matches the ratio."""
    fd = TRI_FD
    v0, s0 = 5.0, 10.0

    lo, hi = 0.1, 0.9  # relaxation times bracketing the flip
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tl.string_stability_classic(tl.make_ovm(mid, fd), v0, s0):
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)
    flip_err = abs(boundary - 0.5 * fd.time_gap)

    free_ok = all(tl.string_stability_classic(tl.make_ovm(T, fd), 20.0, 50.0)
                  and tl.string_stability_exact(tl.make_ovm(T, fd), 20.0, 50.0).stable
                  for T in (0.2, 1.0, 5.0))

    worst_sim = 0.0
    omegas = (0.2, 0.5, 1.0, 2.0, 4.0)
    for law in (tl.make_ovm(0.4, fd), tl.make_fvdm(0.6, 0.5, fd)):
        for omega, measured in zip(omegas, measured_amplitude_ratios(law, 7.5, 12.5, omegas)):
            predicted = abs(tl.amplification_ratio(law, 7.5, 12.5, omega))
            worst_sim = max(worst_sim, abs(measured - predicted) / predicted)

    ok = flip_err <= 1e-6 * fd.time_gap and free_ok and worst_sim <= 0.03
    report(5, ok, f"flip at T={boundary:.8f} (err {flip_err:.1e} <= 1e-6 tau), "
                  f"free-flow stable, sim-vs-ratio worst {worst_sim:.2%} (<=3%)")


def test_criterion_06_classic_vs_exact_string_criterion():
    """Without a gap-rate term the criteria agree; with one they can differ."""
    fd = TRI_FD
    agree = 0
    states = [(v, s) for v in np.linspace(1.0, 19.0, 10)
              for s in np.linspace(6.0, 45.0, 5)]
    law = tl.make_ovm(0.45, fd)
    for v0, s0 in states:
        classic = tl.string_stability_classic(law, v0, s0)
        exact = tl.string_stability_exact(law, v0, s0)
        agree += (classic == exact.stable)

    fvdm = tl.make_fvdm(1.0, 0.6, fd)
    classic = tl.string_stability_classic(fvdm, 5.0, 10.0)
    exact = tl.string_stability_exact(fvdm, 5.0, 10.0)
    disagreement = (classic != exact.stable)
    _, sweep_max = reference_sweep(*tl.partials_at(fvdm, 5.0, 10.0, 0.0))
    sweep_sides_with_exact = (sweep_max <= 1.0 + 1e-6) == exact.stable

    ok = agree == 50 and disagreement and sweep_sides_with_exact
    report(6, ok, f"agreement {agree}/50 without gap-rate term; documented "
                  f"disagreement (classic={classic}, exact={exact.stable}); sweep max "
                  f"{sweep_max:.6f} sides with exact")


def test_criterion_07_continuum_linear_stability():
    """Printed coefficient condition matches the root oracle; relaxation
    continuum is infeasible at every state."""
    from test_stability import synthetic_law
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(50):
        law = synthetic_law(-rng.uniform(0.1, 3.0), rng.uniform(-1.0, 2.0),
                            rng.uniform(-0.5, 1.5))
        res = tl.continuum_linear_stability(law, rng.uniform(2.0, 20.0),
                                            rng.uniform(6.0, 40.0))
        hits += (res.stable_criterion == res.stable_roots)

    fd = TRI_FD
    ovm_all_unstable = True
    for T in (0.2, 0.4, 0.8):
        law = tl.make_ovm(T, fd)
        for k in np.linspace(0.02, 0.19, 12):
            res = tl.continuum_linear_stability(law, float(fd.eta(k)), 1.0 / k)
            if res.stable_criterion or res.stable_roots:
                ovm_all_unstable = False
    ok = hits == 50 and ovm_all_unstable
    report(7, ok, f"root oracle agreement {hits}/50; relaxation continuum "
                  f"unstable at all 36 sampled states (infeasible condition)")


def test_criterion_08_conservation_over_long_runs():
    """Periodic runs of both solvers conserve vehicles to 1e-10 relative."""
    fd = TRI_FD
    grid = tl.SpatialGrid(0.0, 10.0, 200)
    k0 = 0.06 + 0.03 * np.sin(2 * np.pi * np.arange(200) / 200)
    sc = tl.EulerianScenario(grid=grid, dt=0.2, steps=10_000,
                             initial_density=k0, fd=fd, record_every=500)
    field, _ = tl.solve_lwr_godunov(sc)
    totals = [tl.total_vehicles(field, i) for i in range(field.n_steps)]
    drift_lwr = (max(totals) - min(totals)) / totals[0]

    law = tl.make_ovm(1.0, fd)
    grid2 = tl.SpatialGrid(0.0, 10.0, 100)
    k0b = 0.08 * (1 + 0.02 * np.sin(2 * np.pi * np.arange(100) / 100))
    sc2 = tl.EulerianScenario(grid=grid2, dt=0.2, steps=10_000,
                              initial_density=k0b, initial_speed=fd.eta(k0b),
                              law=law, record_every=500)
    field2, _ = tl.solve_second_order(sc2)
    totals2 = [tl.total_vehicles(field2, i) for i in range(field2.n_steps)]
    drift_2nd = (max(totals2) - min(totals2)) / totals2[0]

    ok = drift_lwr <= 1e-10 and drift_2nd <= 1e-10
    report(8, ok, f"relative drift over 10^4 steps: first-order {drift_lwr:.2e}, "
                  f"second-order {drift_2nd:.2e} (<=1e-10)")


def test_criterion_09_transform_identity_convergence():
    """Every implemented identity row converges at order >= 1 across three
    joint refinements of the synthetic wavy surface."""
    levels = identity_row_levels(3)
    orders = {}
    ok = True
    for row in TRANSFORM_IDENTITY_ROWS:
        o1 = math.log2(levels[0][row] / levels[1][row])
        o2 = math.log2(levels[1][row] / levels[2][row])
        orders[row] = min(o1, o2)
        ok = ok and orders[row] >= 1.0
    worst_row = min(orders, key=orders.get)
    report(9, ok, f"{len(TRANSFORM_IDENTITY_ROWS)} rows, min order {orders[worst_row]:.2f} "
                  f"({worst_row}) across 3 refinements (>= 1 required)")


def test_criterion_10_second_order_equivalence():
    """Stable-side paired ring run within the 5% terminal threshold at the
    finest configured resolution; equilibrium controls at 1e-8."""
    fd = TRI_FD
    law = tl.make_ovm(0.4, fd)
    ring = RingScenario(circumference=1000.0, k0=0.08, amplitude=0.01,
                        horizon=60.0, dt_cf=0.025, dt_pde=0.125,
                        compare_points=24, threshold=0.05)
    finest = DEMO_CONFIG["suite"]["resolutions"][-1]
    rep = tl.compare_second_order(law, ring, finest)
    control = tl.compare_second_order(
        law, RingScenario(**{**ring.__dict__, "amplitude": 0.0}), finest)
    ok = (rep.verdict == "within-threshold"
          and rep.linf_k <= 0.05 * ring.k0
          and control.linf_k <= 1e-8 and control.linf_v <= 1e-8)
    report(10, ok, f"stable side terminal Linf {rep.linf_k / ring.k0:.3%} of k0 "
                   f"(<=5%) at cells={finest}; control {control.linf_k:.1e}/"
                   f"{control.linf_v:.1e} (<=1e-8)")


def test_criterion_11_cli_determinism(tmp_path):
    """Identical configs produce byte-identical CSV outputs."""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(DEMO_CONFIG))
    identical = True
    for cmd in ("fd", "steady", "stability", "simulate-cf", "simulate-pde"):
        assert cli_main([cmd, "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert cli_main([cmd, "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    compared = 0
    for path in sorted((tmp_path / "a").iterdir()):
        compared += 1
        if path.read_bytes() != (tmp_path / "b" / path.name).read_bytes():
            identical = False
    report(11, identical and compared >= 5,
           f"{compared} output files byte-identical across repeated runs")
