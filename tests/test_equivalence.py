"""Paired vehicle/continuum runs and the suite machinery."""

import copy
import math

import numpy as np
import pytest

from trafficlab import (AccelerationLaw, ConfigurationError, EvaluationError, equivalence,
                        GaussianBumpProfile, RiemannProfile, RingScenario, SuiteEntry,
                        TriangularDiagram, UniformProfile, compare_lwr,
                        compare_second_order, make_fvdm, make_linear_gm, make_ovm,
                        run_suite, simulate_platoons, solve_second_order,
                        solve_second_order_batch)
from trafficlab.cli import DEMO_CONFIG, SUMMARY_COLUMNS, write_summary_csv
from trafficlab.config import build_suite
from trafficlab.equivalence import (_arm_run, _isolated, _mode_amplitude,
                                    _prepare_second_order, analytic_lwr_density)

from conftest import TRI, assert_bits_equal
from test_continuum import FVDM, OVM, assert_same_run, ring_member, standalone


RING = RingScenario(circumference=1000.0, k0=0.08, amplitude=0.01,
                    horizon=60.0, dt_cf=0.025, dt_pde=0.125, compare_points=24)


def reference_mode_amplitude(k_rows):
    """Harmonic 1's amplitude, one rfft and one complex abs() per row."""
    return np.array([2.0 * abs(np.fft.rfft(row)[1]) / row.size for row in k_rows])


@pytest.mark.parametrize("cells", [10, 20, 40, 80])
def test_mode_amplitude_matches_per_row_reference(cells, rng):
    k_rows = 0.08 + 0.01 * rng.standard_normal((25, cells))
    assert_bits_equal(_mode_amplitude(k_rows), reference_mode_amplitude(k_rows))


def test_mode_amplitude_matches_per_row_reference_on_a_demo_field():
    doc = copy.deepcopy(DEMO_CONFIG)
    doc["suite"]["ring"].update(horizon=18.0)
    entry = build_suite(doc)[3]  # the unstable OVM arm at 10 cells
    member, *run = _arm_run(entry.law, entry.ring)
    surface = simulate_platoons([member], *run)[0]
    cf_field, scenario = _prepare_second_order(entry.law, entry.ring, entry.cells, surface)
    for k_rows in (cf_field.density, solve_second_order(scenario)[0].density):
        assert_bits_equal(_mode_amplitude(k_rows), reference_mode_amplitude(k_rows))


class TestFirstOrder:
    def test_uniform_is_stationary_both_arms(self, tri):
        rep = compare_lwr(tri, UniformProfile(0.05), 0.0, 1000.0, 30.0, [10.0])
        entry = rep.entries[0]
        assert entry.l1_godunov <= 1e-12
        assert entry.l1_inter_arm <= 1e-9

    def test_shock_front_agreement(self, tri):
        rep = compare_lwr(tri, RiemannProfile(0.02, 0.2, 0.0),
                          -2400.0, 400.0, 900.0, [10.0])
        entry = rep.entries[0]
        assert rep.front_error_rel(entry.front_godunov) <= 0.03
        assert rep.front_error_rel(entry.front_newell) <= 0.03
        # fronts also agree with each other within max(dx, spacing)
        assert abs(entry.front_godunov - entry.front_newell) <= max(10.0, 50.0)

    def test_smooth_congested_inter_arm_convergence(self, tri):
        profile = GaussianBumpProfile(0.1, 0.03, 1500.0, 200.0)
        rep = compare_lwr(tri, profile, 0.0, 3000.0, 60.0, [40.0, 20.0, 10.0])
        l1 = [e.l1_inter_arm for e in rep.entries]
        orders = [math.log2(l1[i] / l1[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 1.0) <= 0.3

    def test_platoon_arm_tracks_advected_profile(self, tri):
        # fully congested data advects backward at exactly w; the spacing-rule
        # arm resolves it to vehicle quantization, far below the grid arm
        profile = GaussianBumpProfile(0.1, 0.03, 1500.0, 200.0)
        rep = compare_lwr(tri, profile, 0.0, 3000.0, 60.0, [20.0])
        entry = rep.entries[0]
        assert entry.l1_newell < 0.2 * entry.l1_godunov

    @pytest.mark.parametrize("dx", [40.0, 20.0, 10.0])
    def test_bump_error_is_the_upwind_map_power(self, tri, dx, monkeypatch):
        """On the congested branch Godunov is the linear map
        k_i <- (1 - c) k_i + c k_{i+1}, c = w dt / dx: the inflow row has the
        same form (a congested inflow density demands the capacity) and the
        last cell holds its density. That map raised to the run's step count
        predicts ``l1_godunov`` against the analytic advection to 1e-9
        relative, while the bump (center 1500 -> 1200 m, sigma 200 m) stays
        clear of both ends of [0, 3000]. Out of scope: states that cross k_c,
        where the flux switches branch and the scheme is not linear."""
        profile = GaussianBumpProfile(0.1, 0.03, 1500.0, 200.0)
        scenarios, solve = [], equivalence.solve_lwr_godunov

        def recorded(scenario):
            scenarios.append(scenario)
            return solve(scenario)

        monkeypatch.setattr(equivalence, "solve_lwr_godunov", recorded)
        rep = compare_lwr(tri, profile, 0.0, 3000.0, 60.0, [dx])
        (sc,) = scenarios
        k0, cells, centers = sc.initial_density, sc.grid.cells, sc.grid.centers
        assert min(np.min(k0), sc.boundary.k_in) > tri.critical_density
        analytic = analytic_lwr_density(tri, profile, rep.horizon, centers)
        for ends in (k0[[0, -1]], analytic[[0, -1]]):
            assert np.all(np.abs(ends - 0.1) <= 1e-12)
        c = tri.w * sc.dt / sc.grid.dx
        step = (1.0 - c) * np.eye(cells) + c * np.eye(cells, k=1)
        step[-1, -1] = 1.0
        k_map = np.linalg.matrix_power(step, sc.steps) @ k0
        predicted = float(np.sum(np.abs(k_map - analytic)) * sc.grid.dx)
        assert rep.entries[0].l1_godunov == pytest.approx(predicted, rel=1e-9, abs=0.0)


class TestSecondOrder:
    def test_equilibrium_control_is_exact(self, tri):
        law = make_ovm(0.4, tri)
        ring = RingScenario(**{**RING.__dict__, "amplitude": 0.0})
        rep = compare_second_order(law, ring, 40)
        assert rep.linf_k <= 1e-8
        assert rep.linf_v <= 1e-8
        assert rep.verdict == "within-threshold"

    def test_stable_side_within_threshold(self, tri):
        rep = compare_second_order(make_ovm(0.4, tri), RING, 40)
        assert rep.verdict == "within-threshold"
        assert rep.linf_k <= 0.05 * RING.k0
        # the platoon decays while the continuum arm grows: the report must
        # surface the sign disagreement rather than hide it
        assert rep.growth_cf < 0 < rep.growth_pde

    def test_vehicle_counts_agree_between_arms(self, tri):
        # both arms carry the seeded vehicle count: the platoon by
        # construction, the grid by discrete conservation
        from trafficlab import (EulerianScenario, Periodic, Ring, SpatialGrid,
                                TrajectorySurface, simulate_continuous,
                                solve_second_order, to_eulerian, total_vehicles)
        from trafficlab.equivalence import ring_initial_state
        law = make_ovm(0.4, tri)
        init = ring_initial_state(law, RING)
        grid = SpatialGrid(0.0, RING.circumference / 40, 40)
        seed_surface = TrajectorySurface(
            t0=0.0, dt=1.0, positions=init.positions[None, :],
            speeds=init.speeds[None, :], ring_length=RING.circumference)
        seed = to_eulerian(seed_surface, grid)
        surf = simulate_continuous(law, init, Ring(RING.circumference),
                                   RING.dt_cf, 2400)
        cf_field = to_eulerian(surf.slice_steps(2400, 2401), grid)
        sc = EulerianScenario(grid=grid, dt=RING.dt_pde, steps=480,
                              initial_density=seed.density[0],
                              initial_speed=seed.speed[0], boundary=Periodic(),
                              law=law, record_every=480)
        pde_field, _ = solve_second_order(sc)
        n = init.n_vehicles
        assert total_vehicles(cf_field, 0) == pytest.approx(n, abs=1.0)
        assert total_vehicles(pde_field, -1) == pytest.approx(n, abs=1.0)

    def test_fvdm_growth_signs_reported(self, tri):
        rep = compare_second_order(make_fvdm(0.6, 0.5, tri), RING, 40)
        assert math.isfinite(rep.growth_cf) and math.isfinite(rep.growth_pde)
        assert rep.growth_cf < 0 < rep.growth_pde

    @pytest.mark.parametrize("law, change, fault", [
        (None, dict(dt_cf=0.07, dt_pde=0.11), "dt_cf: dt=0.07 does not divide horizon 12"),
        (None, dict(dt_pde=0.11, k0=0.0811), "dt_pde: dt=0.11 does not divide horizon 12"),
        (None, dict(compare_points=7), "compare_points: must divide both step counts"),
        (make_linear_gm(1.0), {},
         "linear_gm has no unique steady state at k0=0.08 (degenerate)"),
        (None, dict(amplitude=0.9), "spacing below minimum at t=0 s, vehicle 29"),
    ], ids=["dt_cf", "dt_pde", "compare_points", "degenerate", "collision"])
    def test_faults_take_the_same_precedence_directly_and_in_suite(self, tri, law,
                                                                   change, fault):
        # Where a case breaks two checks, the one checked first names the fault.
        base = RingScenario(**{**RING.__dict__, "horizon": 12.0, "name": "broken"})
        ring = RingScenario(**{**base.__dict__, **change})
        law = law or make_ovm(0.4, tri)
        entries = [SuiteEntry("broken", make_ovm(0.4, tri), base, 20),
                   SuiteEntry("broken", law, ring, 20)]
        if fault.startswith("spacing"):
            report = compare_second_order(law, ring, 20)
            assert (report.verdict, report.fault) == ("incomparable", fault)
            reports = run_suite(entries)
            assert reports[1] == report and reports[0].verdict == "within-threshold"
            return
        with pytest.raises(ConfigurationError) as alone:
            compare_second_order(law, ring, 20)
        with pytest.raises(ConfigurationError) as suite:
            run_suite(entries)
        assert str(alone.value) == str(suite.value) == fault

    def test_one_batch_call_per_arm(self, tri, monkeypatch):
        from trafficlab import equivalence
        calls = []

        def counting(run):
            def counted(members, *args):
                calls.append((run.__name__, len(members)))
                return run(members, *args)
            return counted

        for name in ("simulate_platoons", "solve_second_order_batch"):
            monkeypatch.setattr(equivalence, name, counting(getattr(equivalence, name)))
        ring = RingScenario(**{**RING.__dict__, "horizon": 12.0})
        report = compare_second_order(make_ovm(0.4, tri), ring, 20)
        assert report.verdict == "within-threshold"
        assert calls == [("simulate_platoons", 1), ("solve_second_order_batch", 1)]

    def test_non_integer_vehicle_count_rejected(self, tri):
        ring = RingScenario(circumference=1000.0, k0=0.0811, amplitude=0.01,
                            horizon=60.0, dt_cf=0.025, dt_pde=0.125)
        from trafficlab import ConfigurationError
        with pytest.raises(ConfigurationError):
            compare_second_order(make_ovm(0.4, tri), ring, 20)


class TestSuite:
    def entries(self, tri, scenarios=("stable", "unstable"), cells=(10, 20, 40)):
        laws = {"stable": make_ovm(0.4, tri), "unstable": make_ovm(0.7, tri)}
        return [SuiteEntry(scenario=s, law=laws[s], ring=RING, cells=c)
                for s in scenarios for c in cells]

    def test_cartesian_report_count(self, tri):
        entries = self.entries(tri)
        reports = run_suite(entries)
        assert len(reports) == 6

    def test_empty_suite(self):
        assert run_suite([]) == []

    def test_fault_isolation(self, tri):
        entries = self.entries(tri, scenarios=("stable",), cells=(20,))
        crash = RingScenario(**{**RING.__dict__, "horizon": 12.0, "amplitude": 0.9})
        entries.insert(0, SuiteEntry(scenario="broken", law=make_ovm(0.4, tri),
                                     ring=crash, cells=20))
        reports = run_suite(entries)
        assert reports[0].verdict == "incomparable"
        assert reports[0].fault.startswith("spacing below minimum")
        assert reports[0].pde_stats is None
        assert reports[1].verdict != "incomparable"

    def test_car_following_arm_shared_across_resolutions(self, tri, monkeypatch):
        from trafficlab import equivalence
        ring = RingScenario(**{**RING.__dict__, "horizon": 12.0})
        laws = {"stable": make_ovm(0.4, tri), "unstable": make_ovm(0.7, tri)}
        entries = [SuiteEntry(scenario=s, law=laws[s], ring=ring, cells=c)
                   for s in laws for c in (10, 20, 40)]
        standalone = [compare_second_order(
            e.law, RingScenario(**{**ring.__dict__, "name": e.scenario}), e.cells)
            for e in entries]
        batches, continuum = [], []

        def counting(members, *args, **kwargs):
            batches.append([law.name for law, _, _ in members])
            return simulate(members, *args, **kwargs)

        def counting_continuum(scenarios):
            continuum.append([sc.grid.cells for sc in scenarios])
            return solve(scenarios)

        simulate = equivalence.simulate_platoons
        solve = equivalence.solve_second_order_batch
        monkeypatch.setattr(equivalence, "simulate_platoons", counting)
        monkeypatch.setattr(equivalence, "solve_second_order_batch", counting_continuum)
        reports = run_suite(entries)
        # one batched integration, with one member per distinct (law, ring)
        assert batches == [["ovm", "ovm"]]
        # one continuum batch of every resolution's arms, in entry order
        assert continuum == [[10, 20, 40, 10, 20, 40]]
        assert all(math.isfinite(r.growth_cf) for r in reports)
        assert reports == standalone
        # an equal law on a different ring is still its own member
        other = RingScenario(**{**ring.__dict__, "amplitude": 0.02})
        run_suite(entries[:1] + [SuiteEntry("stable", laws["stable"], other, 10)])
        assert batches[1:] == [["ovm", "ovm"]]

    def test_arms_the_solver_refuses_to_batch_run_alone(self, tri, monkeypatch):
        # Equal step size, step count and stride, but 80 and 40 vehicles:
        # simulate_platoons refuses the batch, so each arm runs by itself.
        from trafficlab import equivalence
        law = make_ovm(0.4, tri)
        rings = [RingScenario(**{**RING.__dict__, "horizon": 12.0, "circumference": length,
                                 "name": f"ring{length:g}"}) for length in (1000.0, 500.0)]
        standalone = [compare_second_order(law, ring, 20) for ring in rings]
        calls = []

        def counting(members, *args):
            calls.append(len(members))
            return simulate(members, *args)

        simulate = equivalence.simulate_platoons
        monkeypatch.setattr(equivalence, "simulate_platoons", counting)
        reports = run_suite([SuiteEntry(ring.name, law, ring, 20) for ring in rings])
        assert calls == [2, 1, 1]
        assert reports == standalone
        assert all(report.verdict == "within-threshold" for report in reports)

    @pytest.mark.parametrize("law, amplitude", [
        pytest.param(make_ovm(0.4, TriangularDiagram(**TRI)), 0.9, id="collision"),
    ])
    def test_failing_arm_reported_at_every_resolution(self, law, amplitude):
        ring = RingScenario(**{**RING.__dict__, "horizon": 12.0,
                               "amplitude": amplitude, "name": "broken"})
        entries = [SuiteEntry(scenario="broken", law=law, ring=ring, cells=c)
                   for c in (10, 20, 40)]
        reports = run_suite(entries)
        for entry, report in zip(entries, reports):
            alone = compare_second_order(law, ring, entry.cells)
            assert report.verdict == "incomparable"
            assert report.fault == alone.fault != ""
            assert report.resolution == f"cells={entry.cells}"

    def test_failing_arm_integrated_once(self, monkeypatch):
        from trafficlab import equivalence
        law = make_ovm(0.4, TriangularDiagram(**TRI))
        ring = RingScenario(**{**RING.__dict__, "horizon": 12.0, "amplitude": 0.9,
                               "name": "broken"})
        calls = []

        def counting(members, *args, **kwargs):
            calls.append(len(members))
            return simulate(members, *args, **kwargs)

        simulate = equivalence.simulate_platoons
        monkeypatch.setattr(equivalence, "simulate_platoons", counting)
        reports = run_suite([SuiteEntry("broken", law, ring, c) for c in (10, 20, 40)])
        # the arm's collision is carried to all three reports, not run again
        assert calls == [1]
        assert len({r.fault for r in reports}) == 1
        assert reports[0].fault.startswith("spacing below minimum")

    def test_failing_arm_in_a_batch_keeps_its_own_fault(self, tri, monkeypatch):
        from trafficlab import equivalence
        broken = make_ovm(0.4, TriangularDiagram(**TRI))
        ring = RingScenario(**{**RING.__dict__, "horizon": 12.0})
        crash = RingScenario(**{**ring.__dict__, "amplitude": 0.9})
        entries = [SuiteEntry("stable", make_ovm(0.4, tri), ring, 10),
                   SuiteEntry("broken", broken, crash, 10),
                   SuiteEntry("unstable", make_ovm(0.7, tri), ring, 10)]
        standalone = [compare_second_order(
            e.law, RingScenario(**{**e.ring.__dict__, "name": e.scenario}), e.cells)
            for e in entries]
        calls = []

        def counting(members, *args, **kwargs):
            calls.append(len(members))
            return simulate(members, *args, **kwargs)

        simulate = equivalence.simulate_platoons
        monkeypatch.setattr(equivalence, "simulate_platoons", counting)
        reports = run_suite(entries)
        assert reports == standalone
        assert [r.verdict == "incomparable" for r in reports] == [False, True, False]
        assert "member" not in reports[1].fault
        # the batch, then each arm alone: the failing arm runs twice
        assert calls == [3, 1, 1, 1]

    def test_faulty_continuum_members_keep_their_own_outcomes(self):
        def raise_fast(v, s, dv):
            if np.max(v) > 6.0:
                raise EvaluationError("speed above 6 m/s")
            return np.where(v > 4.0, 0.5, 0.5 * (3.0 - v))

        flat = (lambda v, s, dv: (0.0 * v, 0.0 * v, 0.0 * v))
        raiser = AccelerationLaw("raiser", {}, raise_fast, flat, v_free=20.0)
        blowup = AccelerationLaw("blowup", {}, lambda v, s, dv: np.where(v > 7.0, np.inf, 0.5),
                                 flat, v_free=20.0)
        # cells so wide that every member takes one substep per step
        members = [ring_member(OVM, 0.08, 0.05, 3.0, dx=40.0),
                   ring_member(raiser, 0.05, 0.0, 5.0, dx=40.0),  # raises after 2 s
                   ring_member(raiser, 0.05, 0.0, 1.0, dx=40.0),  # settles at 3 m/s
                   ring_member(blowup, 0.05, 0.0, 5.0, dx=40.0),  # non-finite after 4 s
                   ring_member(OVM, 0.08, 0.05, 80.0, dx=40.0),  # refused by the CFL check
                   ring_member(FVDM, 0.08, 0.05, 3.0, dx=40.0)]
        # the batch stops at the first fault, the CFL check before any step
        with pytest.raises(ConfigurationError, match="^dt: CFL number"):
            solve_second_order_batch(members)
        results = _isolated(solve_second_order_batch, members)
        for sc, got in zip(members, results):
            own = standalone(sc)
            if isinstance(own, Exception):
                assert type(got) is type(own) and str(got) == str(own)
            else:
                assert_same_run(got, own)
        faults = [type(r).__name__ for r in results if isinstance(r, Exception)]
        assert faults == ["EvaluationError", "SolverFault", "ConfigurationError"]
        assert str(results[1]) == "speed above 6 m/s"
        assert str(results[3]) == "non-finite solution (step 9, cell 0)"

    def test_faulty_continuum_arm_keeps_its_own_fault(self, monkeypatch):
        from trafficlab import equivalence
        doc = copy.deepcopy(DEMO_CONFIG)
        doc["suite"]["ring"].update(horizon=12.0, compare_points=4, dt_pde=1.5)
        doc["suite"]["resolutions"] = [40]
        entries = build_suite(doc)
        # at dt_pde 1.5 s only the stable IDM arm breaks the continuum CFL limit
        alone = []
        for e in entries:
            ring = RingScenario(**{**e.ring.__dict__, "name": e.scenario})
            try:
                alone.append(compare_second_order(e.law, ring, e.cells).verdict)
            except ConfigurationError as exc:
                alone.append(str(exc))
        assert alone == ["within-threshold"] * 4 + [
            "dt_pde: CFL number 1.251 exceeds 0.9", "within-threshold"]
        calls = []

        def counting(scenarios):
            calls.append(len(scenarios))
            return solve(scenarios)

        solve = equivalence.solve_second_order_batch
        monkeypatch.setattr(equivalence, "solve_second_order_batch", counting)
        with pytest.raises(ConfigurationError) as suite:
            run_suite(entries)
        assert str(suite.value) == alone[4]
        # the batch, then each arm alone
        assert calls == [6, 1, 1, 1, 1, 1, 1]

    def test_demo_batches_arrive_as_neighbouring_stacks(self, monkeypatch):
        """The demo suite sends one car-following batch of its six laws and one
        continuum batch of all 18 arms, each as two stacks of neighbours (its
        OVM and FVDM members share the relaxation kernel, its IDMs the other):
        an entry order that split a stack, or a batch key that a solver refused
        (so that every member ran alone), would change these counts."""
        from trafficlab import continuum, laws, platoon
        doc = copy.deepcopy(DEMO_CONFIG)
        doc["suite"]["ring"].update(horizon=2.0, compare_points=4)
        batches = []

        def recording(module):
            def law_spans(members):
                spans = laws.law_spans(members)
                batches.append((module.__name__, len(members), len(spans)))
                return spans
            return law_spans

        for module in (platoon, continuum):
            monkeypatch.setattr(module, "law_spans", recording(module))
        reports = run_suite(build_suite(doc))
        assert all(report.verdict != "incomparable" for report in reports)
        assert batches == [("trafficlab.platoon", 6, 2), ("trafficlab.continuum", 18, 2)]

    def test_demo_reports_carry_each_continuum_arms_own_counters(self):
        doc = copy.deepcopy(DEMO_CONFIG)
        doc["suite"]["ring"].update(horizon=12.0, compare_points=4)
        entries = build_suite(doc)
        reports = run_suite(entries)
        for entry, report in zip(entries, reports):
            member, *run = _arm_run(entry.law, entry.ring)
            surface = simulate_platoons([member], *run)[0]
            _, scenario = _prepare_second_order(entry.law, entry.ring, entry.cells, surface)
            own = solve_second_order(scenario)[1]
            assert report.pde_stats == own
            assert own.substeps >= scenario.steps

    def test_summary_csv(self, tri, tmp_path):
        reports = run_suite(self.entries(tri, cells=(10,)))
        path = tmp_path / "summary.csv"
        write_summary_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == len(reports) + 1
