"""Paired vehicle/continuum runs and the suite machinery."""

import copy
import math

import numpy as np
import pytest

from trafficlab import (AccelerationLaw, ConfigurationError, EvaluationError,
                        GaussianBumpProfile, RiemannProfile, RingScenario, SuiteEntry,
                        TriangularDiagram, UniformProfile, compare_lwr,
                        compare_second_order, make_fvdm, make_linear_gm, make_ovm,
                        run_suite, solve_second_order_batch)
from trafficlab.cli import DEMO_CONFIG, SUMMARY_COLUMNS, write_summary_csv
from trafficlab.config import build_suite
from trafficlab.equivalence import _isolated

from conftest import TRI
from test_continuum import FVDM, OVM, assert_same_run, ring_member, standalone


RING = RingScenario(circumference=1000.0, k0=0.08, amplitude=0.01,
                    horizon=60.0, dt_cf=0.025, dt_pde=0.125, compare_points=24)


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
        (None, dict(compare_points=7), "compare_points must divide both step counts"),
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
        # one continuum batch per resolution, with one member per law
        assert continuum == [[10, 10], [20, 20], [40, 40]]
        assert all(math.isfinite(r.growth_cf) for r in reports)
        assert reports == standalone
        # an equal law on a different ring is still its own member
        other = RingScenario(**{**ring.__dict__, "amplitude": 0.02})
        run_suite(entries[:1] + [SuiteEntry("stable", laws["stable"], other, 10)])
        assert batches[1:] == [["ovm", "ovm"]]

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
        with pytest.raises(ConfigurationError, match="^CFL number"):
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
            "CFL number 1.251 exceeds 0.9 (reduce pde.dt)", "within-threshold"]
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

    def test_summary_csv(self, tri, tmp_path):
        reports = run_suite(self.entries(tri, cells=(10,)))
        path = tmp_path / "summary.csv"
        write_summary_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == len(reports) + 1
