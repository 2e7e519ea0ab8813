"""Paired vehicle/continuum experiments on matched scenarios.

Two harnesses quantify how closely the two representations of one model
agree:

* :func:`compare_lwr` -- spacing-rule platoon vs Godunov on the first-order
  model, measured against the analytic Riemann/advection solution where one
  exists.
* :func:`compare_second_order` -- RK4 ring platoon vs the upwind continuum
  solver, both from one ring platoon and its field: terminal error norms and
  the fundamental mode's growth rates (:func:`run_suite` plans, then runs).

Ring topology is used for the second-order comparison so that neither arm
needs a boundary condition, which would otherwise dominate the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import (EulerianScenario, Periodic, InflowOutflow, RunStats,
                        solve_lwr_godunov, solve_second_order_batch)
from .errors import (CollisionError, ConfigurationError, DomainError,
                     EvaluationError, SolverFault, at_paths)
from .fundamental import FundamentalDiagram, GreenshieldsDiagram, TriangularDiagram
from .laws import AccelerationLaw
from .platoon import (ConstantLeader, PlatoonState, Ring, _check_member,
                      simulate_newell, simulate_platoons)
from .steady_state import EquilibriumStatus, solve_equilibrium_speed
from .transforms import (EulerianField, SpatialGrid, TrajectorySurface, to_eulerian,
                         to_trajectories)


# ---------------------------------------------------------------------------
# Initial profiles and analytic first-order solutions


@dataclass(frozen=True)
class UniformProfile:
    k0: float

    def density(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.k0)


@dataclass(frozen=True)
class RiemannProfile:
    k_left: float
    k_right: float
    x_jump: float

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.x_jump, self.k_left, self.k_right)


@dataclass(frozen=True)
class GaussianBumpProfile:
    k0: float
    amplitude: float
    center: float
    sigma: float

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return self.k0 + self.amplitude * np.exp(-((x - self.center) / self.sigma) ** 2)


def rankine_hugoniot_speed(fd: FundamentalDiagram, k_l: float, k_r: float) -> float:
    """Jump speed (q_r - q_l) / (k_r - k_l) between two equilibrium states."""
    if k_l == k_r:
        raise DomainError("states coincide: no jump")
    return (fd.phi(k_r) - fd.phi(k_l)) / (k_r - k_l)


def lwr_riemann_density(fd: FundamentalDiagram, k_l: float, k_r: float,
                        x_jump: float, t: float, x) -> np.ndarray:
    """Entropy solution of the first-order Riemann problem at time ``t``.

    k_l < k_r gives a shock at the jump speed; k_l > k_r a rarefaction,
    which for the triangular diagram collapses to two fronts around a
    capacity-density plateau.
    """
    x = np.asarray(x, dtype=float)
    if k_l == k_r:
        return np.full_like(x, k_l)
    if t == 0.0:
        return np.where(x < x_jump, k_l, k_r)
    if k_l < k_r:
        s = rankine_hugoniot_speed(fd, k_l, k_r)
        return np.where(x < x_jump + s * t, k_l, k_r)
    xi = (x - x_jump) / t
    if isinstance(fd, TriangularDiagram):
        k_mid = fd.critical_density
        out = np.full_like(x, k_mid)
        out[xi <= -fd.w] = k_l
        out[xi >= fd.v_f] = k_r
        return out
    if isinstance(fd, GreenshieldsDiagram):
        c_l = fd.v_f * (1.0 - 2.0 * k_l / fd.k_j)
        c_r = fd.v_f * (1.0 - 2.0 * k_r / fd.k_j)
        fan = (1.0 - xi / fd.v_f) * fd.k_j / 2.0
        return np.where(xi <= c_l, k_l, np.where(xi >= c_r, k_r, fan))
    raise ConfigurationError("analytic rarefaction implemented for built-in diagrams only")


def analytic_lwr_density(fd, profile, t: float, x) -> np.ndarray | None:
    """Closed-form first-order solution where one exists, else None."""
    if isinstance(profile, UniformProfile):
        return np.full_like(np.asarray(x, dtype=float), profile.k0)
    if isinstance(profile, RiemannProfile):
        return lwr_riemann_density(fd, profile.k_left, profile.k_right,
                                   profile.x_jump, t, x)
    if isinstance(profile, GaussianBumpProfile) and isinstance(fd, TriangularDiagram):
        k = profile.density(np.asarray(x, dtype=float) + fd.w * t)
        # Pure backward advection holds only while the profile stays congested.
        if np.min(profile.density(x)) >= fd.critical_density:
            return k
    return None


def front_position(x_centers: np.ndarray, k: np.ndarray, k_mid: float) -> float:
    """Interpolated position of the first upward crossing of ``k_mid``."""
    below = k < k_mid
    for i in range(len(k) - 1):
        if below[i] and not below[i + 1]:
            w = (k_mid - k[i]) / (k[i + 1] - k[i])
            return float(x_centers[i] + w * (x_centers[i + 1] - x_centers[i]))
    raise DomainError("no density crossing found")


# ---------------------------------------------------------------------------
# First-order comparison


@dataclass(frozen=True)
class LwrResolutionEntry:
    dx: float
    l1_godunov: float
    l1_newell: float
    l1_inter_arm: float
    front_godunov: float
    front_newell: float


@dataclass(frozen=True)
class LwrEquivalenceReport:
    scenario: str
    horizon: float
    rh_speed: float
    front_predicted: float
    entries: tuple[LwrResolutionEntry, ...]

    def front_error_rel(self, front: float) -> float:
        travel = abs(self.rh_speed) * self.horizon
        return abs(front - self.front_predicted) / travel


def _seed_platoon_from_profile(fd, profile, x_lo: float, x_hi: float) -> PlatoonState:
    dx = 0.5  # m; cells of the density row that is inverted into the platoon
    ext_x = np.arange(x_lo, x_hi + dx, dx)
    k_row = profile.density(ext_x[:-1] + 0.5 * dx)
    grid_field = EulerianField(x0=x_lo, dx=dx, t0=0.0, dt=1.0,
                               density=k_row[None, :],
                               speed=np.zeros_like(k_row)[None, :])
    total = float(np.sum(k_row) * dx)
    n_veh = int(math.floor(total))
    surface = to_trajectories(grid_field, n_veh)
    x0_positions = surface.positions[0]
    speeds = fd.eta(profile.density(x0_positions))
    return PlatoonState(time=0.0, positions=x0_positions, speeds=speeds)


def compare_lwr(fd: FundamentalDiagram, profile, x_lo: float, x_hi: float,
                horizon: float, resolutions) -> LwrEquivalenceReport:
    """Run the platoon and Godunov arms of the first-order model side by side.

    The platoon is seeded by inverting the initial density over a domain
    extended far enough upstream that vehicles keep feeding the window for
    the whole horizon; the lead vehicle holds the equilibrium speed of the
    initial downstream density. Needs a triangular diagram (the spacing rule
    does). The horizon snaps to a whole number of time gaps.
    """
    fd = fd if isinstance(fd, TriangularDiagram) else None
    if fd is None:
        raise ConfigurationError("compare_lwr needs a triangular diagram")
    tau = fd.time_gap
    steps_newell = max(int(round(horizon / tau)), 1)
    horizon = steps_newell * tau

    riemann = isinstance(profile, RiemannProfile)
    if riemann:
        rh = rankine_hugoniot_speed(fd, profile.k_left, profile.k_right)
        front_pred = profile.x_jump + rh * horizon
        k_mid = 0.5 * (profile.k_left + profile.k_right)
    else:
        rh = math.nan
        front_pred = math.nan
        k_mid = math.nan

    upstream_ext = fd.v_f * horizon + 20.0 * fd.jam_spacing
    initial = _seed_platoon_from_profile(fd, profile, x_lo - upstream_ext, x_hi)
    v_lead = float(fd.eta(float(np.atleast_1d(profile.density(x_hi))[0])))
    newell_surface = simulate_newell(fd, initial, ConstantLeader(v_lead),
                                     steps_newell)
    tail = newell_surface.slice_steps(steps_newell - 1)

    entries = []
    for dx in resolutions:
        cells = int(round((x_hi - x_lo) / dx))
        if abs(cells * dx - (x_hi - x_lo)) > 1e-9:
            raise ConfigurationError(f"dx={dx:g} does not tile the domain")
        grid = SpatialGrid(x_lo, dx, cells)
        centers = grid.centers
        k_init = np.asarray(profile.density(centers), dtype=float)
        if isinstance(profile, UniformProfile):
            boundary = Periodic()
        else:
            boundary = InflowOutflow(k_in=float(k_init[0]))
        n_steps = max(int(math.ceil(horizon * fd.max_wave_speed() / (0.45 * dx))), 1)
        dt = horizon / n_steps
        scenario = EulerianScenario(grid=grid, dt=dt, steps=n_steps,
                                    initial_density=k_init, boundary=boundary,
                                    fd=fd, record_every=n_steps)
        field, _ = solve_lwr_godunov(scenario)
        k_god = field.density[-1]

        newell_field = to_eulerian(tail, grid)
        k_new = newell_field.density[-1]

        analytic = analytic_lwr_density(fd, profile, horizon, centers)
        if analytic is not None:
            l1_god = float(np.sum(np.abs(k_god - analytic)) * dx)
            l1_new = float(np.sum(np.abs(k_new - analytic)) * dx)
        else:
            l1_god = l1_new = math.nan
        l1_arm = float(np.sum(np.abs(k_god - k_new)) * dx)
        if riemann:
            f_god = front_position(centers, k_god, k_mid)
            f_new = front_position(centers, k_new, k_mid)
        else:
            f_god = f_new = math.nan
        entries.append(LwrResolutionEntry(dx=float(dx), l1_godunov=l1_god,
                                          l1_newell=l1_new, l1_inter_arm=l1_arm,
                                          front_godunov=f_god, front_newell=f_new))
    return LwrEquivalenceReport(scenario=type(profile).__name__, horizon=horizon,
                                rh_speed=rh, front_predicted=front_pred,
                                entries=tuple(entries))


# ---------------------------------------------------------------------------
# Second-order comparison


@dataclass(frozen=True)
class RingScenario:
    """Ring-road comparison setup shared by both arms.

    ``amplitude`` is the relative spacing perturbation of the fundamental
    (one wavelength per lap) mode; zero gives the equilibrium control case.
    ``threshold`` is the accepted terminal max density discrepancy as a
    fraction of the base density -- a calibration constant of this harness,
    not a property of the models.
    """

    circumference: float
    k0: float
    amplitude: float
    horizon: float
    dt_cf: float
    dt_pde: float
    compare_points: int = 24
    threshold: float = 0.05
    name: str = "ring"


@dataclass(frozen=True)
class EquivalenceReport:
    scenario: str
    model: str
    resolution: str
    l1_k: float
    linf_k: float
    l1_v: float
    linf_v: float
    growth_cf: float
    growth_pde: float
    verdict: str
    fault: str = ""
    pde_stats: RunStats | None = None  # the continuum arm's counters; None if incomparable


# The faults that make a report "incomparable"; any other exception propagates.
_RUN_FAULTS = (CollisionError, SolverFault, DomainError, EvaluationError)


def _mode_amplitude(k_rows: np.ndarray) -> np.ndarray:
    # One rfft(axis=1) gives each row's harmonic bit for bit as a per-row rfft.
    # The modulus is hypot, as Python's abs() of a complex: np.abs of a complex
    # array rounds differently in the last digit.
    h = np.fft.rfft(k_rows, axis=1)[:, 1]
    return 2.0 * np.hypot(h.real, h.imag) / k_rows.shape[1]


def _fit_growth(times: np.ndarray, amps: np.ndarray, k0: float) -> float:
    mask = (amps > 1e-12 * k0) & (amps < 0.2 * k0)
    if np.count_nonzero(mask) < 4:
        return math.nan
    return float(np.polyfit(times[mask], np.log(amps[mask]), 1)[0])


def ring_positions(scenario: RingScenario) -> np.ndarray:
    """The ring platoon's positions, front first: round(L k0) >= 1 vehicles
    evenly spaced, displaced by a one-lap sine of relative spacing
    ``amplitude``. A count that is not a whole number >= 1 is refused at ``k0``."""
    L, k0 = scenario.circumference, scenario.k0
    n = int(round(L * k0))
    if abs(n - L * k0) > 1e-9 or n < 1:
        raise ConfigurationError("circumference * k0 must be a whole vehicle count >= 1",
                                 path="k0")
    base = (n - 1 - np.arange(n)) * (L / n)
    disp = scenario.amplitude * L / (2.0 * math.pi)
    return base + disp * np.sin(2.0 * math.pi * base / L)


def ring_initial_state(law: AccelerationLaw, scenario: RingScenario) -> PlatoonState:
    """The :func:`ring_positions` platoon at the law's steady speed; a law with
    no unique steady state at k0 is refused at ``model``."""
    x = ring_positions(scenario)
    try:
        res = solve_equilibrium_speed(law, x.size / scenario.circumference)
        fault = None if res.status is EquilibriumStatus.OK else res.status.value
    except (DomainError, EvaluationError) as exc:  # e.g. k0 above the law's jam density
        fault = str(exc)
    if fault is not None:
        raise ConfigurationError(f"{law.name} has no unique steady state at "
                                 f"k0={scenario.k0:g} ({fault})", path="model")
    return PlatoonState(time=0.0, positions=x, speeds=np.full(x.size, res.speed))


def _ring_steps(scenario: RingScenario) -> tuple[int, int]:
    """The car-following and continuum step counts over the horizon."""
    horizon, steps = scenario.horizon, []
    for what, dt in (("dt_cf", scenario.dt_cf), ("dt_pde", scenario.dt_pde)):
        steps.append(int(round(horizon / dt)))
        if steps[-1] < 1 or abs(steps[-1] * dt - horizon) > 1e-9 * max(horizon, 1.0):
            raise ConfigurationError(f"dt={dt:g} does not divide horizon {horizon:g}",
                                     path=what)
    if any(n % scenario.compare_points for n in steps):
        raise ConfigurationError("must divide both step counts", path="compare_points")
    return steps[0], steps[1]


def compare_second_order(law: AccelerationLaw, scenario: RingScenario,
                         cells: int) -> EquivalenceReport:
    """One paired ring run at the given continuum resolution: the one-entry
    :func:`run_suite`. Both arms start from the ring platoon's initial state."""
    return run_suite([SuiteEntry(scenario.name, law, scenario, cells)])[0]


def _report(entry: SuiteEntry, run: EulerianScenario, surface, solved) -> EquivalenceReport:
    """The entry's report: incomparable, with NaN norms, at its arms' run fault
    (the car-following one's first); else both fields' fits, norms and verdict."""
    scenario, labels = entry.ring, (entry.scenario, entry.law.name, f"cells={entry.cells}")
    fault = next((r for r in (surface, solved) if isinstance(r, Exception)), None)
    if fault is not None:
        return EquivalenceReport(*labels, *[math.nan] * 6, "incomparable", str(fault))
    cf_field, (pde_field, pde_stats) = to_eulerian(surface, run.grid), solved
    n_cmp, dx = scenario.compare_points, run.grid.dx
    times = scenario.horizon * np.arange(n_cmp + 1) / n_cmp
    dk = np.abs(cf_field.density[-1] - pde_field.density[-1])
    dv = np.abs(cf_field.speed[-1] - pde_field.speed[-1])
    linf_k = float(np.max(dk))
    return EquivalenceReport(
        *labels, l1_k=float(np.sum(dk) * dx), linf_k=linf_k,
        l1_v=float(np.nansum(dv) * dx), linf_v=float(np.nanmax(dv)),
        growth_cf=_fit_growth(times, _mode_amplitude(cf_field.density), scenario.k0),
        growth_pde=_fit_growth(times, _mode_amplitude(pde_field.density), scenario.k0),
        verdict=("within-threshold" if linf_k <= scenario.threshold * scenario.k0
                 else "exceeds-threshold"), pde_stats=pde_stats)


# ---------------------------------------------------------------------------
# Suite runner


@dataclass(frozen=True)
class SuiteEntry:
    scenario: str
    law: AccelerationLaw
    ring: RingScenario
    cells: int


def _arm(law: AccelerationLaw, ring: RingScenario, j: int) -> tuple:
    """A car-following arm as a :func:`_batched` item for
    :func:`simulate_platoons`, then its continuum step count."""
    steps_cf, steps_pde = _ring_steps(ring)
    initial = at_paths({"model": f"entries[{j}].model"}, ring_initial_state, law, ring)
    member = (law, initial, Ring(ring.circumference))
    at_paths({"dt": "dt_cf"}, _check_member, *member, ring.dt_cf)
    return (member, (ring.dt_cf, steps_cf, steps_cf // ring.compare_points),
            (initial.n_vehicles, law.t_delay is None), steps_pde)


def _continuum_runs(pairs: list[tuple[SuiteEntry, tuple]]) -> list[EulerianScenario]:
    """The continuum runs of (entry, arm) pairs on one grid, from one
    ``to_eulerian`` call on a surface whose rows are the arms' initial states
    (of one vehicle count): each row's field is bitwise its own call's."""
    (entry, ((_, _, road), *_)), states = pairs[0], [arm[0][1] for _, arm in pairs]
    grid = SpatialGrid(0.0, road.length / entry.cells, entry.cells)
    rows = [[x.positions for x in states], [x.speeds for x in states]]
    start = to_eulerian(TrajectorySurface(0.0, 1.0, *rows, ring_length=road.length), grid)
    return [EulerianScenario(grid=grid, dt=e.ring.dt_pde, steps=steps, law=law,
                             initial_density=k, initial_speed=v,
                             record_every=steps // e.ring.compare_points)
            for (e, ((law, *_), *_, steps)), k, v in zip(pairs, start.density, start.speed)]


def _plan(entries: list[SuiteEntry]) -> tuple[list, list[int], list]:
    """Each distinct (law, ring) arm's :func:`_arm`, in entry order; each
    entry's arm, as an index into them; and each entry's continuum run, or the
    run fault met in building it (:func:`_continuum_runs`, one call per grid)."""
    keys, arms, at, grids = [], [], [], {}
    for j, e in enumerate(entries):
        if (e.law, e.ring) not in keys:
            keys.append((e.law, e.ring))
            arms.append(_arm(e.law, e.ring, j))
        at.append(keys.index((e.law, e.ring)))
        grids.setdefault((e.ring.circumference, e.cells, arms[at[j]][2][0]), []).append(j)
    runs = {}
    for group in grids.values():
        try:  # e.g. a ring of one vehicle, whose field is not reconstructed
            runs.update(zip(group, _continuum_runs([(entries[j], arms[at[j]]) for j in group])))
        except _RUN_FAULTS as exc:
            runs.update(dict.fromkeys(group, exc))
    return arms, at, [runs[j] for j in range(len(entries))]


def _isolated(run, members, *args) -> list:
    """``run(members, *args)``, one result per member; on a run fault, each
    member's own ``run([member], *args)`` result or run fault."""
    try:
        return run(members, *args)
    except _RUN_FAULTS as exc:  # a batch stops at its first fault
        if len(members) == 1:
            return [exc]
    return [_isolated(run, [member], *args)[0] for member in members]


def _batched(run, items: dict) -> dict:
    """Each item's result, under the item's key. Items ``(member, args, shared)``
    of equal ``args`` and ``shared`` (what ``run`` needs its members to share
    besides its arguments) run as one ``run(members, *args)`` (:func:`_isolated`)."""
    batches, results = {}, {}
    for i, (_, *key) in items.items():
        batches.setdefault(tuple(key), []).append(i)
    for (args, _), batch in batches.items():
        results.update(zip(batch, _isolated(run, [items[i][0] for i in batch], *args)))
    return results


def run_suite(entries: list[SuiteEntry]) -> list[EquivalenceReport]:
    """Execute all suite entries: plan, then run; run faults are isolated per
    report, so each report equals its entry's own one-entry suite.

    The plan (:func:`_plan`) raises every refusal before any arm steps: a ring
    value at its field, the RK4 step guard at ``dt_cf`` and a law with no
    unique steady state at ``entries[j].model``, j its arm's first entry. The
    run sends the continuum arms to :func:`solve_second_order_batch`, whose
    CFL check refuses at ``dt_pde`` before any step, then the car-following
    arms to :func:`simulate_platoons`, each in batches (:func:`_batched`).
    """
    arms, at, runs = _plan(entries)
    solved = at_paths({"dt": "dt_pde"}, _batched, solve_second_order_batch, {
        i: (run, (), (run.dt, run.steps, run.record_every))
        for i, run in enumerate(runs) if not isinstance(run, Exception)})
    surfaces = _batched(simulate_platoons, {a: arm[:3] for a, arm in enumerate(arms)})
    return [_report(e, run, surfaces[a], solved.get(i, run))
            for i, (e, a, run) in enumerate(zip(entries, at, runs))]
