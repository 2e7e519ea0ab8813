"""Finite-volume/upwind solvers for the continuum formulations.

``solve_lwr_godunov`` advances the scalar conservation law k_t + phi(k)_x = 0
with the demand/supply interface flux for a concave diagram.

``solve_second_order`` advances the paired system

    k_t + (k v)_x = 0
    v_t + v v_x = psi(v, 1/k, v_x / k)

by method of lines: donor-cell flux for k, first-order upwind for the v v_x
advection, and a downstream one-sided difference for the v_x inside psi (the
source's car-following origin is the leader's state, which sits downstream).
Explicit Euler sub-steps keep the inner CFL number at 0.25. It is the
one-member form of ``solve_second_order_batch``, which advances a batch of
scenarios on one grid as one (members, cells) state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverFault
from .laws import AccelerationLaw, LawOrder, law_spans, partials_at
from .transforms import EulerianField, SpatialGrid

DENSITY_FLOOR = 1e-8
SUBSTEP_CFL = 0.25
INIT_CFL_LIMIT = 0.9


@dataclass(frozen=True)
class Periodic:
    pass


@dataclass(frozen=True)
class InflowOutflow:
    """Prescribed upstream state; downstream boundary is zero-gradient."""

    k_in: float
    v_in: float | None = None


Boundary = Periodic | InflowOutflow


@dataclass(frozen=True)
class EulerianScenario:
    grid: SpatialGrid
    dt: float
    steps: int
    initial_density: np.ndarray
    initial_speed: np.ndarray | None = None
    boundary: Boundary = Periodic()
    fd: object | None = None
    law: AccelerationLaw | None = None
    record_every: int = 1

    def __post_init__(self):
        k = np.asarray(self.initial_density, dtype=float)
        if k.shape != (self.grid.cells,):
            raise ConfigurationError("initial density must have one value per cell")
        object.__setattr__(self, "initial_density", k)
        if self.initial_speed is not None:
            v = np.asarray(self.initial_speed, dtype=float)
            if v.shape != (self.grid.cells,):
                raise ConfigurationError("initial speed must have one value per cell")
            object.__setattr__(self, "initial_speed", v)
        if self.dt <= 0 or self.steps < 1 or self.record_every < 1:
            raise ConfigurationError("need dt > 0, steps >= 1, record_every >= 1")


@dataclass
class RunStats:
    """Bookkeeping for conservation checks and solver behaviour."""

    inflow: float = 0.0
    outflow: float = 0.0
    substeps: int = 0
    speed_clamps: int = 0
    dense_spacing_clamps: int = 0


def total_vehicles(field: EulerianField, step: int) -> float:
    """Vehicle count in the field at a recorded step: sum of k * dx."""
    return float(np.sum(field.density[step]) * field.dx)


def _record_shape(scenario: EulerianScenario) -> int:
    return scenario.steps // scenario.record_every + 1


def solve_lwr_godunov(scenario: EulerianScenario) -> tuple[EulerianField, RunStats]:
    """First-order Godunov with the min(demand, supply) interface flux."""
    fd = scenario.fd
    if fd is None:
        raise ConfigurationError("LWR solver needs a fundamental diagram")
    k = scenario.initial_density.copy()
    # NaN fails both comparisons, so non-finite densities are refused too.
    if not np.all((k >= 0) & (k <= fd.k_j * (1 + 1e-12))):
        raise ConfigurationError("initial densities must be finite and lie in [0, k_j]")
    dx, dt = scenario.grid.dx, scenario.dt
    cfl = fd.max_wave_speed() * dt / dx
    if cfl > INIT_CFL_LIMIT:
        raise ConfigurationError(
            f"CFL number {cfl:.3f} exceeds {INIT_CFL_LIMIT} (reduce pde.dt)")

    k_c = fd.critical_density

    def demand(kk):
        return fd.phi(np.minimum(kk, k_c))

    def supply(kk):
        return fd.phi(np.maximum(kk, k_c))

    periodic = isinstance(scenario.boundary, Periodic)
    if not periodic and not 0 <= scenario.boundary.k_in <= fd.k_j * (1 + 1e-12):
        raise ConfigurationError("inflow density k_in must be finite and lie in [0, k_j]")
    n_rec = _record_shape(scenario)
    density = np.empty((n_rec, scenario.grid.cells))
    density[0] = k
    stats = RunStats()
    row = 1
    # States left and right of each interface, cell 0's left edge first.
    left = np.empty(scenario.grid.cells + 1)
    right = np.empty(scenario.grid.cells + 1)
    for step in range(scenario.steps):
        left[1:], right[:-1] = k, k
        if periodic:
            left[0], right[-1] = k[-1], k[0]
        else:
            left[0], right[-1] = scenario.boundary.k_in, k[-1]
        flux = np.minimum(demand(left), supply(right))
        k = k - (dt / dx) * (flux[1:] - flux[:-1])
        if not periodic:
            stats.inflow += flux[0] * dt
            stats.outflow += flux[-1] * dt
        if (step + 1) % scenario.record_every == 0:
            density[row] = k
            row += 1

    with np.errstate(invalid="ignore", divide="ignore"):
        speed = np.where(density > 0.0, fd.phi(np.clip(density, 0.0, fd.k_j)) / density,
                         fd.v_f)
    field = EulerianField(x0=scenario.grid.x0, dx=dx, t0=0.0,
                          dt=dt * scenario.record_every,
                          density=density, speed=speed)
    return field, stats


def solve_second_order(scenario: EulerianScenario) -> tuple[EulerianField, RunStats]:
    """Upwind method-of-lines for the paired density/speed system.

    The one-member form of :func:`solve_second_order_batch`. A non-finite or
    negative initial state is refused with :class:`ConfigurationError`. The
    run stops with :class:`SolverFault`, naming the step (and cell), on a
    non-finite speed bound or a substep that leaves a non-finite state.
    """
    return solve_second_order_batch([scenario])[0]


def _check_second_order(scenario: EulerianScenario) -> None:
    law = scenario.law
    if law is None:
        raise ConfigurationError("second-order solver needs an acceleration law")
    if law.order is not LawOrder.SECOND:
        raise ConfigurationError("third-order continuum systems are not solved")
    if scenario.initial_speed is None:
        raise ConfigurationError("second-order solver needs an initial speed profile")
    for name, x in (("densities", scenario.initial_density),
                    ("speeds", scenario.initial_speed)):
        if not (np.isfinite(x).all() and (x >= 0).all()):
            raise ConfigurationError(f"initial {name} must be finite and >= 0")


def solve_second_order_batch(scenarios) -> list:
    """:func:`solve_second_order` for a batch of scenarios, as one state.

    Members share the grid, ``dt``, ``steps``, ``record_every`` and boundary
    kind; the state has shape (members, cells), and the result holds each
    scenario's ``(field, stats)``. The batch stops at the first fault that one
    of its members meets in its own run, with that run's exception (type and
    text). Each member takes its own substep count and ``dt_s`` each step and
    is masked once it has taken them. Everything but the law runs once for
    the batch, and each stack of laws (a run of neighbouring members, see
    :func:`law_spans`) once per substep on all its rows, so every member is
    bitwise its own one-member run.
    """
    if len({(sc.grid, sc.dt, sc.steps, sc.record_every, type(sc.boundary))
            for sc in scenarios}) > 1:
        raise ConfigurationError("batch members must share the grid, dt, steps, "
                                 "record_every and boundary kind")
    if not scenarios:
        return []
    for sc in scenarios:
        _check_second_order(sc)
    spans = law_spans([sc.law for sc in scenarios])
    first = scenarios[0]
    n, grid, dt, every = len(scenarios), first.grid, first.dt, first.record_every
    cells, dx, periodic = grid.cells, grid.dx, isinstance(first.boundary, Periodic)
    k = np.array([sc.initial_density for sc in scenarios])
    v = np.array([sc.initial_speed for sc in scenarios])
    s_min = np.array([[sc.law.s_min] for sc in scenarios])
    free = np.array([[sc.law.v_free is not None] for sc in scenarios])
    v_free = np.array([[sc.law.v_free or 0.0] for sc in scenarios])
    if not periodic:
        k_in, v_in = np.array([[sc.boundary.k_in, sc.boundary.v_in or 0.0]
                               for sc in scenarios]).T
    zeros, p_dv, psi = np.zeros((3, n, cells))

    def by_law(out, fn, x, y, z):  # out[rows] = fn(law, x, y, z, **columns) per stack
        for law, rows, columns in spans:
            out[rows] = fn(law, x[rows], y[rows], z[rows], **columns)

    def derive():  # the state's arrays that the speed bound and a substep share
        k_eff = np.maximum(k, DENSITY_FLOOR)
        s_raw = 1.0 / k_eff
        return k_eff, s_raw, np.maximum(s_raw, s_min), np.maximum(v, 0.0)

    def speed_bound(k_eff, s_raw, s_arg, v_pos):
        # Advection speed of the speed equation is v - psi_dv / k after
        # linearizing the source in v_x; bound both split terms.
        by_law(p_dv, lambda *a, **c: partials_at(*a, **c)[2], v_pos, s_arg, zeros)
        return np.maximum.reduce(v_pos + np.abs(p_dv) / k_eff, axis=1).tolist()

    shared = derive()
    bound = speed_bound(*shared)
    cfl = np.array(bound) * dt / dx
    if (cfl > INIT_CFL_LIMIT).any():
        raise ConfigurationError(f"CFL number {cfl[np.argmax(cfl > INIT_CFL_LIMIT)]:.3f} "
                                 f"exceeds {INIT_CFL_LIMIT} (reduce pde.dt)")
    if not periodic and any(sc.boundary.v_in is None for sc in scenarios):
        raise ConfigurationError("inflow boundary needs v_in for the second-order solver")
    density, speed = np.empty((2, n, _record_shape(first), cells))
    density[:, 0], speed[:, 0] = k, v
    inflow, outflow = np.zeros((2, n))
    substeps, speed_clamps, dense_clamps = np.zeros((3, n), dtype=int)
    # Upstream density and speed and downstream speed of each cell.
    k_up, v_up, v_dn = np.empty((3, n, cells))

    for step in range(first.steps):
        if step:  # step 0 reuses the bound of the CFL check
            shared = derive()
            bound = speed_bound(*shared)
        if not all(map(math.isfinite, bound)):
            raise SolverFault("non-finite characteristic speed bound", step=step)
        subs = [max(math.ceil(dt * b / (SUBSTEP_CFL * dx)), 1) for b in bound]
        dt_s, n_sub = np.array([dt / m for m in subs]), np.array(subs)
        ratio, dt_col = (dt_s / dx)[:, None], dt_s[:, None]
        n_all = min(subs)  # substeps that every member takes
        for j in range(max(subs)):
            took = True if j < n_all else n_sub > j  # True: every member
            k_eff, s_raw, s_arg, v_pos = derive() if j else shared
            k_up[:, 1:], v_up[:, 1:], v_dn[:, :-1] = k[:, :-1], v[:, :-1], v[:, 1:]
            if periodic:
                k_up[:, 0], v_up[:, 0], v_dn[:, -1] = k[:, -1], v[:, -1], v[:, 0]
            else:
                k_up[:, 0], v_up[:, 0], v_dn[:, -1] = k_in, v_in, v[:, -1]

            flux_out = k * v
            flux_in = k_up * v_up
            k_new = k - ratio * (flux_out - flux_in)
            grad_fwd = (v_dn - v) / dx
            # s_arg >= s_min, inside the law's domain: the bare formula suffices.
            # On every row: a member that has taken its substeps discards its own.
            by_law(psi, lambda law, *a, **c: law.psi(*a, **c), v_pos, s_arg, grad_fwd / k_eff)
            v_new = v + dt_col * (-v * (v - v_up) / dx + psi)

            below = v_new < 0.0
            clamped = below.any()
            if clamped:
                v_new = np.where(below, 0.0, v_new)
            vacuum = k_new < DENSITY_FLOOR
            if vacuum.any():
                v_new = np.where(vacuum & free, v_free, v_new)
                if (took & vacuum.any(axis=1) & ~free[:, 0]).any():
                    raise SolverFault("vacuum reached and the law declares no free speed",
                                      step=step)
            if not (np.isfinite(k_new).all() and np.isfinite(v_new).all()):
                bad = ~(np.isfinite(k_new) & np.isfinite(v_new))
                rows = took & bad.any(axis=1)
                if rows.any():
                    raise SolverFault("non-finite solution", step=step,
                                      cell=int(np.argmax(bad[np.argmax(rows)])))

            substeps += took
            dense_clamps += (s_arg > s_raw).sum(axis=1) * took
            if clamped:
                speed_clamps += below.sum(axis=1) * took
            if not periodic:
                np.add(inflow, flux_in[:, 0] * dt_s, inflow, where=took)
                np.add(outflow, flux_out[:, -1] * dt_s, outflow, where=took)
            if took is True:
                k, v = k_new, v_new
            else:
                k, v = np.where(took[:, None], k_new, k), np.where(took[:, None], v_new, v)

        negative = (k < -1e-12).any(axis=1)
        if negative.any():
            raise SolverFault("negative density", step=step,
                              cell=int(np.argmin(k[np.argmax(negative)])))
        if (step + 1) % every == 0:
            density[:, (step + 1) // every], speed[:, (step + 1) // every] = k, v

    return [(EulerianField(x0=grid.x0, dx=dx, t0=0.0, dt=dt * every,
                           density=density[p], speed=speed[p]),
             RunStats(float(inflow[p]), float(outflow[p]), int(substeps[p]),
                      int(speed_clamps[p]), int(dense_clamps[p])))
            for p in range(n)]
