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
scenarios, each on its own grid, as one flat state of their cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverFault
from .laws import AccelerationLaw, law_spans, partials_at
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
        if not self.dt > 0 or self.steps < 1 or self.record_every < 1:
            raise ConfigurationError("need dt > 0, steps >= 1, record_every >= 1")


@dataclass
class RunStats:
    """Bookkeeping for conservation checks and solver behaviour."""

    inflow: float = 0.0
    outflow: float = 0.0
    substeps: int = 0
    speed_clamps: int = 0
    dense_spacing_clamps: int = 0
    max_substeps: int = 0  # most substeps in one step (second-order solver)


def total_vehicles(field: EulerianField, step: int) -> float:
    """Vehicle count in the field at a recorded step: sum of k * dx."""
    return float(np.sum(field.density[step]) * field.dx)


def _check_cfl(cfl) -> None:
    """Refuse, at the scenario's ``dt``, the first of the members' CFL numbers
    above INIT_CFL_LIMIT."""
    over = [number for number in cfl if number > INIT_CFL_LIMIT]
    if over:
        raise ConfigurationError(f"CFL number {over[0]:.3f} exceeds {INIT_CFL_LIMIT}",
                                 path="dt")


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
        raise ConfigurationError("initial densities must be finite and lie in [0, k_j]",
                                 path="pde.initial")
    dx, dt = scenario.grid.dx, scenario.dt
    _check_cfl([fd.max_wave_speed() * dt / dx])

    k_c = fd.critical_density
    periodic = isinstance(scenario.boundary, Periodic)
    if not periodic and not 0 <= scenario.boundary.k_in <= fd.k_j * (1 + 1e-12):
        raise ConfigurationError("inflow density k_in must be finite and lie in [0, k_j]")
    n_rec = _record_shape(scenario)
    density = np.empty((n_rec, scenario.grid.cells))
    density[0] = k
    stats = RunStats()
    row = 1
    # States left and right of each interface, cell 0's left edge first, cut
    # to the demand and supply densities so that one phi call gives both.
    sides = np.empty((2, scenario.grid.cells + 1))
    left, right = sides
    for step in range(scenario.steps):
        left[1:], right[:-1] = k, k
        if periodic:
            left[0], right[-1] = k[-1], k[0]
        else:
            left[0], right[-1] = scenario.boundary.k_in, k[-1]
        np.minimum(left, k_c, out=left)
        np.maximum(right, k_c, out=right)
        demand, supply = fd.phi(sides)
        flux = np.minimum(demand, supply)
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
    if law.t_delay is not None:
        raise ConfigurationError("third-order continuum systems are not solved")
    if scenario.initial_speed is None:
        raise ConfigurationError("second-order solver needs an initial speed profile")
    for name, x in (("densities", scenario.initial_density),
                    ("speeds", scenario.initial_speed)):
        if not (np.isfinite(x).all() and (x >= 0).all()):
            raise ConfigurationError(f"initial {name} must be finite and >= 0")


def solve_second_order_batch(scenarios) -> list:
    """:func:`solve_second_order` for a batch of scenarios, as one state.

    Members share ``dt``, ``steps``, ``record_every`` and boundary kind, each on
    its own grid. The state is one flat array, member p's cells the segment
    ``starts[p]:ends[p]``; per-member values are repeated over its cells, and
    maxima and counts reduce over the segments. The result holds each
    scenario's ``(field, stats)``. The batch stops at the first fault that one
    member meets in its own run, with that run's exception (type and text).
    Each member takes its own substep count and ``dt_s`` each step and is
    masked once it has taken them. Each stack of laws (a run of neighbouring
    members, see :func:`law_spans`) runs once per substep on all its cells, the
    rest once for the batch, so every member is bitwise its own one-member run.
    """
    if len({(sc.dt, sc.steps, sc.record_every, type(sc.boundary)) for sc in scenarios}) > 1:
        raise ConfigurationError("batch members must share dt, steps, record_every "
                                 "and boundary kind")
    if not scenarios:
        return []
    for sc in scenarios:
        _check_second_order(sc)
    first, n = scenarios[0], len(scenarios)
    dt, every, periodic = first.dt, first.record_every, isinstance(first.boundary, Periodic)
    cells = np.array([sc.grid.cells for sc in scenarios])
    ends = np.cumsum(cells)
    starts, dxs = ends - cells, [sc.grid.dx for sc in scenarios]

    def per_cell(values):  # one value per member, repeated over its cells
        return np.repeat(values, cells)

    dx, s_min = per_cell(dxs), per_cell([sc.law.s_min for sc in scenarios])
    free = per_cell([sc.law.v_free is not None for sc in scenarios])
    v_free = per_cell([sc.law.v_free or 0.0 for sc in scenarios])
    # Each stack's law, its members' cells and their constants, one per cell.
    stacks = [(law, slice(np.min(starts[rows]), np.max(ends[rows])),
               {name: np.repeat(col, cells[rows]) for name, col in columns.items()})
              for law, rows, columns in law_spans([sc.law for sc in scenarios])]
    k = np.concatenate([sc.initial_density for sc in scenarios])
    v = np.concatenate([sc.initial_speed for sc in scenarios])
    # Upstream and downstream neighbour of each cell: a periodic segment wraps
    # on itself; an inflow start reads k_in/v_in, an outflow end its own speed.
    up, dn = np.arange(-1, k.size - 1), np.arange(1, k.size + 1)
    up[starts], dn[ends - 1] = (ends - 1, starts) if periodic else (starts, ends - 1)
    if not periodic:
        k_in, v_in = np.array([[sc.boundary.k_in, sc.boundary.v_in or 0.0]
                               for sc in scenarios]).T
    zeros, p_dv, psi = np.zeros((3, k.size))

    def by_law(out, fn, x, y, z):  # out[cells] = fn(law, x, y, z, **columns) per stack
        for law, span, columns in stacks:
            out[span] = fn(law, x[span], y[span], z[span], **columns)

    def derive():  # the state's arrays that the speed bound and a substep share
        k_eff = np.maximum(k, DENSITY_FLOOR)
        s_raw = 1.0 / k_eff
        return k_eff, s_raw, np.maximum(s_raw, s_min), np.maximum(v, 0.0)

    def psi_dv(law, *args, **columns):
        # A built-in law's kernel, unchecked as psi is, at s_arg >= s_min.
        kernel = getattr(law.partials, "psi_dv", None)
        return kernel(*args, **columns) if kernel else partials_at(law, *args, **columns)[2]

    def speed_bound(k_eff, s_raw, s_arg, v_pos):
        # Advection speed of the speed equation is v - psi_dv / k after
        # linearizing the source in v_x; bound both split terms.
        by_law(p_dv, psi_dv, v_pos, s_arg, zeros)
        return np.maximum.reduceat(v_pos + np.abs(p_dv) / k_eff, starts).tolist()

    def segment(mask):  # the cells of the first member with a True in mask
        p = np.searchsorted(ends, np.argmax(mask), side="right")
        return slice(starts[p], ends[p])

    shared = derive()
    bound = speed_bound(*shared)
    _check_cfl(np.array(bound) * dt / dxs)
    if not periodic and any(sc.boundary.v_in is None for sc in scenarios):
        raise ConfigurationError("inflow boundary needs v_in for the second-order solver")
    # Member p's density and speed records are contiguous (records, cells) blocks
    # from n_rec * starts[p]; row r of a cell sits r * cells[p] past its row 0.
    n_rec, width = _record_shape(first), per_cell(cells)
    at = per_cell((n_rec - 1) * starts) + np.arange(k.size)
    records = np.empty((2, n_rec * k.size))
    records[:, at] = k, v
    inflow, outflow = np.zeros((2, n))
    substeps, max_substeps, speed_clamps, dense_clamps = np.zeros((4, n), dtype=int)
    k_up, v_up, v_dn = np.empty((3, k.size))
    last_subs = None

    for step in range(first.steps):
        if step:  # step 0 reuses the bound of the CFL check
            shared = derive()
            bound = speed_bound(*shared)
        if not all(map(math.isfinite, bound)):
            raise SolverFault("non-finite characteristic speed bound", step=step)
        subs = [max(math.ceil(dt * b / (SUBSTEP_CFL * h)), 1) for b, h in zip(bound, dxs)]
        if subs != last_subs:  # the substep sizes follow the counts alone
            last_subs = subs
            dt_s, n_sub = np.array([dt / m for m in subs]), np.array(subs)
            np.maximum(max_substeps, n_sub, out=max_substeps)
            ratio, dt_cell = per_cell(dt_s / dxs), per_cell(dt_s)
            n_all, n_max = min(subs), max(subs)  # every member takes n_all: ``took`` is True
        for j in range(n_max):
            took, took_cell = (True, True) if j < n_all else (n_sub > j, per_cell(n_sub > j))
            k_eff, s_raw, s_arg, v_pos = derive() if j else shared
            np.take(k, up, out=k_up)
            np.take(v, up, out=v_up)
            np.take(v, dn, out=v_dn)
            if not periodic:
                k_up[starts], v_up[starts] = k_in, v_in

            flux_out = k * v
            flux_in = k_up * v_up
            k_new = k - ratio * (flux_out - flux_in)
            grad_fwd = (v_dn - v) / dx
            # s_arg >= s_min, inside the law's domain: the bare formula suffices.
            # On every cell: a member that has taken its substeps discards its own.
            by_law(psi, lambda law, *a, **c: law.psi(*a, **c), v_pos, s_arg, grad_fwd / k_eff)
            v_new = v + dt_cell * (-v * (v - v_up) / dx + psi)

            below = v_new < 0.0
            clamped = below.any()
            if clamped:
                v_new = np.where(below, 0.0, v_new)
            vacuum = k_new < DENSITY_FLOOR
            if vacuum.any():
                v_new = np.where(vacuum & free, v_free, v_new)
                if (vacuum & ~free & took_cell).any():
                    raise SolverFault("vacuum reached and the law declares no free speed",
                                      step=step)
            if not (np.isfinite(k_new).all() and np.isfinite(v_new).all()):
                bad = ~(np.isfinite(k_new) & np.isfinite(v_new)) & took_cell
                if bad.any():
                    raise SolverFault("non-finite solution", step=step,
                                      cell=int(np.argmax(bad[segment(bad)])))

            substeps += took
            dense_clamps += np.add.reduceat(s_arg > s_raw, starts) * took
            if clamped:
                speed_clamps += np.add.reduceat(below, starts) * took
            if not periodic:
                np.add(inflow, flux_in[starts] * dt_s, inflow, where=took)
                np.add(outflow, flux_out[ends - 1] * dt_s, outflow, where=took)
            if took is True:
                k, v = k_new, v_new
            else:
                k, v = np.where(took_cell, k_new, k), np.where(took_cell, v_new, v)

        negative = k < -1e-12
        if negative.any():
            raise SolverFault("negative density", step=step,
                              cell=int(np.argmin(k[segment(negative)])))
        if (step + 1) % every == 0:
            records[:, at + (step + 1) // every * width] = k, v

    return [(EulerianField(sc.grid.x0, sc.grid.dx, 0.0, dt * every,
                           *records[:, n_rec * a:n_rec * b].reshape(2, n_rec, -1)),
             RunStats(float(inflow[p]), float(outflow[p]), int(substeps[p]),
                      int(speed_clamps[p]), int(dense_clamps[p]), int(max_substeps[p])))
            for p, (sc, a, b) in enumerate(zip(scenarios, starts, ends))]
