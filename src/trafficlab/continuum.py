"""Finite-volume/upwind solvers for the continuum formulations.

``solve_lwr_godunov`` advances the scalar conservation law k_t + phi(k)_x = 0
with the demand/supply interface flux for a concave diagram.

``solve_second_order`` advances the paired system

    k_t + (k v)_x = 0
    v_t + v v_x = psi(v, 1/k, v_x / k)

by method of lines: donor-cell flux for k, first-order upwind for the v v_x
advection, and a downstream one-sided difference for the v_x inside psi (the
source's car-following origin is the leader's state, which sits downstream).
Explicit Euler sub-steps keep the inner CFL number at 0.25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverFault
from .laws import AccelerationLaw, LawOrder, partials_at
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


def _char_speed_bound(law: AccelerationLaw, v, k_eff) -> float:
    # Advection speed of the speed equation is v - psi_dv / k after
    # linearizing the source in v_x; bound both split terms.
    s = np.maximum(1.0 / k_eff, law.s_min)
    _, _, p_dv = partials_at(law, np.maximum(v, 0.0), s, np.zeros_like(v))
    return float(np.max(np.maximum(v, 0.0) + np.abs(p_dv) / k_eff))


def solve_second_order(scenario: EulerianScenario) -> tuple[EulerianField, RunStats]:
    """Upwind method-of-lines for the paired density/speed system.

    Stops with :class:`SolverFault`, naming the step and cell, on the first
    substep that leaves a non-finite density or speed.
    """
    law = scenario.law
    if law is None:
        raise ConfigurationError("second-order solver needs an acceleration law")
    if law.order is not LawOrder.SECOND:
        raise ConfigurationError("third-order continuum systems are not solved")
    if scenario.initial_speed is None:
        raise ConfigurationError("second-order solver needs an initial speed profile")
    k = scenario.initial_density.copy()
    v = scenario.initial_speed.copy()
    if np.any(k < 0):
        raise ConfigurationError("initial densities must be >= 0")
    if np.any(v < 0):
        raise ConfigurationError("initial speeds must be >= 0")
    dx, dt = scenario.grid.dx, scenario.dt
    k_eff0 = np.maximum(k, DENSITY_FLOOR)
    cfl = _char_speed_bound(law, v, k_eff0) * dt / dx
    if cfl > INIT_CFL_LIMIT:
        raise ConfigurationError(
            f"CFL number {cfl:.3f} exceeds {INIT_CFL_LIMIT} (reduce pde.dt)")

    periodic = isinstance(scenario.boundary, Periodic)
    if not periodic and scenario.boundary.v_in is None:
        raise ConfigurationError("inflow boundary needs v_in for the second-order solver")

    n_rec = _record_shape(scenario)
    density = np.empty((n_rec, scenario.grid.cells))
    speed = np.empty((n_rec, scenario.grid.cells))
    density[0], speed[0] = k, v
    stats = RunStats()
    row = 1
    # Upstream density and speed and downstream speed of each cell.
    k_up = np.empty(scenario.grid.cells)
    v_up = np.empty(scenario.grid.cells)
    v_dn = np.empty(scenario.grid.cells)

    for step in range(scenario.steps):
        k_eff = np.maximum(k, DENSITY_FLOOR)
        bound = _char_speed_bound(law, v, k_eff)
        n_sub = max(int(math.ceil(dt * bound / (SUBSTEP_CFL * dx))), 1)
        dt_s = dt / n_sub
        for _ in range(n_sub):
            k_eff = np.maximum(k, DENSITY_FLOOR)
            k_up[1:], v_up[1:], v_dn[:-1] = k[:-1], v[:-1], v[1:]
            if periodic:
                k_up[0], v_up[0], v_dn[-1] = k[-1], v[-1], v[0]
            else:
                k_up[0], v_up[0] = scenario.boundary.k_in, scenario.boundary.v_in
                v_dn[-1] = v[-1]

            flux_out = k * v
            flux_in = k_up * v_up
            k_new = k - (dt_s / dx) * (flux_out - flux_in)
            if not periodic:
                stats.inflow += flux_in[0] * dt_s
                stats.outflow += flux_out[-1] * dt_s

            s_raw = 1.0 / k_eff
            s_arg = np.maximum(s_raw, law.s_min)
            stats.dense_spacing_clamps += int(np.count_nonzero(s_arg > s_raw))
            grad_fwd = (v_dn - v) / dx
            psi = law.evaluate(np.maximum(v, 0.0), s_arg, grad_fwd / k_eff)
            v_new = v + dt_s * (-v * (v - v_up) / dx + psi)

            below = v_new < 0.0
            if below.any():
                stats.speed_clamps += int(np.count_nonzero(below))
                v_new = np.where(below, 0.0, v_new)
            if law.v_free is not None:
                v_new = np.where(k_new < DENSITY_FLOOR, law.v_free, v_new)
            elif np.any(k_new < DENSITY_FLOOR):
                raise SolverFault("vacuum reached and the law declares no free speed",
                                  step=step)
            if not (np.isfinite(k_new).all() and np.isfinite(v_new).all()):
                bad = ~(np.isfinite(k_new) & np.isfinite(v_new))
                raise SolverFault("non-finite solution", step=step,
                                  cell=int(np.argmax(bad)))
            k, v = k_new, v_new
            stats.substeps += 1

        if np.any(k < -1e-12):
            raise SolverFault("negative density", step=step,
                              cell=int(np.argmin(k)))
        if (step + 1) % scenario.record_every == 0:
            density[row], speed[row] = k, v
            row += 1

    field = EulerianField(x0=scenario.grid.x0, dx=dx, t0=0.0,
                          dt=dt * scenario.record_every,
                          density=density, speed=speed)
    return field, stats
