"""Platoon simulators in vehicle coordinates.

Three integrators share the same state and output conventions:

* :func:`simulate_continuous` -- classic fixed-step RK4 on any acceleration
  law (second- or third-order), with a prescribed lead vehicle or a ring road.
  Its state is one (order, followers) array, the lead column comes from the
  profile, and a non-finite state stops it with :class:`SolverFault`.
* :func:`simulate_pipes_discrete` -- the explicit spacing-rule update for a
  triangular diagram, one row per time step.
* :func:`simulate_newell` -- the spacing rule stepped at exactly the time gap,
  the limiting case of the discrete rule.

All runs are deterministic: identical inputs give bitwise-identical surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConfigurationError, ParameterError, SolverFault
from .fundamental import TriangularDiagram, cfl_max_dt
from .laws import AccelerationLaw, LawOrder
from .transforms import TrajectorySurface

# Fraction of the law's smallest time constant allowed as an RK4 step.
RK4_DT_FRACTION = 0.1


@dataclass(frozen=True)
class PlatoonState:
    """Instantaneous per-vehicle state; vehicle 0 is the front of the platoon."""

    time: float
    positions: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        v = np.asarray(self.speeds, dtype=float)
        if x.ndim != 1 or v.shape != x.shape:
            raise ParameterError("positions and speeds must be matching 1-d arrays")
        if np.any(v < 0):
            raise ParameterError("speeds must be >= 0")
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "speeds", v)
        if self.accels is not None:
            a = np.asarray(self.accels, dtype=float)
            if a.shape != x.shape:
                raise ParameterError("accels must match positions shape")
            object.__setattr__(self, "accels", a)

    @property
    def n_vehicles(self) -> int:
        return self.positions.shape[0]


def uniform_platoon(n: int, spacing: float, speed: float,
                    lead_position: float = 0.0) -> PlatoonState:
    x = lead_position - spacing * np.arange(n)
    return PlatoonState(time=0.0, positions=x, speeds=np.full(n, float(speed)))


@dataclass(frozen=True)
class ConstantLeader:
    v0: float

    def speed_at(self, t: float) -> float:
        return self.v0

    def accel_at(self, t: float) -> float:
        return 0.0

    def displacement(self, t0: float, t1: float) -> float:
        return self.v0 * (t1 - t0)


@dataclass(frozen=True)
class SinusoidLeader:
    """Speed v0 + amplitude * sin(omega * t); requires amplitude <= v0."""

    v0: float
    amplitude: float
    omega: float

    def __post_init__(self):
        if self.amplitude > self.v0:
            raise ParameterError("sinusoid leader would reverse: amplitude > v0")
        if self.omega <= 0:
            raise ParameterError("sinusoid leader needs omega > 0")

    def speed_at(self, t: float) -> float:
        return self.v0 + self.amplitude * math.sin(self.omega * t)

    def accel_at(self, t: float) -> float:
        return self.amplitude * self.omega * math.cos(self.omega * t)

    def displacement(self, t0: float, t1: float) -> float:
        return (self.v0 * (t1 - t0)
                + self.amplitude / self.omega * (math.cos(self.omega * t0)
                                                 - math.cos(self.omega * t1)))


@dataclass(frozen=True)
class PiecewiseConstantLeader:
    """Speed steps at the given breakpoints; times start at 0, ascending."""

    times: tuple[float, ...]
    speeds: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.speeds) or not self.times:
            raise ParameterError("piecewise leader needs matching times/speeds")
        if self.times[0] != 0.0 or any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ParameterError("breakpoints must start at 0 and increase")
        if any(v < 0 for v in self.speeds):
            raise ParameterError("leader speeds must be >= 0")

    def speed_at(self, t: float) -> float:
        idx = 0
        for i, brk in enumerate(self.times):
            if t >= brk:
                idx = i
        return self.speeds[idx]

    def accel_at(self, t: float) -> float:
        return 0.0  # zero between breakpoints; the steps themselves are not resolved

    def displacement(self, t0: float, t1: float) -> float:
        total = 0.0
        edges = list(self.times) + [math.inf]
        for i, v in enumerate(self.speeds):
            lo = max(t0, edges[i])
            hi = min(t1, edges[i + 1])
            if hi > lo:
                total += v * (hi - lo)
        return total


LeaderProfile = ConstantLeader | SinusoidLeader | PiecewiseConstantLeader


@dataclass(frozen=True)
class Ring:
    """Periodic road of the given circumference; the platoon closes on itself."""

    length: float

    def __post_init__(self):
        if self.length <= 0:
            raise ParameterError("ring length must be > 0")


def _validate_ordering(state: PlatoonState, boundary) -> None:
    x = state.positions
    if isinstance(boundary, Ring):
        gaps = np.mod(np.roll(x, 1) - x, boundary.length)
        gaps[0] = (x[-1] + boundary.length - x[0]) % boundary.length or boundary.length
        if np.any(gaps <= 0) or np.sum(gaps) > boundary.length * (1 + 1e-9):
            raise ParameterError("ring platoon gaps must be positive and fit the circumference")
    else:
        if state.n_vehicles >= 2 and np.any(np.diff(x) >= 0):
            raise ParameterError("platoon must be ordered front to rear")


def simulate_continuous(law: AccelerationLaw, initial: PlatoonState,
                        boundary, dt: float, steps: int) -> TrajectorySurface:
    """Fixed-step RK4 integration of the coupled car-following system.

    The state is one array of shape (order, followers): position, speed and,
    for a third-order law, acceleration. On a ring every vehicle follows its
    predecessor, wrapping modulo the circumference. Behind a leader profile
    the followers are vehicles 1..n-1, and vehicle 0 (column 0 of the surface)
    takes the profile's exact displacement, speed and acceleration.

    Speeds are clamped at zero after each step; clamp counts are reported on
    the surface. A spacing at or below the law's minimum at any stage aborts
    with :class:`CollisionError`; a non-finite spacing at any stage, or a
    non-finite state after the last step, with :class:`SolverFault`.
    """
    if dt <= 0 or steps < 1:
        raise ConfigurationError("need dt > 0 and steps >= 1")
    guard = RK4_DT_FRACTION * law.time_scale
    if dt > guard * (1 + 1e-12):
        raise ConfigurationError(
            f"dt={dt:g} exceeds stability guard {guard:g} for {law.name}")
    _validate_ordering(initial, boundary)
    ring = isinstance(boundary, Ring)
    third = law.order is LawOrder.THIRD
    n = initial.n_vehicles
    if not ring and n < 2:
        raise ConfigurationError("linear-road run needs the leader plus a follower")

    first = 0 if ring else 1  # vehicle number of the front follower
    order = law.order.value
    accels = initial.accels if initial.accels is not None else np.zeros(n)
    y = np.array((initial.positions, initial.speeds, accels)[:order])[:, first:]
    traj = np.empty((order, steps + 1, n))
    lead = np.empty((2, n - first))  # position and speed of each follower's leader
    k1, k2, k3, k4 = np.empty((4,) + y.shape)
    s_min, psi = law.s_min, law.psi

    def fault(what, t, ok):  # ok: False where a vehicle's value is not finite
        return SolverFault(f"non-finite {what} at t={t:.6g} s, vehicle {np.argmin(ok) + first}")

    def rates(t, y, front, out):
        # The front follower's leader: the lead vehicle, or the rear one a lap on.
        lead[:, 0] = (y[0, -1] + boundary.length, y[1, -1]) if ring else front
        lead[:, 1:] = y[:2, :-1]
        s = lead[0] - y[0]
        # The minimum is NaN when any spacing is, so one reduction checks both.
        if not np.minimum.reduce(s) > s_min:
            finite = np.isfinite(s)
            if not finite.all():
                raise fault("spacing", t, finite)
            raise CollisionError(t, int(np.argmax(s <= s_min)) + first)
        accel = psi(np.maximum(y[1], 0.0), s, lead[1] - y[1])
        out[:-1] = y[1:]
        out[-1] = (accel - y[2]) / law.t_delay if third else accel

    def record(i):
        traj[:, i, first:] = y
        if not ring:
            traj[:, i, 0] = (front[0], boundary.speed_at(i * dt),
                             boundary.accel_at(i * dt))[:order]

    fronts = (None,) * 4  # lead vehicle's (position, speed) per stage; front: at step start
    front = None if ring else (float(initial.positions[0]), boundary.speed_at(0.0))
    record(0)
    clamps, half = 0, 0.5 * dt
    for i in range(steps):
        t = i * dt
        if not ring:
            x_half = front[0] + boundary.displacement(t, t + half)
            v_half = boundary.speed_at(t + half)
            fronts = (front, (x_half, v_half), (x_half, v_half),
                      (front[0] + boundary.displacement(t, t + dt), boundary.speed_at(t + dt)))
        rates(t, y, fronts[0], k1)
        rates(t + half, y + half * k1, fronts[1], k2)
        rates(t + half, y + half * k2, fronts[2], k3)
        rates(t + dt, y + dt * k3, fronts[3], k4)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        below = y[1] < 0.0
        if below.any():
            clamps += int(np.count_nonzero(below))
            y[1, below] = 0.0
        front = fronts[3]
        record(i + 1)
    finite = np.isfinite(y).all(axis=0)
    if not finite.all():
        raise fault("state", steps * dt, finite)
    return TrajectorySurface(
        t0=initial.time, dt=dt, positions=traj[0], speeds=traj[1],
        accels=traj[2] if third else None,
        ring_length=boundary.length if ring else None, clamp_events=clamps)


def _require_triangular(fd) -> TriangularDiagram:
    if not isinstance(fd, TriangularDiagram):
        raise ConfigurationError("spacing-rule simulators need a triangular diagram")
    return fd


def simulate_pipes_discrete(fd, initial: PlatoonState, leader: LeaderProfile,
                            dt: float, steps: int) -> TrajectorySurface:
    """Explicit spacing-rule update X += dt * min(v_f, (spacing - S_j)/tau).

    Requires dt within the information-speed bound (dt <= time gap); a larger
    step is refused rather than run unstably.
    """
    fd = _require_triangular(fd)
    if dt <= 0 or steps < 1:
        raise ConfigurationError("need dt > 0 and steps >= 1")
    max_dt = cfl_max_dt(fd, 1.0)
    if dt > max_dt * (1 + 1e-12):
        raise ConfigurationError(
            f"dt={dt:g} violates the vehicle-information bound {max_dt:g}")
    _validate_ordering(initial, leader)
    v_f, tau, s_j = fd.v_f, fd.time_gap, fd.jam_spacing
    x = np.empty((steps + 1, initial.n_vehicles))
    x[0] = initial.positions
    newell_step = dt == tau
    for i in range(steps):
        t = i * dt
        lead, foll = x[i, :-1], x[i, 1:]
        if newell_step:
            # dt equal to the time gap collapses the update algebraically to
            # Newell's rule min(X + dt v_f, X_lead - S_j), which is evaluated
            # in that form: this branch is simulate_newell.
            x[i + 1, 1:] = np.minimum(foll + dt * v_f, lead - s_j)
        else:
            x[i + 1, 1:] = foll + dt * np.minimum(v_f, (lead - foll - s_j) / tau)
        x[i + 1, 0] = x[i, 0] + leader.displacement(t, t + dt)
    return TrajectorySurface(t0=initial.time, dt=dt, positions=x)


def simulate_newell(fd, initial: PlatoonState, leader: LeaderProfile,
                    steps: int) -> TrajectorySurface:
    """Spacing rule at exactly the time-gap step: X' = min(X + tau v_f, X_lead - S_j)."""
    return simulate_pipes_discrete(fd, initial, leader, _require_triangular(fd).time_gap,
                                   steps)
