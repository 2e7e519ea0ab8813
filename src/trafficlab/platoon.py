"""Platoon simulators in vehicle coordinates.

Three integrators share the same state and output conventions:

* :func:`simulate_continuous` -- classic fixed-step RK4 on any acceleration
  law (second- or third-order), with a prescribed lead vehicle or a ring road.
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

from .errors import CollisionError, ConfigurationError, ParameterError
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
    third = law.order is LawOrder.THIRD
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
