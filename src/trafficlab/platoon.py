"""Platoon simulators in vehicle coordinates.

Three integrators share the same state and output conventions:

* :func:`simulate_platoons` -- classic fixed-step RK4 on any acceleration
  law (second- or third-order), with a prescribed lead vehicle or a ring road,
  for a batch of platoons at once. Its state is one (order, members,
  followers) array, the front followers' leaders come from the profile or
  the ring's rear vehicle, and a non-finite state stops it with
  :class:`SolverFault`.
  :func:`simulate_continuous` is its one-member form.
* :func:`simulate_pipes_discrete` -- the explicit spacing-rule update for a
  triangular diagram, one row per time step.
* :func:`simulate_newell` -- the spacing rule stepped at exactly the time gap,
  the limiting case of the discrete rule.

A leader profile evaluates vehicle 0's speed, acceleration and displacement
at a scalar time or an array of times, with the same bits either way; each
simulator takes the lead vehicle's track from one array evaluation per run.

All runs are deterministic: identical inputs give bitwise-identical surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConfigurationError, ParameterError, SolverFault
from .fundamental import TriangularDiagram, cfl_max_dt
from .laws import AccelerationLaw, law_spans
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
        if not (math.isfinite(self.time) and np.isfinite(x).all() and np.isfinite(v).all()):
            raise ParameterError("state time, positions and speeds must be finite")
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "speeds", v)
        if self.accels is not None:
            a = np.asarray(self.accels, dtype=float)
            if a.shape != x.shape:
                raise ParameterError("accels must match positions shape")
            if not np.isfinite(a).all():
                raise ParameterError("accels must be finite")
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
    """Speed v0, at a time or an array of times."""

    v0: float

    def __post_init__(self):
        if not (math.isfinite(self.v0) and self.v0 >= 0):
            raise ParameterError("leader speed v0 must be finite and >= 0")

    def speed_at(self, t):
        return np.full(np.shape(t), self.v0, dtype=float)[()]

    def accel_at(self, t):
        return np.zeros(np.shape(t))[()]

    def displacement(self, t0, t1):
        return self.v0 * (t1 - t0)


@dataclass(frozen=True)
class SinusoidLeader:
    """Speed v0 + amplitude * sin(omega * t), at a time or an array of times;
    requires |amplitude| <= v0."""

    v0: float
    amplitude: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.v0) and abs(self.amplitude) <= self.v0):  # NaN fails
            raise ParameterError("sinusoid leader needs finite v0 >= |amplitude|")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ParameterError("sinusoid leader needs a finite omega > 0")

    def speed_at(self, t):
        return self.v0 + self.amplitude * np.sin(self.omega * t)

    def accel_at(self, t):
        return self.amplitude * self.omega * np.cos(self.omega * t)

    def displacement(self, t0, t1):
        return (self.v0 * (t1 - t0)
                + self.amplitude / self.omega * (np.cos(self.omega * t0)
                                                 - np.cos(self.omega * t1)))


@dataclass(frozen=True)
class PiecewiseConstantLeader:
    """Speed steps at the given finite breakpoints, which start at 0 and ascend;
    before 0 the first speed holds. Evaluated at a time or an array of times."""

    times: tuple[float, ...]
    speeds: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.speeds) or not self.times:
            raise ParameterError("piecewise leader needs matching times/speeds")
        if (self.times[0] != 0.0 or not all(map(math.isfinite, self.times))
                or any(b <= a for a, b in zip(self.times, self.times[1:]))):
            raise ParameterError("breakpoints must be finite, start at 0 and increase")
        if not all(math.isfinite(v) and v >= 0 for v in self.speeds):
            raise ParameterError("leader speeds must be finite and >= 0")

    def speed_at(self, t):
        # The speed of the last breakpoint at or before t; before 0, the first.
        i = np.maximum(np.searchsorted(self.times, t, side="right") - 1, 0)
        return np.asarray(self.speeds, dtype=float)[i]

    def accel_at(self, t):
        return np.zeros(np.shape(t))[()]  # the steps themselves are not resolved

    def displacement(self, t0, t1):
        # Segment by segment, in order, adding 0.0 where [t0, t1] misses one.
        total = 0.0
        for v, start, end in zip(self.speeds, self.times, self.times[1:] + (math.inf,)):
            lo, hi = np.maximum(t0, start), np.minimum(t1, end)
            total = total + np.where(hi > lo, v * (hi - lo), 0.0)
        return total


LeaderProfile = ConstantLeader | SinusoidLeader | PiecewiseConstantLeader


@dataclass(frozen=True)
class Ring:
    """Periodic road of the given circumference; the platoon closes on itself."""

    length: float

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise ParameterError("ring length must be finite and > 0")


def _validate_ordering(state: PlatoonState, boundary) -> None:
    x = state.positions
    if isinstance(boundary, Ring):
        gaps = np.mod(np.roll(x, 1) - x, boundary.length)
        gaps[0] = (x[-1] + boundary.length - x[0]) % boundary.length or boundary.length
        if np.any(gaps <= 0) or np.sum(gaps) > boundary.length * (1 + 1e-9):
            raise ParameterError("ring platoon gaps must be positive and fit the circumference")
    elif state.n_vehicles >= 2 and np.any(np.diff(x) >= 0):
        raise ParameterError("platoon must be ordered front to rear")


def simulate_platoons(members, dt: float, steps: int,
                      record_every: int = 1) -> list[TrajectorySurface]:
    """Fixed-step RK4 integration of a batch of coupled car-following systems.

    Each member is ``(law, initial, boundary)``. Members share ``dt``,
    ``steps``, the vehicle count, the law order and the boundary kind (ring
    or leader profile). The result holds one surface per member, recorded at
    every ``record_every``-th step from step 0: it equals ``slice_steps(0,
    None, record_every)`` of the fully recorded run.

    The state is one array of shape (order, members, followers): position,
    speed and, for a third-order law, acceleration. On a ring every vehicle
    follows its predecessor, wrapping modulo the circumference. Behind a
    leader profile the followers are vehicles 1..n-1, and vehicle 0 (column 0
    of the surface) takes the profile's exact displacement, speed and
    acceleration. No buffer holds a leader column, so every row the step
    loop reads or writes is contiguous: one subtract over a stage's flat
    (position, speed) rows gives each follower's gaps to the vehicle ahead,
    and the front followers' gaps are then overwritten from the lead vehicle
    or, on a ring, the rear one a lap on. On a 2-vCPU Xeon a (2, 6, 80) gap
    subtract took 1.95 µs on the strided operands a leader column makes and
    0.65 µs flat, and a (6, 80) speed clamp 1.38 against 0.63 µs.

    Everything but the law runs once for the whole batch, and each stack of
    laws (a run of neighbouring members, see :func:`law_spans`) is evaluated
    once per stage on a view of its rows, so every member is bitwise its own
    one-member run. Every operand in the step loop is an
    array: the step constants (dt/2, dt, 2, dt/6 and the clamp's 0) are 0-d
    arrays made once per call, the laws' constants are 0-d arrays bound once
    per law, and each stage buffer's kernels are bound to their rows once per
    call. On a platoon's few-element arrays a ufunc takes a 0-d array operand
    faster than a Python float, with the same bits. A stack's constants
    (:func:`law_spans`' (members, 1) columns) are repeated to its rows'
    (members, followers) shape once per call, as contiguous arrays: a column
    takes NumPy's broadcasting path. On a (2, 80) operand ``col * v`` took
    2.46 µs, with a full-shape constant 1.00 µs and with a 0-d one 1.04 µs; a
    broadcast view, with stride 0, is about as slow as the column. The guards
    are lookups, ``a[a.argmin()]``: 0.35 µs against a ufunc reduction's 1.04 µs
    on (1, 2) spacings, and 0.45 against 1.59 µs on a (6, 81) speed buffer.

    Speeds are clamped at zero after each step; clamp counts are reported on
    each surface. A spacing at or below a law's minimum at any stage aborts
    with :class:`CollisionError`; a NaN or -inf spacing at any stage (+inf
    where that member's smallest spacing is at most its minimum), or a
    non-finite state after the last step, with :class:`SolverFault`. A batch
    stops at the first fault that one of its members meets in its own run; in
    a batch of more than one, the error names the member and the vehicle.
    """
    if not dt > 0 or steps < 1:
        raise ConfigurationError("need dt > 0 and steps >= 1")
    if int(record_every) != record_every or record_every < 1:
        raise ConfigurationError("record_every must be a whole number >= 1")
    members = [tuple(m) for m in members]
    for law, initial, boundary in members:
        guard = RK4_DT_FRACTION * law.time_scale
        if dt > guard * (1 + 1e-12):
            raise ConfigurationError(
                f"dt={dt:g} exceeds stability guard {guard:g} for {law.name}")
        _validate_ordering(initial, boundary)
    if not members:
        return []
    laws, initials, boundaries = zip(*members)
    ring = isinstance(boundaries[0], Ring)
    n, third = initials[0].n_vehicles, laws[0].t_delay is not None
    if not ring and n < 2:
        raise ConfigurationError("linear-road run needs the leader plus a follower")
    if len({(initial.n_vehicles, law.t_delay is None, isinstance(b, Ring))
            for law, initial, b in members}) > 1:
        raise ConfigurationError(
            "batch members must share the vehicle count, law order and boundary kind")

    batch, order = len(members), 3 if third else 2
    first = 0 if ring else 1  # vehicle number of the front follower
    followers = n - first
    # One buffer per RK4 stage: rows [:order] hold the state the stage sees
    # (for the first stage, the state y at the step's start) and rows [1:] its
    # rates, so a state row is the rate of the row before it. Only followers
    # have columns: every row is contiguous.
    stages = np.zeros((4, order + 1, batch, followers))
    states, rates_of = list(stages[:, :order]), list(stages[:, 1:])
    y = states[0]
    for p, initial in enumerate(initials):
        y[0, p], y[1, p] = initial.positions[first:], initial.speeds[first:]
        if third and initial.accels is not None:
            y[2, p] = initial.accels[first:]
    gaps, v = np.empty((2, batch, followers)), np.empty((batch, followers))
    s, dv = gaps  # spacing and speed gap; v is the clamped speed
    # Views, so one argmin finds the smallest spacing and one subtract over a
    # stage's flat (position, speed) rows gives every gap but the front ones,
    # which are each member's first; a 1-d strided view takes a ufunc's fast
    # path, a 2-d one (gaps[:, :, 0]) its iterator, 0.39 against 0.82 µs.
    s_flat, gaps_flat = s.reshape(-1), gaps.reshape(-1)
    gaps_ahead, front_gaps = gaps_flat[1:], gaps_flat[::followers]
    s_front, dv_front = s[:, 0], dv[:, 0]
    total, twice = np.empty((2,) + y.shape)  # the RK4 sum and a doubled rate
    # The step loop's constants as 0-d arrays: every operand there is an array.
    half, whole, two, sixth, zero = (np.array(c, dtype=float)
                                     for c in (0.5 * dt, dt, 2.0, dt / 6.0, 0.0))
    spans = [(law, rows, {name: np.repeat(col, followers, axis=1) for name, col in cols.items()})
             for law, rows, cols in law_spans(laws)]

    def frame(b):  # stage buffer b's views, and each stack's kernel bound to them
        kernels = [(law.psi, (v[rows], s[rows], dv[rows]), columns, b[order][rows],
                    b[2][rows], np.array(law.t_delay, dtype=float) if third else None)
                   for law, rows, columns in spans]
        flat = b[:2].reshape(-1)
        # The front followers' own (position, speed), and on a ring the rear's.
        front = (b[0, :, -1], b[0, :, 0], b[1, :, -1], b[1, :, 0]) if ring else flat[::followers]
        return flat[:-1], flat[1:], front, b[1], kernels

    frames = [frame(b) for b in stages]
    s_min = np.array([law.s_min for law in laws])[:, None]
    s_floor = s_min.max()  # a spacing above every member's minimum needs no closer look
    if ring:
        lengths = np.array([b.length for b in boundaries])
    else:  # the lead vehicle's positions, then speeds, at every step and half step
        fronts = np.empty((steps + 1, 2 * batch))
        halves = np.empty((steps, 2 * batch))
        for p, (initial, leader) in enumerate(zip(initials, boundaries)):
            (fronts[:, p], fronts[:, batch + p], halves[:, p],
             halves[:, batch + p]) = _lead_track(leader, float(initial.positions[0]), dt, steps)

    def where(bad):  # the first faulty (member, vehicle), as an error names it
        p, j = divmod(int(np.argmax(bad)), bad.shape[1])
        return (None if batch == 1 else p), j + first

    def fault(what, t, bad):
        member, vehicle = where(bad)
        named = "" if member is None else f"member {member}, "
        return SolverFault(f"non-finite {what} at t={t:.6g} s, {named}vehicle {vehicle}")

    def rates(t, frame, lead):  # fills the frame's last rate row
        ahead, behind, front, speed, kernels = frame
        np.subtract(ahead, behind, gaps_ahead)
        # The front followers' gaps: to the lead vehicle, or the rear one a lap on.
        if ring:
            x_rear, x_front, v_rear, v_front = front
            np.subtract(np.add(x_rear, lengths, s_front), x_front, s_front)
            np.subtract(v_rear, v_front, dv_front)
        else:
            np.subtract(lead, front, front_gaps)
        if not s_flat[s_flat.argmin()] > s_floor:  # argmin finds a NaN first
            # A non-finite spacing counts only where its member's own test fails.
            looks = ~(np.minimum.reduce(s, axis=1) > s_min[:, 0])
            bad = ~np.isfinite(s) & looks[:, None]
            if bad.any():
                raise fault("spacing", t, bad)
            closed = s <= s_min
            if closed.any():
                member, vehicle = where(closed)
                raise CollisionError(t, vehicle, member)
        np.maximum(speed, zero, out=v)
        for psi, args, columns, out, accel, t_delay in kernels:
            if third:  # jerk = (target - acceleration) / t_delay
                np.divide(np.subtract(psi(*args, **columns), accel, out), t_delay, out)
            else:
                out[...] = psi(*args, **columns)

    def stage(j, h):  # stage j sees y + h * (stage j - 1's rates)
        np.add(y, np.multiply(rates_of[j - 1], h, states[j]), states[j])
        return frames[j]

    recorded = np.arange(0, steps + 1, record_every) * dt  # the times i * dt
    traj = np.empty((order, batch, len(recorded), n))  # traj[:, p] is member p's
    traj[:, :, 0, first:] = y
    if not ring:
        for p, leader in enumerate(boundaries):
            traj[0, p, :, 0] = fronts[::record_every, p]
            for o, profile in enumerate((leader.speed_at, leader.accel_at)[:order - 1], 1):
                traj[o, p, :, 0] = profile(recorded)
    speeds, speed_row = y[1], y[1].reshape(-1)
    clamps, (k1, k2, k3, k4) = np.zeros(batch, dtype=int), rates_of
    leads = (None,) * 3  # lead vehicle at the step's start, midpoint and end
    for i in range(steps):
        t, t_mid = i * dt, i * dt + 0.5 * dt
        if not ring:
            leads = fronts[i], halves[i], fronts[i + 1]
        rates(t, frames[0], leads[0])
        rates(t_mid, stage(1, half), leads[1])
        rates(t_mid, stage(2, half), leads[1])
        rates(t + dt, stage(3, whole), leads[2])
        # y += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), in that order
        np.add(k1, np.multiply(k2, two, total), total)
        total += np.multiply(k3, two, twice)
        total += k4
        y += np.multiply(total, sixth, total)
        if not speed_row[speed_row.argmin()] >= 0.0:  # a NaN enters, and clamps nothing
            below = speeds < 0.0
            clamps += np.count_nonzero(below, axis=1)
            speeds[below] = 0.0
        if (i + 1) % record_every == 0:
            traj[:, :, (i + 1) // record_every, first:] = y
    fronts = halves = leads = None  # free the lead tables before the surfaces check gaps
    finite = np.isfinite(y).all(axis=0)
    if not finite.all():
        raise fault("state", steps * dt, ~finite)
    return [TrajectorySurface(
        t0=initial.time, dt=dt * record_every, positions=traj[0, p],
        speeds=traj[1, p], accels=traj[2, p] if third else None,
        ring_length=boundary.length if ring else None, clamp_events=int(clamps[p]))
        for p, (initial, boundary) in enumerate(zip(initials, boundaries))]


def _lead_track(leader: LeaderProfile, x0: float, dt: float, steps: int):
    """The lead vehicle's position and speed at every step and half step.

    Step i starts at t = i * dt. The position at step i + 1 is the one at step
    i plus the profile's displacement over [t, t + dt], summed in step order;
    the speed there is the profile's at t + dt.
    """
    t, half = np.arange(steps) * dt, 0.5 * dt
    x = np.cumsum(np.append(x0, leader.displacement(t, t + dt)))
    v = np.append(leader.speed_at(0.0), leader.speed_at(t + dt))
    return x, v, x[:-1] + leader.displacement(t, t + half), leader.speed_at(t + half)


def simulate_continuous(law: AccelerationLaw, initial: PlatoonState,
                        boundary, dt: float, steps: int) -> TrajectorySurface:
    """RK4 run of one platoon: :func:`simulate_platoons` with one member."""
    return simulate_platoons([(law, initial, boundary)], dt, steps)[0]


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
    if not dt > 0 or steps < 1:
        raise ConfigurationError("need dt > 0 and steps >= 1")
    max_dt = cfl_max_dt(fd)
    if dt > max_dt * (1 + 1e-12):
        raise ConfigurationError(
            f"dt={dt:g} violates the vehicle-information bound {max_dt:g}")
    if isinstance(leader, Ring):
        raise ConfigurationError("spacing-rule simulators need a leader profile")
    _validate_ordering(initial, leader)
    v_f, tau, s_j = fd.v_f, fd.time_gap, fd.jam_spacing
    x = np.empty((steps + 1, initial.n_vehicles))
    x[0] = initial.positions
    x[:, 0] = _lead_track(leader, x[0, 0], dt, steps)[0]
    newell_step = dt == tau
    for i in range(steps):
        lead, foll = x[i, :-1], x[i, 1:]
        if newell_step:
            # dt equal to the time gap collapses the update algebraically to
            # Newell's rule min(X + dt v_f, X_lead - S_j), which is evaluated
            # in that form: this branch is simulate_newell.
            x[i + 1, 1:] = np.minimum(foll + dt * v_f, lead - s_j)
        else:
            x[i + 1, 1:] = foll + dt * np.minimum(v_f, (lead - foll - s_j) / tau)
    return TrajectorySurface(t0=initial.time, dt=dt, positions=x)


def simulate_newell(fd, initial: PlatoonState, leader: LeaderProfile,
                    steps: int) -> TrajectorySurface:
    """Spacing rule at exactly the time-gap step: X' = min(X + tau v_f, X_lead - S_j)."""
    return simulate_pipes_discrete(fd, initial, leader, _require_triangular(fd).time_gap,
                                   steps)
