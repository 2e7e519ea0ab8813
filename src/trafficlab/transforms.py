"""Conversions between vehicle-trajectory surfaces and road fields.

A :class:`TrajectorySurface` holds positions X[step][vehicle] with vehicle
index increasing rearward (vehicle n follows n-1). A :class:`EulerianField`
holds density/speed matrices on a fixed spatial grid. ``to_eulerian`` and
``to_trajectories`` convert between them through the cumulative count N(t, x)
and its inverse X(t, N); ``verify_transform_identities`` cross-checks the
derivative transformation identities between the two coordinate systems on a
smooth surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError


@dataclass(frozen=True)
class SpatialGrid:
    x0: float
    dx: float
    cells: int

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.dx) and self.dx > 0
                and self.cells > 0):
            raise ParameterError("grid needs a finite x0, finite dx > 0 and cells > 0")

    @property
    def span(self) -> float:
        return self.dx * self.cells

    @property
    def edges(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.cells + 1)

    @property
    def centers(self) -> np.ndarray:
        return self.x0 + self.dx * (np.arange(self.cells) + 0.5)


@dataclass(frozen=True)
class TrajectorySurface:
    """Discrete X(t, N) samples on a rectangular (time x vehicle) grid.

    ``ring_length`` marks ring topology: spacings are then taken modulo the
    circumference and the wrap-around pair is a valid leader/follower pair.
    ``clamp_events`` counts speed clamps applied by the simulator that
    produced the surface (zero for constructed/transformed surfaces).
    """

    t0: float
    dt: float
    positions: np.ndarray
    speeds: np.ndarray | None = None
    accels: np.ndarray | None = None
    ring_length: float | None = None
    clamp_events: int = 0

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        if x.ndim != 2 or x.shape[1] < 1:
            raise ParameterError("positions must be a (steps, vehicles) matrix")
        if not self.dt > 0:
            raise ParameterError("dt must be > 0")
        object.__setattr__(self, "positions", x)
        for name in ("speeds", "accels"):
            m = getattr(self, name)
            if m is not None:
                m = np.asarray(m, dtype=float)
                if m.shape != x.shape:
                    raise ParameterError(f"{name} must match positions shape")
                object.__setattr__(self, name, m)
        if x.shape[1] >= 2:
            gaps = self.spacings()
            if self.ring_length is not None:
                if np.any(np.sum(gaps, axis=1) >= self.ring_length):
                    raise ParameterError("platoon does not fit the ring circumference")
            if np.any(gaps <= 0.0):
                raise ParameterError("leader must stay strictly ahead of follower")

    @property
    def n_steps(self) -> int:
        return self.positions.shape[0]

    @property
    def n_vehicles(self) -> int:
        return self.positions.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps)

    def speed_matrix(self) -> np.ndarray:
        """Recorded speeds, or central/one-sided differences of positions."""
        if self.speeds is not None:
            return self.speeds
        if self.n_steps == 1:
            raise DomainError("cannot derive speeds from a single-step surface")
        return np.gradient(self.positions, self.dt, axis=0)

    def spacings(self) -> np.ndarray:
        """Spacing to the leader per (step, follower), follower index from 1."""
        gaps = self.positions[:, :-1] - self.positions[:, 1:]
        if self.ring_length is not None:
            gaps = np.mod(gaps, self.ring_length)
        return gaps

    def slice_steps(self, start: int = 0, stop: int | None = None,
                    stride: int = 1) -> "TrajectorySurface":
        sl = slice(start, stop, stride)
        return TrajectorySurface(
            t0=self.t0 + self.dt * start,
            dt=self.dt * stride,
            positions=self.positions[sl],
            speeds=None if self.speeds is None else self.speeds[sl],
            accels=None if self.accels is None else self.accels[sl],
            ring_length=self.ring_length,
            clamp_events=self.clamp_events,
        )


@dataclass(frozen=True)
class EulerianField:
    """Density/speed matrices on a (time x space) grid.

    Cells covered by no vehicle pair carry density 0 and NaN speed.
    """

    x0: float
    dx: float
    t0: float
    dt: float
    density: np.ndarray
    speed: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.density, dtype=float)
        v = np.asarray(self.speed, dtype=float)
        if k.ndim != 2 or k.shape != v.shape:
            raise ParameterError("density and speed must share a (steps, cells) shape")
        if not (self.dx > 0 and self.dt > 0):
            raise ParameterError("dx and dt must be > 0")
        object.__setattr__(self, "density", k)
        object.__setattr__(self, "speed", v)

    @property
    def n_steps(self) -> int:
        return self.density.shape[0]

    @property
    def n_cells(self) -> int:
        return self.density.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps)

    @property
    def cell_centers(self) -> np.ndarray:
        return self.x0 + self.dx * (np.arange(self.n_cells) + 0.5)

    def flow(self) -> np.ndarray:
        return np.where(self.density > 0.0, self.density * self.speed, 0.0)

    @property
    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.x0, self.dx, self.n_cells)


@dataclass(frozen=True)
class LagrangianDerivatives:
    X_t: float
    X_N: float
    X_tN: float
    X_NN: float
    X_tt: float


def lagrangian_derivatives(surface: TrajectorySurface, step, n) -> LagrangianDerivatives:
    """Finite-difference derivatives of X(t, N) at one sample, or at each of
    the samples named by equal-shaped integer arrays ``step`` and ``n``.

    Vehicle differences look toward the leader (X_N = X[n] - X[n-1], so
    X_N = -spacing); time derivatives are central, which restricts ``step``
    to the interior. X_NN needs two leaders and is NaN for n == 1.
    """
    x = surface.positions
    last = surface.n_steps - 1
    step, n = np.asarray(step), np.asarray(n)
    if np.any((n < 1) | (n > surface.n_vehicles - 1)):
        raise DomainError(f"vehicle index {n} needs a leader (1 <= n <= {surface.n_vehicles - 1})")
    if np.any((step < 1) | (step > last - 1)):
        raise DomainError(f"step {step} outside central-difference range [1, {last - 1}]")
    dt = surface.dt
    X_N = x[step, n] - x[step, n - 1]
    X_t = (x[step + 1, n] - x[step - 1, n]) / (2 * dt)
    X_tt = (x[step + 1, n] - 2 * x[step, n] + x[step - 1, n]) / dt**2
    X_tN = ((x[step + 1, n] - x[step + 1, n - 1])
            - (x[step - 1, n] - x[step - 1, n - 1])) / (2 * dt)
    X_NN = np.where(n >= 2, x[step, n] + x[step, n - 2] - 2 * x[step, n - 1], math.nan)[()]
    return LagrangianDerivatives(X_t=X_t, X_N=X_N, X_tN=X_tN, X_NN=X_NN, X_tt=X_tt)


def to_eulerian(surface: TrajectorySurface, grid: SpatialGrid) -> EulerianField:
    """Reconstruct (density, speed) fields from a trajectory surface.

    The cumulative count N(t, x) is piecewise linear through the knots
    (X_n, n), numbered from the rearmost vehicle, so a cell's vehicle mass is
    the difference of N at its edges. The flow integral F steps by the
    trailing vehicle's speed from knot to knot. Cell speed is flow mass over
    vehicle mass. On a ring, one knot from each neighbouring lap closes the
    wrap-around pair. Cells left uncovered get density 0 and NaN speed.
    """
    if surface.n_vehicles < 2:
        raise DomainError("need at least two vehicles to reconstruct density")
    ring = surface.ring_length
    if ring is not None and abs(grid.span - ring) > 1e-9 * ring:
        raise ParameterError("ring reconstruction needs grid span == ring length")

    x = surface.positions
    v = surface.speed_matrix()
    if ring is not None:
        x = grid.x0 + np.mod(x - grid.x0, ring)
    order = np.argsort(x, axis=1)  # rearmost first
    x = np.take_along_axis(x, order, axis=1)
    v = np.take_along_axis(v, order, axis=1)
    if ring is not None:
        x = np.hstack([x[:, -1:] - ring, x, x[:, :1] + ring])
        v = np.hstack([v[:, -1:], v, v[:, :1]])
    count = np.arange(x.shape[1], dtype=float)
    flow = np.cumsum(np.hstack([np.zeros_like(x[:, :1]), v[:, :-1]]), axis=1)

    edges = grid.edges
    mass = np.empty((surface.n_steps, grid.cells))
    flow_mass = np.empty_like(mass)
    for t in range(surface.n_steps):
        at = np.interp(edges, x[t], count)
        np.subtract(at[1:], at[:-1], out=mass[t])
        at = np.interp(edges, x[t], flow[t])
        np.subtract(at[1:], at[:-1], out=flow_mass[t])
    density = mass / grid.dx
    speed = np.divide(flow_mass, mass, out=np.full_like(mass, math.nan),
                      where=mass > 0.0)
    return EulerianField(x0=grid.x0, dx=grid.dx, t0=surface.t0, dt=surface.dt,
                         density=density, speed=speed)


def cumulative_count(field: EulerianField, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Vehicle count downstream of each cell edge: n(t, x) = integral_x^max k.

    This is the count N of ``to_eulerian`` read from the downstream end,
    n(t, x) = N(t, x_max) - N(t, x). Returns (edges, counts); counts decrease
    with x and reach 0 at the last edge.
    """
    k = field.density[step]
    edges = field.x0 + field.dx * np.arange(field.n_cells + 1)
    counts = np.concatenate([np.cumsum((k * field.dx)[::-1])[::-1], [0.0]])
    return edges, counts


def to_trajectories(field: EulerianField, n_vehicles: int,
                    seed_positions: np.ndarray | None = None) -> TrajectorySurface:
    """Invert the cumulative count: X(t, N) is the x where n(t, x) = N.

    n is ``cumulative_count``, the downstream reading of ``to_eulerian``'s N.
    ``seed_positions`` (positions at step 0, leader first) anchor the count
    offset of vehicle 0 so that round trips preserve vehicle labels; without
    seeds vehicle 0 sits at the downstream edge of the density support.
    """
    if n_vehicles < 1:
        raise DomainError("need at least one vehicle")
    # Every row's cumulative_count at once: the same sums in the same order.
    edges = field.x0 + field.dx * np.arange(field.n_cells + 1)
    all_counts = np.zeros((field.n_steps, field.n_cells + 1))
    all_counts[:, -2::-1] = np.cumsum((field.density * field.dx)[:, ::-1], axis=1)
    offset = 0.0
    if seed_positions is not None:
        offset = float(np.interp(seed_positions[0], edges, all_counts[0]))
    targets = np.arange(n_vehicles) + offset

    positions = np.empty((field.n_steps, n_vehicles))
    for t, counts in enumerate(all_counts):
        total = counts[0]
        if targets[-1] > total + 1e-6:
            raise DomainError(
                f"field holds {total:.3f} vehicles at step {t}, need {targets[-1]:.3f}")
        # Trim to the density support: flat zero-count plateaus outside it
        # would otherwise make the inversion pick an arbitrary far edge.
        occupied = np.flatnonzero(field.density[t] > 0.0)
        if occupied.size == 0:
            raise DomainError(f"field is empty at step {t}")
        sl = slice(occupied[0], occupied[-1] + 2)
        step_targets = np.clip(targets, counts[sl][-1], counts[sl][0])
        # counts decrease with x; reverse both for an increasing interpolant.
        positions[t] = np.interp(step_targets, counts[sl][::-1], edges[sl][::-1])
    return TrajectorySurface(t0=field.t0, dt=field.dt, positions=positions)


def traveling_wave_surface(n_vehicles: int, steps: int, dt: float, v0: float,
                           s0: float, eps: float, alpha: float, beta: float,
                           lead_x: float = 0.0) -> TrajectorySurface:
    """Smooth synthetic surface X = lead_x + v0 t - s0 N + eps sin(alpha N - beta t).

    All analytic derivatives are known, which makes it the standard oracle for
    the transformation-identity checks. Requires eps*alpha < s0 (no collision)
    and eps*beta < v0 (no reversing).
    """
    if eps * alpha >= s0:
        raise ParameterError("perturbation too large: vehicles would collide")
    if eps * beta >= v0:
        raise ParameterError("perturbation too large: speeds would go negative")
    n = np.arange(n_vehicles)[None, :]
    t = (dt * np.arange(steps))[:, None]
    phase = alpha * n - beta * t
    x = lead_x + v0 * t - s0 * n + eps * np.sin(phase)
    v = v0 - eps * beta * np.cos(phase)
    return TrajectorySurface(t0=0.0, dt=dt, positions=x, speeds=v)


TRANSFORM_IDENTITY_ROWS = (
    "density", "speed", "flow",
    "speed_rate", "speed_gradient", "density_rate", "density_gradient",
    "acceleration", "speed_difference", "spacing_difference",
)


def verify_transform_identities(surface: TrajectorySurface,
                                grid: SpatialGrid) -> dict[str, float]:
    """Max residual per implemented transformation-identity row.

    One side of each row comes from vehicle/time finite differences of the
    surface; the other from finite differences of the reconstructed field,
    sampled at the vehicle's position. Residuals shrink at first order or
    better as the surface and grid refine together. Rows involving third
    derivatives (speed curvature, jerk) are not implemented.
    """
    if surface.n_steps < 2 or grid.cells < 2:
        raise DomainError("identity residuals need two time samples and two cells")
    field = to_eulerian(surface, grid)
    k = field.density.copy()
    v = field.speed
    k[np.isnan(v)] = math.nan  # exclude uncovered cells from differencing
    for row in range(k.shape[0]):
        covered = np.flatnonzero(np.isfinite(k[row]))
        if covered.size and covered.size < k.shape[1]:
            # Outermost covered cells are only partially covered by the
            # platoon; their averages are biased and would poison gradients.
            k[row, covered[0]] = math.nan
            k[row, covered[-1]] = math.nan
    dx, dt = field.dx, surface.dt
    k_x = np.gradient(k, dx, axis=1)
    k_t = np.gradient(k, dt, axis=0)
    v_x = np.gradient(v, dx, axis=1)
    v_t = np.gradient(v, dt, axis=0)

    margin = 2.5 * dx
    x_lo, x_hi = field.x0 + margin, field.x0 + grid.span - margin
    x = surface.positions
    interior = np.zeros(x.shape, dtype=bool)
    interior[1:-1, 2:-1] = True  # central time differences, two leaders, a follower
    step, n = np.nonzero(interior & (x_lo <= x) & (x <= x_hi))
    pos = x[step, n]
    # Linear interpolation over cell centres; the margin keeps both neighbour
    # cells on the grid. A sample where any field is NaN is skipped.
    cell = (pos - field.x0) / dx - 0.5
    i0 = np.floor(cell).astype(np.intp)
    w = cell - i0
    values = np.stack([k, v, k_x, k_t, v_x, v_t])
    sampled = (1.0 - w) * values[:, step, i0] + w * values[:, step, i0 + 1]
    keep = ~np.any(np.isnan(sampled), axis=0)
    if not np.any(keep):
        raise DomainError("no interior samples: grid does not cover the platoon")
    ek, ev, ek_x, ek_t, ev_x, ev_t = sampled[:, keep]
    lp = lagrangian_derivatives(surface, step[keep], n[keep])
    pairs = {
        "density": (ek, -1.0 / lp.X_N),
        "speed": (ev, lp.X_t),
        "flow": (ek * ev, -lp.X_t / lp.X_N),
        "speed_rate": (ev_t, lp.X_tt - lp.X_t / lp.X_N * lp.X_tN),
        "speed_gradient": (ev_x, lp.X_tN / lp.X_N),
        "density_rate": (ek_t, (lp.X_tN * lp.X_N - lp.X_t * lp.X_NN) / lp.X_N**3),
        "density_gradient": (ek_x, lp.X_NN / lp.X_N**3),
        "acceleration": (ev_t + ev * ev_x, lp.X_tt),
        "speed_difference": (-ev_x / ek, lp.X_tN),
        "spacing_difference": (-ek_x / ek ** 3, lp.X_NN),
    }
    # A NaN residual is skipped, as Python's max skips it.
    return {row: float(np.fmax.reduce(np.abs(lhs - rhs), initial=0.0))
            for row, (lhs, rhs) in pairs.items()}
