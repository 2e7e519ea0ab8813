"""Steady-state speed-density relations of acceleration laws.

A steady state has every vehicle at the same speed and spacing, so it solves
``psi(v, 1/k, 0) = 0``. Laws whose acceleration vanishes identically at
zero speed difference (pure stimulus-response families) admit no unique
speed-density relation and are reported as degenerate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .laws import AccelerationLaw

# |psi| <= DEGENERACY_RTOL * model acceleration scale across the whole
# bracket marks a degenerate (v-independent) equilibrium equation.
DEGENERACY_RTOL = 1e-12
RESIDUAL_RTOL = 1e-12
_SCAN_POINTS = 128


class EquilibriumStatus(enum.Enum):
    OK = "ok"
    DEGENERATE = "degenerate"
    NO_ROOT = "no_root"


@dataclass(frozen=True)
class EquilibriumResult:
    status: EquilibriumStatus
    speed: float = math.nan
    residual: float = math.nan
    multiplicity: int = 0


def _acceleration_scale(psi, s: float, v_max: float) -> float:
    """Typical |psi| at spacing ``s``, probed over speeds and speed gaps.

    Probing dv != 0 keeps the scale positive for stimulus-response laws whose
    dv = 0 slice vanishes identically; the floor of 1 makes the degeneracy
    threshold unit-independent for desk-scale models.
    """
    v = np.linspace(0.0, v_max, 9)
    return max(1.0, *(float(np.max(np.abs(psi(v, s, dv))))
                      for dv in (-0.1 * v_max, 0.0, 0.1 * v_max)))


def _bisect(g, lo: float, hi: float, g_lo: float) -> float:
    # Width-based termination: an |g| cutoff scaled by the global bracket
    # can be grossly loose for steep laws (e.g. large speed exponents).
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            return mid
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_lo < 0) == (g_mid < 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_equilibrium_speed(law: AccelerationLaw, k: float) -> EquilibriumResult:
    """Solve psi(v, 1/k, 0) = 0 for v by bracket scan, bisection, Newton polish.

    The law's domain check runs once, on the spacing 1/k; every evaluation
    after it is the bare ``psi`` at that spacing. Returns DEGENERATE when psi
    is independent of v on the bracket (the whole slice is numerically zero),
    NO_ROOT when no sign change exists, and the smallest nonnegative root
    otherwise (with the count of sign changes as ``multiplicity``). A
    density that is not finite or not positive raises ``DomainError``.
    """
    if not math.isfinite(k):
        raise DomainError(f"density must be finite, got {k!r}")
    if k <= 0:
        raise DomainError("density must be > 0")
    s = 1.0 / k
    law.check(s)
    # Generous bracket: IDM-style laws change sign within [0, v_f].
    v_max = 2.0 * law.v_free if law.v_free is not None else 100.0
    g = lambda v: float(law.psi(v, s, 0.0))

    scale = _acceleration_scale(law.psi, s, v_max)
    grid = np.linspace(0.0, v_max, _SCAN_POINTS)
    g_grid = np.asarray(law.psi(grid, s, 0.0), dtype=float)
    if np.max(np.abs(g_grid)) <= DEGENERACY_RTOL * scale:
        return EquilibriumResult(EquilibriumStatus.DEGENERATE)

    signs = np.sign(g_grid)
    crossings = np.flatnonzero((signs[:-1] != signs[1:]) & (signs[:-1] != 0))
    # A zero at a later scan point ends a crossing: only a zero at v = 0 is
    # a root found without bisection.
    if signs[0] != 0 and not crossings.size:
        return EquilibriumResult(EquilibriumStatus.NO_ROOT)

    if signs[0] == 0:
        v_root = 0.0
    else:
        i = crossings[0]
        v_root = _bisect(g, float(grid[i]), float(grid[i + 1]), float(g_grid[i]))
        # Residual target relative to the acceleration magnitude near
        # standstill, the scale the residual invariant is stated against.
        tol = RESIDUAL_RTOL * max(1.0, abs(g(0.0)))
        # Newton polish with a finite-difference slope.
        for _ in range(4):
            g_v = g(v_root)
            if abs(g_v) <= 1e-3 * tol:
                break
            h = max(1e-7 * abs(v_root), 1e-9)
            slope = (g(v_root + h) - g(v_root - h)) / (2 * h)
            if slope == 0.0:
                break
            step = g_v / slope
            if not math.isfinite(step) or abs(step) > 0.5 * v_max:
                break
            v_root -= step
        v_root = max(v_root, 0.0)

    return EquilibriumResult(EquilibriumStatus.OK, speed=v_root, residual=abs(g(v_root)),
                             multiplicity=max(crossings.size, 1))


def idm_closed_form_density(v: float, v_f: float, tau: float, d: float,
                            delta: float) -> float:
    """Density at equilibrium speed ``v`` for the IDM family.

    k = (1/(d + tau v)) * (1 - (v/v_f)^delta)^(1/2); gives k = 0 at v = v_f
    and k = 1/d at v = 0. As delta grows it approaches the two-branch form
    v = min(v_f, (1/k - d)/tau).
    """
    if v < 0 or v > v_f:
        raise DomainError("equilibrium speed must lie in [0, v_f]")
    return math.sqrt(max(1.0 - (v / v_f) ** delta, 0.0)) / (d + tau * v)


@dataclass(frozen=True)
class SteadyStateCurve:
    """Equilibrium samples; ``monotone_violations`` counts grid intervals
    where the speed increases with density (reported, not rejected)."""

    k: np.ndarray
    v: np.ndarray
    q: np.ndarray
    degenerate: bool
    statuses: tuple[EquilibriumStatus, ...]
    monotone_violations: int = 0


def _steady_speeds(law: AccelerationLaw,
                   k_grid: np.ndarray) -> tuple[np.ndarray, tuple[EquilibriumStatus, ...]]:
    """Each density's steady speed (NaN unless OK) and status, from one solve
    per density, in grid order."""
    results = [solve_equilibrium_speed(law, float(k)) for k in k_grid]
    return (np.array([res.speed for res in results], dtype=float),
            tuple(res.status for res in results))


def fundamental_diagram_of(law: AccelerationLaw, k_grid) -> SteadyStateCurve:
    """Equilibrium (k, v, q) samples; flagged degenerate if any point is."""
    k_grid = np.asarray(k_grid, dtype=float)
    if np.any(np.diff(k_grid) <= 0):
        raise DomainError("k_grid must be sorted strictly increasing")
    speeds, statuses = _steady_speeds(law, k_grid)
    dv = np.diff(speeds)
    return SteadyStateCurve(
        k=k_grid, v=speeds, q=k_grid * speeds,
        degenerate=EquilibriumStatus.DEGENERATE in statuses, statuses=statuses,
        monotone_violations=int(np.count_nonzero(dv[np.isfinite(dv)] > 1e-9)),
    )
