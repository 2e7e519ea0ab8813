"""Equilibrium flow-density relations and their spacing/density forms.

Each diagram exposes the same surface:

* ``phi(k)``        flow at density ``k`` (veh/s)
* ``theta(s)``      speed at spacing ``s`` (m/s), ``theta(s) = s * phi(1/s)``
* ``eta(k)``        speed at density ``k``, ``eta(k) = theta(1/k)``
* ``eta_prime(k)``  d(speed)/d(density)

All evaluators accept scalars or numpy arrays and raise
:class:`~trafficlab.errors.DomainError` outside their domain (no clamping:
silent clamps hide simulator blow-ups).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

# Relative slack for floating-point domain boundaries (k = k_j, s = 1/k_j).
_EDGE_TOL = 1e-12


def _checked(formula, check, x, bound):
    """``formula(x)`` on ``x`` as a float array, after ``check(x, bound)``; a
    float for scalar ``x``."""
    x = np.asarray(x, dtype=float)
    check(x, bound)
    y = formula(x)
    return float(y) if x.ndim == 0 else y


class _Diagram:
    """Every diagram's jam spacing and checked evaluators: each runs its
    domain check, then the diagram's bare ``_phi``, ``_eta``, ``_eta_prime`` or
    ``_theta``. The laws' kernels call the bare spacing forms, ``_theta`` and
    ``_theta_prime``, directly, behind their own spacing check."""

    @property
    def jam_spacing(self) -> float:
        return 1.0 / self.k_j

    def _check_spacing(self, s):
        _check_spacing_range(s, self.jam_spacing)

    def phi(self, k):
        return _checked(self._phi, _check_density_range, k, self.k_j)

    def eta(self, k):
        return _checked(self._eta, _check_density_positive, k, self.k_j)

    def eta_prime(self, k):
        return _checked(self._eta_prime, _check_density_positive, k, self.k_j)

    def theta(self, s):
        return _checked(self._theta, _check_spacing_range, s, self.jam_spacing)


@dataclass(frozen=True)
class TriangularDiagram(_Diagram):
    """Two-branch diagram: free-flow slope ``v_f``, congested slope ``-w``."""

    v_f: float
    w: float
    k_j: float

    def __post_init__(self):
        if self.v_f <= 0 or self.w <= 0 or self.k_j <= 0:
            raise ParameterError("triangular diagram needs v_f, w, k_j > 0")
        # _theta and _theta_prime read their constants as 0-d arrays, made
        # once: a ufunc takes them faster than Python floats, with the same bits.
        s_break = (self.v_f / self.w + 1.0) / self.k_j  # theta's kink
        object.__setattr__(self, "_theta_of", tuple(
            np.array(x, dtype=float) for x in (self.v_f, self.w, self.k_j, 1.0)))
        object.__setattr__(self, "_theta_prime_of", tuple(
            np.array(x, dtype=float) for x in (s_break, self.w * self.k_j, 0.0)))

    @property
    def time_gap(self) -> float:
        """Headway increment per vehicle on the congested branch, 1/(w k_j)."""
        return 1.0 / (self.w * self.k_j)

    @property
    def critical_density(self) -> float:
        return self.w * self.k_j / (self.v_f + self.w)

    @property
    def capacity(self) -> float:
        return self.v_f * self.w * self.k_j / (self.v_f + self.w)

    def _phi(self, k):
        return np.minimum(self.v_f * k, self.w * (self.k_j - k))

    def _theta(self, s):
        v_f, w, k_j, one = self._theta_of
        return np.minimum(v_f, w * (k_j * s - one))

    def _theta_prime(self, s):
        s_break, slope, zero = self._theta_prime_of
        # Kink at s_break: report the congested-branch slope there.
        return np.where(s <= s_break, slope, zero)

    def _eta(self, k):
        return np.minimum(self.v_f, self.w * (self.k_j / k - 1.0))

    def _eta_prime(self, k):
        congested = k >= self.critical_density
        return np.where(congested, -self.w * self.k_j / k**2, 0.0)

    def max_theta_slope(self) -> float:
        return self.w * self.k_j

    def max_wave_speed(self) -> float:
        return max(self.v_f, self.w)


@dataclass(frozen=True)
class GreenshieldsDiagram(_Diagram):
    """Parabolic diagram ``phi(k) = v_f k (1 - k/k_j)``."""

    v_f: float
    k_j: float

    def __post_init__(self):
        if self.v_f <= 0 or self.k_j <= 0:
            raise ParameterError("greenshields diagram needs v_f, k_j > 0")

    @property
    def critical_density(self) -> float:
        return self.k_j / 2.0

    @property
    def capacity(self) -> float:
        return self.v_f * self.k_j / 4.0

    def _phi(self, k):
        return self.v_f * k * (1.0 - k / self.k_j)

    def _theta(self, s):
        # Analytic extension for every s >= 1/k_j; tends to v_f as s -> inf.
        return self.v_f * (1.0 - 1.0 / (s * self.k_j))

    def _theta_prime(self, s):
        return self.v_f / (s * s * self.k_j)  # a float's s**2 is pow(), not s * s

    def _eta(self, k):
        return self.v_f * (1.0 - k / self.k_j)

    def _eta_prime(self, k):
        return np.full_like(k, -self.v_f / self.k_j)

    def max_theta_slope(self) -> float:
        # theta'(s) = v_f/(s^2 k_j) is largest at the jam spacing: v_f * k_j.
        return self.v_f * self.k_j

    def max_wave_speed(self) -> float:
        return self.v_f


@dataclass(frozen=True)
class TabulatedDiagram(_Diagram):
    """Monotone piecewise-linear interpolation of sorted (k, q) samples.

    The table must start at (0, 0) and end at (k_j, 0); linear interpolation
    keeps Godunov demand/supply fluxes well defined and makes concavity
    checkable from the samples themselves.
    """

    k_table: np.ndarray
    q_table: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_table, dtype=float)
        q = np.asarray(self.q_table, dtype=float)
        if k.ndim != 1 or k.shape != q.shape or k.size < 3:
            raise ParameterError("tabulated diagram needs matching 1-d tables, >= 3 rows")
        if np.any(np.diff(k) <= 0):
            raise ParameterError("tabulated densities must be strictly increasing")
        if k[0] != 0.0 or abs(q[0]) > 0 or abs(q[-1]) > 0:
            raise ParameterError("tabulated diagram must run from (0, 0) to (k_j, 0)")
        object.__setattr__(self, "k_table", k)
        object.__setattr__(self, "q_table", q)

    @property
    def v_f(self) -> float:
        return self.q_table[1] / self.k_table[1]

    @property
    def k_j(self) -> float:
        return float(self.k_table[-1])

    @property
    def critical_density(self) -> float:
        # Piecewise-linear flow peaks at a vertex.
        return float(self.k_table[int(np.argmax(self.q_table))])

    @property
    def capacity(self) -> float:
        return float(np.max(self.q_table))

    def _phi(self, k):
        return np.interp(k, self.k_table, self.q_table)

    def _theta(self, s):
        return s * np.interp(1.0 / s, self.k_table, self.q_table)

    def _theta_prime(self, s):
        h = 1e-6 * self.jam_spacing
        lo = np.maximum(s - h, self.jam_spacing)
        return (self._theta(s + h) - self._theta(lo)) / (s + h - lo)

    def _eta(self, k):
        return np.interp(k, self.k_table, self.q_table) / k

    def _eta_prime(self, k):
        h = 1e-6 * self.k_j
        hi = np.minimum(k + h, self.k_j)  # hi and lo lie in (0, k_j]: bare _eta
        lo = np.maximum(k - h, self.k_table[1] * 1e-6)
        return (self._eta(hi) - self._eta(lo)) / (hi - lo)

    def max_theta_slope(self) -> float:
        # On each linear piece q = q_i + m_i (k - k_i), theta(s) = s*phi(1/s)
        # has constant slope q_i - m_i k_i (the piece's intercept at k = 0).
        slopes = np.diff(self.q_table) / np.diff(self.k_table)
        intercepts = self.q_table[:-1] - slopes * self.k_table[:-1]
        return float(np.max(np.abs(intercepts)))

    def max_wave_speed(self) -> float:
        slopes = np.diff(self.q_table) / np.diff(self.k_table)
        return float(np.max(np.abs(slopes)))


FundamentalDiagram = TriangularDiagram | GreenshieldsDiagram | TabulatedDiagram


def _least(x) -> float:
    """Smallest non-NaN element of ``x`` as a float; ``inf`` when there is none.

    ``_least(x) < lim`` holds exactly where ``np.any(x < lim)`` does, in one
    reduction that costs a third as much on the short arrays of the
    time-stepping loops: ``fmin`` skips NaN, which never compares true, and
    ``initial`` covers 0-d and empty input. Integers are made float first,
    since ``initial=inf`` cannot be cast to an integer.
    """
    return np.fmin.reduce(np.asarray(x, dtype=float), axis=None, initial=np.inf)


def _greatest(x) -> float:
    """Largest non-NaN element of ``x`` as a float; ``-inf`` when there is none."""
    return np.fmax.reduce(np.asarray(x, dtype=float), axis=None, initial=-np.inf)


def _check_density_range(k: np.ndarray, k_j: float):
    if _least(k) < -_EDGE_TOL * k_j or _greatest(k) > k_j * (1.0 + _EDGE_TOL):
        raise DomainError(f"density outside [0, k_j={k_j:g}]")


def _check_density_positive(k: np.ndarray, k_j: float):
    if _least(k) <= 0:
        raise DomainError("density must be > 0 for speed-density evaluation")
    if _greatest(k) > k_j * (1.0 + _EDGE_TOL):
        raise DomainError(f"density above jam density {k_j:g}")


def _check_spacing_range(s: np.ndarray, s_j: float):
    if _least(s) < s_j * (1.0 - _EDGE_TOL):
        raise DomainError(f"spacing below jam spacing {s_j:g}")


def cfl_max_dt(fd: FundamentalDiagram) -> float:
    """Largest stable time step for a one-vehicle step: ``1 / max_s |theta'(s)|``,
    which for a triangular diagram is the time gap ``1/(w k_j)``."""
    slope = fd.max_theta_slope()
    return math.inf if slope == 0.0 else 1.0 / slope


def diagram_from_config(cfg: dict) -> FundamentalDiagram:
    """Build a diagram from a scenario-JSON ``fd`` section (already validated)."""
    kind = cfg["kind"]
    if kind == "triangular":
        return TriangularDiagram(v_f=cfg["v_f"], w=cfg["w"], k_j=cfg["k_j"])
    if kind == "greenshields":
        return GreenshieldsDiagram(v_f=cfg["v_f"], k_j=cfg["k_j"])
    if kind == "tabulated":
        table = np.asarray(cfg["table"], dtype=float)
        return TabulatedDiagram(k_table=table[:, 0], q_table=table[:, 1])
    raise ParameterError(f"unknown fundamental diagram kind {kind!r}")
