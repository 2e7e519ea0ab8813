"""String stability of platoons and linear stability of the matching continuum.

For small monochromatic oscillations around a steady state (v0, s0), the
follower-to-leader amplitude ratio of a second-order law is

    ratio(w) = (psi_s + i w psi_dv) / (-w^2 - i w psi_v + psi_s + i w psi_dv)

with the partials taken at (v0, s0, 0). Two string-stability verdicts are
computed side by side and never merged:

* ``string_stability_classic``: the inequality psi_v^2 > 2 psi_s.
* ``string_stability_exact``: from |den|^2 - |num|^2 =
  w^2 (w^2 + psi_v^2 - 2 psi_v psi_dv - 2 psi_s), the ratio stays below one
  for every frequency iff psi_v^2 - 2 psi_v psi_dv - 2 psi_s > 0.

The two agree whenever psi_dv = 0 and can disagree otherwise; both are
reported so the discrepancy stays observable.

Continuum linear stability perturbs the paired (density, speed) system with
exp(i(m x - w t)) and demands both roots of

    w^2 + (2 b1 + 2 i b2) w + (d1 + i d2) = 0

have negative imaginary parts, where (at wavenumber m)

    2 b1 = -(2 v0 - psi_dv s0) m        2 b2 = -psi_v
    d1 = (v0 - psi_dv s0) v0 m^2        d2 = (psi_v v0 + psi_s s0) m.

The closed-form criterion is b2 > 0 and 4 b1 b2 d2 - 4 d1 b2^2 > d2^2; both
sides scale as m^2, so the verdict is m-independent and evaluated at m = 1.
A direct quadratic-root solve is kept as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .laws import AccelerationLaw, partials_at
from .steady_state import EquilibriumStatus, solve_equilibrium_speed

OMEGA_RANGE = (1e-3, 1e3)
_N_PROBE = 200


def amplification_ratio(law: AccelerationLaw, v0: float, s0: float,
                        omega: float) -> complex:
    """Complex follower/leader amplitude ratio at frequency ``omega``."""
    if omega <= 0:
        raise DomainError("frequency must be > 0")
    p_v, p_s, p_dv = (float(p) for p in partials_at(law, v0, s0, 0.0))
    num = p_s + 1j * omega * p_dv
    den = -omega**2 - 1j * omega * p_v + p_s + 1j * omega * p_dv
    if abs(den) < 1e-14:
        raise SingularityError(f"amplification denominator vanishes at omega={omega:g}")
    return num / den


def string_stability_classic(law: AccelerationLaw, v0: float, s0: float) -> bool:
    """The classic low-frequency criterion psi_v^2 > 2 psi_s.

    Drops the psi_v * psi_dv cross term that the amplification ratio
    carries; see :func:`string_stability_exact` for the full condition.
    """
    p_v, p_s, _ = (float(p) for p in partials_at(law, v0, s0, 0.0))
    return p_v**2 > 2.0 * p_s


@dataclass(frozen=True)
class ExactStringStability:
    stable: bool
    worst_omega: float
    worst_ratio: float
    margin: float  # psi_v^2 - 2 psi_v psi_dv - 2 psi_s; stable iff > 0


def string_stability_exact(law: AccelerationLaw, v0: float, s0: float) -> ExactStringStability:
    """Frequency-uniform criterion plus a numeric sweep of the worst ratio.

    The verdict comes from the closed-form margin; the sweep (log-spaced
    probes over ``OMEGA_RANGE`` refined by golden section) locates the
    maximizing frequency, which the closed form does not provide.
    """
    p_v, p_s, p_dv = (float(p) for p in partials_at(law, v0, s0, 0.0))
    margin = p_v**2 - 2.0 * p_v * p_dv - 2.0 * p_s

    def ratio_mag(omega):
        # |amplification_ratio| on these partials; omega is a float or an array
        num = p_s + 1j * omega * p_dv
        den = -omega**2 - 1j * omega * p_v + p_s + 1j * omega * p_dv
        vanishing = np.flatnonzero(abs(den) < 1e-14)
        if vanishing.size:
            omega = np.atleast_1d(omega)[vanishing[0]]
            raise SingularityError(f"amplification denominator vanishes at omega={omega:g}")
        return abs(num / den)

    lo, hi = math.log(OMEGA_RANGE[0]), math.log(OMEGA_RANGE[1])
    probes = np.linspace(lo, hi, _N_PROBE)
    mags = ratio_mag(np.exp(probes))
    i_best = int(np.argmax(mags))
    a = probes[max(i_best - 1, 0)]
    b = probes[min(i_best + 1, _N_PROBE - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = ratio_mag(math.exp(c)), ratio_mag(math.exp(d))
    for _ in range(60):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = ratio_mag(math.exp(d))
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = ratio_mag(math.exp(c))
    log_w = 0.5 * (a + b)
    worst = max(ratio_mag(math.exp(log_w)), float(mags[i_best]))
    return ExactStringStability(stable=margin > 0.0,
                                worst_omega=math.exp(log_w),
                                worst_ratio=worst, margin=margin)


@dataclass(frozen=True)
class ContinuumStability:
    stable_criterion: bool
    stable_roots: bool
    b1: float
    b2: float
    d1: float
    d2: float
    roots: tuple[complex, complex]


def continuum_coefficients(law: AccelerationLaw, v0: float, s0: float,
                           m: float = 1.0) -> tuple[float, float, float, float]:
    p_v, p_s, p_dv = (float(p) for p in partials_at(law, v0, s0, 0.0))
    b1 = -(2.0 * v0 - p_dv * s0) * m / 2.0
    b2 = -p_v / 2.0
    d1 = (v0 - p_dv * s0) * v0 * m**2
    d2 = (p_v * v0 + p_s * s0) * m
    return b1, b2, d1, d2


def continuum_linear_stability(law: AccelerationLaw, v0: float, s0: float,
                               m: float = 1.0) -> ContinuumStability:
    """Both the coefficient criterion and the quadratic-root oracle."""
    b1, b2, d1, d2 = continuum_coefficients(law, v0, s0, m)
    criterion = b2 > 0.0 and 4.0 * b1 * b2 * d2 - 4.0 * d1 * b2**2 > d2**2
    roots = np.roots([1.0, 2.0 * b1 + 2.0j * b2, d1 + 1.0j * d2])
    # Strictly negative imaginary parts; a marginal root (Im = 0 up to
    # round-off, e.g. the free-flow contact mode) must not count as stable.
    tol = 1e-12 * (1.0 + np.abs(roots))
    by_roots = bool(np.all(roots.imag < -tol))
    return ContinuumStability(stable_criterion=criterion, stable_roots=by_roots,
                              b1=b1, b2=b2, d1=d1, d2=d2,
                              roots=(complex(roots[0]), complex(roots[1])))


@dataclass(frozen=True)
class StabilityReport:
    v0: float
    s0: float
    psi_v: float
    psi_s: float
    psi_dv: float
    classic_string_stable: bool
    exact_string_stable: bool
    worst_omega: float
    worst_ratio: float
    continuum_linear_stable: bool
    notes: str = ""


def stability_report(law: AccelerationLaw, k0: float,
                     v0: float | None = None) -> StabilityReport:
    """Full verdict set at density ``k0`` (steady speed solved unless given)."""
    s0 = 1.0 / k0
    if v0 is None:
        res = solve_equilibrium_speed(law, k0)
        if res.status is not EquilibriumStatus.OK:
            raise DomainError(
                f"{law.name} has no unique steady state at k={k0:g} ({res.status.value})")
        v0 = res.speed
    p_v, p_s, p_dv = (float(p) for p in partials_at(law, v0, s0, 0.0))
    exact = string_stability_exact(law, v0, s0)
    cont = continuum_linear_stability(law, v0, s0)
    notes = ""
    classic = string_stability_classic(law, v0, s0)
    if classic != exact.stable:
        notes = "classic and exact string criteria disagree (psi_dv cross term)"
    return StabilityReport(
        v0=v0, s0=s0, psi_v=p_v, psi_s=p_s, psi_dv=p_dv,
        classic_string_stable=classic, exact_string_stable=exact.stable,
        worst_omega=exact.worst_omega, worst_ratio=exact.worst_ratio,
        continuum_linear_stable=cont.stable_criterion and cont.stable_roots,
        notes=notes,
    )


@dataclass(frozen=True)
class StabilityMapRow:
    k: float
    degenerate: bool
    report: StabilityReport | None


def stability_map(law: AccelerationLaw, k_grid) -> list[StabilityMapRow]:
    """Per-density verdicts; degenerate states are flagged, not judged."""
    rows = []
    for k in np.asarray(k_grid, dtype=float):
        res = solve_equilibrium_speed(law, float(k))
        if res.status is not EquilibriumStatus.OK:
            rows.append(StabilityMapRow(k=float(k), degenerate=True, report=None))
            continue
        rows.append(StabilityMapRow(
            k=float(k), degenerate=False,
            report=stability_report(law, float(k), v0=res.speed)))
    return rows

