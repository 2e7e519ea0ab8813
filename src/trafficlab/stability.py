"""String stability of platoons and linear stability of the matching continuum.

For small monochromatic oscillations around a steady state (v0, s0), the
follower-to-leader amplitude ratio of a second-order law is

    ratio(w) = (psi_s + i w psi_dv) / (-w^2 - i w psi_v + psi_s + i w psi_dv)

with the partials taken at (v0, s0, 0). Two string-stability verdicts are
computed side by side and never merged:

* ``string_stability_classic``: the inequality psi_v^2 > 2 psi_s.
* ``string_stability_exact``: from |den|^2 - |num|^2 = w^2 (w^2 + margin),
  margin = psi_v^2 - 2 psi_v psi_dv - 2 psi_s, |ratio| < 1 at every frequency
  iff margin > 0. With u = w^2, |ratio| peaks at the positive root of
  psi_dv^2 u^2 + 2 psi_s^2 u + psi_s^2 margin = 0 when margin < 0 and psi_s != 0;
  otherwise its supremum is the limit w -> 0: 1, or |psi_dv / (psi_dv - psi_v)| if psi_s = 0.

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
The growth rate (the larger Im w) is not: for psi_dv != 0 it tends to
max(psi_v + psi_s/psi_dv, -psi_s/psi_dv) as m grows, and for psi_dv = 0 < psi_s
it is unbounded. A direct quadratic-root solve is kept as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .laws import AccelerationLaw, partials_at
from .steady_state import EquilibriumStatus, _steady_speeds, solve_equilibrium_speed


def _partials(law: AccelerationLaw, v0: float, s0: float) -> tuple[float, float, float]:
    """``(psi_v, psi_s, psi_dv)`` at the steady state ``(v0, s0, 0)``, as floats."""
    return tuple(float(p) for p in partials_at(law, v0, s0, 0.0))


def _ratio(p_v: float, p_s: float, p_dv: float, omega: float) -> complex:
    """The amplification ratio on these partials at frequency ``omega``; a pole
    where ``|den|`` is round-off against the size of its terms."""
    num = p_s + 1j * omega * p_dv
    den = -omega**2 - 1j * omega * p_v + p_s + 1j * omega * p_dv
    if abs(den) <= 1e-14 * (omega**2 + abs(p_s) + omega * (abs(p_v) + abs(p_dv))):
        raise SingularityError(f"amplification denominator vanishes at omega={omega:g}")
    return num / den


def amplification_ratio(law: AccelerationLaw, v0: float, s0: float,
                        omega: float) -> complex:
    """Complex follower/leader amplitude ratio at frequency ``omega``."""
    if omega <= 0:
        raise DomainError("frequency must be > 0")
    return _ratio(*_partials(law, v0, s0), omega)


def _classic(p_v: float, p_s: float) -> bool:
    return p_v**2 > 2.0 * p_s


def string_stability_classic(law: AccelerationLaw, v0: float, s0: float) -> bool:
    """The classic low-frequency criterion psi_v^2 > 2 psi_s.

    Drops the psi_v * psi_dv cross term that the amplification ratio
    carries; see :func:`string_stability_exact` for the full condition.
    """
    p_v, p_s, _ = _partials(law, v0, s0)
    return _classic(p_v, p_s)


@dataclass(frozen=True)
class ExactStringStability:
    stable: bool
    worst_omega: float  # 0.0 where the supremum is the limit w -> 0
    worst_ratio: float
    margin: float  # psi_v^2 - 2 psi_v psi_dv - 2 psi_s; stable iff > 0


def _exact(p_v: float, p_s: float, p_dv: float) -> ExactStringStability:
    margin = p_v**2 - 2.0 * p_v * p_dv - 2.0 * p_s
    if p_s != 0.0 and margin < 0.0:
        # The positive root divided through by |psi_s|: exact as psi_dv -> 0.
        omega = math.sqrt(-abs(p_s) * margin
                          / (abs(p_s) + math.sqrt(p_s**2 - p_dv**2 * margin)))
        worst = abs(_ratio(p_v, p_s, p_dv, omega))
    elif p_s != 0.0:
        omega, worst = 0.0, 1.0
    elif p_dv == p_v:
        raise SingularityError("amplification denominator vanishes at omega=0")
    else:  # psi_s = 0: ratio = psi_dv / (psi_dv - psi_v + i w), largest as w -> 0
        omega, worst = 0.0, abs(p_dv / (p_dv - p_v))
    return ExactStringStability(stable=margin > 0.0, worst_omega=omega,
                                worst_ratio=worst, margin=margin)


def string_stability_exact(law: AccelerationLaw, v0: float, s0: float) -> ExactStringStability:
    """Frequency-uniform criterion, with the worst frequency in closed form.

    ``worst_omega`` is sqrt(u), u the positive root of psi_dv^2 u^2 +
    2 psi_s^2 u + psi_s^2 margin = 0, when margin < 0 and psi_s != 0. Else it
    is 0.0, the limit w -> 0 where ``worst_ratio`` is 1 (psi_s != 0) or
    |psi_dv / (psi_dv - psi_v)|, a pole if psi_v = psi_dv (SingularityError).
    """
    return _exact(*_partials(law, v0, s0))


@dataclass(frozen=True)
class ContinuumStability:
    stable_criterion: bool
    stable_roots: bool
    b1: float
    b2: float
    d1: float
    d2: float
    roots: tuple[complex, complex]


def _continuum(v0: float, s0: float, p_v: float, p_s: float, p_dv: float,
               m: float) -> ContinuumStability:
    b1 = -(2.0 * v0 - p_dv * s0) * m / 2.0
    b2 = -p_v / 2.0
    d1 = (v0 - p_dv * s0) * v0 * m**2
    d2 = (p_v * v0 + p_s * s0) * m
    criterion = b2 > 0.0 and 4.0 * b1 * b2 * d2 - 4.0 * d1 * b2**2 > d2**2
    roots = np.roots([1.0, 2.0 * b1 + 2.0j * b2, d1 + 1.0j * d2])
    # Strictly negative imaginary parts; a marginal root (Im = 0 up to
    # round-off, e.g. the free-flow contact mode) must not count as stable.
    tol = 1e-12 * (1.0 + np.abs(roots))
    by_roots = bool(np.all(roots.imag < -tol))
    return ContinuumStability(stable_criterion=criterion, stable_roots=by_roots,
                              b1=b1, b2=b2, d1=d1, d2=d2,
                              roots=(complex(roots[0]), complex(roots[1])))


def continuum_linear_stability(law: AccelerationLaw, v0: float, s0: float,
                               m: float = 1.0) -> ContinuumStability:
    """Both the coefficient criterion and the quadratic-root oracle."""
    return _continuum(v0, s0, *_partials(law, v0, s0), m)


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
    p_v, p_s, p_dv = _partials(law, v0, s0)
    exact = _exact(p_v, p_s, p_dv)
    cont = _continuum(v0, s0, p_v, p_s, p_dv, 1.0)
    classic = _classic(p_v, p_s)
    notes = ("classic and exact string criteria disagree (psi_dv cross term)"
             if classic != exact.stable else "")
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
    """Per-density verdicts, in grid order (any order); a density without a
    unique steady state is flagged degenerate, not judged."""
    k_grid = np.asarray(k_grid, dtype=float)
    speeds, statuses = _steady_speeds(law, k_grid)
    return [StabilityMapRow(k=float(k), degenerate=status is not EquilibriumStatus.OK,
                            report=stability_report(law, float(k), v0=float(v0))
                            if status is EquilibriumStatus.OK else None)
            for k, v0, status in zip(k_grid, speeds, statuses)]
