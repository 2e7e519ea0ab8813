"""String stability of platoons and linear stability of the matching continuum.

Every verdict reads one frozen record, :class:`Linearisation`: a steady state
(v0, s0) and the law's partials psi_v, psi_s, psi_dv at (v0, s0, 0), taken once
by :func:`linearise`. The public ``(law, v0, s0)`` functions are views of it.

Both arms share one symbol. The platoon mode exp(i theta N) grows at the
largest Re lambda (:func:`mode_growth`) of

    lambda^2 - (psi_v + psi_dv z) lambda - psi_s z = 0,

with z = exp(-i theta) - 1 on the car-following ring and z = i theta in the
continuum limit, where theta = m s0 at wavenumber m.

String stability: the follower-to-leader amplitude ratio at frequency w is

    ratio(w) = (psi_s + i w psi_dv) / (-w^2 - i w psi_v + psi_s + i w psi_dv).

The classic verdict psi_v^2 > 2 psi_s and the exact one are reported side by
side, as they can disagree when psi_dv != 0. Exact: |den|^2 - |num|^2 =
w^2 (w^2 + margin), margin = psi_v^2 - 2 psi_v psi_dv - 2 psi_s, so |ratio| < 1
at every frequency iff margin > 0. With u = w^2, |ratio| peaks at the positive
root of psi_dv^2 u^2 + 2 psi_s^2 u + psi_s^2 margin = 0 when margin < 0 and
psi_s != 0; otherwise its supremum is the limit w -> 0: 1, or
|psi_dv / (psi_dv - psi_v)| if psi_s = 0 (a pole if psi_v = psi_dv).

Continuum linear stability perturbs the (density, speed) system with
exp(i(m x - w t)) and demands both roots of w^2 + (2 b1 + 2 i b2) w + (d1 + i d2)
have negative imaginary parts (a quadratic-root solve, kept as an oracle), where

    2 b1 = -(2 v0 - psi_dv s0) m        2 b2 = -psi_v
    d1 = (v0 - psi_dv s0) v0 m^2        d2 = (psi_v v0 + psi_s s0) m.

The coefficient criterion b2 > 0 and 4 b1 b2 d2 - 4 d1 b2^2 > d2^2 is, in closed
form, psi_v < 0 and psi_s (psi_s + psi_v psi_dv) < 0, whatever m. As the margin
is psi_v^2 - 2 (psi_s + psi_v psi_dv), with psi_s > 0 continuum-stable implies
exact-string-stable, not conversely. The larger Im w is mode_growth at
z = i theta; as m grows it tends to max(psi_v + psi_s/psi_dv, -psi_s/psi_dv) for
psi_dv != 0, and is unbounded for psi_dv = 0 < psi_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .laws import AccelerationLaw, partials_at
from .steady_state import EquilibriumStatus, _steady_speeds, solve_equilibrium_speed


@dataclass(frozen=True)
class ExactStringStability:
    stable: bool
    worst_omega: float  # 0.0 where the supremum is the limit w -> 0
    worst_ratio: float
    margin: float  # psi_v^2 - 2 psi_v psi_dv - 2 psi_s; stable iff > 0


@dataclass(frozen=True)
class ContinuumStability:
    stable_criterion: bool
    stable_roots: bool
    b1: float
    b2: float
    d1: float
    d2: float
    roots: tuple[complex, complex]


@dataclass(frozen=True)
class Linearisation:
    """A steady state and the law's partials there: all that every verdict reads."""

    v0: float
    s0: float
    psi_v: float
    psi_s: float
    psi_dv: float

    def ratio(self, omega: float) -> complex:
        """The ratio at ``omega``; a pole where |den| is round-off against its terms."""
        if not 0.0 < omega < math.inf:
            raise DomainError("frequency must be finite and > 0")
        p_v, p_s, p_dv = self.psi_v, self.psi_s, self.psi_dv
        num = p_s + 1j * omega * p_dv
        den = -omega**2 - 1j * omega * p_v + p_s + 1j * omega * p_dv
        if abs(den) <= 1e-14 * (omega**2 + abs(p_s) + omega * (abs(p_v) + abs(p_dv))):
            raise SingularityError(f"amplification denominator vanishes at omega={omega:g}")
        return num / den

    def classic(self) -> bool:
        """The classic low-frequency criterion psi_v^2 > 2 psi_s."""
        return self.psi_v**2 > 2.0 * self.psi_s

    def exact(self) -> ExactStringStability:
        """The frequency-uniform criterion, its worst frequency in closed form."""
        p_v, p_s, p_dv = self.psi_v, self.psi_s, self.psi_dv
        margin = p_v**2 - 2.0 * p_v * p_dv - 2.0 * p_s
        if p_s != 0.0 and margin < 0.0:
            # The positive root divided through by |psi_s|: exact as psi_dv -> 0.
            omega = math.sqrt(-abs(p_s) * margin
                              / (abs(p_s) + math.sqrt(p_s**2 - p_dv**2 * margin)))
            worst = abs(self.ratio(omega))
        elif p_s != 0.0:
            omega, worst = 0.0, 1.0
        elif p_dv == p_v:
            raise SingularityError("amplification denominator vanishes at omega=0")
        else:  # psi_s = 0: ratio = psi_dv / (psi_dv - psi_v + i w), largest as w -> 0
            omega, worst = 0.0, abs(p_dv / (p_dv - p_v))
        return ExactStringStability(stable=margin > 0.0, worst_omega=omega,
                                    worst_ratio=worst, margin=margin)

    def continuum(self, m: float = 1.0) -> ContinuumStability:
        """The coefficient criterion and the quadratic-root oracle at wavenumber ``m``."""
        v0, s0, p_v, p_s, p_dv = self.v0, self.s0, self.psi_v, self.psi_s, self.psi_dv
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


def linearise(law: AccelerationLaw, v0: float, s0: float) -> Linearisation:
    """The record at ``(v0, s0)``, the law's domain check and partials run once;
    DomainError unless v0 is finite and s0 finite and positive, and for a
    third-order law, whose delay the partials of psi leave out."""
    if law.t_delay is not None:
        raise DomainError(f"{law.name}: the stability analysis does not cover "
                          "third-order laws")
    if not (math.isfinite(v0) and 0.0 < s0 < math.inf):
        raise DomainError(f"no steady state to judge at v0={v0!r}, s0={s0!r}")
    return Linearisation(float(v0), float(s0),
                         *(float(p) for p in partials_at(law, v0, s0, 0.0)))


def mode_growth(record: Linearisation, z):
    """Largest Re lambda of lambda^2 - (psi_v + psi_dv z) lambda - psi_s z = 0.

    The growth rate of the mode whose leader couples in as ``z`` (a complex
    number or an array of them): z = exp(-i theta) - 1 on the car-following
    ring, z = i theta in the continuum limit, theta = m s0.
    """
    z = np.asarray(z, dtype=complex)
    b = record.psi_v + record.psi_dv * z
    return 0.5 * (b + np.sqrt(b * b + 4.0 * record.psi_s * z)).real


def amplification_ratio(law: AccelerationLaw, v0: float, s0: float,
                        omega: float) -> complex:
    """Complex follower/leader amplitude ratio at frequency ``omega``."""
    return linearise(law, v0, s0).ratio(omega)


def string_stability_classic(law: AccelerationLaw, v0: float, s0: float) -> bool:
    """The classic criterion psi_v^2 > 2 psi_s, without the psi_v psi_dv term."""
    return linearise(law, v0, s0).classic()


def string_stability_exact(law: AccelerationLaw, v0: float, s0: float) -> ExactStringStability:
    """Frequency-uniform criterion, with the worst frequency in closed form."""
    return linearise(law, v0, s0).exact()


def continuum_linear_stability(law: AccelerationLaw, v0: float, s0: float,
                               m: float = 1.0) -> ContinuumStability:
    """Both the coefficient criterion and the quadratic-root oracle."""
    return linearise(law, v0, s0).continuum(m)


@dataclass(frozen=True)
class StabilityReport(Linearisation):
    classic_string_stable: bool
    exact_string_stable: bool
    worst_omega: float
    worst_ratio: float
    continuum_linear_stable: bool


def stability_report(law: AccelerationLaw, k0: float,
                     v0: float | None = None) -> StabilityReport:
    """Full verdict set at density ``k0`` (steady speed solved unless given)."""
    if v0 is None:
        res = solve_equilibrium_speed(law, k0)
        if res.status is not EquilibriumStatus.OK:
            raise DomainError(
                f"{law.name} has no unique steady state at k={k0:g} ({res.status.value})")
        v0 = res.speed
    record = linearise(law, v0, 1.0 / k0 if k0 else math.inf)  # which refuses s0 = inf
    exact, cont = record.exact(), record.continuum()
    return StabilityReport(**vars(record), classic_string_stable=record.classic(),
                           exact_string_stable=exact.stable, worst_omega=exact.worst_omega,
                           worst_ratio=exact.worst_ratio,
                           continuum_linear_stable=cont.stable_criterion and cont.stable_roots)


@dataclass(frozen=True)
class StabilityMapRow:
    k: float
    report: StabilityReport | None  # None: no unique steady state, not judged


def stability_map(law: AccelerationLaw, k_grid) -> list[StabilityMapRow]:
    """Per-density verdicts, in grid order (any order)."""
    k_grid = np.asarray(k_grid, dtype=float)
    speeds, statuses = _steady_speeds(law, k_grid)
    return [StabilityMapRow(k=float(k), report=stability_report(law, float(k), v0=float(v0))
                            if status is EquilibriumStatus.OK else None)
            for k, v0, status in zip(k_grid, speeds, statuses)]
