"""Acceleration-law library.

Every law computes a follower's acceleration from ``(v, s, dv)`` where ``v``
is its own speed, ``s`` the spacing to the immediate leader, and
``dv = v_leader - v_follower`` (positive when the gap is opening). The same
sign convention is used everywhere in the package.

Laws are immutable value objects; evaluation is pure and numpy-vectorized,
so evaluators accept scalars or equal-shaped arrays. ``psi`` is the bare
formula: ``evaluate`` and :func:`partials_at` run the law's domain ``check``
first, and the solvers call ``psi`` on spacings that their own test keeps at
or above ``s_min``, which every built-in law puts inside its domain.
A built-in law with analytic partials carries the third, ``psi_dv``, as a
kernel of its own, ``partials.psi_dv``, which the continuum solver's speed
bound calls unchecked at and above ``s_min`` as well.
The batch solvers call ``psi`` once per stack of laws (:func:`law_spans`), a
run of neighbouring members: neighbouring laws of one form (linear and
nonlinear GM, GFM, both IDMs, and the relaxation form of OVM, FVDM and JWZ;
one diagram object) stack with their constants as columns. The relaxation
form's speed-gap coefficients are ``None`` where a law has no such term, and
a kernel computes only the terms whose coefficient is not ``None``: a lone
law runs its own formula, and only a mixed stack adds the other terms.
Third-order, Aw-Rascle, ARZ and custom laws, and a law whose ``psi`` was
replaced, stack only with equal neighbours.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import EvaluationError, ParameterError
from .fundamental import FundamentalDiagram, _least


@dataclass(frozen=True)
class AccelerationLaw:
    """A car-following rule ``accel = psi(v, s, dv)`` plus metadata.

    ``psi`` is the bare formula and ``check(s)`` raises where the law is
    undefined; :meth:`evaluate` runs both. A built-in ``psi`` and ``partials``
    take the law's constants as keyword-only arguments, which default to its
    own values, bound once as 0-d arrays (see :func:`law_spans`). ``partials``
    (when present) returns the analytic gradient ``(psi_v, psi_s, psi_dv)``;
    otherwise :func:`partials_at` falls back to central differences. A
    built-in ``partials`` takes its third component from the bare kernel
    ``partials.psi_dv``, which a replaced ``partials`` does not carry.
    ``time_scale`` is the smallest relaxation-like time constant, used to
    guard explicit integrator steps. ``s_min`` is the smallest spacing at
    which the law may be evaluated during a simulation: the solvers call
    ``psi`` unchecked at and above it, so a law whose ``s_min`` lies outside
    its domain must check inside its own ``psi``. A law is third-order exactly
    when it has an acceleration delay ``t_delay`` (see :func:`make_third_order`).
    """

    name: str
    params: Mapping[str, float]
    psi: Callable
    partials: Callable | None = None
    s_min: float = 0.1
    v_free: float | None = None
    time_scale: float = 1.0
    t_delay: float | None = None
    check: Callable = lambda s: None

    def __post_init__(self):
        if self.t_delay is not None and not 0.0 < self.t_delay < math.inf:
            raise ParameterError("t_delay must be finite and > 0")

    def evaluate(self, v, s, dv):
        """Acceleration (m/s^2) at speed ``v``, spacing ``s``, speed gap ``dv``."""
        self.check(s)
        return self.psi(v, s, dv)


def _heaviside(x):
    return np.where(x > 0.0, 1.0, 0.0)


def _check_spacing_positive(s):
    if _least(s) <= 0.0:
        raise EvaluationError("spacing must be positive")


def _stack(key, psi, partials, psi_dv) -> None:
    """Tag a built-in law's kernels with their stack key, attach ``psi_dv``,
    the kernel of the third partial, to ``partials``, and bind the three
    kernels' keyword-only constants, the same objects in all, as 0-d float64
    arrays, and ``None``, a term the law leaves out, as ``None`` (see
    :func:`law_spans`)."""
    constants = {name: None if x is None else np.array(x, dtype=float)
                 for name, x in psi.__kwdefaults__.items()}
    psi.__kwdefaults__, partials.__kwdefaults__ = constants, dict(constants)
    psi_dv.__kwdefaults__ = dict(constants)
    psi.stack_key = partials.stack_key = key
    partials.psi_dv = psi_dv


def _guarded_s_min(fd: FundamentalDiagram | None) -> float:
    # Keep 1/s and theta(s) inside the diagram's domain during transients.
    return 1.01 / fd.k_j if fd is not None else 0.1


def make_linear_gm(T: float) -> AccelerationLaw:
    """Speed-difference relaxation: accel = dv / T."""
    if T <= 0:
        raise ParameterError("linear GM needs T > 0")

    def psi(v, s, dv, *, T=T):
        return dv / T

    def psi_dv(v, s, dv, *, T=T):
        return np.zeros_like(np.asarray(v, dtype=float)) + 1.0 / T

    def partials(v, s, dv, *, T=T):
        z = np.zeros_like(np.asarray(v, dtype=float))
        return z, z, psi_dv(v, s, dv, T=T)

    _stack(("linear_gm",), psi, partials, psi_dv)
    return AccelerationLaw("linear_gm", {"T": T}, psi, partials, time_scale=T)


def make_nonlinear_gm(a: float, m: int, l: int) -> AccelerationLaw:
    """Stimulus-response form: accel = a v^m dv / s^l."""
    if a <= 0:
        raise ParameterError("nonlinear GM needs a > 0")
    if m < 0 or l < 0 or int(m) != m or int(l) != l:
        raise ParameterError("nonlinear GM exponents m, l must be nonnegative integers")
    m, l = int(m), int(l)

    def psi(v, s, dv, *, a=a):
        return a * np.power(v, m) * dv / np.power(s, l)

    def psi_dv(v, s, dv, *, a=a):
        v = np.asarray(v, dtype=float)
        return a * np.power(v, m) / np.power(s, l) + np.zeros_like(v)

    def partials(v, s, dv, *, a=a):
        v = np.asarray(v, dtype=float)
        p_v = a * m * np.power(v, m - 1) * dv / np.power(s, l) if m > 0 else np.zeros_like(v)
        p_s = -a * l * np.power(v, m) * dv / np.power(s, l + 1)
        return p_v, p_s + np.zeros_like(v), psi_dv(v, s, dv, a=a)

    _stack(("nonlinear_gm", m, l), psi, partials, psi_dv)
    return AccelerationLaw(
        "nonlinear_gm", {"a": a, "m": m, "l": l}, psi, partials, time_scale=1.0 / a,
        check=_check_spacing_positive,
    )


def _make_relaxation(name: str, params: dict, T: float, lam: float | None,
                     c0: float | None, fd: FundamentalDiagram,
                     time_scale: float) -> AccelerationLaw:
    """Relaxation toward theta plus a speed-gap term: accel = (theta(s) - v)/T
    + lam * dv + c0 * dv / s, the one form of OVM, FVDM and JWZ. A coefficient
    of ``None`` leaves its term out of every kernel, so a lone law runs only
    its own terms; a stack's columns give it 0.0 (see :func:`law_spans`)."""

    def psi(v, s, dv, *, T=T, lam=lam, c0=c0):
        accel = (fd._theta(s) - v) / T
        if lam is not None:
            accel = accel + lam * dv
        return accel if c0 is None else accel + c0 * dv / s

    def psi_dv(v, s, dv, *, T=T, lam=lam, c0=c0):
        p_dv = np.zeros_like(np.asarray(v, dtype=float))
        if lam is not None:
            p_dv = p_dv + lam
        return p_dv if c0 is None else p_dv + c0 / s

    def partials(v, s, dv, *, T=T, lam=lam, c0=c0):
        z = np.zeros_like(np.asarray(v, dtype=float))
        p_s = fd._theta_prime(s) / T
        if c0 is not None:
            p_s = p_s - c0 * dv / s**2
        return z - 1.0 / T, p_s + z, psi_dv(v, s, dv, T=T, lam=lam, c0=c0)

    _stack(("relax", id(fd)), psi, partials, psi_dv)
    return AccelerationLaw(
        name, params, psi, partials,
        s_min=_guarded_s_min(fd), v_free=fd.v_f, time_scale=time_scale,
        check=fd._check_spacing,
    )


def make_ovm(T: float, fd: FundamentalDiagram) -> AccelerationLaw:
    """Relaxation toward the equilibrium speed-spacing curve theta."""
    if T <= 0:
        raise ParameterError("OVM needs T > 0")
    return _make_relaxation("ovm", {"T": T}, T, None, None, fd, T)


def make_gfm(T: float, T_brake: float, d: float, tau: float, R: float,
             fd: FundamentalDiagram) -> AccelerationLaw:
    """Relaxation plus a braking interaction active while the gap closes.

    The braking term -(-dv) * H(-dv) / T_brake * exp(-(s - d - tau*v)/R)
    decelerates only when dv < 0 (closing); with dv >= 0 the law reduces to
    the plain relaxation form.
    """
    if not (0 < T_brake < T):
        raise ParameterError("GFM needs 0 < T_brake < T")
    if d <= 0 or tau <= 0 or R <= 0:
        raise ParameterError("GFM needs d, tau, R > 0")

    def psi(v, s, dv, *, T=T, T_brake=T_brake, d=d, tau=tau, R=R):
        gate = _heaviside(-np.asarray(dv, dtype=float))
        exp_term = np.exp(-(s - (d + tau * v)) / R)
        return (fd._theta(s) - v) / T + dv * gate / T_brake * exp_term

    def psi_dv(v, s, dv, *, T=T, T_brake=T_brake, d=d, tau=tau, R=R):
        v = np.asarray(v, dtype=float)
        gate = _heaviside(-np.asarray(dv, dtype=float))
        return gate / T_brake * np.exp(-(s - (d + tau * v)) / R) + 0 * v

    def partials(v, s, dv, *, T=T, T_brake=T_brake, d=d, tau=tau, R=R):
        # Kinked at dv = 0; the closing-side contribution is gated off there.
        v = np.asarray(v, dtype=float)
        gate = _heaviside(-np.asarray(dv, dtype=float))
        brake = dv * gate / T_brake * np.exp(-(s - (d + tau * v)) / R)
        p_v = -1.0 / T + brake * tau / R
        p_s = fd._theta_prime(s) / T - brake / R
        return (p_v + 0 * v, p_s + 0 * v,
                psi_dv(v, s, dv, T=T, T_brake=T_brake, d=d, tau=tau, R=R))

    _stack(("gfm", id(fd)), psi, partials, psi_dv)
    return AccelerationLaw(
        "gfm", {"T": T, "T_brake": T_brake, "d": d, "tau": tau, "R": R},
        psi, partials, s_min=_guarded_s_min(fd), v_free=fd.v_f, time_scale=T_brake,
        check=fd._check_spacing,
    )


def _make_idm(name: str, a: float, b: float, delta: float, v_f: float,
              tau: float, d: float, closing_sign: float) -> AccelerationLaw:
    if a <= 0 or b <= 0 or v_f <= 0 or tau <= 0 or d <= 0:
        raise ParameterError("IDM needs a, b, v_f, tau, d > 0")
    if delta < 1:
        raise ParameterError("IDM needs delta >= 1")
    # The closing sign rides on 2 sqrt(ab): +-1 products are exact and rounding is
    # sign-symmetric, so v * dv / (sign * c) has the bits of sign * v * dv / c.
    signed_two_sqrt_ab = closing_sign * 2.0 * math.sqrt(a * b)
    # The structural constants are 0-d arrays too, made once per law (see _stack).
    one, exponent, neg_delta, exponent_1 = (np.array(x, dtype=float) for x in (
        1.0, delta, -delta, delta - 1.0))

    def psi(v, s, dv, *, a=a, v_f=v_f, tau=tau, d=d, signed_two_sqrt_ab=signed_two_sqrt_ab):
        g = d + tau * v + v * dv / signed_two_sqrt_ab
        return a * (one - np.power(v / v_f, exponent) - (g / s) ** 2)

    def psi_dv(v, s, dv, *, a=a, v_f=v_f, tau=tau, d=d, signed_two_sqrt_ab=signed_two_sqrt_ab):
        v = np.asarray(v, dtype=float)
        g = d + tau * v + v * dv / signed_two_sqrt_ab
        return -2.0 * a * g / s**2 * (v / signed_two_sqrt_ab) + 0 * v

    def partials(v, s, dv, *, a=a, v_f=v_f, tau=tau, d=d,
                 signed_two_sqrt_ab=signed_two_sqrt_ab):
        v = np.asarray(v, dtype=float)
        g = d + tau * v + v * dv / signed_two_sqrt_ab
        p_v = a * (neg_delta * np.power(v / v_f, exponent_1) / v_f
                   - 2.0 * g / s**2 * (tau + dv / signed_two_sqrt_ab))
        p_s = 2.0 * a * g**2 / s**3
        return (p_v, p_s + 0 * v, psi_dv(v, s, dv, a=a, v_f=v_f, tau=tau, d=d,
                                         signed_two_sqrt_ab=signed_two_sqrt_ab))

    _stack((name, delta, closing_sign), psi, partials, psi_dv)
    return AccelerationLaw(
        name, {"a": a, "b": b, "delta": delta, "v_f": v_f, "tau": tau, "d": d},
        psi, partials, s_min=0.1, v_free=v_f, time_scale=min(tau, v_f / a),
        check=_check_spacing_positive,
    )


def make_idm(a: float, b: float, delta: float, v_f: float, tau: float,
             d: float) -> AccelerationLaw:
    """IDM with the conventional desired gap d + tau*v - v*dv/(2 sqrt(ab)).

    The closing-rate term shrinks the desired gap while the gap opens
    (dv > 0) and grows it while closing, so approaching a slower leader
    brakes the follower.
    """
    return _make_idm("idm", a, b, delta, v_f, tau, d, closing_sign=-1.0)


def make_idm_alt(a: float, b: float, delta: float, v_f: float, tau: float,
                   d: float) -> AccelerationLaw:
    """IDM variant with the opposite sign on the closing-rate term.

    Kept alongside :func:`make_idm` because the two differ only off
    equilibrium; at dv = 0 they share the same steady states.
    """
    return _make_idm("idm_alt", a, b, delta, v_f, tau, d, closing_sign=1.0)


def make_fvdm(T: float, lam: float, fd: FundamentalDiagram) -> AccelerationLaw:
    """Full velocity difference model: OVM relaxation plus lam * dv."""
    if T <= 0:
        raise ParameterError("FVDM needs T > 0")
    if lam < 0:
        raise ParameterError("FVDM needs lambda >= 0")
    time_scale = min(T, 1.0 / lam) if lam > 0 else T
    return _make_relaxation("fvdm", {"T": T, "lambda": lam}, T, lam, None, fd, time_scale)


def make_aw_rascle_cf(T_of_k: Callable | float, p_prime: Callable,
                      fd: FundamentalDiagram) -> AccelerationLaw:
    """General anticipation law: relaxation plus p'(1/s) * dv / s^2.

    ``T_of_k`` may be a constant or a function of density; ``p_prime`` is the
    derivative of the pressure-like function of density. Partials come from
    finite differences since both callables are opaque.
    """
    if callable(T_of_k):
        T_fn = T_of_k
    else:
        T_const = float(T_of_k)
        if T_const <= 0:
            raise ParameterError("aw_rascle needs T > 0")
        T_fn = lambda k: T_const

    def check(s):
        _check_spacing_positive(s)
        fd._check_spacing(s)

    def psi(v, s, dv):
        k = 1.0 / np.asarray(s, dtype=float)
        return (fd._theta(s) - v) / T_fn(k) + p_prime(k) * dv / s**2

    probe_T = float(T_fn(0.5 * fd.k_j))
    if probe_T <= 0:
        raise ParameterError("aw_rascle needs T(k) > 0 on the density domain")
    return AccelerationLaw(
        "aw_rascle", {}, psi, None,
        s_min=_guarded_s_min(fd), v_free=fd.v_f, time_scale=probe_T, check=check,
    )


def make_arz_cf(fd: FundamentalDiagram) -> AccelerationLaw:
    """Pure anticipation law -eta'(1/s) * dv / s^2 (no relaxation term).

    Has no unique steady-state speed: any uniform-speed platoon is an
    equilibrium, whatever the spacing. ``eta'`` keeps its density check, so
    ``psi`` raises itself at a spacing below the jam spacing or of +inf.
    """

    def psi(v, s, dv):
        k = 1.0 / np.asarray(s, dtype=float)
        return -fd.eta_prime(k) * dv / s**2

    return AccelerationLaw(
        "arz", {}, psi, None,
        s_min=_guarded_s_min(fd), v_free=fd.v_f,
        time_scale=1.0 / fd.max_theta_slope(), check=_check_spacing_positive,
    )


def make_jwz_cf(T: float, c0: float, fd: FundamentalDiagram) -> AccelerationLaw:
    """Relaxation plus a constant-coefficient speed-difference term c0*dv/s."""
    if T <= 0:
        raise ParameterError("JWZ needs T > 0")
    if c0 < 0:
        raise ParameterError("JWZ needs c0 >= 0")
    return _make_relaxation("jwz", {"T": T, "c0": c0}, T, None, c0, fd, T)


def make_third_order(inner: AccelerationLaw, t_delay: float) -> AccelerationLaw:
    """Wrap a second-order law with an acceleration-relaxation delay.

    The state gains an acceleration ``a``, which the RK4 stage in ``platoon``
    relaxes toward the inner law: da/dt = (inner(v, s, dv) - a) / t_delay.
    """
    if inner.t_delay is not None:
        raise ParameterError("cannot nest third-order laws")
    return AccelerationLaw(
        f"{inner.name}+delay", dict(inner.params) | {"t_delay": t_delay},
        inner.psi, inner.partials, s_min=inner.s_min, v_free=inner.v_free,
        time_scale=min(inner.time_scale, t_delay), t_delay=t_delay, check=inner.check,
    )


def partials_at(law: AccelerationLaw, v, s, dv, **columns):
    """Gradient (psi_v, psi_s, psi_dv) at a point, analytic when available.

    Both run the law's domain check at ``s``. ``columns`` are a stacked
    span's constants (see :func:`law_spans`), passed on to the analytic
    partials. Finite-difference steps are relative with absolute floors since
    model scales span several orders of magnitude.
    """
    if law.partials is not None:
        law.check(s)
        return law.partials(v, s, dv, **columns)
    v = np.asarray(v, dtype=float)
    s = np.asarray(s, dtype=float)
    dv = np.asarray(dv, dtype=float)
    h_v = np.maximum(1e-6 * np.abs(v), 1e-8)
    h_s = np.maximum(1e-6 * np.abs(s), 1e-8)
    h_dv = np.maximum(1e-6 * np.maximum(np.abs(dv), np.abs(v)), 1e-8)
    p_v = (law.evaluate(v + h_v, s, dv) - law.evaluate(v - h_v, s, dv)) / (2 * h_v)
    p_s = (law.evaluate(v, s + h_s, dv) - law.evaluate(v, s - h_s, dv)) / (2 * h_s)
    p_dv = (law.evaluate(v, s, dv + h_dv) - law.evaluate(v, s, dv - h_dv)) / (2 * h_dv)
    return p_v, p_s, p_dv


def law_spans(laws) -> list[tuple[AccelerationLaw, int | slice, dict]]:
    """Each stack of a batch's laws, a run of neighbouring members, as the law
    to call, its rows (an index for one member, else a slice, in the batch's
    own order) and the columns to call it with.

    A second-order law stacks as its factory built it (``psi`` wrapped or
    not): its ``psi`` and ``partials`` carry one ``stack_key`` (the form, its
    structural arguments, its diagram by identity) and the same constants.
    Neighbours with equal keys and ``check`` stack. A built-in kernel's
    keyword-only constants are 0-d arrays bound once per law, not floats: a
    ufunc takes them faster on few-element arrays, with the same bits. The
    columns map each constant to a (members, 1) array of the members' own
    values, so one call ``law.psi(v, s, dv, **columns)`` gives each row the
    bits of its own law. A constant of ``None`` leaves its term out of the
    kernel, so a column is built only for a constant that some member has, and
    it gives 0.0 to a member without it: that zero term leaves the member's
    bits as they are (OVM, FVDM and JWZ stack so). The columns are empty where
    the members' laws are equal. Any other law stacks only with equal
    neighbours. Each batch solver repeats the columns to its own rows' shape
    once per call (followers in the RK4 core, cells in the continuum core): a
    column operand takes NumPy's broadcasting path, 2.46 against 1.00 µs
    full-shape for ``col * v`` on a (2, 80) operand.
    """
    kernels = [(inspect.unwrap(law.psi), inspect.unwrap(law.partials)) for law in laws]
    keys = [(f.stack_key, law.check) if law.t_delay is None
            and getattr(f, "stack_key", None) == getattr(p, "stack_key", False)
            and f.__kwdefaults__ == p.__kwdefaults__ else law
            for law, (f, p) in zip(laws, kernels)]
    spans = []
    for _, run in itertools.groupby(range(len(laws)), keys.__getitem__):
        run = list(run)
        lo, hi = run[0], run[-1] + 1
        constants = [f.__kwdefaults__ for f, _ in kernels[lo:hi]]
        columns = {} if all(law == laws[lo] for law in laws[lo:hi]) else {
            name: np.array([[0.0 if c[name] is None else c[name]] for c in constants],
                           dtype=float)
            for name in constants[0] if any(c[name] is not None for c in constants)}
        spans.append((laws[lo], lo if hi - lo == 1 else slice(lo, hi), columns))
    return spans


MODEL_CATALOG: dict[str, Callable[..., AccelerationLaw]] = {
    "linear_gm": make_linear_gm, "nonlinear_gm": make_nonlinear_gm, "ovm": make_ovm,
    "gfm": make_gfm, "idm": make_idm, "idm_alt": make_idm_alt, "fvdm": make_fvdm,
    "arz": make_arz_cf, "jwz": make_jwz_cf,
}


def reads_fd(cfg: dict) -> bool:
    """Whether the law a scenario-JSON ``model`` section names is built on the
    fundamental diagram: its factory takes ``fd``, and a third-order law reads
    it where its inner law does."""
    if cfg["name"] == "third_order":
        return reads_fd(cfg["inner"])
    return "fd" in inspect.signature(MODEL_CATALOG[cfg["name"]]).parameters


def law_from_config(cfg: dict, fd: FundamentalDiagram | None) -> AccelerationLaw:
    """Build a law from a scenario-JSON ``model`` section (already validated);
    a law that :func:`reads_fd` gets the diagram, and ``lambda`` is its ``lam``."""
    name = cfg["name"]
    if name == "third_order":
        return make_third_order(law_from_config(cfg["inner"], fd), cfg["t_delay"])
    params = {"lam" if key == "lambda" else key: value
              for key, value in cfg.items() if key != "name"}
    if reads_fd(cfg):
        if fd is None:
            raise ParameterError(f"model {name!r} requires an fd section")
        params["fd"] = fd
    return MODEL_CATALOG[name](**params)
