"""Closed-form convergence envelopes and restart-schedule identities.

Each function evaluates one proven guarantee: inner-solver rates, the
scheduled-restart envelopes (smooth and Hölder variants), the gradient
descent comparison, the grid-search (adaptive) envelope, and the
degradation incurred by rounding schedules to integers. All envelopes
take the iteration count N as a real number; rounded variants are
separate so that tests can pick the correct comparator.

The envelopes are two closed forms, each written once:

- :func:`bound_holder`, the optimal-schedule envelope
  eps0 exp(-q e^-1 rate N) at tau = 0 and eps0 (tau a N + 1)^(-q/tau)
  with a = e^-1 rate eps0^(tau/q) at tau > 0, at rate
  (c kappa)^(-s/2q). :func:`bound_smooth` is its s = 2 instance, and
  :func:`bound_adaptive` the s = 2 instance at the grid search's
  discounted N: N/2 at tau = 0, (N - 1)/4 at tau > 0.
- ``_geometric``, the envelope v0 (alpha e^-alpha N / C + 1)^(-p) of a
  geometric schedule C e^(alpha k): :func:`bound_generic` at tau > 0
  (p = 2/tau) and :func:`bound_rounded` at alpha > 0 (p = gamma/alpha,
  at its rounded N').

Likewise :func:`optimal_constant_smooth` is the s = 2 instance of
:func:`optimal_constant_holder`, and the s = 2, epsilon = 0 case of
:func:`bound_universal` is half of :func:`bound_accelerated`.
:func:`bound_gradient_descent` keeps its own body. It is the same form
at rate 1/kappa and q = 1, but its arithmetic is associated otherwise,
and through :func:`bound_holder` the value ``run --method grad`` prints
would move by up to about a thousand ulps.

Functions of a schedule's C, alpha or cycle index return inf where their
value passes the float range, and the finite value where only an
intermediate does. Everything here is a pure function of its arguments
and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import DerivedConditioning

E_INV = 1.0 / math.e
_LOG_MAX = math.log(sys.float_info.max)  # the largest x whose e^x is finite


def _times_exp(v: float, x: float) -> float:
    """v e^x for v > 0, as ``v * math.exp(x)`` where e^x is finite; else through log v.

    inf only where v e^x itself passes the float range.
    """
    if x > _LOG_MAX:
        x, v = x + math.log(v), 1.0
    return v * math.exp(x) if x <= _LOG_MAX else math.inf


def schedule_total(C: float, alpha: float, R: int) -> float:
    """Total iterations N = sum_{k=1..R} C e^(alpha k) of a real schedule."""
    if R < 0:
        raise ValueError(f"cycle count R must be >= 0, got {R}")
    if C <= 0 or alpha < 0:
        raise ValueError("need C > 0 and alpha >= 0")
    if R == 0:
        return 0.0
    if alpha == 0.0:
        return float(R) * C
    if alpha * R > _LOG_MAX:  # e^(alpha R) passes the float range; 1 - e^(-alpha R) rounds to 1
        return _times_exp(C / -math.expm1(-alpha), alpha * R)
    return C * math.exp(alpha) * math.expm1(alpha * R) / math.expm1(alpha)


def restart_count(C: float, alpha: float, N: float) -> float:
    """Inverse of :func:`schedule_total`: cycles R needed for N iterations."""
    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    if C <= 0 or alpha < 0:
        raise ValueError("need C > 0 and alpha >= 0")
    if alpha == 0.0:
        return N / C
    if alpha > _LOG_MAX:  # e^alpha passes the float range; (e^alpha - 1) / e^alpha rounds to 1
        return math.log1p(N / C) / alpha
    return math.log1p(math.expm1(alpha) * N / (math.exp(alpha) * C)) / alpha


def _geometric(v0: float, p: float, C: float, alpha: float, N: float) -> float:
    """v0 (alpha e^-alpha N / C + 1)^(-p): the envelope of a geometric schedule."""
    return v0 * math.exp(-p * math.log1p(alpha * math.exp(-alpha) * N / C))


def bound_smooth(cond: DerivedConditioning, gap0: float, c: float, N: float) -> float:
    """Optimal scheduled-restart envelope for smooth (s = 2) problems.

    tau = 0 gives linear convergence at rate 2/(e sqrt(c kappa)); tau > 0
    gives the polynomial envelope gap0 / (tau e^-1 gap0^(tau/2)
    (c kappa)^(-1/2) N + 1)^(2/tau).
    """
    _require_smooth(cond)
    return bound_holder(cond, gap0, c, N)


class GenericBound(NamedTuple):
    value: float
    guaranteed: bool


def bound_generic(
    cond: DerivedConditioning,
    gap0: float,
    c: float,
    C: float,
    alpha: float,
    N: float,
) -> GenericBound:
    """Envelope for a general constant/geometric restart schedule (s = 2).

    ``guaranteed`` is False when C is below the threshold under which the
    envelope is proven (C*_{kappa,0} for tau = 0, C(alpha) for tau > 0);
    the value is still evaluated for reporting.
    """
    _require_smooth(cond)
    ck, tau = c * cond.kappa, cond.tau
    # The threshold is e^growth (c kappa)^(1/2) gap0^(-tau/2): growth = 1 gives C*_{kappa,0}.
    growth = alpha * (1.0 - tau) / tau if tau > 0.0 else 1.0
    guaranteed = C >= _times_exp(math.sqrt(ck), growth) * gap0 ** (-tau / 2.0)
    if tau == 0.0:  # gap0 (c kappa / C^2)^(N/C), through log C where C^2 passes the float range
        log_ratio = math.log(ck / C**2) if C * C < math.inf else math.log(ck) - 2.0 * math.log(C)
        return GenericBound(_times_exp(gap0, (N / C) * log_ratio), guaranteed)
    return GenericBound(_geometric(gap0, 2.0 / tau, C, alpha, N), guaranteed)


def bound_holder(cond: DerivedConditioning, eps0: float, c: float, N: float) -> float:
    """Scheduled-restart envelope for Hölder-smooth problems (any s).

    :func:`bound_smooth` is its s = 2 instance (see the module docstring).
    """
    rate = (c * cond.kappa) ** (-cond.s / (2.0 * cond.q))
    if cond.tau == 0.0:
        return eps0 * math.exp(-cond.q * E_INV * rate * N)
    a = E_INV * rate * eps0 ** (cond.tau / cond.q)
    return eps0 * math.exp(-(cond.q / cond.tau) * math.log1p(cond.tau * a * N))


def bound_gradient_descent(cond: DerivedConditioning, gap0: float, N: float) -> float:
    """Gradient-descent envelope under sharpness (s = 2).

    Rate kappa^-1 and exponent 1/tau, against the restarted accelerated
    method's kappa^(-1/2) and 2/tau.
    """
    _require_smooth(cond)
    if cond.tau == 0.0:
        return gap0 * math.exp(-E_INV * N / cond.kappa)
    a = E_INV * gap0**cond.tau / cond.kappa
    return gap0 * math.exp(-(1.0 / cond.tau) * math.log1p(cond.tau * a * N))


def bound_adaptive(cond: DerivedConditioning, gap0: float, c: float, N: float) -> float:
    """Best-scheme envelope achieved by the logarithmic grid search (s = 2).

    The optimal schedule's envelope at a discounted N: the tau = 0 branch
    loses a factor 2 in the exponent (N/2); the tau > 0 branch takes
    (N - 1)/4.
    """
    _require_smooth(cond)
    return bound_holder(cond, gap0, c, N / 2.0 if cond.tau == 0.0 else (N - 1.0) / 4.0)


def bound_rounded(nu: float, gamma: float, C: float, alpha: float, N: float) -> float:
    """Envelope degradation from rounding t_k = ceil(C e^(alpha k)).

    alpha = 0: nu exp(-gamma N / (C + 1)). alpha > 0: the geometric
    envelope evaluated at N' = N - log((e^alpha - 1) e^-alpha N / C + 1)
    / alpha. Always at least as large as the unrounded envelope.
    """
    if alpha == 0.0:
        return nu * math.exp(-gamma * N / (C + 1.0))
    # (e^alpha - 1) e^-alpha, which rounds to 1 where e^alpha passes the float range
    shrink = math.expm1(alpha) * math.exp(-alpha) if alpha <= _LOG_MAX else 1.0
    n_prime = N - math.log1p(shrink * N / C) / alpha
    return _geometric(nu, gamma / alpha, C, alpha, n_prime)


def ufgm_constant(s: float) -> float:
    """Universal constant c = 2^((4s - 2)/s) of the universal method's rate."""
    return 2.0 ** ((4.0 * s - 2.0) / s)


def bound_accelerated(L: float, dist0: float, t: float, c: float = 4.0) -> float:
    """Accelerated-method guarantee c L d(x0, X*)^2 / t^2 on smooth problems."""
    return c * L * dist0**2 / t**2


def bound_universal(
    s: float,
    L: float,
    dist0: float,
    epsilon: float,
    t: float,
    c: float | None = None,
) -> float:
    """Universal fast gradient guarantee after t iterations at accuracy target epsilon.

    eps/2 + (c L^(2/s) d^2 / (eps^(2/s) t^(2q/s))) * eps/2 with
    q = (3s - 2)/2. With epsilon = 0 the slack vanishes and the s = 2
    case recovers the accelerated rate c L d^2 / (2 t^2); for s < 2 no
    finite guarantee exists at epsilon = 0.
    """
    if c is None:
        c = ufgm_constant(s)
    if epsilon == 0.0:
        return bound_accelerated(L, dist0, t, c) / 2.0 if s == 2.0 else math.inf
    q = (3.0 * s - 2.0) / 2.0
    ratio = c * L ** (2.0 / s) * dist0**2 / (epsilon ** (2.0 / s) * t ** (2.0 * q / s))
    return epsilon / 2.0 + ratio * epsilon / 2.0


def schedule_threshold(
    cond: DerivedConditioning, eps0: float, c: float, gamma: float, k: int
) -> float:
    """Smallest t_k certifying the e^(-gamma k) decrease at cycle k.

    Evaluates e^(gamma (1 - tau)/q) (c kappa)^(s/2q) eps0^(-tau/q)
    e^(gamma tau k / q); for s = 2 (q = 2) this is the smooth-case
    threshold, and at gamma = q it equals the optimal schedule's t_k.
    """
    power = (c * cond.kappa) ** (cond.s / (2.0 * cond.q))
    first = _times_exp(power, gamma * (1.0 - cond.tau) / cond.q) * eps0 ** (-cond.tau / cond.q)
    return _times_exp(first, gamma * cond.tau * k / cond.q)


def optimal_constant_smooth(cond: DerivedConditioning, gap0: float, c: float) -> float:
    """C*_{kappa,tau} = e^(1-tau) (c kappa)^(1/2) gap0^(-tau/2) (s = 2)."""
    _require_smooth(cond)
    return optimal_constant_holder(cond, gap0, c)


def optimal_constant_holder(cond: DerivedConditioning, eps0: float, c: float) -> float:
    """C*_{kappa,tau,q} = e^(1-tau) (c kappa)^(s/2q) eps0^(-tau/q)."""
    return (
        math.exp(1.0 - cond.tau)
        * (c * cond.kappa) ** (cond.s / (2.0 * cond.q))
        * eps0 ** (-cond.tau / cond.q)
    )


def _require_smooth(cond: DerivedConditioning) -> None:
    if cond.q != 2.0:
        raise ValueError(
            f"this envelope requires a smooth problem (s = 2, q = 2); got q = {cond.q}"
        )
