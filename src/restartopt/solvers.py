"""Inner first-order methods emitting per-iteration traces.

Three solvers: backtracking gradient descent, Nesterov's accelerated
gradient method, and the universal fast gradient method (UFGM). The
accelerated method is the UFGM run with target accuracy 0. All three
share one line search: each trial takes a (proximal) gradient step at
1/L_hat and tests the quadratic descent condition, relaxed by
tau * epsilon / 2 in the UFGM (``_trial``); a failed trial doubles the
estimate (``_double``). The estimate is halved after every accepted
step, and the final one is reported so restart schemes can warm-start
the next cycle. The UFGM evaluates f0 and its gradient at each trial
point with one ``ProximalOracle.smooth_eval`` call, which shares their
common work when the oracle supplies a fused evaluation.

When the oracle declares its smooth part as a quadratic form
f0(x) = x^T Q x / 2 - h^T x + c (``ProximalOracle.quadratic``), the UFGM
spends one product per line-search trial and tests the descent condition
in its exact difference form d^T Q d / 2 <= L_hat/2 ||d||^2 +
tau * epsilon / 2 for the step d = y - x, which no rounding of f0's
constant term disturbs. On a smooth form (no prox) it carries the
gradients g_y = Q y - h and g_z = Q z - h beside its iterates
(``_ufgm_on_smooth_form``). The gradient at x = tau z + (1 - tau) y is
affine in tau, g = g_y + tau (g_z - g_y), so a trial forms g, the step
d = -g / L_hat, Q d, d^T Q d and ||d||^2, and neither x nor the candidate.
An accepted step updates y+ = x + d, g_y+ = g + Q d, z+ = z - a g and
g_z+ = g_z + Q d / tau (a step d = -g / L_hat gives a Q g = -Q d / tau),
and evaluates f0(y+) = y+^T (g_y+ - h) / 2 + c from them. On a composite
form the prox of z needs z itself, so the UFGM carries Q y and Q z
instead (``_quadratic_trial``): Q x = tau Q z + (1 - tau) Q y and the
gradient Q x - h cost no product, Q z takes one product after the prox
of z, and f0 is evaluated only at accepted points, from Q y. Rounding
makes both paths differ from the generic one in the last bits; tests
hold them to the generic path (the same oracle with ``quadratic=None``)
within stated tolerances. Gradient descent on a quadratic form likewise
carries Q x, takes its gradient Q x - h at no product, runs every trial
through ``_quadratic_trial`` and updates Q x by the accepted Q d, so a
run costs one product per trial plus one for x0.

Iteration accounting: one inner iteration = one accepted step. Line
search backtracks are tallied separately (``Trace.backtracks``), as are
objective/gradient/prox evaluations, so both accountings are reportable.
The evaluation counters count quantities, not calls: a fused
value-and-gradient call adds one to each, and a UFGM trial counts one
gradient and two smooth values (at x and at the candidate, whose
difference the descent test uses) on every path.

Each solver call appends f at every accepted iterate to ``Trace.values``
and, once at the end, one ``(length, target)`` record to ``Trace.cycles``;
restart schemes concatenate both lists over their cycles. ``Trace.entries``
is the one place that derives rows (cumulative count, gap, restart
marker, target) from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import DivergenceError, ProximalOracle, Vector, require_finite

# Doubling the estimate this many times within a single step means the
# descent test is chasing rounding noise; we accept and record a note.
_MAX_DOUBLINGS_PER_STEP = 120

# Halving after every accepted step must not drive the estimate into
# subnormals (or exactly 0 once iterates sit at the optimum).
_L_HAT_MIN = 1e-280

_GAP_FLOOR = -1e-12


class TraceEntry(NamedTuple):
    """One accepted inner iterate, as a read-only row of ``Trace.entries``."""

    iteration: int
    f_value: float
    gap: Optional[float]
    restart: bool
    eps_target: Optional[float]


@dataclass
class Trace:
    """Record of a solver or restart-scheme run.

    Stores only what cannot be derived: ``values``, the objective f at
    each accepted inner iterate in order, and ``cycles``, one
    ``(length, target)`` pair per inner-method run, whose target is
    ``None`` at accuracy 0. ``entries`` derives the rows from them.
    """

    values: list[float] = field(default_factory=list)
    cycles: list[tuple[int, Optional[float]]] = field(default_factory=list)
    final_point: Optional[Vector] = None
    final_L_hat: float = 0.0
    f_star: Optional[float] = None
    f_initial: Optional[float] = None
    n_value: int = 0
    n_grad: int = 0
    n_prox: int = 0
    backtracks: int = 0
    max_L_hat: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def entries(self) -> list[TraceEntry]:
        """One row per accepted inner iterate.

        ``iteration`` is the cumulative count, ``gap`` is f - f_star when
        ``f_star`` is known (else ``None``), ``restart`` marks the last row
        of every cycle but the last, and ``eps_target`` is the row's cycle
        target.
        """
        rows = []
        end = 0
        last = len(self.cycles) - 1
        for k, (length, target) in enumerate(self.cycles):
            start, end = end, end + length
            for i in range(start, end):
                f = self.values[i]
                gap = None if self.f_star is None else f - self.f_star
                rows.append(TraceEntry(i + 1, f, gap, k < last and i == end - 1, target))
        return rows

    @property
    def accepted(self) -> int:
        return len(self.values)

    @property
    def final_f(self) -> float:
        if self.values:
            return self.values[-1]
        if self.f_initial is None:
            raise ValueError("empty trace with no recorded initial value")
        return self.f_initial

    @property
    def final_gap(self) -> Optional[float]:
        if self.f_star is None:
            return None
        return self.final_f - self.f_star

    @property
    def restart_count(self) -> int:
        return max(len(self.cycles) - 1, 0)

    def restart_entries(self) -> list[TraceEntry]:
        return [e for e in self.entries if e.restart]

    def oracle_calls(self) -> int:
        return self.n_value + self.n_grad + self.n_prox

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        lengths = [length for length, _ in self.cycles]
        assert all(n >= 1 for n in lengths), "every cycle must have at least one step"
        assert sum(lengths) == len(self.values), "cycle lengths must sum to the step count"
        if self.f_star is not None:
            floor = _GAP_FLOOR * max(1.0, abs(self.f_star))
            assert all(f - self.f_star >= floor for f in self.values)


def _finite_vector(g: Vector) -> bool:
    """Whether every entry of g is finite.

    The dot product is the cheap test; it overflows for finite entries
    above about 1e154, so only then are the entries checked one by one.
    ``np.vdot`` overflows to inf without numpy's overflow warning.
    """
    return math.isfinite(float(np.vdot(g, g))) or bool(np.isfinite(g).all())


def _check_finite(finite: bool) -> None:
    if not finite:
        raise DivergenceError("non-finite objective or gradient encountered")


def _start(
    oracle: ProximalOracle, x0: Vector, L0: float, budget: int, f_star: Optional[float]
) -> tuple[Vector, Trace, float, Optional[Vector]]:
    """Validate a solver call and evaluate its start point.

    Returns the start point as a fresh float array, a trace that records
    f(x0), the smooth value f0(x0), and, when the oracle declares a
    quadratic form, the image Q x0 that f0(x0) was evaluated from (else
    ``None``).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    require_finite(L0=L0)
    if L0 <= 0:
        raise ValueError(f"L0 must be positive, got {L0}")
    x = np.array(x0, dtype=float)
    trace = Trace(f_star=f_star, max_L_hat=float(L0))
    form = oracle.quadratic
    if form is None:
        f0_x, Qx = oracle.smooth_value(x), None
    else:
        Qx = form.Q @ x
        f0_x = form.value(x, Qx)
    trace.n_value += 1
    trace.f_initial = f0_x + oracle.psi(x)
    _check_finite(math.isfinite(trace.f_initial))
    return x, trace, f0_x, Qx


def _trial(
    oracle: ProximalOracle,
    x: Vector,
    g: Vector,
    f0_x: float,
    L_hat: float,
    slack: float,
    trace: Trace,
) -> tuple[Vector, float, bool, bool]:
    """One line-search trial: the (proximal) gradient step from x at 1/L_hat.

    Returns the candidate y, its smooth value f0(y), whether that value is
    finite, and whether the quadratic model bounds it:

        f0(y) <= f0(x) + <g, y - x> + L_hat/2 ||y - x||^2 + slack
    """
    if oracle.prox is not None:
        cand = np.asarray(oracle.prox(x - g / L_hat, 1.0 / L_hat), dtype=float)
        trace.n_prox += 1
    else:
        cand = x - g / L_hat
    f0_cand = oracle.smooth_value(cand)
    trace.n_value += 1
    if not math.isfinite(f0_cand):
        return cand, f0_cand, False, False
    d = cand - x
    model = f0_x + float(np.dot(g, d)) + 0.5 * L_hat * float(np.dot(d, d)) + slack
    return cand, f0_cand, True, f0_cand <= model


def _quadratic_trial(
    oracle: ProximalOracle,
    x: Vector,
    g: Vector,
    L_hat: float,
    slack: float,
    trace: Trace,
) -> tuple[Vector, Vector, bool, bool]:
    """``_trial`` on a quadratic form, for the one product Q d, d = y - x.

    The form makes the descent test exact in difference form,
    f0(y) - f0(x) - <g, d> = d^T Q d / 2, so the test reads

        d^T Q d / 2 <= L_hat/2 ||d||^2 + slack

    with no value of f0 in it. Returns y, Q d, whether d^T Q d is finite,
    and the test. d is formed before its products, so finite data near
    the overflow threshold stays finite.
    """
    if oracle.prox is not None:
        cand = np.asarray(oracle.prox(x - g / L_hat, 1.0 / L_hat), dtype=float)
        trace.n_prox += 1
        d = cand - x
    else:
        d = g / -L_hat
        cand = x + d
    Qd = oracle.quadratic.Q @ d
    trace.n_value += 1
    curvature = float(np.vdot(d, Qd))
    if not math.isfinite(curvature):
        return cand, Qd, False, False
    return cand, Qd, True, 0.5 * curvature <= 0.5 * L_hat * float(np.vdot(d, d)) + slack


def _double(trace: Trace, L_hat: float, doublings: int, finite: bool, step: int) -> float:
    """Double the estimate after the ``doublings``-th failed trial of a step.

    An estimate that overflows to inf raises DivergenceError. At the last
    allowed doubling the caller accepts the last candidate: this raises if
    that candidate's value was non-finite, and otherwise records that the
    line search stalled.
    """
    L_hat *= 2.0
    if math.isinf(L_hat):
        raise DivergenceError(f"Lipschitz estimate overflowed in the line search (step {step})")
    trace.backtracks += 1
    trace.max_L_hat = max(trace.max_L_hat, L_hat)
    if doublings == _MAX_DOUBLINGS_PER_STEP:
        if not finite:
            raise DivergenceError(
                f"objective stayed non-finite through the line search (step {step})"
            )
        trace.notes.append(
            f"line search stalled at numerical precision (step {step}); accepted"
        )
    return L_hat


def gradient_descent(
    oracle: ProximalOracle,
    x0: Vector,
    L0: float,
    budget: int,
    *,
    f_star: Optional[float] = None,
) -> Trace:
    """Gradient descent with a doubling/halving line search on the step.

    Each step backtracks (doubling the Lipschitz estimate) until the
    candidate satisfies the quadratic descent condition, accepts it, then
    halves the estimate. Composite oracles take proximal-gradient steps,
    with the descent condition tested on the smooth part only. On a
    quadratic-form oracle the method carries Q x and tests the condition
    in its difference form (see the module docstring).
    """
    form = oracle.quadratic
    x, trace, f0_x, Qx = _start(oracle, x0, L0, budget, f_star)
    L_hat = float(L0)

    for t in range(1, budget + 1):
        if form is None:
            g = np.asarray(oracle.smooth_gradient(x), dtype=float)
        else:
            g = Qx - form.h
        trace.n_grad += 1
        _check_finite(_finite_vector(g))
        for doublings in range(1, _MAX_DOUBLINGS_PER_STEP + 1):
            if form is None:
                cand, f0_cand, finite, ok = _trial(oracle, x, g, f0_x, L_hat, 0.0, trace)
            else:
                cand, Qd, finite, ok = _quadratic_trial(oracle, x, g, L_hat, 0.0, trace)
            if ok:
                break
            L_hat = _double(trace, L_hat, doublings, finite, t)
        x = cand
        if form is not None:
            Qx = Qx + Qd
            f0_cand = form.value(x, Qx)
            _check_finite(math.isfinite(f0_cand))
        f0_x = f0_cand
        f_full = f0_cand + oracle.psi(x)
        L_hat = max(L_hat / 2.0, _L_HAT_MIN)
        trace.values.append(f_full)

    trace.cycles.append((trace.accepted, None))
    trace.final_point = x
    trace.final_L_hat = L_hat
    return trace


def universal_fast_gradient(
    oracle: ProximalOracle,
    x0: Vector,
    epsilon: float,
    L0: float,
    budget: int,
    stop: Optional[Callable[[Vector, float], bool]] = None,
    *,
    f_star: Optional[float] = None,
) -> tuple[Vector, Trace]:
    """Universal fast gradient method with target accuracy ``epsilon``.

    Implements the estimate-sequence method. The estimate function

        phi_t(u) = ||u - x0||^2 / 2 + sum_i a_i [f0(x_i) + <grad f0(x_i), u - x_i>]

    (+ A_t psi(u) for composite problems, A_t = sum_i a_i) stays a
    unit-curvature quadratic, so its minimizer z_t is x0 - sum_i a_i
    grad f0(x_i), passed through the prox with step A_t when a nonsmooth
    part is present. The coupling weight solves a^2 = (A_t + a) / L_hat,
    the candidate is a (proximal) gradient step from x = tau z_t +
    (1-tau) y_t, and the line search doubles L_hat until the
    epsilon-relaxed descent condition

        f0(y) <= f0(x) + <grad f0(x), y - x> + L_hat/2 ||y - x||^2
                 + tau * epsilon / 2

    holds, halving once after each accepted step. On a quadratic-form
    oracle the condition is tested in its difference form (see the module
    docstring). With epsilon = 0 the slack vanishes and the method is the
    plain backtracking accelerated gradient. If ``stop`` is given, the run
    terminates at the first accepted iterate y with stop(y, f(y)) true.

    Note: with epsilon = 0 on non-smooth problems (s < 2) there is no
    termination guarantee; the method simply runs out its budget.

    Returns the final point and its trace.
    """
    require_finite(epsilon=epsilon)
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    x0, trace, _, Qx0 = _start(oracle, x0, L0, budget, f_star)
    run = _ufgm_on_smooth_form if oracle.quadratic is not None and oracle.prox is None else _ufgm
    y, L_hat = run(oracle, x0, Qx0, epsilon, float(L0), budget, stop, trace)
    trace.cycles.append((trace.accepted, epsilon if epsilon > 0 else None))
    trace.final_point = y
    trace.final_L_hat = L_hat
    return y, trace


def _coupling(A: float, L_hat: float) -> tuple[float, float]:
    """The weight a solving a^2 = (A + a) / L_hat, and tau = a / (A + a)."""
    # halving before the division is exact and, unlike 2 L_hat, cannot overflow
    a = (1.0 + math.sqrt(1.0 + 4.0 * A * L_hat)) / 2.0 / L_hat
    return a, a / (A + a)


def _ufgm(
    oracle: ProximalOracle,
    anchor: Vector,
    Q_anchor: Optional[Vector],
    epsilon: float,
    L_hat: float,
    budget: int,
    stop: Optional[Callable[[Vector, float], bool]],
    trace: Trace,
) -> tuple[Vector, float]:
    """The UFGM loop for generic oracles and composite quadratic forms.

    Returns the last accepted iterate and the final estimate.
    """
    form = oracle.quadratic
    y, Qy, Qz = anchor, Q_anchor, Q_anchor
    A = 0.0
    grad_sum = np.zeros_like(anchor)

    for t in range(1, budget + 1):
        z = anchor - grad_sum
        if oracle.prox is not None and A > 0.0:
            z = np.asarray(oracle.prox(z, A), dtype=float)
            trace.n_prox += 1
            if form is not None:
                Qz = form.Q @ z
        for doublings in range(1, _MAX_DOUBLINGS_PER_STEP + 1):
            a, tau = _coupling(A, L_hat)
            slack = tau * epsilon / 2.0
            x = tau * z + (1.0 - tau) * y
            trace.n_grad += 1
            trace.n_value += 1
            if form is None:
                f0_x, g = oracle.smooth_eval(x)
                g = np.asarray(g, dtype=float)
                finite = math.isfinite(f0_x) and _finite_vector(g)
                if finite:
                    y_cand, f0_y, finite, ok = _trial(oracle, x, g, f0_x, L_hat, slack, trace)
            else:
                Qx = tau * Qz + (1.0 - tau) * Qy
                g = Qx - form.h
                finite = _finite_vector(g)
                if finite:
                    y_cand, Qd, finite, ok = _quadratic_trial(oracle, x, g, L_hat, slack, trace)
            if finite and ok:
                break
            L_hat = _double(trace, L_hat, doublings, finite, t)
        A += a
        grad_sum = grad_sum + a * g
        y = y_cand
        if form is not None:
            Qy = Qx + Qd
            f0_y = form.value(y, Qy)
            _check_finite(math.isfinite(f0_y))
        L_hat = max(L_hat / 2.0, _L_HAT_MIN)
        f_full = f0_y + oracle.psi(y)
        trace.values.append(f_full)
        if stop is not None and stop(y, f_full):
            break
    return y, L_hat


def _ufgm_on_smooth_form(
    oracle: ProximalOracle,
    x0: Vector,
    Qx0: Vector,
    epsilon: float,
    L_hat: float,
    budget: int,
    stop: Optional[Callable[[Vector, float], bool]],
    trace: Trace,
) -> tuple[Vector, float]:
    """The UFGM on a smooth quadratic form, carrying g_y and g_z.

    See the module docstring. Each trial spends one product, Q d, and
    counts as one gradient and two smooth values, as on the other paths.
    A non-finite g makes d, and with it d^T Q d, non-finite, so the
    finiteness of d^T Q d covers the gradient too. d is formed before its
    product, so finite data near the overflow threshold stays finite.
    Returns the last accepted iterate and the final estimate.
    """
    Q, h, c = oracle.quadratic.Q, oracle.quadratic.h, oracle.quadratic.c
    y = z = x0
    g_y = g_z = Qx0 - h
    A = 0.0
    trials = 0

    for t in range(1, budget + 1):
        dg = g_z - g_y
        for doublings in range(1, _MAX_DOUBLINGS_PER_STEP + 1):
            trials += 1
            a, tau = _coupling(A, L_hat)
            g = g_y + tau * dg
            d = g / -L_hat
            Qd = Q @ d
            curvature = float(np.vdot(d, Qd))
            finite = math.isfinite(curvature)
            if finite and 0.5 * curvature <= (
                0.5 * L_hat * float(np.vdot(d, d)) + tau * epsilon / 2.0
            ):
                break
            L_hat = _double(trace, L_hat, doublings, finite, t)
        A += a
        y = tau * z + (1.0 - tau) * y + d
        g_y = g + Qd
        z = z - a * g
        # g = -L_hat d and a L_hat = 1 / tau, so -a Q g = Q d / tau.
        g_z = g_z + Qd / tau
        f0_y = 0.5 * float(np.vdot(y, g_y - h)) + c
        _check_finite(math.isfinite(f0_y))
        L_hat = max(L_hat / 2.0, _L_HAT_MIN)
        f_full = f0_y + oracle.psi(y)
        trace.values.append(f_full)
        if stop is not None and stop(y, f_full):
            break
    trace.n_grad += trials
    trace.n_value += 2 * trials
    return y, L_hat


def accelerated(
    oracle: ProximalOracle,
    x0: Vector,
    L0: float,
    t: int,
    *,
    f_star: Optional[float] = None,
    stop: Optional[Callable[[Vector, float], bool]] = None,
) -> tuple[Vector, Trace]:
    """Nesterov's accelerated gradient method: the universal method at accuracy 0."""
    return universal_fast_gradient(oracle, x0, 0.0, L0, t, stop=stop, f_star=f_star)
