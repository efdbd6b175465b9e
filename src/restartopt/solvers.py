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
carries the images Q y and Q z beside its iterates, so Q x = tau Q z +
(1 - tau) Q y and the gradient Q x - h cost no product. Each trial then
spends one product, on Q d for the step d = y - x, and tests the descent
condition in its exact difference form d^T Q d / 2 <= L_hat/2 ||d||^2 +
tau * epsilon / 2 (``_quadratic_trial``), which no rounding of f0's
constant term disturbs. On smooth problems Q z = Q x0 - sum_i a_i Q g_i
needs no product of its own, since a step d = -g / L_hat gives
Q g = -L_hat Q d; on composite ones Q z takes one product after the prox
of z. f0 is evaluated only at accepted points, from Q y. Rounding makes
this path differ from the generic one in the last bits; tests hold it
to the generic path (the same oracle with ``quadratic=None``) within
stated tolerances. Gradient descent keeps the generic evaluations.

Iteration accounting: one inner iteration = one accepted step. Line
search backtracks are tallied separately (``Trace.backtracks``), as are
objective/gradient/prox evaluations, so both accountings are reportable.
The evaluation counters count quantities, not calls: a fused
value-and-gradient call adds one to each, and a UFGM trial counts one
gradient and two smooth values (at x and at the candidate, whose
difference the descent test uses) on either path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import DivergenceError, ProximalOracle, Vector

# Doubling the estimate this many times within a single step means the
# descent test is chasing rounding noise; we accept and record a note.
_MAX_DOUBLINGS_PER_STEP = 120

# Halving after every accepted step must not drive the estimate into
# subnormals (or exactly 0 once iterates sit at the optimum).
_L_HAT_MIN = 1e-280

_GAP_FLOOR = -1e-12


@dataclass
class TraceEntry:
    """One accepted inner iterate."""

    iteration: int
    f_value: float
    gap: Optional[float]
    restart: bool = False
    eps_target: Optional[float] = None


@dataclass
class Trace:
    """Per-iteration record of a solver or restart-scheme run.

    ``entries`` holds one row per accepted inner iteration with strictly
    increasing cumulative counts; ``gap`` entries are present iff
    ``f_star`` is known. Restart markers sit on the last iterate of each
    cycle that was followed by another cycle.
    """

    entries: list[TraceEntry] = field(default_factory=list)
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
    def accepted(self) -> int:
        return len(self.entries)

    @property
    def final_f(self) -> float:
        if self.entries:
            return self.entries[-1].f_value
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
        return sum(1 for e in self.entries if e.restart)

    def restart_entries(self) -> list[TraceEntry]:
        return [e for e in self.entries if e.restart]

    def oracle_calls(self) -> int:
        return self.n_value + self.n_grad + self.n_prox

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        last = 0
        for e in self.entries:
            assert e.iteration > last, "iteration counts must strictly increase"
            last = e.iteration
            if self.f_star is None:
                assert e.gap is None
            else:
                assert e.gap is not None
                assert e.gap >= _GAP_FLOOR * max(1.0, abs(self.f_star))


def _gap(f: float, f_star: Optional[float]) -> Optional[float]:
    return None if f_star is None else f - f_star


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

    At the last allowed doubling the caller accepts the last candidate:
    this raises if that candidate's value was non-finite, and otherwise
    records that the line search stalled.
    """
    L_hat *= 2.0
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
    with the descent condition tested on the smooth part only.
    """
    x, trace, f0_x, _ = _start(oracle, x0, L0, budget, f_star)
    L_hat = float(L0)

    for t in range(1, budget + 1):
        g = np.asarray(oracle.smooth_gradient(x), dtype=float)
        trace.n_grad += 1
        _check_finite(_finite_vector(g))
        for doublings in range(1, _MAX_DOUBLINGS_PER_STEP + 1):
            cand, f0_cand, finite, ok = _trial(oracle, x, g, f0_x, L_hat, 0.0, trace)
            if ok:
                break
            L_hat = _double(trace, L_hat, doublings, finite, t)
        x = cand
        f0_x = f0_cand
        f_full = f0_cand + oracle.psi(x)
        L_hat = max(L_hat / 2.0, _L_HAT_MIN)
        trace.entries.append(TraceEntry(t, f_full, _gap(f_full, f_star)))

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
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    form = oracle.quadratic
    anchor, trace, _, Q_anchor = _start(oracle, x0, L0, budget, f_star)
    y, Qy = anchor, Q_anchor
    L_hat = float(L0)
    A = 0.0
    grad_sum = np.zeros_like(anchor)
    Q_grad_sum = np.zeros_like(anchor)
    eps_mark = epsilon if epsilon > 0 else None

    for t in range(1, budget + 1):
        z = anchor - grad_sum
        if oracle.prox is not None and A > 0.0:
            z = np.asarray(oracle.prox(z, A), dtype=float)
            trace.n_prox += 1
            if form is not None:
                Qz = form.Q @ z
        elif form is not None:
            Qz = Q_anchor - Q_grad_sum
        for doublings in range(1, _MAX_DOUBLINGS_PER_STEP + 1):
            a = (1.0 + math.sqrt(1.0 + 4.0 * A * L_hat)) / (2.0 * L_hat)
            tau = a / (A + a)
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
            if oracle.prox is None:
                # g = -L_hat d and a L_hat = 1 / tau, so a Q g = -Q d / tau.
                Q_grad_sum = Q_grad_sum - Qd / tau
            f0_y = form.value(y, Qy)
            _check_finite(math.isfinite(f0_y))
        L_hat = max(L_hat / 2.0, _L_HAT_MIN)
        f_full = f0_y + oracle.psi(y)
        trace.entries.append(
            TraceEntry(t, f_full, _gap(f_full, f_star), eps_target=eps_mark)
        )
        if stop is not None and stop(y, f_full):
            break

    trace.final_point = y
    trace.final_L_hat = L_hat
    return y, trace


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
