"""Inner first-order methods emitting per-iteration traces.

Three solvers: backtracking gradient descent, Nesterov's accelerated
gradient method, and the universal fast gradient method (UFGM). The
accelerated method is the UFGM run with target accuracy 0. All three
share one line search: each trial takes a (proximal) gradient step at
1/L_hat and tests the quadratic descent condition, relaxed by
tau * epsilon / 2 in the UFGM (``_trial``); a failed trial doubles the
estimate. Every loop doubles in place and counts backtracks and the
largest estimate in locals, which it adds to the trace at its end; only
a doubling that would overflow, or a step's last allowed one, goes
through ``_double``. The estimate is halved after every accepted
step, and the final one is reported so restart schemes can warm-start
the next cycle. The UFGM evaluates f0 and its gradient at each trial
point with one ``ProximalOracle.smooth_eval`` call, which shares their
common work when the oracle supplies a fused evaluation.

When the oracle declares its smooth part as a quadratic form
f0(x) = x^T Q x / 2 - h^T x + c (``ProximalOracle.quadratic``), the UFGM
tests the descent condition in its exact difference form
d^T Q d <= L_hat ||d||^2 + tau * epsilon for the step d = y - x, which no
rounding of f0's constant term disturbs. It carries the gradients
g_y = Q y - h and g_z = Q z - h beside its iterates; the gradient at
x = tau z + (1 - tau) y is their tau-mix g = (1 - tau) g_y + tau g_z, and
f0(y) = y^T (g_y - h) / 2 + c.

On a smooth form (no prox, ``_ufgm_on_smooth_form``) d = -g / L_hat, and
the loop also carries the images Q g_y and Q g_z and the constant h, in
an 8-row state with a row for the step's product. Then d^T Q d, ||d||^2
(quadratics in tau) and f0(y) = (y^T g_y - y^T h) / 2 + c come from one
4x5 Gram matrix per step, of y, z, g_y and g_z against g_y, g_z, Q g_y,
Q g_z and h, so a trial is a few scalar operations and a failed one costs
no array pass and no product. An accepted step updates the three two-row
blocks [y; z], [g_y; g_z] and [Q g_y; Q g_z] alike: the first row becomes
the block's tau-mix minus the next block's mix over L_hat, the second row
itself minus a times the next block's mix. For the images the next mix is
Q applied to their own mix, the step's one product; h stays as it is. The
gradient, h and image rows are stored over S and S^2, S the smallest
power-of-two multiple of the cycle's starting estimate L0 at least the
curvature g0^T Q g0 / ||g0||^2 along the first gradient (L0 when g0 = 0),
so they stay on the scale of a step however small L0 is; S is found on
g0 / P, P = L0 2^j with j >= 0 just large enough to keep its entries
below 2 (j = 0 unless L0 is tiny against g0), which rescales exactly.
After every 32nd step (``_REANCHOR_STEPS``) fresh products replace the
gradient and image rows, so their rounding drift stays bounded however
long the cycle. A cycle costs two products at its start (Q x0 and Q g0),
one per accepted step and four per re-anchor. The state lives in two
preallocated buffers, each step writing the step matrix times one into
the other; the views a step reads are made once per cycle, the step
matrix's entries are set through a memoryview, and the iterate is copied
out only when handed out (to ``stop`` after every step, else once at the
end), so a trace's final point owns its data.

On a composite form (``_ufgm_on_form``) the prox is not linear, so a
trial forms x and runs ``_quadratic_trial`` (shared with gradient descent):
y = prox(x - g / L_hat, 1 / L_hat), d = y - x and one product Q d. An
accepted step takes g_y+ = g + Q d. Each step after the first takes
z = prox(x0 - sum_i a_i g_i, A) and pays one product for g_z. Both loops
round differently from the generic one; tests hold them to the generic
path (the same oracle with ``quadratic=None``) within stated tolerances.

Gradient descent on a form carries Q x, takes its gradient Q x - h at no
product, runs every trial through ``_quadratic_trial`` and updates Q x by
the accepted Q d, so a run costs one product per trial plus one for x0.

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

# Doubling an estimate this large overflows to inf.
_L_HAT_OVERFLOW = 2.0 ** 1023

_GAP_FLOOR = -1e-12

# The smooth-form UFGM recomputes its gradients and images from fresh
# products after every this-many-th step but the last.
_REANCHOR_STEPS = 32

# The smooth-form UFGM's step matrix at a cycle's start: it keeps z, g_z,
# Q g_z and h. Each step fills the other entries (see the loop).
_STEP_START = np.diag([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0])


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

    The solvers double in place, counting backtracks and the largest
    estimate in locals, and call this only for a doubling that overflows
    (at or above ``_L_HAT_OVERFLOW``) or is a step's last allowed one.
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
    backtracks, top = 0, trace.max_L_hat

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
            if doublings < _MAX_DOUBLINGS_PER_STEP and L_hat < _L_HAT_OVERFLOW:
                L_hat *= 2.0
                backtracks += 1
                if L_hat > top:
                    top = L_hat
            else:
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

    trace.backtracks += backtracks
    trace.max_L_hat = max(trace.max_L_hat, top)
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
    if oracle.quadratic is None:
        y, L_hat = _ufgm(oracle, x0, epsilon, float(L0), budget, stop, trace)
    else:
        loop = _ufgm_on_form if oracle.prox is not None else _ufgm_on_smooth_form
        y, L_hat = loop(oracle, x0, Qx0, epsilon, float(L0), budget, stop, trace)
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
    epsilon: float,
    L_hat: float,
    budget: int,
    stop: Optional[Callable[[Vector, float], bool]],
    trace: Trace,
) -> tuple[Vector, float]:
    """The UFGM loop for oracles without a declared quadratic form.

    Returns the last accepted iterate and the final estimate.
    """
    y = anchor
    A = 0.0
    grad_sum = np.zeros_like(anchor)
    backtracks, top = 0, trace.max_L_hat

    for t in range(1, budget + 1):
        z = anchor - grad_sum
        if oracle.prox is not None and A > 0.0:
            z = np.asarray(oracle.prox(z, A), dtype=float)
            trace.n_prox += 1
        for doublings in range(1, _MAX_DOUBLINGS_PER_STEP + 1):
            a, tau = _coupling(A, L_hat)
            slack = tau * epsilon / 2.0
            x = tau * z + (1.0 - tau) * y
            trace.n_grad += 1
            trace.n_value += 1
            f0_x, g = oracle.smooth_eval(x)
            g = np.asarray(g, dtype=float)
            finite = math.isfinite(f0_x) and _finite_vector(g)
            if finite:
                y_cand, f0_y, finite, ok = _trial(oracle, x, g, f0_x, L_hat, slack, trace)
            if finite and ok:
                break
            if doublings < _MAX_DOUBLINGS_PER_STEP and L_hat < _L_HAT_OVERFLOW:
                L_hat *= 2.0
                backtracks += 1
                if L_hat > top:
                    top = L_hat
            else:
                L_hat = _double(trace, L_hat, doublings, finite, t)
        A += a
        grad_sum = grad_sum + a * g
        y = y_cand
        L_hat = max(L_hat / 2.0, _L_HAT_MIN)
        f_full = f0_y + oracle.psi(y)
        trace.values.append(f_full)
        if stop is not None and stop(y, f_full):
            break
    trace.backtracks += backtracks
    trace.max_L_hat = max(trace.max_L_hat, top)
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
    """The UFGM on a quadratic form without a prox, with scalar trials.

    See the module docstring. The 8-row state holds y, z, g_y / S, g_z / S,
    Q g_y / S^2, Q g_z / S^2, h / S and the step's product Q m / S, m the
    tau-mix of the image rows. It lives in two preallocated buffers: each
    step writes the step matrix times one into the other, and the views a
    step reads (the image rows, the product row and the two sides of the
    Gram matrix) are made once per cycle for both. The product Q @ m is
    assigned into the product row, since Q need only support ``@``. The
    step matrix's entries are set through ``cell``, a memoryview of it,
    which costs no numpy call. ``gram``, the 4x5 Gram matrix of the first
    four rows against the next five, gives the trial scalars and f0(y). A
    trial counts one gradient and two smooth values, as on the generic
    path; a non-finite gradient or image makes d^T Q d non-finite. Trials,
    backtracks and the largest estimate are counted in locals and added to
    the trace at the end. The iterate is copied out of the state only when
    it is handed out: to ``stop`` after every step (the last copy is the
    one returned), else once at the end. Returns the last accepted iterate
    and the final estimate.
    """
    Q, h, c = oracle.quadratic.Q, oracle.quadratic.h, oracle.quadratic.c
    sqrt, isfinite = math.sqrt, math.isfinite
    g0 = Qx0 - h
    # the first gradient over P = L0 2^j, j >= 0 just large enough to keep
    # its entries below 2, so that a tiny L0 overflows none of its products
    # (np.vdot reads a curvature past the range as inf, with no warning)
    j = max(math.frexp(float(abs(g0).max()))[1] - math.frexp(L_hat)[1], 0)
    P = math.ldexp(L_hat, j)
    v = g0 / P
    Qv = Q @ v
    S, vv, vQv = L_hat, float(np.vdot(v, v)), float(np.vdot(v, Qv))
    while S * vv < vQv and isfinite(2.0 * S):
        S *= 2.0
    views = []
    for rows in np.empty((2, 8, x0.shape[0])):
        views.append((rows, rows[4:6], rows[7], rows[:4].dot, rows[2:7].T))
    rows, images, prod, head_dot, tail = views[0]
    rows[:2] = x0
    rows[2:4] = v * (P / S)
    rows[4:6] = Qv / S * (P / S)
    rows[6] = h / S
    gram = head_dot(tail).tolist()
    step = _STEP_START.copy()
    advance = step.dot
    cell = memoryview(step.reshape(-1))
    w = np.empty(2)
    mix = w.dot
    append = trace.values.append
    A = 0.0
    trials = backtracks = 0
    top = trace.max_L_hat
    tries = range(1, _MAX_DOUBLINGS_PER_STEP + 1)

    for t in range(1, budget + 1):
        _, _, (gyy, gyz, hyy, hyz, _), (_, gzz, hzy, hzz, _) = gram
        for doublings in tries:
            trials += 1
            a = (1.0 + sqrt(1.0 + 4.0 * A * L_hat)) / 2.0 / L_hat
            tau = a / (A + a)
            u = 1.0 - tau
            # the step d = -g / L_hat is -s times the mix of the gradient rows
            s = S / L_hat
            gg = u * (u * gyy + 2.0 * tau * gyz) + tau * tau * gzz
            gQg = u * (u * hyy + tau * (hyz + hzy)) + tau * tau * hzz
            # d^T Q d; L_hat ||d||^2 is S s gg
            curvature = S * s * s * gQg
            finite = isfinite(curvature)
            if finite and curvature <= S * s * gg + tau * epsilon:
                break
            if doublings < _MAX_DOUBLINGS_PER_STEP and L_hat < _L_HAT_OVERFLOW:
                L_hat *= 2.0
                backtracks += 1
                if L_hat > top:
                    top = L_hat
            else:
                L_hat = _double(trace, L_hat, doublings, finite, t)
        A += a
        w[0], w[1] = u / S, tau / S
        prod[...] = Q @ mix(images)
        # in each block the first row becomes its mix - s (next block's mix)
        # and the second row itself - a S (next block's mix); the product
        # row is the next block of the images
        aS = a * S
        # entry (r, k) of the step matrix is cell[8 r + k]
        cell[0] = cell[18] = cell[36] = u
        cell[1] = cell[19] = cell[37] = tau
        cell[2] = cell[20] = -s * u
        cell[3] = cell[21] = -s * tau
        cell[10] = cell[28] = -aS * u
        cell[11] = cell[29] = -aS * tau
        cell[39], cell[47] = -s, -aS
        new = views[t & 1]
        advance(rows, out=new[0])
        rows, images, prod, head_dot, tail = new
        if t % _REANCHOR_STEPS == 0 and t < budget:
            for k in (2, 3, 4, 5):
                rows[k] = (Q @ rows[k - 2] - (h if k < 4 else 0.0)) / S
        gram = head_dot(tail).tolist()
        f0_y = 0.5 * S * (gram[0][0] - gram[0][4]) + c
        _check_finite(isfinite(f0_y))
        L_hat /= 2.0
        if L_hat < _L_HAT_MIN:
            L_hat = _L_HAT_MIN
        append(f0_y)
        if stop is not None:
            y = rows[0].copy()
            if stop(y, f0_y):
                break
    if stop is None:
        y = rows[0].copy()
    trace.n_grad += trials
    trace.n_value += 2 * trials
    trace.backtracks += backtracks
    trace.max_L_hat = max(trace.max_L_hat, top)
    return y, L_hat


def _ufgm_on_form(
    oracle: ProximalOracle,
    x0: Vector,
    Qx0: Vector,
    epsilon: float,
    L_hat: float,
    budget: int,
    stop: Optional[Callable[[Vector, float], bool]],
    trace: Trace,
) -> tuple[Vector, float]:
    """The UFGM on a composite quadratic form, carrying g_y and g_z.

    See the module docstring. A trial is ``_quadratic_trial`` at slack
    tau * epsilon / 2, one product Q d; it counts one gradient and two smooth
    values, as on the generic path. A non-finite g makes d^T Q d non-finite,
    or, through a clipping prox, f0(y+), so those checks cover the gradient
    too. Returns the last accepted iterate and the final estimate.
    """
    Q, h, c = oracle.quadratic.Q, oracle.quadratic.h, oracle.quadratic.c
    # v = x0 - sum_i a_i g_i; z is its prox with step A
    y = z = v = x0
    g_y = g_z = Qx0 - h
    A = 0.0
    trials = backtracks = 0
    top = trace.max_L_hat

    for t in range(1, budget + 1):
        if A > 0.0:
            z = np.asarray(oracle.prox(v, A), dtype=float)
            trace.n_prox += 1
            g_z = Q @ z - h
        dg = g_z - g_y
        for doublings in range(1, _MAX_DOUBLINGS_PER_STEP + 1):
            trials += 1
            a, tau = _coupling(A, L_hat)
            g = g_y + tau * dg
            x = tau * z + (1.0 - tau) * y
            y_cand, Qd, finite, ok = _quadratic_trial(oracle, x, g, L_hat,
                                                      tau * epsilon / 2.0, trace)
            if ok:
                break
            if doublings < _MAX_DOUBLINGS_PER_STEP and L_hat < _L_HAT_OVERFLOW:
                L_hat *= 2.0
                backtracks += 1
                if L_hat > top:
                    top = L_hat
            else:
                L_hat = _double(trace, L_hat, doublings, finite, t)
        A += a
        y = y_cand
        g_y = g + Qd
        v = v - a * g
        f0_y = 0.5 * float(np.vdot(y, g_y - h)) + c
        _check_finite(math.isfinite(f0_y))
        L_hat = max(L_hat / 2.0, _L_HAT_MIN)
        f_full = f0_y + oracle.psi(y)
        trace.values.append(f_full)
        if stop is not None and stop(y, f_full):
            break
    trace.n_grad += trials
    trace.n_value += trials
    trace.backtracks += backtracks
    trace.max_L_hat = max(trace.max_L_hat, top)
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
