"""Inner first-order methods emitting per-iteration traces.

Three solvers: backtracking gradient descent, Nesterov's accelerated
gradient method, and the universal fast gradient method (UFGM). The
accelerated method is the UFGM run with target accuracy 0. Each trial
of a line search takes a (proximal) gradient step at 1/L_hat and tests
the quadratic descent condition, relaxed by tau * epsilon / 2 in the
UFGM; a failed trial doubles the estimate. There is one test per
arithmetic: ``_trial`` compares values of f0 (the generic paths),
``_form_trial`` tests a form's difference form on vectors (gradient
descent on a form and the composite UFGM), ``_smooth_trial`` on the Gram
scalars of the smooth-form UFGM, and ``_ladder`` the same over the
lockstep grid's columns and eight estimates (see below). The generic
and composite UFGM loops take (a, tau) from ``_coupling``; the smooth
loop and the lockstep compute them inside their trials, which stay
scalar or elementwise for speed. Every failed trial of the vector loops
doubles through ``_double``, which counts the backtrack and the largest
estimate on the trace; the smooth loop and the lockstep double in place
and count in locals. The generic test compares values of f0, which
rounding alone can fail, so a step that has doubled 120 times is
accepted with a note. The estimate is halved after every accepted step,
and the final one is reported so restart schemes can warm-start the next
cycle.
The UFGM evaluates f0 and its gradient at each trial point with one
``ProximalOracle.smooth_eval`` call, which shares their common work when
the oracle supplies a fused evaluation.

When the oracle declares its smooth part as a quadratic form
f0(x) = x^T Q x / 2 - h^T x + c (``ProximalOracle.quadratic``), the UFGM
tests the descent condition in its exact difference form
d^T Q d <= L_hat ||d||^2 + tau * epsilon for the step d = y - x, which no
rounding of f0's constant term disturbs. That test fails only while
L_hat is below the curvature along d, so a form's line search, in the
UFGM and in gradient descent, has no cap: it doubles until the test
holds, or raises DivergenceError once the estimate would overflow. The
UFGM carries the gradients g_y = Q y - h and g_z = Q z - h beside its
iterates; the gradient at x = tau z + (1 - tau) y is their tau-mix
g = (1 - tau) g_y + tau g_z, and f0(y) = y^T (g_y - h) / 2 + c.

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
trial forms g and x in preallocated work buffers, and ``_form_trial``
writes w = x - g / L_hat and d = y - x into two more, takes
y = prox(w, 1 / L_hat) and pays one product Q d. An accepted step takes
g_y+ = g + Q d, adding g into the fresh product. Each step after the
first takes z = prox(x0 - sum_i a_i g_i, A) and pays one product for g_z,
from which h is subtracted in place. The trial and prox counters are
locals, so a step is mostly its array operations: on the 2000x300 LASSO
of the benchmark, about 90 us of CPU per accepted step (2.04 trials and
three products) on a shared 2-core x86 machine with single-threaded
OpenBLAS. Both loops round differently from the generic one; tests hold
them to the generic path (the same oracle with ``quadratic=None``)
within stated tolerances.

Gradient descent on a form carries Q x, takes its gradient Q x - h at no
product, runs every trial through ``_form_trial`` and updates Q x by the
accepted Q d, so a run costs one product per trial plus one for x0. It
runs with numpy's floating-point warnings off, as the smooth loop does.

Iteration accounting: one inner iteration = one accepted step. Line
search backtracks are tallied separately (``Trace.backtracks``), as are
objective/gradient/prox evaluations, so both accountings are reportable.
The evaluation counters count quantities, not calls: a fused
value-and-gradient call adds one to each, and a UFGM trial counts one
gradient and two smooth values (at x and at the candidate, whose
difference the descent test uses) on every path.

A single run of ``universal_fast_gradient`` runs one loop to its budget.
The generic and composite loops are generators that can be resumed in
place: sent a budget, a loop runs to that many accepted steps in all, adds
its counters to the trace and yields; sent a larger one, it goes on from
there. The smooth loop runs once, with numpy's floating-point warnings
off, since its overflows raise DivergenceError. Nothing a step computes
depends on the cycle's length but one thing: the smooth loop skips its
re-anchor after a cycle's last step, so a cycle that ends on a multiple
of 32 reports a value there that differs in its last bits from the one a
longer cycle reports.

The grid search runs its plan tree once, up front (``_grid_snapshots``):
every distinct cycle runs once, and its trace, a ``Trace`` of one cycle,
is kept at each length a run takes it to, copied before any re-anchor
where the cycle goes on. Each run's ``universal_fast_gradient`` call
then hands out its own copy of the kept trace, or raises the kept
exception. Composite and generic cycles run their resumable loop, start
by start. A smooth form's cycles run in lockstep (``_lockstep``): one
accepted step per tick for every active cycle, each a column of stacked
arrays. It is bitwise the smooth loop. Its trial scalars are the loop's IEEE operations, done
elementwise in the same order, for the estimates L_hat 2^m, m = 0..7, at
once (doubling is exact); the first level that passes is the loop's. Its
step, Gram matrix and mix are ``np.matmul`` over stacked operands, which
make for each column the BLAS call the loop makes. Its products of Q go
through ``_products``: one ``np.matmul(Q, M[..., None])`` when Q is an
array, else the loop's own ``Q @ v`` per column. A cycle's start and its
re-anchors run the loop's own helpers on its column, and an error is kept
for the lengths at and past the step that raised it. Runs that share a
cycle share the steps before it, and a run stops at the first cycle
boundary past its budget, so either every run that takes a cycle to a
length goes on from there or none does. A length runs go on from keeps
no final point: the next cycle starts from there, and its final point
replaces that one in the run.

Each solver call appends f at every accepted iterate to ``Trace.values``
and, once at the end, one ``(length, target)`` record to ``Trace.cycles``;
restart schemes concatenate both lists over their cycles. ``Trace.entries``
is the one place that derives rows (cumulative count, gap, restart
marker, target) from them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Generator, NamedTuple, Optional

import numpy as np

from .core import DivergenceError, ProximalOracle, Vector, require_finite

# On the generic path, doubling the estimate this many times within a
# single step means the descent test is chasing rounding noise; we accept
# and record a note. A form's difference-form test has no such cap.
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

# The lockstep grid tries each step at L_hat times these powers of two at once
# when more than _SCALAR_TRIALS columns step. A ladder costs about as much as
# eight scalar trials (27 us against 3.5 us a column, Figure-1 grid, shared
# 2-core x86 machine), so a tick with fewer columns runs the scalar trial.
_LADDER = 2.0 ** np.arange(8)
_SCALAR_TRIALS = 8


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

    def copy(self) -> Trace:
        """A trace equal to this one whose lists and final point are its own."""
        # positional, in field order: cheaper than keywords, once per grid cycle taken
        point = None if self.final_point is None else self.final_point.copy()
        return Trace(self.values.copy(), self.cycles.copy(), point, self.final_L_hat,
                     self.f_star, self.f_initial, self.n_value, self.n_grad, self.n_prox,
                     self.backtracks, self.max_L_hat, self.notes.copy())

    def extend(self, cycle: Trace) -> None:
        """Append a run warm-started from this trace's final point and estimate.

        Its values, cycles, notes and counters are added to this trace's,
        ``f_initial`` is its own if this trace has none yet, and the final
        point and estimate, from which a next run starts, become its own.
        """
        if self.f_initial is None:
            self.f_initial = cycle.f_initial
        self.values += cycle.values
        self.cycles += cycle.cycles
        self.notes += cycle.notes
        self.n_value += cycle.n_value
        self.n_grad += cycle.n_grad
        self.n_prox += cycle.n_prox
        self.backtracks += cycle.backtracks
        self.max_L_hat = max(self.max_L_hat, cycle.max_L_hat)
        self.final_point, self.final_L_hat = cycle.final_point, cycle.final_L_hat

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


_NON_FINITE = "non-finite objective or gradient encountered"


def _check_finite(finite: bool) -> None:
    if not finite:
        raise DivergenceError(_NON_FINITE)


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


def _form_trial(Q, prox, x: Vector, g: Vector, L_hat: float, slack: float, w: Vector,
                d: Vector) -> tuple[Vector, Vector, bool]:
    """One trial on a quadratic form, in difference form, for one product Q d.

    The form makes the descent test exact in difference form,
    f0(y) - f0(x) - <g, d> = d^T Q d / 2 for d = y - x, so the test reads

        d^T Q d / 2 <= L_hat/2 ||d||^2 + slack

    with no value of f0 in it. With a prox, w = x - g / L_hat and d are
    written into the caller's work buffers, views of a larger array, and a
    candidate that does not own its data (the prox may return w, or a view
    of it) is copied, so no work buffer becomes an iterate. Without one,
    d = -g / L_hat goes into its buffer and y = x + d is fresh. Returns y,
    Q d and the test, which fails where d^T Q d is not finite.
    """
    if prox is None:
        np.divide(g, -L_hat, d)
        y = x + d
    else:
        np.divide(g, L_hat, w)
        np.subtract(x, w, w)
        y = np.asarray(prox(w, 1.0 / L_hat), dtype=float)
        if y.base is not None:
            y = y.copy()
        np.subtract(y, x, d)
    Qd = Q @ d
    curvature = float(np.vdot(d, Qd))
    return y, Qd, (math.isfinite(curvature)
                   and 0.5 * curvature <= 0.5 * L_hat * float(np.vdot(d, d)) + slack)


def _overflow(step: int) -> DivergenceError:
    return DivergenceError(f"Lipschitz estimate overflowed in the line search (step {step})")


def _double(trace: Trace, L_hat: float, doublings: int, finite: bool, step: int) -> float:
    """Double the estimate after the ``doublings``-th failed trial of a step.

    Every failed trial of the vector loops (gradient descent and the
    generic and composite UFGM) comes here; it counts the backtrack and
    the largest estimate on the trace. An estimate that overflows to inf
    raises DivergenceError. A form's loop passes 0 doublings, since its
    difference-form test fails only on real curvature; on the generic path
    the caller accepts the last candidate at the last allowed doubling,
    and this raises if that candidate's value was non-finite, and
    otherwise records that the line search stalled.
    """
    L_hat *= 2.0
    if math.isinf(L_hat):
        raise _overflow(step)
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
    in its difference form (see the module docstring), with numpy's
    floating-point warnings off, since a non-finite value raises
    DivergenceError.
    """
    form = oracle.quadratic
    x, trace, f0_x, Qx = _start(oracle, x0, L0, budget, f_star)
    L_hat = float(L0)
    finite = True  # read by _double only at the generic path's last doubling
    if form is None:
        tries = range(1, _MAX_DOUBLINGS_PER_STEP + 1)
    else:
        # a difference-form test fails only on real curvature, so a form's
        # line search has no doubling cap; w and d are its trials' buffers
        tries = itertools.repeat(0)
        w, d = np.empty((2, x.shape[0]))

    # on a form an overflow raises DivergenceError, typed; all=None keeps
    # numpy's settings on the generic path
    with np.errstate(all=None if form is None else "ignore"):
        for t in range(1, budget + 1):
            if form is None:
                g = np.asarray(oracle.smooth_gradient(x), dtype=float)
            else:
                g = Qx - form.h
            trace.n_grad += 1
            _check_finite(_finite_vector(g))
            for doublings in tries:
                if form is None:
                    cand, f0_cand, finite, ok = _trial(oracle, x, g, f0_x, L_hat, 0.0, trace)
                else:
                    cand, Qd, ok = _form_trial(form.Q, oracle.prox, x, g, L_hat, 0.0, w, d)
                    trace.n_value += 1
                    trace.n_prox += oracle.prox is not None
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
    _cycle: Optional[Callable[[], dict[int, Trace | Exception]]] = None,
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

    ``_cycle`` is for the grid search only: a callable that returns the
    traces kept at the cycle's start (see ``_grid_snapshots``).
    """
    require_finite(epsilon=epsilon)
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if _cycle is not None:
        kept = _cycle()[budget]
        if isinstance(kept, Exception):
            raise kept
        trace = kept.copy()
        return trace.final_point, trace
    x0, trace, _, Qx0 = _start(oracle, x0, L0, budget, f_star)
    if oracle.quadratic is not None and oracle.prox is None:
        with np.errstate(all="ignore"):  # an overflow raises DivergenceError, typed
            y, L_hat = _ufgm_on_smooth_form(oracle, x0, Qx0, epsilon, float(L0), budget,
                                            stop, trace)
    else:
        y, L_hat = next(_resumable(oracle, x0, Qx0, epsilon, float(L0), budget, stop, trace))
    trace.cycles.append((trace.accepted, epsilon if epsilon > 0 else None))
    trace.final_point, trace.final_L_hat = y, L_hat
    return y, trace


def _grid_snapshots(oracle: ProximalOracle, x0: Vector, L0: float, f_star: Optional[float],
                    takers: dict[int, set[int]], children: dict[tuple[int, int], int]
                    ) -> dict[int, dict[int, Trace | Exception]]:
    """Run every cycle of a grid's plan tree once; keep its trace at each length.

    ``takers[start]`` holds the lengths runs take the cycle from ``start``
    to, and ``children[start, length]`` is the start of the cycle that runs
    going on from there take next. Start 0 runs from x0 and L0, and every
    target is 0. A smooth form runs the tree in lockstep (``_lockstep``).
    Otherwise the starts are walked in numbering order, parents first, and
    each start's resumable loop is sent its lengths in increasing order.
    Whatever a start raises is kept for the lengths it has not reached, and
    the first run to take one raises it; a start whose parent failed first
    is not run, since no run reaches it. Returns, for every start run, its
    trace or exception at each length: a ``Trace`` of one cycle, a copy
    where the loop goes on and its own at its last length, whose final
    point is ``None`` where runs go on.
    """
    if oracle.quadratic is not None and oracle.prox is None:
        return _lockstep(oracle, x0, float(L0), f_star, takers, children)
    kept: dict[int, dict[int, Trace | Exception]] = {}
    points = {0: (x0, L0)}
    for start, lengths in sorted(takers.items()):
        if start not in points:
            continue
        traces = kept[start] = {}
        x, L = points.pop(start)
        last = max(lengths)
        try:
            x, trace, _, Qx = _start(oracle, x, L, last, f_star)
            loop = _resumable(oracle, x, Qx, 0.0, float(L), 0, None, trace)
            next(loop)
            for length in sorted(lengths):
                y, L_hat = loop.send(length)
                child = children.get((start, length))
                if child is not None:  # every run that takes this length goes on
                    points[child] = y, L_hat
                    y = None
                trace.cycles, trace.final_point, trace.final_L_hat = [(length, None)], y, L_hat
                traces[length] = trace if length == last else trace.copy()
        except Exception as exc:  # a single run would raise it, of whatever type
            for length in lengths:
                traces.setdefault(length, exc)
    return kept


def _resumable(oracle: ProximalOracle, x0: Vector, Qx0: Optional[Vector], epsilon: float,
               L_hat: float, budget: int, stop: Optional[Callable[[Vector, float], bool]],
               trace: Trace) -> Generator[tuple[Vector, float], int, None]:
    """The resumable UFGM loop of an oracle that is no smooth form."""
    if oracle.quadratic is None:
        return _ufgm(oracle, x0, epsilon, L_hat, budget, stop, trace)
    return _ufgm_on_form(oracle, x0, Qx0, epsilon, L_hat, budget, stop, trace)


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
) -> Generator[tuple[Vector, float], int, None]:
    """The UFGM loop for oracles without a declared quadratic form.

    A generator, as is the composite loop. It runs to ``budget`` accepted
    steps in all (fewer if ``stop`` fires) and yields the last accepted
    iterate and the final estimate. Sent a larger budget, it goes on from
    there.
    """
    y = anchor
    A = 0.0
    grad_sum = np.zeros_like(anchor)
    t = 0
    while True:
        for t in range(t + 1, budget + 1):
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
                L_hat = _double(trace, L_hat, doublings, finite, t)
            A += a
            grad_sum = grad_sum + a * g
            y = y_cand
            L_hat = max(L_hat / 2.0, _L_HAT_MIN)
            f_full = f0_y + oracle.psi(y)
            trace.values.append(f_full)
            if stop is not None and stop(y, f_full):
                break
        budget = yield y, L_hat


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
    tau-mix of the image rows (``_smooth_start`` fills it). It lives in two
    preallocated buffers: each step writes the step matrix times one into
    the other, and the views a step reads (the image rows, the product row
    and the two sides of the Gram matrix) are made once per cycle for both.
    The product Q @ m is assigned into the product row, since Q need only
    support ``@``. The step matrix's entries are set through ``cell``, a
    memoryview of it, which costs no numpy call. ``gram``, the 4x5 Gram
    matrix of the first four rows against the next five, gives the trial
    scalars and f0(y). A trial counts one gradient and two smooth values,
    as on the generic path; a non-finite gradient or image makes d^T Q d
    non-finite. The line search is ``_smooth_trial``'s. Backtracks and the
    largest estimate are counted in locals and added to the trace at the
    end, with one trial per step and per backtrack. The iterate is copied out of
    the state only when it is handed out: to ``stop`` after every step (the
    last copy is the one returned), else once at the end. Runs to
    ``budget`` accepted steps (fewer if ``stop`` fires) and returns the last
    accepted iterate and the final estimate.
    """
    Q, h, c = oracle.quadratic.Q, oracle.quadratic.h, oracle.quadratic.c
    isfinite, trial = math.isfinite, _smooth_trial
    views = []
    for rows in np.empty((2, 8, x0.shape[0])):
        views.append((rows, rows[4:6], rows[7], rows[:4].dot, rows[2:7].T))
    rows, images, prod, head_dot, tail = views[0]
    S, = _smooth_start(Q, h, x0[None], Qx0[None], [L_hat], rows[None])
    gram = head_dot(tail).tolist()
    step = _STEP_START.copy()
    advance = step.dot
    cell = memoryview(step.reshape(-1))
    w = np.empty(2)
    mix = w.dot
    append = trace.values.append
    A = 0.0
    backtracks = 0
    top = trace.max_L_hat

    for t in range(1, budget + 1):
        u, tau, s, a, L_hat, doublings = trial(gram, A, S, L_hat, epsilon, t)
        if doublings:
            backtracks += doublings
            top = max(top, L_hat)
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
            _reanchor(rows, Q, h, S)
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
    trials = t + backtracks  # one per step and one per doubling
    trace.n_grad += trials
    trace.n_value += 2 * trials
    trace.backtracks += backtracks
    trace.max_L_hat = max(trace.max_L_hat, top)
    return y, L_hat


def _smooth_trial(gram: list, A: float, S: float, L_hat: float, epsilon: float,
                  t: int) -> tuple[float, float, float, float, float, int]:
    """The smooth loop's line search at step t, on the scalars of its Gram matrix.

    Doubles L_hat until the descent test holds, and raises DivergenceError
    when it fails at an estimate at the overflow threshold. Returns u = 1 -
    tau, tau, s = S / L_hat, a and L_hat where the test held, and the number
    of doublings.
    """
    _, _, (gyy, gyz, hyy, hyz, _), (_, gzz, hzy, hzz, _) = gram
    doublings = 0
    while True:
        a = (1.0 + math.sqrt(1.0 + 4.0 * A * L_hat)) / 2.0 / L_hat
        tau = a / (A + a)
        u = 1.0 - tau
        # the step d = -g / L_hat is -s times the mix of the gradient rows
        s = S / L_hat
        gg = u * (u * gyy + 2.0 * tau * gyz) + tau * tau * gzz
        gQg = u * (u * hyy + tau * (hyz + hzy)) + tau * tau * hzz
        # d^T Q d; L_hat ||d||^2 is S s gg
        curvature = S * s * s * gQg
        if math.isfinite(curvature) and curvature <= S * s * gg + tau * epsilon:
            return u, tau, s, a, L_hat, doublings
        if L_hat >= _L_HAT_OVERFLOW:
            raise _overflow(t)
        L_hat *= 2.0
        doublings += 1


def _smooth_start(Q, h: Vector, X: np.ndarray, QX: np.ndarray, L0: list[float],
                  rows: np.ndarray, errors: Optional[dict[int, Exception]] = None
                  ) -> list[float]:
    """Fill rows 0-6 of the smooth loop's state at k cycle starts; return each S.

    ``X`` and ``QX`` hold the starts and their images, ``L0`` their
    estimates and ``rows`` their states. Every operation acts on each start
    as the loop's would on it alone (the products through ``_products``,
    which puts what they raise into ``errors``, when given).
    """
    G = QX - h
    # each first gradient over P = L0 2^j, j >= 0 just large enough to keep
    # its entries below 2, so that a tiny L0 overflows none of its products
    # (np.vdot reads a curvature past the range as inf, with no warning)
    P = np.array([[math.ldexp(L, max(math.frexp(g)[1] - math.frexp(L)[1], 0))]
                  for g, L in zip(np.abs(G).max(axis=1).tolist(), L0)])
    V = G / P
    QV = _products(Q, V, np.empty_like(V), errors)
    S = []
    for L, v, Qv in zip(L0, V, QV):
        vv, vQv = float(np.vdot(v, v)), float(np.vdot(v, Qv))
        while L * vv < vQv and math.isfinite(2.0 * L):
            L *= 2.0
        S.append(L)
    scale = np.array(S)[:, None]
    ratio = P / scale
    rows[:, :2] = X[:, None]
    rows[:, 2:4] = (V * ratio)[:, None]
    rows[:, 4:6] = (QV / scale * ratio)[:, None]
    rows[:, 6] = h / scale
    return S


def _products(Q, V: np.ndarray, out: np.ndarray,
              errors: Optional[dict[int, Exception]] = None) -> np.ndarray:
    """Write Q v into ``out`` for each row v of V, as the smooth loop's ``Q @ v``.

    When Q is an array this is one ``np.matmul`` over the stack, which makes
    for each row the BLAS call ``Q @ v`` makes; otherwise it is that call,
    and what it raises goes into ``errors`` by row, when given.
    """
    if isinstance(Q, np.ndarray):
        np.matmul(Q, V[..., None], out=out[..., None])
        return out
    for k, v in enumerate(V):
        try:
            out[k] = Q @ v
        except Exception as exc:
            if errors is None:
                raise
            errors[k] = exc
    return out


def _reanchor(rows: np.ndarray, Q, h: Vector, S: float) -> None:
    """Recompute the smooth loop's gradient and image rows from fresh products."""
    for k in (2, 3, 4, 5):
        rows[k] = (Q @ rows[k - 2] - (h if k < 4 else 0.0)) / S


def _ladder(gram: np.ndarray, AS: np.ndarray, L_hat: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """The smooth loop's trials of k columns at L_hat 2^m, m = 0, ..., 7, at target 0.

    ``gram`` holds the columns' 4x5 Gram matrices, ``AS`` their A and S
    and ``L_hat`` their estimates. ``out``, (14, k, 8), receives u = 1 - tau,
    tau, s, a and the estimate at every level, then the inputs spread over
    the levels, so that no operation broadcasts. Each is the loop's scalar,
    operation for operation, so bitwise the loop's. Returns where the test
    holds.
    """
    u, tau, s, a, Lm, A, S, gyy, gyz, hyy, hyz, gzz, hzy, hzz = out
    np.multiply(L_hat[:, None], _LADDER, out=Lm)
    out[5:7] = AS[:, :, None]
    out[7:11] = gram[:, 2, :4].T[:, :, None]
    out[11:] = gram[:, 3, 1:4].T[:, :, None]
    np.multiply(4.0, A, out=a)
    a *= Lm
    a += 1.0
    np.sqrt(a, out=a)
    a += 1.0
    a /= 2.0
    a /= Lm
    np.divide(a, A + a, out=tau)
    np.subtract(1.0, tau, out=u)
    np.divide(S, Lm, out=s)
    tt = tau * tau
    gg = u * (u * gyy + 2.0 * tau * gyz) + tt * gzz
    gQg = u * (u * hyy + tau * (hyz + hzy)) + tt * hzz
    Ss = S * s
    curvature = Ss * s * gQg
    # the loop adds tau * 0 to the bound, which changes no comparison
    return np.isfinite(curvature) & (curvature <= Ss * gg)


# where the step matrix's entries set at each step (see the smooth loop) are
# among the products of [1, -s, -a S] with [u, tau, 1]
_STEP_CELLS = np.array([0, 18, 36, 1, 19, 37, 2, 20, 3, 21, 10, 28, 11, 29, 39, 47])
_STEP_SOURCES = np.array([0, 0, 0, 1, 1, 1, 3, 3, 4, 4, 6, 6, 7, 7, 5, 8])


def _lockstep(oracle: ProximalOracle, x0: Vector, L0: float, f_star: Optional[float],
              takers: dict[int, set[int]], children: dict[tuple[int, int], int]
              ) -> dict[int, dict[int, Trace | Exception]]:
    """Run every cycle of a grid's plan tree on a smooth form, one step per tick.

    The tree is ``_grid_snapshots``'s, and so is what this returns. See the
    module docstring. Each cycle is a column of the stacked state, the
    smooth loop's two buffers for every column; columns are kept in the
    first slots, the last one moving into the slot of one that retires.
    A cycle's column is made when its parent takes its length (after the
    tick's retirements), from that trace's final point and estimate, and
    retires at its longest length or at an error. A column whose ladder
    has no pass, or every column of a tick with few, runs the smooth loop's
    scalar trial (``_smooth_trial``).
    """
    form = oracle.quadratic
    Q, h, c = form.Q, form.h, form.c
    # the tick after which each cycle's column is made, its last step, and
    # for every tick the cycles with a taker or a re-anchor at its step
    born, events = {0: 0}, defaultdict(list)
    for (parent, length), child in children.items():  # parents first
        born[child] = born[parent] + length
    last = {start: max(lengths) for start, lengths in takers.items()}
    for start, b in born.items():
        for t in takers[start].union(range(_REANCHOR_STEPS, last[start], _REANCHOR_STEPS)):
            events[b + t].append(start)
    width = live = 0
    ends, births = Counter(born[s] + last[s] for s in born), Counter(born.values())
    for tick in sorted(ends.keys() | births.keys()):
        live += births[tick] - ends[tick]
        width = max(width, live)

    n = x0.shape[0]
    state = np.empty((2, width, 8, n))
    grams = np.empty((width, 4, 5))
    steps = np.tile(_STEP_START, (width, 1, 1))
    cells = (np.arange(0, 64 * width, 64)[:, None] + _STEP_CELLS).ravel()
    K = np.ones((width, 3, 1))  # [1, -s, -a S]
    UT = np.ones((width, 1, 3))  # [u, tau, 1]
    W = np.empty((width, 1, 2))
    ladder = np.empty((14, width, _LADDER.size))
    scalars = np.empty((5, width))  # A, S, L_hat, the largest estimate, backtracks
    A, S, L, top, backs = scalars
    index = np.arange(width)
    slots: list[int] = []  # the start of each column
    values: list[list[float]] = []  # each column's values
    where: dict[int, int] = {}  # the column of each start
    f_initial: dict[int, float] = {}
    kept: dict[int, dict[int, Trace | Exception]] = {}
    cur = 0

    def make(made: list[tuple[int, Vector, float]]) -> None:
        """Make the columns of the cycles that start from these points and estimates.

        Each start's f(x0) is ``_start``'s, with its image Q x0 from
        ``_products``; the estimates are valid by making. A start whose
        products raise keeps what they raise.
        """
        X = np.array([x for _, x, _ in made], dtype=float)
        errors: dict[int, Exception] = {}
        QX = _products(Q, X, np.empty_like(X), errors)
        first, L0s, good = len(slots), [], []
        for k, (start, _, L_hat) in enumerate(made):
            kept[start] = {}
            f = math.nan if k in errors else form.value(X[k], QX[k]) + oracle.psi(X[k])
            if not math.isfinite(f):
                fail(start, errors.get(k, DivergenceError(_NON_FINITE)))
                continue
            where[start] = len(slots)
            slots.append(start)
            values.append([])
            f_initial[start] = f
            L0s.append(L_hat)
            good.append(k)
        if len(good) < len(made):
            X, QX = X[good], QX[good]
        if not L0s:
            return
        new = slice(first, len(slots))
        rows = state[cur, new]
        errors.clear()
        S[new] = _smooth_start(Q, h, X, QX, L0s, rows, errors)
        L[new] = top[new] = L0s
        A[new] = backs[new] = 0.0
        np.matmul(rows[:, :4], rows[:, 2:7].transpose(0, 2, 1), out=grams[new])
        for start, error in [(slots[first + k], error) for k, error in errors.items()]:
            fail(start, error)

    def retire(start: int) -> None:
        k, j = where.pop(start), len(slots) - 1
        if k != j:
            moved = slots[k] = slots[j]
            where[moved] = k
            values[k] = values[j]
            state[cur, k] = state[cur, j]
            grams[k] = grams[j]
            scalars[:, k] = scalars[:, j]
        slots.pop()
        values.pop()

    def fail(start: int, error: Exception) -> None:
        for length in takers[start]:
            kept[start].setdefault(length, error)
        if start in where:
            retire(start)

    def settle(start: int, t: int, made: list) -> None:
        k = where[start]
        f = values[k][-1]
        if t in takers[start]:
            if math.isfinite(f):
                backtracks = int(backs[k])
                trials = t + backtracks
                point, L_hat = state[cur, k, 0].copy(), float(L[k])
                child = children.get((start, t))
                if child is not None:  # every run that takes this length goes on
                    made.append((child, point, L_hat))
                    point = None
                # a column that goes on keeps a copy, taken before a re-anchor
                kept[start][t] = Trace(
                    values=values[k] if t == last[start] else values[k].copy(),
                    cycles=[(t, None)], final_point=point, final_L_hat=L_hat, f_star=f_star,
                    f_initial=f_initial[start], n_value=1 + 2 * trials, n_grad=trials,
                    backtracks=backtracks, max_L_hat=float(top[k]))
            else:
                kept[start][t] = DivergenceError(_NON_FINITE)
        if t == last[start]:
            retire(start)
            return
        if t % _REANCHOR_STEPS == 0:
            rows, scale = state[cur, k], float(S[k])
            try:
                _reanchor(rows, Q, h, scale)
            except Exception as exc:  # from a Q that is no array
                fail(start, exc)
                return
            grams[k] = gram = rows[:4].dot(rows[2:7].T)
            f = values[k][-1] = 0.5 * scale * (float(gram[0, 0]) - float(gram[0, 4])) + c
        if not math.isfinite(f):
            fail(start, DivergenceError(_NON_FINITE))

    x0 = _start(oracle, x0, L0, last[0], f_star)[0]  # raises what a first cycle would
    with np.errstate(all="ignore"):
        make([(0, x0, L0)])
        tick = 0
        while slots:
            tick += 1
            C = len(slots)
            rows, new = state[cur, :C], state[1 - cur, :C]
            Ac, Sc, Lc, topc, backc = scalars[:, :C]
            if C > _SCALAR_TRIALS:
                passed = _ladder(grams[:C], scalars[:2, :C], Lc, ladder[:, :C])
                m = passed.argmax(1)
                level = ladder[:5, index[:C], m]
                ok = passed[index[:C], m]
                alone = [] if ok.all() else np.flatnonzero(~ok).tolist()
            else:
                m, level, alone = np.zeros(C, dtype=np.intp), np.empty((5, C)), range(C)
            failed = {}
            for k in alone:  # no pass in the ladder, or too few columns for one
                start = slots[k]
                try:
                    found = _smooth_trial(grams[k].tolist(), *scalars[:3, k].tolist(),
                                          0.0, tick - born[start])
                except DivergenceError as exc:
                    failed[start] = exc
                else:
                    level[:, k], m[k] = found[:5], found[5]
            u, tau, s, a, L_hat = level
            Ac += a
            backc += m
            np.maximum(topc, L_hat, out=topc, where=m > 0)
            np.maximum(L_hat / 2.0, _L_HAT_MIN, out=Lc)
            # the step's product: Q times the mix of the image rows
            UT[:C, 0, :2] = level[:2].T
            np.divide(UT[:C, :, :2], Sc[:, None, None], out=W[:C])
            mix = np.matmul(W[:C], rows[:, 4:6])
            errors = {}
            _products(Q, mix.reshape(C, n), rows[:, 7], errors)
            for k, exc in errors.items():  # after the trial's own error
                failed.setdefault(slots[k], exc)
            np.negative(s, out=K[:C, 1, 0])
            np.multiply(a, -Sc, out=K[:C, 2, 0])
            steps.reshape(-1)[cells[:16 * C]] = (
                (K[:C] * UT[:C]).reshape(C, 9).take(_STEP_SOURCES, 1).ravel())
            np.matmul(steps[:C], rows, out=new)
            np.matmul(new[:, :4], new[:, 2:7].transpose(0, 2, 1), out=grams[:C])
            f0 = (0.5 * Sc * (grams[:C, 0, 0] - grams[:C, 0, 4]) + c).tolist()
            cur = 1 - cur
            for column, f in zip(values, f0):
                column.append(f)
            due = [start for start in events.pop(tick, ()) if start in where]
            if failed or not math.isfinite(sum(f0)):
                due += [slots[k] for k, f in enumerate(f0) if not math.isfinite(f)]
            made: list = []
            for start in dict.fromkeys(due + list(failed)):
                if start in failed:
                    fail(start, failed[start])
                elif start in where:
                    settle(start, tick - born[start], made)
            if made:
                make(made)
    return kept


def _ufgm_on_form(
    oracle: ProximalOracle,
    x0: Vector,
    Qx0: Vector,
    epsilon: float,
    L_hat: float,
    budget: int,
    stop: Optional[Callable[[Vector, float], bool]],
    trace: Trace,
) -> Generator[tuple[Vector, float], int, None]:
    """The UFGM on a composite quadratic form, carrying g_y and g_z.

    See the module docstring. A trial takes (a, tau) from ``_coupling``,
    forms g and x in preallocated work buffers and runs ``_form_trial`` at
    slack tau * epsilon / 2; it counts one gradient and two smooth values,
    as on the generic path. A non-finite g makes d^T Q d non-finite, or,
    through a clipping prox, f0(y+), so those checks cover the gradient
    too. The fresh products Q d and Q z become g_y and g_z in place. A
    failed trial doubles through ``_double``. Trials and prox calls are
    counted in locals and added to the trace at each pause. A generator
    like ``_ufgm``.
    """
    Q, h, c = oracle.quadratic.Q, oracle.quadratic.h, oracle.quadratic.c
    prox, psi, append = oracle.prox, oracle.psi, trace.values.append
    coupling, trial, double = _coupling, _form_trial, _double
    isfinite, vdot, asarray = math.isfinite, np.vdot, np.asarray
    multiply, subtract = np.multiply, np.subtract
    # v = x0 - sum_i a_i g_i; z is its prox with step A
    y = z = x0
    v = x0.copy()
    g_y = g_z = Qx0 - h
    g, x, w, d, dg, tmp = np.empty((6, x0.shape[0]))
    A = 0.0
    trials = proxes = 0

    t = 0
    while True:
        for t in range(t + 1, budget + 1):
            if A > 0.0:
                z = asarray(prox(v, A), dtype=float)
                proxes += 1
                g_z = Q @ z
                g_z -= h
            subtract(g_z, g_y, dg)
            while True:
                trials += 1
                a, tau = coupling(A, L_hat)
                # g = g_y + tau dg, x = tau z + (1 - tau) y
                multiply(dg, tau, g)
                g += g_y
                multiply(z, tau, x)
                multiply(y, 1.0 - tau, tmp)
                x += tmp
                y_cand, Qd, ok = trial(Q, prox, x, g, L_hat, tau * epsilon / 2.0, w, d)
                if ok:
                    break
                L_hat = double(trace, L_hat, 0, True, t)
            A += a
            y = y_cand
            Qd += g
            g_y = Qd
            multiply(g, a, tmp)
            v -= tmp
            subtract(g_y, h, tmp)
            f0_y = 0.5 * float(vdot(y, tmp)) + c
            _check_finite(isfinite(f0_y))
            L_hat /= 2.0
            if L_hat < _L_HAT_MIN:
                L_hat = _L_HAT_MIN
            f_full = f0_y + psi(y)
            append(f_full)
            if stop is not None and stop(y, f_full):
                break
        trace.n_grad += trials
        trace.n_value += 2 * trials
        trace.n_prox += trials + proxes
        trials = proxes = 0
        budget = yield y, L_hat


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
