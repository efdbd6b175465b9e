"""Restart meta-schemes around the inner first-order methods.

Four schemes: scheduled restarts of the accelerated method, scheduled
restarts of the universal method with decaying target accuracies,
criterion restarts that stop each cycle once a target gap is reached
(needs the optimum), and a logarithmic grid search over schedule
parameters. A monotone function-value restart heuristic is included as
a comparison baseline.

Every cycle of every scheme is one universal-method run (``_run_cycle``);
the accelerated method is the universal one at target accuracy 0. Both
scheduled schemes share one cycle loop (``_scheduled``): scheduled
restarts are accuracy-scheduled restarts with eps0 = 0, whose targets
stay 0.

Budget semantics: the budget counts accepted inner iterations across all
cycles. ``cycle_plan`` plans a scheduled run's cycles until the budget is
used, truncating a cycle where it would pass ``cap`` accepted iterations.
The cap defaults to the budget, so method comparisons happen at equal N;
grid-search runs use cap = 2N, so they complete their final cycle
(stopping at the first cycle boundary past N, or at 2N), matching how the
grid's guarantee is stated. The Lipschitz estimate is warm-started across
cycles: each cycle starts from the last estimate of the previous one.

The grid search runs each distinct cycle of its schemes once. Every run
starts from the same point and estimate, and a cycle's iterates do not
depend on its length, so runs whose plans agree up to a cycle start share
that start, and share the cycle from there up to the shorter length
(``adaptive_grid``). Each run still reports exactly what it reports run
alone.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import optimal_constant_holder, optimal_constant_smooth
from .core import DerivedConditioning, ProximalOracle, Vector, require_finite
from .solvers import Trace, _grid_snapshots, _start, universal_fast_gradient


@dataclass(frozen=True)
class Schedule:
    """Restart schedule t_k = C e^(alpha k), consumed as ceil(t_k).

    alpha = 0 is the constant schedule t_k = C; alpha > 0 is geometric.
    """

    C: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        require_finite(C=self.C, alpha=self.alpha)
        if self.C <= 0:
            raise ValueError(f"schedule constant C must be positive, got {self.C}")
        if self.alpha < 0:
            raise ValueError(f"schedule growth alpha must be >= 0, got {self.alpha}")

    def term(self, k: int) -> float:
        """Real-valued t_k (k is 1-based)."""
        if k < 1:
            raise ValueError(f"cycle index must be >= 1, got {k}")
        return self.C * math.exp(self.alpha * k)

    def iterations(self, k: int) -> int:
        """Integer iteration count ceil(t_k) actually consumed at cycle k."""
        return max(1, math.ceil(self.term(k)))


def optimal_schedule_smooth(
    cond: DerivedConditioning, gap0: float, c: float
) -> Schedule:
    """Optimal restart schedule for smooth problems: C*_{kappa,tau} e^(tau k)."""
    if gap0 <= 0:
        raise ValueError(f"gap0 must be positive, got {gap0}")
    return Schedule(C=optimal_constant_smooth(cond, gap0, c), alpha=cond.tau)


def optimal_schedule_holder(
    cond: DerivedConditioning, eps0: float, c: float
) -> tuple[Schedule, float]:
    """Optimal accuracy-scheduled restart: C*_{kappa,tau,q} e^(tau k), gamma = q."""
    if eps0 <= 0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    return Schedule(C=optimal_constant_holder(cond, eps0, c), alpha=cond.tau), cond.q


def _started_trace(oracle: ProximalOracle, x0: Vector, L0: float, f_star: Optional[float],
                   budget: int) -> Trace:
    """A scheme trace that has recorded f(x0), as a solver's start does.

    Its final point and estimate, x0 and L0, start the first cycle. Raises
    ValueError on a budget below 1 or an invalid L0, and DivergenceError
    if f(x0) is not finite.
    """
    x, trace, _, _ = _start(oracle, x0, L0, budget, f_star)
    trace.final_point, trace.final_L_hat = x, float(L0)
    return trace


def _run_cycle(trace: Trace, oracle: ProximalOracle, epsilon: float, iterations: int,
               stop: Optional[Callable[[Vector, float], bool]] = None,
               shared: Optional[Callable[[], dict]] = None) -> None:
    """Run one cycle of the universal method and append it to the scheme's trace.

    The cycle is warm-started from the trace's final point and estimate,
    and ``Trace.extend`` appends it, so the next cycle starts from its
    final point and estimate. In a grid search ``shared`` returns the
    traces kept at the cycle's start, and the cycle hands out a copy of
    the one at its length (see ``adaptive_grid``).
    """
    _, cycle = universal_fast_gradient(
        oracle, trace.final_point, epsilon, trace.final_L_hat, iterations, stop,
        f_star=trace.f_star, _cycle=shared,
    )
    trace.extend(cycle)


def cycle_plan(schedule: Schedule, budget: int, cap: int, eps0: float = 0.0,
               gamma: float = 0.0) -> list[tuple[float, int, float]]:
    """``(planned, length, target)`` of each cycle k = 1, 2, ... of a scheduled run.

    planned is ceil(t_k) (inf where t_k overflows), length is planned cut where
    the run would pass ``cap`` >= budget, target is eps_k = e^(-gamma) eps_{k-1}.
    A cycle without a stop runs exactly its length, so this is ``Trace.cycles``.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if cap < budget:
        raise ValueError(f"cap must be >= the budget {budget}, got {cap}")
    plan, used, eps_k = [], 0, float(eps0)
    while used < budget:
        eps_k *= math.exp(-gamma)
        try:
            planned = schedule.iterations(len(plan) + 1)
        except OverflowError:  # longer than any budget: the cycle runs what is left
            planned = math.inf
        plan.append((planned, min(planned, cap - used), eps_k))
        used += plan[-1][1]
    return plan


def _scheduled(oracle: ProximalOracle, x0: Vector, plan: list[tuple[float, int, float]],
               limit: str, L0: float, f_star: Optional[float],
               shared: Optional[list[Callable[[], dict]]] = None) -> Trace:
    """Run the cycles of a ``cycle_plan``; a truncated one's note names its ``limit``.

    ``shared``, from the grid search, holds each cycle's ``_run_cycle`` argument.
    """
    # the first cycle starts from the trace's final point and estimate
    trace = Trace(final_point=np.array(x0, dtype=float), final_L_hat=float(L0), f_star=f_star)
    for k, (planned, length, target) in enumerate(plan, start=1):
        if length < planned:
            trace.notes.append(
                f"cycle {k} truncated from {planned} to {length} iterations by {limit}"
            )
        _run_cycle(trace, oracle, target, length, shared=shared[k - 1] if shared else None)
    return trace


def restart_scheduled(
    oracle: ProximalOracle,
    x0: Vector,
    schedule: Schedule,
    budget: int,
    L0: float,
    *,
    f_star: Optional[float] = None,
    cap: Optional[int] = None,
) -> Trace:
    """Scheduled restarts of the accelerated method.

    Runs the cycles of ``cycle_plan(schedule, budget, cap)``, each warm-started
    from the previous cycle's output point and Lipschitz estimate. ``cap``
    defaults to the budget; the grid search passes 2 * budget.
    """
    cap = budget if cap is None else cap
    limit = "the cap" if cap > budget else "the budget"
    return _scheduled(oracle, x0, cycle_plan(schedule, budget, cap), limit, L0, f_star)


def h_restart(
    oracle: ProximalOracle,
    x0: Vector,
    eps0: float,
    gamma: float,
    schedule: Schedule,
    budget: int,
    L0: float,
    *,
    f_star: Optional[float] = None,
) -> Trace:
    """Scheduled restarts of the universal method with decaying accuracies.

    Cycle k shrinks the target accuracy to eps_k = e^(-gamma) eps_{k-1}
    and runs ceil(t_k) universal-method iterations at that target. The
    caller asserts eps0 >= f(x0) - f*; the final cycle is truncated at
    the budget.
    """
    require_finite(eps0=eps0, gamma=gamma)
    if eps0 <= 0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    plan = cycle_plan(schedule, budget, budget, eps0, gamma)
    return _scheduled(oracle, x0, plan, "the budget", L0, f_star)


def criterion_restart(
    oracle: ProximalOracle,
    x0: Vector,
    f_star: float,
    gamma: float,
    budget: int,
    L0: float,
) -> Trace:
    """Restart on criterion: stop each cycle once its target gap is reached.

    Requires the optimum (or an exact termination criterion value).
    eps_0 = f(x0) - f_star; cycle k runs the universal method at target
    eps_k = e^(-gamma) eps_{k-1} until f(y) - f_star <= eps_k, then
    restarts from there. Contrary to the scheduled variants this needs
    no sharpness constants. A supplied f_star above the true optimum can
    fire the criterion spuriously; one below it makes cycles exhaust the
    budget — both situations are surfaced in the trace notes.
    """
    require_finite(f_star=f_star, gamma=gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    trace = _started_trace(oracle, x0, L0, f_star, budget)
    eps_k = trace.f_initial - f_star
    require_finite(starting_gap=eps_k)  # an infinite target would never shrink
    if eps_k <= 0.0:
        trace.notes.append("starting gap is nonpositive; no cycles run")
        return trace
    while (used := trace.accepted) < budget:
        eps_k *= math.exp(-gamma)
        target = f_star + eps_k
        current = trace.final_f
        if current <= target:
            if current - f_star <= 0.0 or gamma == 0.0:
                break  # already at the optimum, or the target cannot shrink
            continue  # previous cycle overshot this target; tighten again
        _run_cycle(trace, oracle, eps_k, budget - used, stop=lambda _y, fy: fy <= target)
        if trace.final_f > target:
            trace.notes.append(
                f"budget exhausted before reaching target {eps_k:.3e}; "
                "the supplied optimum may be below the true one"
            )
            break
    if trace.values and trace.final_gap is not None and trace.final_gap < 0.0:
        trace.notes.append(
            "final value fell below the supplied optimum; the criterion may "
            "have fired spuriously (f_star above the true optimum)"
        )
    return trace


def grid_schedule(i: int, j: int) -> Schedule:
    """Scheme (i, j) of the grid search: t_k = 2^i, times e^(2^-j k) if j >= 1."""
    return Schedule(C=float(2**i), alpha=0.0 if j == 0 else 2.0**-j)


@dataclass
class GridOutcome:
    """All runs of the schedule grid search plus the winning index.

    Every scheme of the grid has its run, bitwise the trace
    ``restart_scheduled(..., cap=2N)`` gives it, though steps that runs
    share are computed once (see ``adaptive_grid``).
    ``total_inner_iterations`` is the paper's count, the sum of the runs'
    accepted iterations, shared steps counted once per run. ``best``
    minimizes the final objective value, ties broken by smaller i then
    smaller j.
    """

    runs: dict[tuple[int, int], Trace]
    best: tuple[int, int]
    total_inner_iterations: int

    @property
    def best_trace(self) -> Trace:
        return self.runs[self.best]


def _plan_tree(plans: list[list[tuple[float, int, float]]]
               ) -> tuple[list[list[int]], dict[int, set[int]], dict[tuple[int, int], int]]:
    """Number the cycle starts of the grid's plans and the lengths each is taken to.

    A start is numbered by the start before it and the length of the cycle
    in between (every grid target is 0), so runs whose plans agree up to a
    start share its number, and a start is numbered after the one before
    it. Returns each plan's starts, one per cycle, for each start the
    lengths runs take its cycle to, and the start that follows each
    ``(start, length)`` some run goes on from.
    """
    starts: dict[Optional[tuple[int, int]], int] = {}
    takers: defaultdict[int, set[int]] = defaultdict(set)
    paths = []
    for plan in plans:
        path, key = [], None
        for _, length, _ in plan:
            start = starts.setdefault(key, len(starts))
            takers[start].add(length)
            path.append(start)
            key = (start, length)
        paths.append(path)
    del starts[None]
    return paths, takers, starts


def adaptive_grid(
    oracle: ProximalOracle,
    x0: Vector,
    budget: int,
    L0: float,
    *,
    f_star: Optional[float] = None,
) -> GridOutcome:
    """Logarithmic grid search over restart schedules.

    Runs the schemes ``grid_schedule(i, j)``: constant schedules t_k = 2^i
    for i in [1, floor(log2 N)] (j = 0) and geometric schedules
    t_k = 2^i e^(2^-j k) for j in [1, ceil(log2 N)], each stopped at the
    first cycle boundary past N and capped at 2N. Each run's ``cycle_plan``
    gives its N <= N' <= 2N without running it, and its first cycle fits in
    the cap.

    Before any step runs, the plans give the tree of shared plan prefixes:
    a cycle start is the start before it and the length of the cycle in
    between, and runs whose plans agree up to a start share it. The first
    cycle of the first run runs the whole tree once (``_grid_snapshots``),
    inside its ``universal_fast_gradient`` call: each start's cycle runs to
    the longest length a run takes it to, and its trace is kept at every
    such length, as a ``Trace`` of one cycle. This is exact because every
    run starts from x0 and L0, every target is 0, and nothing a step
    computes depends on the cycle's length but the smooth loop's last-step
    re-anchor; a trace kept where the cycle goes on is copied before that
    re-anchor, so it holds the value the runs that end there report. So
    each run's values, cycles, notes, oracle counters, backtracks,
    estimates and final point are bitwise those of its own
    ``restart_scheduled(..., cap=2N)``. Every cycle of every run is still
    one ``universal_fast_gradient`` call, which hands out a copy of the
    kept trace at its length, and runs are taken in (i, j) order:
    an exception a cycle raises is kept for every length it had not
    reached, so the grid raises what the first failing run raises alone.
    The kept traces live until this call returns.
    """
    if budget < 4:
        raise ValueError(f"grid search needs a budget >= 4, got {budget}")
    i_max = int(math.floor(math.log2(budget)))
    j_max = int(math.ceil(math.log2(budget)))
    schemes = [(i, j) for i in range(1, i_max + 1) for j in range(0, j_max + 1)]
    plans = [cycle_plan(grid_schedule(i, j), budget, 2 * budget) for i, j in schemes]
    paths, takers, children = _plan_tree(plans)
    # runs once, inside the first universal_fast_gradient call that asks, so
    # the tree's solver time is spent within a solver call
    tree = functools.cache(lambda: _grid_snapshots(oracle, x0, L0, f_star, takers, children))
    runs = {}
    for ij, plan, path in zip(schemes, plans, paths):
        shared = [lambda start=start: tree()[start] for start in path]
        runs[ij] = _scheduled(oracle, x0, plan, "the cap", L0, f_star, shared)
    best = min(runs, key=lambda ij: (runs[ij].final_f, ij))
    total = sum(tr.accepted for tr in runs.values())
    return GridOutcome(runs=runs, best=best, total_inner_iterations=total)


def monotone_restart(
    oracle: ProximalOracle,
    x0: Vector,
    budget: int,
    L0: float,
    *,
    f_star: Optional[float] = None,
) -> Trace:
    """Function-value restart heuristic enforcing monotonicity.

    Runs the accelerated method and restarts from the current iterate
    whenever the objective of an accepted iterate exceeds the previous
    accepted one. Only accepted-iterate values feed the test, never line
    search candidates. A cycle in which no value increases runs out the
    budget, which ends the run.

    The comparison is exact. Once a run has converged, consecutive values
    tie to rounding level, so its restart decisions follow the last bits
    of the arithmetic: two evaluation paths for the same problem (an
    oracle with a declared quadratic form and the same oracle with
    ``quadratic=None``) can restart at different iterates and a different
    number of times, though their final values agree.
    """
    trace = _started_trace(oracle, x0, L0, f_star, budget)
    while (used := trace.accepted) < budget:
        f_prev = trace.final_f

        def increased(_y: Vector, fy: float) -> bool:
            nonlocal f_prev
            if fy > f_prev:
                return True
            f_prev = fy
            return False

        _run_cycle(trace, oracle, 0.0, budget - used, stop=increased)
    return trace
