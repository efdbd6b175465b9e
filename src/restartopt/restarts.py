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
cycles. A scheduled run stops once the budget is used, and truncates a
cycle where it would pass ``cap`` accepted iterations. The cap defaults
to the budget, so method comparisons happen at equal N; grid-search runs
use cap = 2N, so they complete their final cycle (stopping at the first
cycle boundary past N, or at 2N), matching how the grid's guarantee is
stated. The Lipschitz estimate is warm-started across cycles: each cycle
starts from the last estimate of the previous one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import optimal_constant_holder, optimal_constant_smooth
from .core import DerivedConditioning, ProximalOracle, Vector, require_finite
from .solvers import Trace, universal_fast_gradient


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


def _new_trace(x0: Vector, L0: float, f_star: Optional[float]) -> Trace:
    """Empty scheme trace whose final point and estimate start the first cycle."""
    return Trace(final_point=np.array(x0, dtype=float), final_L_hat=float(L0),
                 f_star=f_star, max_L_hat=float(L0))


def _run_cycle(trace: Trace, oracle: ProximalOracle, epsilon: float, iterations: int,
               stop: Optional[Callable[[Vector, float], bool]] = None) -> None:
    """Run one cycle of the universal method and append it to the scheme's trace.

    The cycle is warm-started from the trace's final point and estimate.
    Its values and its one ``(length, target)`` record are appended, and
    the trace takes over its final point and estimate, from which the
    next cycle starts.
    """
    _, sub = universal_fast_gradient(
        oracle, trace.final_point, epsilon, trace.final_L_hat, iterations, stop,
        f_star=trace.f_star,
    )
    if trace.f_initial is None:
        trace.f_initial = sub.f_initial
    trace.values.extend(sub.values)
    trace.cycles.extend(sub.cycles)
    trace.n_value += sub.n_value
    trace.n_grad += sub.n_grad
    trace.n_prox += sub.n_prox
    trace.backtracks += sub.backtracks
    trace.max_L_hat = max(trace.max_L_hat, sub.max_L_hat)
    trace.notes.extend(sub.notes)
    trace.final_point = sub.final_point
    trace.final_L_hat = sub.final_L_hat


def _scheduled(oracle: ProximalOracle, x0: Vector, eps0: float, gamma: float,
               schedule: Schedule, budget: int, cap: int, L0: float,
               f_star: Optional[float]) -> Trace:
    """Cycles of ceil(t_k) iterations at target e^(-gamma k) eps0 until the budget.

    A cycle is truncated where it would pass ``cap`` (>= budget) iterations;
    its note names the cap when the cap exceeds the budget.
    """
    trace = _new_trace(x0, L0, f_star)
    limit = "the cap" if cap > budget else "the budget"
    eps_k = float(eps0)
    k = 0
    while (used := trace.accepted) < budget:
        k += 1
        eps_k *= math.exp(-gamma)
        t_k = schedule.iterations(k)
        t_eff = min(t_k, cap - used)
        if t_eff < t_k:
            trace.notes.append(
                f"cycle {k} truncated from {t_k} to {t_eff} iterations by {limit}"
            )
        _run_cycle(trace, oracle, eps_k, t_eff)
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

    Runs cycles k = 1, 2, ... of ceil(t_k) accelerated iterations, each
    warm-started from the previous cycle's output point and Lipschitz
    estimate, until the budget of accepted inner iterations is used. A
    cycle is truncated where it would pass ``cap`` (default: the budget)
    accepted iterations; the grid search passes 2 * budget.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    cap = budget if cap is None else cap
    if cap < budget:
        raise ValueError(f"cap must be >= the budget {budget}, got {cap}")
    return _scheduled(oracle, x0, 0.0, 0.0, schedule, budget, cap, L0, f_star)


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
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    require_finite(eps0=eps0, gamma=gamma)
    if eps0 <= 0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return _scheduled(oracle, x0, eps0, gamma, schedule, budget, budget, L0, f_star)


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
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    require_finite(f_star=f_star, gamma=gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    trace = _new_trace(x0, L0, f_star)
    x = trace.final_point
    f0 = oracle.smooth_value(x) + oracle.psi(x)
    trace.n_value += 1
    trace.f_initial = f0
    eps_k = f0 - f_star
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

    Every scheme of the grid runs; none can be skipped (see
    ``adaptive_grid``). ``best`` minimizes the final objective value,
    ties broken by smaller i then smaller j. Each run's own total N'
    satisfies N <= N' <= 2N.
    """

    runs: dict[tuple[int, int], Trace]
    best: tuple[int, int]
    total_inner_iterations: int

    @property
    def best_trace(self) -> Trace:
        return self.runs[self.best]


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
    first cycle boundary past N and capped at 2N. Every first cycle fits
    in the cap: 2^i <= N and alpha <= 1/2 give ceil(t_1) <= ceil(e^(1/2) N)
    <= 2N. Runs are mutually independent; the reduction to ``best`` is
    deterministic regardless of execution order.
    """
    if budget < 4:
        raise ValueError(f"grid search needs a budget >= 4, got {budget}")
    i_max = int(math.floor(math.log2(budget)))
    j_max = int(math.ceil(math.log2(budget)))
    runs = {
        (i, j): restart_scheduled(
            oracle, x0, grid_schedule(i, j), budget, L0, f_star=f_star, cap=2 * budget
        )
        for i in range(1, i_max + 1)
        for j in range(0, j_max + 1)
    }
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
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    trace = _new_trace(x0, L0, f_star)
    x = trace.final_point
    trace.f_initial = oracle.smooth_value(x) + oracle.psi(x)
    trace.n_value += 1
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
