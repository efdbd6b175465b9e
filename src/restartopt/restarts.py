"""Restart meta-schemes around the inner first-order methods.

Four schemes: scheduled restarts of the accelerated method, scheduled
restarts of the universal method with decaying target accuracies,
criterion restarts that stop each cycle once a target gap is reached
(needs the optimum), and a logarithmic grid search over schedule
parameters. A monotone function-value restart heuristic is included as
a comparison baseline.

Budget semantics: the budget counts accepted inner iterations across all
cycles; the final cycle of a scheduled run is truncated at the budget so
method comparisons happen at equal N. Grid-search runs instead complete
their final cycle (stopping at the first cycle boundary past N, capped
at 2N), matching how the grid's guarantee is stated. The Lipschitz
estimate is warm-started across cycles: each cycle starts from the last
estimate of the previous one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import optimal_constant_holder, optimal_constant_smooth
from .core import DerivedConditioning, ProximalOracle, Vector
from .solvers import Trace, accelerated, universal_fast_gradient

CONSTANT = "constant"
GEOMETRIC = "geometric"


@dataclass(frozen=True)
class Schedule:
    """Restart schedule t_k = C e^(alpha k), consumed as ceil(t_k)."""

    kind: str
    C: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (CONSTANT, GEOMETRIC):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.C <= 0:
            raise ValueError(f"schedule constant C must be positive, got {self.C}")
        if self.alpha < 0:
            raise ValueError(f"schedule growth alpha must be >= 0, got {self.alpha}")
        if self.kind == CONSTANT and self.alpha != 0.0:
            raise ValueError("constant schedules must have alpha = 0")

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
    C = optimal_constant_smooth(cond, gap0, c)
    kind = CONSTANT if cond.tau == 0.0 else GEOMETRIC
    return Schedule(kind=kind, C=C, alpha=cond.tau)


def optimal_schedule_holder(
    cond: DerivedConditioning, eps0: float, c: float
) -> tuple[Schedule, float]:
    """Optimal accuracy-scheduled restart: C*_{kappa,tau,q} e^(tau k), gamma = q."""
    if eps0 <= 0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    C = optimal_constant_holder(cond, eps0, c)
    kind = CONSTANT if cond.tau == 0.0 else GEOMETRIC
    return Schedule(kind=kind, C=C, alpha=cond.tau), cond.q


def _new_trace(x0: Vector, L0: float, f_star: Optional[float]) -> Trace:
    """Empty scheme trace whose final point and estimate start the first cycle."""
    return Trace(final_point=np.array(x0, dtype=float), final_L_hat=float(L0),
                 f_star=f_star, max_L_hat=float(L0))


def _absorb(parent: Trace, sub: Trace) -> None:
    """Append a cycle's trace to the scheme's, marking the restart before it.

    The cycle's rows are renumbered in place to cumulative counts, and the
    parent takes over the cycle's final point and estimate, from which the
    next cycle is warm-started.
    """
    if parent.f_initial is None:
        parent.f_initial = sub.f_initial
    if parent.entries:
        parent.entries[-1].restart = True
    offset = parent.accepted
    for e in sub.entries:
        e.iteration += offset
    parent.entries.extend(sub.entries)
    parent.n_value += sub.n_value
    parent.n_grad += sub.n_grad
    parent.n_prox += sub.n_prox
    parent.backtracks += sub.backtracks
    parent.max_L_hat = max(parent.max_L_hat, sub.max_L_hat)
    parent.notes.extend(sub.notes)
    parent.final_point = sub.final_point
    parent.final_L_hat = sub.final_L_hat


def restart_scheduled(
    oracle: ProximalOracle,
    x0: Vector,
    schedule: Schedule,
    budget: int,
    L0: float,
    *,
    f_star: Optional[float] = None,
    complete_final_cycle: bool = False,
    hard_cap: Optional[int] = None,
) -> Trace:
    """Scheduled restarts of the accelerated method.

    Runs cycles k = 1, 2, ... of ceil(t_k) accelerated iterations, each
    warm-started from the previous cycle's output point and Lipschitz
    estimate, until the budget of accepted inner iterations is used. By
    default the last cycle is truncated exactly at the budget; with
    ``complete_final_cycle`` the run stops at the first cycle boundary
    past the budget (optionally truncated at ``hard_cap``), the stopping
    rule of the grid search.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    trace = _new_trace(x0, L0, f_star)
    k = 0
    while (used := trace.accepted) < budget:
        k += 1
        t_k = schedule.iterations(k)
        t_eff = t_k
        if not complete_final_cycle:
            t_eff = min(t_k, budget - used)
        elif hard_cap is not None and used + t_k > hard_cap:
            t_eff = hard_cap - used
        if t_eff < t_k:
            trace.notes.append(
                f"cycle {k} truncated from {t_k} to {t_eff} iterations by the budget"
            )
        if t_eff < 1:
            break
        _, sub = accelerated(oracle, trace.final_point, trace.final_L_hat, t_eff,
                             f_star=f_star)
        _absorb(trace, sub)
    return trace


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
    if eps0 <= 0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    trace = _new_trace(x0, L0, f_star)
    eps_k = float(eps0)
    k = 0
    while (used := trace.accepted) < budget:
        k += 1
        eps_k *= math.exp(-gamma)
        t_k = schedule.iterations(k)
        t_eff = min(t_k, budget - used)
        if t_eff < t_k:
            trace.notes.append(
                f"cycle {k} truncated from {t_k} to {t_eff} iterations by the budget"
            )
        _, sub = universal_fast_gradient(
            oracle, trace.final_point, eps_k, trace.final_L_hat, t_eff, f_star=f_star
        )
        _absorb(trace, sub)
    return trace


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
        _, sub = universal_fast_gradient(
            oracle,
            trace.final_point,
            eps_k,
            trace.final_L_hat,
            budget - used,
            stop=lambda _y, fy, tgt=target: fy <= tgt,
            f_star=f_star,
        )
        _absorb(trace, sub)
        if trace.final_f > target:
            trace.notes.append(
                f"budget exhausted before reaching target {eps_k:.3e}; "
                "the supplied optimum may be below the true one"
            )
            break
    if trace.entries and trace.final_gap is not None and trace.final_gap < 0.0:
        trace.notes.append(
            "final value fell below the supplied optimum; the criterion may "
            "have fired spuriously (f_star above the true optimum)"
        )
    return trace


@dataclass
class GridOutcome:
    """All runs of the schedule grid search plus the winning index.

    ``best`` minimizes the final objective value among completed runs,
    ties broken by smaller i then smaller j. Each run's own total
    N' satisfies N <= N' <= 2N.
    """

    runs: dict[tuple[int, int], Trace]
    best: tuple[int, int]
    total_inner_iterations: int
    skipped: list[tuple[int, int]] = field(default_factory=list)

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

    Runs constant schedules t_k = 2^i for i in [1, floor(log2 N)] and
    geometric schedules t_k = 2^i e^(2^-j k) for j in [1, ceil(log2 N)],
    each stopped at the first cycle boundary past N (capped at 2N).
    Schemes whose first cycle alone exceeds 2N are recorded as skipped.
    Runs are mutually independent; the reduction to ``best`` is
    deterministic regardless of execution order.
    """
    if budget < 4:
        raise ValueError(f"grid search needs a budget >= 4, got {budget}")
    i_max = int(math.floor(math.log2(budget)))
    j_max = int(math.ceil(math.log2(budget)))
    runs: dict[tuple[int, int], Trace] = {}
    skipped: list[tuple[int, int]] = []
    for i in range(1, i_max + 1):
        for j in range(0, j_max + 1):
            if j == 0:
                sched = Schedule(kind=CONSTANT, C=float(2**i))
            else:
                sched = Schedule(kind=GEOMETRIC, C=float(2**i), alpha=2.0**-j)
            if sched.iterations(1) > 2 * budget:
                skipped.append((i, j))
                continue
            runs[(i, j)] = restart_scheduled(
                oracle,
                x0,
                sched,
                budget,
                L0,
                f_star=f_star,
                complete_final_cycle=True,
                hard_cap=2 * budget,
            )
    best = min(runs, key=lambda ij: (runs[ij].final_f, ij))
    total = sum(tr.accepted for tr in runs.values())
    return GridOutcome(runs=runs, best=best, total_inner_iterations=total, skipped=skipped)


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
    search candidates.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    trace = _new_trace(x0, L0, f_star)
    x = trace.final_point
    trace.f_initial = oracle.smooth_value(x) + oracle.psi(x)
    trace.n_value += 1
    while (used := trace.accepted) < budget:
        f_prev = trace.final_f
        increased = [False]

        def fired(_y: Vector, fy: float, cell=[f_prev], flag=increased) -> bool:
            if fy > cell[0]:
                flag[0] = True
                return True
            cell[0] = fy
            return False

        _, sub = accelerated(oracle, trace.final_point, trace.final_L_hat, budget - used,
                             f_star=f_star, stop=fired)
        _absorb(trace, sub)
        if not increased[0]:
            break  # ran to the budget without the heuristic firing
    return trace
