"""Restart meta-schemes: schedules, bound tracking, grid search, baselines."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartopt import (
    DivergenceError,
    ProximalOracle,
    QuadraticForm,
    Schedule,
    accelerated,
    adaptive_grid,
    bound_adaptive,
    bound_holder,
    bound_smooth,
    criterion_restart,
    cycle_plan,
    derive_conditioning,
    gradient_descent,
    grid_schedule,
    h_restart,
    make_dual_svm,
    make_lasso,
    make_least_squares,
    make_logistic,
    make_norm_power,
    make_quadratic,
    make_sharp_norm,
    monotone_restart,
    optimal_schedule_holder,
    optimal_schedule_smooth,
    restart_scheduled,
    schedule_threshold,
    synthetic_classification,
    synthetic_regression,
    ufgm_constant,
    universal_fast_gradient,
)
from restartopt import solvers
from restartopt.solvers import Trace
from test_solvers import CountingMatrix

E = math.e
_REANCHOR = solvers._REANCHOR_STEPS


SMALL_QUADRATIC = make_quadratic(5, 20.0, seed=3)


def grid_indices(N):
    """The (i, j) of every scheme of the grid search at budget N."""
    i_max = int(math.floor(math.log2(N)))
    j_max = int(math.ceil(math.log2(N)))
    return [(i, j) for i in range(1, i_max + 1) for j in range(0, j_max + 1)]


class TestSchedules:
    def test_optimal_smooth_constants(self):
        cond = derive_conditioning_from(kappa=1.0, tau=0.0)
        sched = optimal_schedule_smooth(cond, 3.7, 4.0)
        assert sched.C == pytest.approx(2 * E, rel=1e-12)  # ~5.43656
        assert sched.alpha == 0.0

        cond = derive_conditioning_from(kappa=1.0, tau=0.5)
        sched = optimal_schedule_smooth(cond, 1.0, 4.0)
        assert sched.C == pytest.approx(math.sqrt(E) * 2, rel=1e-12)  # ~3.29744
        assert sched.alpha == 0.5

        cond = derive_conditioning_from(kappa=100.0, tau=0.0)
        sched = optimal_schedule_smooth(cond, 1.0, 4.0)
        assert sched.C == pytest.approx(20 * E, rel=1e-12)  # ~54.3656

    def test_optimal_holder_reduces_to_smooth_at_s2(self):
        cond = derive_conditioning_from(kappa=7.0, tau=0.25)
        smooth = optimal_schedule_smooth(cond, 2.0, 4.0)
        holder, gamma = optimal_schedule_holder(cond, 2.0, 4.0)
        assert holder.C == pytest.approx(smooth.C, rel=1e-12)
        assert holder.alpha == smooth.alpha
        assert gamma == 2.0

    def test_optimal_holder_nonsmooth_constants(self):
        # s=1: q=1/2 so (c kappa)^(s/2q) = c kappa
        cond = derive_conditioning_from(kappa=1.0, tau=0.0, q=0.5)
        sched, gamma = optimal_schedule_holder(cond, 1.0, 4.0)
        assert sched.C == pytest.approx(4 * E, rel=1e-12)
        assert gamma == 0.5

        cond = derive_conditioning_from(kappa=1.0, tau=0.5, q=0.5)
        sched, _ = optimal_schedule_holder(cond, 1.0, 4.0)
        assert sched.C == pytest.approx(math.sqrt(E) * 4, rel=1e-12)
        assert sched.alpha == 0.5

    def test_terms_and_rounding(self):
        sched = Schedule(C=2.5, alpha=0.5)
        assert sched.term(1) == pytest.approx(2.5 * math.exp(0.5))
        assert sched.iterations(1) == math.ceil(2.5 * math.exp(0.5))

    def test_minimum_one_iteration(self):
        sched = Schedule(C=0.01)
        assert sched.iterations(1) == 1

    def test_geometric_with_zero_alpha_equals_constant(self):
        geo = Schedule(C=3.0, alpha=0.0)
        const = Schedule(C=3.0)
        for k in range(1, 20):
            assert geo.term(k) == const.term(k) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(C=-1.0)
        with pytest.raises(ValueError):
            Schedule(C=1.0, alpha=-0.2)
        with pytest.raises(ValueError):
            Schedule(C=1.0).term(0)


def derive_conditioning_from(kappa, tau, q=2.0):
    from restartopt import DerivedConditioning

    return DerivedConditioning(kappa=kappa, tau=tau, q=q)


class TestRestartScheduled:
    def test_geometric_decrease_at_restart_points(self):
        inst = make_quadratic(20, 50.0, seed=21)
        cond = derive_conditioning(inst.regularity)
        gap0 = inst.gap0()
        sched = optimal_schedule_smooth(cond, gap0, 4.0)
        budget = 8 * sched.iterations(1)
        trace = restart_scheduled(inst.oracle, inst.x0, sched, budget, 1.0, f_star=0.0)
        checkpoints = trace.restart_entries() + [trace.entries[-1]]
        assert len(checkpoints) == 8
        for k, entry in enumerate(checkpoints, start=1):
            assert entry.gap <= math.exp(-2 * k) * gap0 * (1 + 1e-9)

    def test_any_certified_constant_schedule_contracts(self):
        # a schedule sitting above the per-cycle threshold for gamma = 2
        # still yields the e^-2k decrease, optimal constant or not
        inst = make_quadratic(15, 25.0, seed=50)
        cond = derive_conditioning(inst.regularity)
        gap0 = inst.gap0()
        base = schedule_threshold(cond, gap0, 4.0, 2.0, 1)
        sched = Schedule(C=1.7 * base)
        budget = 6 * sched.iterations(1)
        trace = restart_scheduled(inst.oracle, inst.x0, sched, budget, 1.0, f_star=0.0)
        checkpoints = trace.restart_entries() + [trace.entries[-1]]
        for k, entry in enumerate(checkpoints, start=1):
            assert entry.gap <= math.exp(-2 * k) * gap0 * (1 + 1e-9)

    def test_sharp_quartic_meets_envelope(self):
        inst = make_norm_power(10, 4.0, 1.0, seed=22)
        cond = derive_conditioning(inst.regularity)
        gap0 = inst.gap0()
        sched = optimal_schedule_smooth(cond, gap0, 4.0)
        trace = restart_scheduled(inst.oracle, inst.x0, sched, 600, 1.0, f_star=0.0)
        envelope = bound_smooth(cond, gap0, 4.0, trace.accepted)
        assert trace.final_gap <= envelope * (1 + 1e-9)

    def test_single_cycle_is_plain_accelerated(self):
        inst = make_quadratic(12, 9.0, seed=23)
        sched = Schedule(C=40.0)
        restarted = restart_scheduled(inst.oracle, inst.x0, sched, 40, 1.0, f_star=0.0)
        _, plain = accelerated(inst.oracle, inst.x0, 1.0, 40, f_star=0.0)
        assert restarted.restart_count == 0
        assert [e.f_value for e in restarted.entries] == [e.f_value for e in plain.entries]
        assert np.array_equal(restarted.final_point, plain.final_point)
        assert restarted.final_L_hat == plain.final_L_hat

    def test_truncation_recorded(self):
        inst = make_quadratic(5, 4.0, seed=24)
        sched = Schedule(C=30.0)
        trace = restart_scheduled(inst.oracle, inst.x0, sched, 45, 1.0, f_star=0.0)
        assert trace.accepted == 45
        assert any("truncated" in note for note in trace.notes)

    def test_restart_markers_at_cycle_boundaries(self):
        inst = make_quadratic(6, 16.0, seed=25)
        sched = Schedule(C=10.0)
        trace = restart_scheduled(inst.oracle, inst.x0, sched, 30, 1.0, f_star=0.0)
        marked = [e.iteration for e in trace.restart_entries()]
        assert marked == [10, 20]

    def test_cap_bounds_the_final_cycle(self):
        inst = make_quadratic(6, 16.0, seed=25)
        sched = Schedule(C=10.0)

        def run(budget, **kw):
            return restart_scheduled(inst.oracle, inst.x0, sched, budget, 1.0, f_star=0.0, **kw)

        # a budget of 25 ends inside cycle 3: a cap of 50 lets that cycle
        # complete, a cap of 27 truncates it
        completed = run(25, cap=50)
        assert [e.f_value for e in completed.entries] == [e.f_value for e in run(30).entries]
        assert not completed.notes
        truncated = run(25, cap=27)
        assert truncated.accepted == 27
        assert truncated.notes == ["cycle 3 truncated from 10 to 7 iterations by the cap"]
        with pytest.raises(ValueError, match="cap"):
            run(25, cap=24)


class TestHRestart:
    def test_targets_met_on_smooth_problem(self):
        inst = make_quadratic(15, 30.0, seed=26)
        cond = derive_conditioning(inst.regularity)
        gap0 = inst.gap0()
        c = ufgm_constant(2.0)
        sched, gamma = optimal_schedule_holder(cond, gap0, c)
        assert gamma == 2.0
        budget = 6 * sched.iterations(1)
        trace = h_restart(inst.oracle, inst.x0, gap0, gamma, sched, budget, 1.0, f_star=0.0)
        checkpoints = trace.restart_entries() + [trace.entries[-1]]
        for k, entry in enumerate(checkpoints, start=1):
            assert entry.gap <= math.exp(-gamma * k) * gap0 * (1 + 1e-9)
        envelope = bound_holder(cond, gap0, c, trace.accepted)
        assert trace.final_gap <= envelope * (1 + 1e-9)

    def test_side_by_side_with_scheduled_restart(self):
        # with gamma = q on a smooth problem, both schemes certify the same
        # per-cycle targets; the accuracy slack admits lazier steps, so raw
        # traces differ, but every shared target is met by both
        inst = make_quadratic(15, 30.0, seed=26)
        cond = derive_conditioning(inst.regularity)
        gap0 = inst.gap0()
        sched, gamma = optimal_schedule_holder(cond, gap0, ufgm_constant(2.0))
        budget = 6 * sched.iterations(1)
        hr = h_restart(inst.oracle, inst.x0, gap0, gamma, sched, budget, 1.0, f_star=0.0)
        rs = restart_scheduled(inst.oracle, inst.x0, sched, budget, 1.0, f_star=0.0)
        hr_points = hr.restart_entries() + [hr.entries[-1]]
        rs_points = rs.restart_entries() + [rs.entries[-1]]
        assert len(hr_points) == len(rs_points) == 6
        for k, (a, b) in enumerate(zip(hr_points, rs_points), start=1):
            target = math.exp(-gamma * k) * gap0 * (1 + 1e-9)
            assert a.gap <= target
            assert b.gap <= target

    def test_sharp_nonsmooth_meets_envelope(self):
        inst = make_sharp_norm(8, seed=27)
        cond = derive_conditioning(inst.regularity)
        eps0 = inst.gap0()
        c = ufgm_constant(1.0)
        sched, gamma = optimal_schedule_holder(cond, eps0, c)
        assert gamma == 0.5
        trace = h_restart(inst.oracle, inst.x0, eps0, gamma, sched, 220, 1.0, f_star=0.0)
        envelope = bound_holder(cond, eps0, c, trace.accepted)
        assert trace.final_gap <= envelope * (1 + 1e-9)

    def test_zero_gamma_disables_progress_guarantee(self):
        inst = make_sharp_norm(3, seed=28)
        eps0 = inst.gap0()
        sched = Schedule(C=10.0)
        trace = h_restart(inst.oracle, inst.x0, eps0, 0.0, sched, 200, 1.3, f_star=0.0)
        # accuracy targets stay at eps0: the run hovers instead of converging
        assert trace.final_gap <= eps0
        assert trace.final_gap >= eps0 * 1e-4

    def test_validation(self):
        inst = make_sharp_norm(3, seed=28)
        sched = Schedule(C=5.0)
        with pytest.raises(ValueError):
            h_restart(inst.oracle, inst.x0, -1.0, 1.0, sched, 10, 1.0)
        with pytest.raises(ValueError):
            h_restart(inst.oracle, inst.x0, 1.0, -1.0, sched, 10, 1.0)


class TestCriterionRestart:
    def test_targets_by_construction(self):
        inst = make_quadratic(10, 20.0, seed=29)
        gap0 = inst.gap0()
        trace = criterion_restart(inst.oracle, inst.x0, 0.0, 1.0, 400, 1.0)
        # every target eps_k = e^-k gap0 reached within the recorded run
        k = 1
        while math.exp(-k) * gap0 >= trace.final_gap and k <= 40:
            target = math.exp(-k) * gap0
            assert any(e.gap <= target for e in trace.entries), k
            k += 1

    def test_uses_no_more_than_scheduled_iterations(self):
        inst = make_quadratic(25, 60.0, seed=30)
        cond = derive_conditioning(inst.regularity)
        gap0 = inst.gap0()
        c = ufgm_constant(2.0)
        gamma = cond.q
        trace = criterion_restart(inst.oracle, inst.x0, 0.0, gamma, 600, 1.0)
        for k in range(1, 30):
            target = math.exp(-gamma * k) * gap0
            if target < trace.final_gap:
                break
            used = min(e.iteration for e in trace.entries if e.gap <= target)
            allowed = sum(
                math.ceil(schedule_threshold(cond, gap0, c, gamma, i))
                for i in range(1, k + 1)
            )
            assert used <= allowed, (k, used, allowed)

    def test_zero_gap_returns_immediately(self):
        inst = make_quadratic(5, 3.0, seed=31)
        trace = criterion_restart(inst.oracle, np.zeros(5), 0.0, 1.0, 100, 1.0)
        assert trace.accepted == 0
        assert trace.final_f == 0.0
        assert any("no cycles" in note for note in trace.notes)

    def test_invalid_L0_is_rejected_without_a_cycle(self):
        # a zero starting gap runs no cycle, so no cycle's start checks L0
        inst = make_quadratic(5, 3.0, seed=31)
        with pytest.raises(ValueError, match="^L0 must be positive, got -1.0$"):
            criterion_restart(inst.oracle, np.zeros(5), 0.0, 1.0, 100, -1.0)

    def test_overshot_targets_are_tightened_without_a_cycle(self):
        # at gamma = 0.2 a cycle often ends below several later targets; the
        # next cycle then aims at the first one below its starting gap
        inst = make_quadratic(10, 20.0, seed=29)
        gamma = 0.2
        trace = criterion_restart(inst.oracle, inst.x0, 0.0, gamma, 300, 1.0)
        cycles = [[]]
        for e in trace.entries:
            cycles[-1].append(e)
            if e.restart:
                cycles.append([])
        decay = math.exp(-gamma)
        eps = start_gap = trace.f_initial  # gap0, as f_star = 0
        targets = 0
        for cycle in cycles:
            while eps >= start_gap:
                eps *= decay
                targets += 1
            assert all(e.eps_target == eps for e in cycle)
            if cycle[-1].restart:
                assert cycle[-1].gap <= eps
            start_gap = cycle[-1].gap
        assert len(cycles) > 2
        assert targets > len(cycles)  # some targets got no cycle of their own

    def test_f_star_below_true_optimum_surfaces_diagnostic(self):
        inst = make_quadratic(8, 10.0, seed=32)
        trace = criterion_restart(inst.oracle, inst.x0, -1.0, 2.0, 50, 1.0)
        assert any("budget exhausted" in note for note in trace.notes)

    def test_overflowing_starting_gap_is_rejected(self):
        # f(x0) is about 1e308, so f(x0) - f_star overflows; an infinite
        # target would never shrink below the start value
        inst = make_norm_power(3, 4.0, 1e77, seed=0)
        assert math.isfinite(inst.oracle.value(inst.x0))
        with pytest.raises(ValueError, match="^starting_gap must be finite"):
            criterion_restart(inst.oracle, inst.x0, -1.7e308, 1.0, 10, 1.0)

    def test_f_star_above_true_optimum_surfaces_diagnostic(self):
        inst = make_quadratic(8, 10.0, seed=33)
        f_true = 0.0
        wrong = f_true + 0.9 * inst.gap0()
        trace = criterion_restart(inst.oracle, inst.x0, wrong, 2.0, 400, 1.0)
        assert any("spurious" in note for note in trace.notes)


class TestAdaptiveGrid:
    def test_grid_size_at_64(self):
        inst = make_quadratic(5, 10.0, seed=34)
        out = adaptive_grid(inst.oracle, inst.x0, 64, 1.0, f_star=0.0)
        assert len(out.runs) == 42  # 6 constants x 7 growth columns

    def test_every_scheme_fits_its_first_cycle_in_twice_the_budget(self):
        # 2^i <= N and alpha <= 1/2 give ceil(t_1) <= ceil(e^(1/2) N) <= 2N,
        # so the 2N cap never leaves a scheme of the grid without a cycle
        for N in range(4, 4097):
            for i, j in grid_indices(N):
                assert grid_schedule(i, j).iterations(1) <= 2 * N, (N, i, j)
        # the plans alone, with no solver run, give each run N <= N' <= 2N
        for N in (4, 5, 77, 500, 3000):
            for i, j in grid_indices(N):
                plan = cycle_plan(grid_schedule(i, j), N, 2 * N)
                planned, length, _ = plan[0]
                assert length == planned <= 2 * N, (N, i, j)
                assert N <= sum(length for _, length, _ in plan) <= 2 * N, (N, i, j)

    def test_cap_truncation_is_named(self):
        # at N = 77 scheme (6, 3) runs cycles of ceil(64 e^(k/8)) = 73 and 83
        # iterations; the 2N = 154 cap, not the budget, truncates the second
        inst = make_quadratic(6, 50.0, seed=0)
        out = adaptive_grid(inst.oracle, inst.x0, 77, 1.0)
        trace = out.runs[(6, 3)]
        assert trace.notes == ["cycle 2 truncated from 83 to 81 iterations by the cap"]
        assert trace.cycles == [(73, None), (81, None)]
        assert trace.accepted == 2 * 77

    def test_per_run_budget_window(self):
        inst = make_norm_power(6, 4.0, 1.0, seed=35)
        N = 300
        out = adaptive_grid(inst.oracle, inst.x0, N, 1.0, f_star=0.0)
        for (i, j), trace in out.runs.items():
            assert N <= trace.accepted <= 2 * N, (i, j, trace.accepted)

    def test_quadratic_meets_adaptive_bound(self):
        inst = make_quadratic(8, 4.0, seed=36)
        cond = derive_conditioning(inst.regularity)
        gap0 = inst.gap0()
        N = 256
        assert N >= 2 * optimal_schedule_smooth(cond, gap0, 4.0).C
        out = adaptive_grid(inst.oracle, inst.x0, N, 1.0, f_star=0.0)
        bound = bound_adaptive(cond, gap0, 4.0, N)
        assert out.best_trace.final_gap <= bound * (1 + 1e-9)

    def test_quartic_meets_adaptive_bound(self):
        inst = make_norm_power(10, 4.0, 1.0, seed=37)
        cond = derive_conditioning(inst.regularity)
        gap0 = inst.gap0()
        N = 500
        out = adaptive_grid(inst.oracle, inst.x0, N, 1.0, f_star=0.0)
        bound = bound_adaptive(cond, gap0, 4.0, N)
        assert out.best_trace.final_gap <= bound * (1 + 1e-9)

    def test_deterministic_outcome(self):
        inst = make_quadratic(6, 12.0, seed=38)
        first = adaptive_grid(inst.oracle, inst.x0, 100, 1.0, f_star=0.0)
        second = adaptive_grid(inst.oracle, inst.x0, 100, 1.0, f_star=0.0)
        assert first.best == second.best
        assert first.total_inner_iterations == second.total_inner_iterations
        for key in first.runs:
            a, b = first.runs[key], second.runs[key]
            assert [e.f_value for e in a.entries] == [e.f_value for e in b.entries]

    def test_tie_break_prefers_smaller_indices(self):
        # drive several schemes to exact zero so final values tie
        inst = make_quadratic(2, 1.0, seed=39)
        out = adaptive_grid(inst.oracle, inst.x0, 16, 1.0, f_star=0.0)
        zero_runs = sorted(ij for ij, t in out.runs.items() if t.final_f == out.best_trace.final_f)
        assert out.best == zero_runs[0]

    def test_budget_validation(self):
        inst = make_quadratic(2, 1.0, seed=39)
        with pytest.raises(ValueError):
            adaptive_grid(inst.oracle, inst.x0, 3, 1.0)

    def test_works_without_known_optimum(self):
        from restartopt import make_lasso

        rng = np.random.default_rng(43)
        inst = make_lasso(rng.standard_normal((12, 5)), rng.standard_normal(12))
        out = adaptive_grid(inst.oracle, inst.x0, 24, 1.0)
        assert out.best in out.runs
        assert all(e.gap is None for e in out.best_trace.entries)

    def test_concurrent_runs_on_shared_oracle_match_sequential(self):
        # scheme runs are independent and the oracle is immutable, so
        # driving them from worker threads reproduces the sequential grid
        from concurrent.futures import ThreadPoolExecutor

        inst = make_quadratic(8, 20.0, seed=44)
        N = 100
        sequential = adaptive_grid(inst.oracle, inst.x0, N, 1.0, f_star=0.0)

        def run_one(ij):
            i, j = ij
            if j == 0:
                sched = Schedule(C=float(2**i))
            else:
                sched = Schedule(C=float(2**i), alpha=2.0**-j)
            return ij, restart_scheduled(
                inst.oracle, inst.x0, sched, N, 1.0, f_star=0.0,
                cap=2 * N,
            )

        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = dict(pool.map(run_one, sequential.runs.keys()))
        for ij, trace in sequential.runs.items():
            assert trace_state(concurrent[ij]) == trace_state(trace), ij


def trace_state(trace):
    """Everything a run reports, its final point as bytes."""
    return (
        trace.values, trace.cycles, trace.notes, trace.f_initial,
        (trace.n_value, trace.n_grad, trace.n_prox), trace.backtracks,
        trace.max_L_hat, trace.final_L_hat, trace.final_point.tobytes(),
    )


def generic(inst):
    """The instance's oracle without its declared form: the generic UFGM loop."""
    return dataclasses.replace(inst.oracle, quadratic=None)


GRID_PATHS = {
    # at N = 100 constant-schedule cycles end on steps 32 (i = 5) and 64
    # (i = 6), where the smooth loop skips the re-anchor a longer cycle makes
    "smooth-form": lambda: make_least_squares(
        *synthetic_regression(80, 20, cond=1e3, seed=24)).oracle,
    "lasso": lambda: make_lasso(*synthetic_regression(60, 15, cond=100.0, seed=27)).oracle,
    "dual-svm": lambda: make_dual_svm(
        *synthetic_classification(50, 8, cond=100.0, seed=26)).oracle,
    "logistic": lambda: make_logistic(
        *synthetic_classification(40, 6, cond=10.0, seed=4)).oracle,
    "lasso-generic": lambda: generic(make_lasso(
        *synthetic_regression(60, 15, cond=100.0, seed=27))),
}


def assert_runs_are_scheduled(oracle, x0, N, L0=1.0):
    """Every run of the grid is bitwise its own ``restart_scheduled(..., cap=2N)``."""
    out = adaptive_grid(oracle, x0, N, L0)
    assert sorted(out.runs) == grid_indices(N)
    for (i, j), trace in out.runs.items():
        ref = restart_scheduled(oracle, x0, grid_schedule(i, j), N, L0, cap=2 * N)
        assert trace_state(trace) == trace_state(ref), (i, j)
    return out


def assert_grid_raises_as_its_first_failing_run(oracle, x0, N, error):
    """The grid raises what its first run in (i, j) order to fail raises alone.

    Returns the (i, j) of that run, each run being ``restart_scheduled(..., cap=2N)``.
    """
    first = None
    for i, j in grid_indices(N):
        try:
            restart_scheduled(oracle, x0, grid_schedule(i, j), N, 1.0, cap=2 * N)
        except error as exc:
            first = (i, j), str(exc)
            break
    assert first is not None
    with pytest.raises(error) as raised:
        adaptive_grid(oracle, x0, N, 1.0)
    assert str(raised.value) == first[1]
    return first[0]


@pytest.fixture
def lockstep_calls(monkeypatch):
    """The calls the grid makes to the lockstep engine."""
    calls = []
    engine = solvers._lockstep

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(solvers, "_lockstep", counted)
    return calls


class TestSharedGrid:
    """The grid runs each shared cycle once; every run is its own scheduled run."""

    @pytest.mark.parametrize("N", [4, 100])
    @pytest.mark.parametrize("path", GRID_PATHS)
    def test_every_run_is_bitwise_its_scheduled_run(self, path, N):
        oracle = GRID_PATHS[path]()
        out = assert_runs_are_scheduled(oracle, np.zeros(oracle.dimension), N)
        if path == "smooth-form" and N == 100:
            # a cycle that ends on step 32 or 64 reports another value there
            # than one that goes on, and the shared cycle reproduces both
            for i, k in ((5, 31), (6, 63)):
                assert out.runs[(i, 0)].cycles[0] == (2**i, None)
                assert out.runs[(i, 7)].cycles[0][0] > 2**i
                assert out.runs[(i, 0)].values[k] != out.runs[(i, 7)].values[k]

    @pytest.mark.parametrize("error, floor", [(DivergenceError, 1e-10), (ValueError, 1e-6)])
    def test_divergence_surfaces_as_in_per_run_order(self, error, floor):
        # the generic oracle raises once a value falls below the floor; runs
        # reach that at different steps, and the grid must raise what the
        # first of them in (i, j) order raises, of whatever type: at 1e-6
        # that is run (1, 1), while a longer cycle of start 0 raises first
        Q = make_quadratic(10, 100.0, seed=3).oracle.quadratic.Q

        def value(x):
            v = 0.5 * float(x @ (Q @ x))
            if v < floor:
                raise error(f"value {v!r} fell below {floor}")
            return v

        oracle = ProximalOracle(dimension=10, value=value, smooth_gradient=lambda x: Q @ x)
        x0 = make_quadratic(10, 100.0, seed=3).x0
        assert assert_grid_raises_as_its_first_failing_run(oracle, x0, 100, error) != (1, 0)

    @pytest.mark.parametrize("L0", [1e-100, 1e100])
    def test_smooth_form_from_extreme_estimates(self, L0, lockstep_calls):
        # from 1e-100 the first step doubles the estimate more than eight
        # times, past the lockstep's ladder; from 1e100 the state is scaled
        # by S = L0 and the estimate halves down for many steps
        oracle = GRID_PATHS["smooth-form"]()
        out = assert_runs_are_scheduled(oracle, np.zeros(oracle.dimension), 100, L0)
        assert len(lockstep_calls) == 1
        if L0 < 1.0:
            assert out.runs[(1, 0)].max_L_hat > 2.0**8 * L0

    def test_smooth_form_of_a_generated_quadratic(self, lockstep_calls):
        inst = make_quadratic(30, 100.0, seed=45)
        assert_runs_are_scheduled(inst.oracle, inst.x0, 100)
        assert len(lockstep_calls) == 1

    def test_figure_one_grid_with_many_columns(self, lockstep_calls):
        # at N = 500 up to 80 cycles step at once
        inst = make_least_squares(*synthetic_regression(208, 60, cond=1e4, seed=1))
        assert_runs_are_scheduled(inst.oracle, inst.x0, 500)
        assert len(lockstep_calls) == 1

    @pytest.mark.parametrize("N", [33, 100])
    def test_a_form_whose_Q_is_no_array_runs_in_lockstep(self, N, lockstep_calls):
        # Q supports only @, so every product is one Q @ v; the tree costs
        # two per cycle start (Q x0 and Q g0), one per distinct step and four
        # per re-anchor (after every 32nd step but a cycle's longest), plus
        # the one that checks the grid's f(x0) first, whatever the rounding
        form = GRID_PATHS["smooth-form"]().quadratic
        M = CountingMatrix(form.Q)
        oracle = ProximalOracle.from_quadratic(QuadraticForm(M, form.h, form.c))
        x0 = np.zeros(form.h.shape[0])
        out = adaptive_grid(oracle, x0, N, 1.0)
        products = M.matvecs
        assert len(lockstep_calls) == 1
        for (i, j), trace in out.runs.items():
            ref = restart_scheduled(oracle, x0, grid_schedule(i, j), N, 1.0, cap=2 * N)
            assert trace_state(trace) == trace_state(ref), (i, j)
        longest = {}  # the longest length of each cycle start, keyed by the lengths before it
        for i, j in grid_indices(N):
            lengths = [length for _, length, _ in cycle_plan(grid_schedule(i, j), N, 2 * N)]
            for k, length in enumerate(lengths):
                key = tuple(lengths[:k])
                longest[key] = max(longest.get(key, 0), length)
        assert products == 1 + sum(2 + last + 4 * ((last - 1) // _REANCHOR)
                                   for last in longest.values())

    @pytest.mark.parametrize("curvature, N", [(-0.2, 20), (-0.1, 33)])
    def test_smooth_form_divergence_surfaces_as_in_per_run_order(self, curvature, N,
                                                                 lockstep_calls):
        # along the form's negative curvature the steps run off until the
        # estimate overflows in a line search (-0.2, at steps 17 to 22) or a
        # value is not finite (-0.1); runs fail at different steps, and the
        # first to fail in (i, j) order is not (1, 0)
        Q = np.diag([1.0, 0.5, curvature])
        oracle = ProximalOracle.from_quadratic(QuadraticForm(Q, np.zeros(3)))
        x0 = np.array([1.0, 1.0, 1e-3])
        first = assert_grid_raises_as_its_first_failing_run(oracle, x0, N, DivergenceError)
        assert first != (1, 0)
        assert len(lockstep_calls) == 1

    @pytest.mark.parametrize("floor, first", [(1e-4, (1, 0)), (1e-6, (1, 1))])
    def test_an_error_of_a_Q_that_is_no_array_surfaces_as_in_per_run_order(
            self, floor, first, lockstep_calls):
        # Q refuses the product of a vector shorter than the floor; the
        # lockstep's columns reach such a vector at different ticks, and the
        # grid must raise what the first run in (i, j) order raises
        inst = make_quadratic(10, 100.0, seed=3)
        A = inst.oracle.quadratic.Q

        class ShortVectorsRefused:
            def __matmul__(self, x):
                norm = float(np.linalg.norm(x))
                if norm < floor:
                    raise ValueError(f"norm {norm!r} below {floor}")
                return A @ x

        oracle = ProximalOracle.from_quadratic(QuadraticForm(ShortVectorsRefused(), np.zeros(10)))
        assert assert_grid_raises_as_its_first_failing_run(
            oracle, inst.x0, 100, ValueError) == first
        assert len(lockstep_calls) == 1

    def test_two_grids_in_a_row_are_equal(self):
        oracle = GRID_PATHS["lasso"]()
        x0 = np.zeros(oracle.dimension)
        first = adaptive_grid(oracle, x0, 100, 1.0)
        second = adaptive_grid(oracle, x0, 100, 1.0)
        assert (first.best, first.total_inner_iterations) == (
            second.best, second.total_inner_iterations)
        for ij, trace in first.runs.items():
            assert trace_state(trace) == trace_state(second.runs[ij]), ij

    @pytest.mark.parametrize("path", ["smooth-form", "lasso", "logistic"])
    def test_no_two_runs_share_a_list_or_a_final_point(self, path):
        oracle = GRID_PATHS[path]()
        traces = list(adaptive_grid(oracle, np.zeros(oracle.dimension), 100, 1.0).runs.values())
        for name in ("values", "cycles", "notes"):
            assert len({id(getattr(tr, name)) for tr in traces}) == len(traces), name
        for k, a in enumerate(traces):
            for b in traces[k + 1:]:
                assert not np.shares_memory(a.final_point, b.final_point)


class TestMonotoneRestart:
    def test_monotone_run_equals_plain_accelerated(self):
        # exact isotropic quadratic: one step lands on the optimum and the
        # objective never increases, so the heuristic never fires
        from restartopt import ProximalOracle

        oracle = ProximalOracle(
            dimension=6,
            value=lambda x: 0.5 * float(x @ x),
            smooth_gradient=lambda x: np.asarray(x, dtype=float),
        )
        x0 = np.full(6, 0.4)
        mono = monotone_restart(oracle, x0, 25, 1.0, f_star=0.0)
        _, plain = accelerated(oracle, x0, 1.0, 25, f_star=0.0)
        assert mono.restart_count == 0
        assert [e.f_value for e in mono.entries] == [e.f_value for e in plain.entries]

    def test_beats_plain_accelerated_when_conditioned(self):
        inst = make_quadratic(30, 1000.0, seed=41)
        N = 600
        mono = monotone_restart(inst.oracle, inst.x0, N, 1.0, f_star=0.0)
        _, plain = accelerated(inst.oracle, inst.x0, 1.0, N, f_star=0.0)
        assert mono.restart_count >= 2
        assert mono.final_gap < plain.final_gap

    def test_single_step_budget(self):
        inst = make_quadratic(4, 5.0, seed=42)
        trace = monotone_restart(inst.oracle, inst.x0, 1, 1.0, f_star=0.0)
        assert trace.accepted == 1
        assert trace.restart_count == 0


@pytest.mark.parametrize(
    "scheme",
    [lambda o, x0: criterion_restart(o, x0, 0.0, 1.0, 10, 1.0),
     lambda o, x0: monotone_restart(o, x0, 10, 1.0)],
    ids=["criterion", "mono"],
)
def test_non_finite_start_value_diverges(scheme):
    # f(x0) = inf: every criterion target would be inf, met before any cycle
    inst = make_norm_power(3, 4.0, 1e78, seed=0)
    with pytest.raises(DivergenceError, match="^non-finite objective or gradient encountered$"):
        scheme(inst.oracle, inst.x0)


class TestCyclePlan:
    """A scheduled run's cycles are its plan, known before the run."""

    def test_plan_is_every_grid_runs_cycles(self):
        # the Figure-1 instance at N = 500, where every run has cap 2N
        inst = make_least_squares(*synthetic_regression(208, 60, cond=1e4, seed=1))
        out = adaptive_grid(inst.oracle, inst.x0, 500, 1.0)
        assert sorted(out.runs) == grid_indices(500)
        planned_work = 0
        for (i, j), trace in out.runs.items():
            plan = cycle_plan(grid_schedule(i, j), 500, 1000)
            assert [(length, target or None) for _, length, target in plan] == trace.cycles
            planned_work += sum(length for _, length, _ in plan)
        assert out.total_inner_iterations == planned_work

    def test_plan_is_the_h_restart_cycles(self):
        # ceil(3 e^(0.3 k)) = 5, 6, 8, 10, 14: the budget of 40 cuts cycle 5 to 11
        inst = make_sharp_norm(4, seed=29)
        eps0, gamma, sched = 2.0, 0.7, Schedule(C=3.0, alpha=0.3)
        trace = h_restart(inst.oracle, inst.x0, eps0, gamma, sched, 40, 1.0, f_star=0.0)
        plan = cycle_plan(sched, 40, 40, eps0, gamma)
        assert [(planned, length) for planned, length, _ in plan] == [
            (5, 5), (6, 6), (8, 8), (10, 10), (14, 11)
        ]
        assert [(length, target) for _, length, target in plan] == trace.cycles
        assert trace.notes == ["cycle 5 truncated from 14 to 11 iterations by the budget"]

    @pytest.mark.parametrize(
        "schedule, expected",
        [
            (Schedule(1.0, 800.0), [(math.inf, 10, 0.0)]),  # e^800 overflows
            (Schedule(1e308, 1.0), [(math.inf, 10, 0.0)]),  # C e^1 is inf
            (Schedule(1e-300, 400.0), [(1, 1, 0.0), (math.inf, 9, 0.0)]),  # e^800 at k = 2
        ],
        ids=["exp", "product", "second-cycle"],
    )
    def test_overflowing_term_runs_what_is_left(self, schedule, expected):
        assert cycle_plan(schedule, 10, 10) == expected
        inst = make_quadratic(5, 10.0, seed=0)
        trace = restart_scheduled(inst.oracle, inst.x0, schedule, 10, 1.0)
        assert trace.cycles == [(length, None) for _, length, _ in expected]
        k = len(expected)
        assert trace.notes == [
            f"cycle {k} truncated from inf to {expected[-1][1]} iterations by the budget"
        ]
        h = h_restart(inst.oracle, inst.x0, 1.0, 0.5, schedule, 10, 1.0)
        assert [length for length, _ in h.cycles] == [length for _, length, _ in expected]

    @settings(max_examples=60, deadline=None)
    @given(C=st.floats(0.3, 40.0), alpha=st.floats(0.0, 2.0), budget=st.integers(1, 70),
           extra=st.integers(0, 70), eps0=st.floats(1e-3, 10.0), gamma=st.floats(0.0, 2.0))
    def test_random_plans_are_the_cycles_and_their_merge(self, C, alpha, budget, extra,
                                                         eps0, gamma):
        # each cycle replayed alone from the last one's point and estimate,
        # and merged here field by field, is the scheme's trace
        inst = SMALL_QUADRATIC
        schedule, cap = Schedule(C, alpha), budget + extra
        schemes = [
            (restart_scheduled(inst.oracle, inst.x0, schedule, budget, 1.0,
                               f_star=inst.f_star, cap=cap),
             cycle_plan(schedule, budget, cap), "the cap" if extra else "the budget"),
            (h_restart(inst.oracle, inst.x0, eps0, gamma, schedule, budget, 1.0,
                       f_star=inst.f_star),
             cycle_plan(schedule, budget, budget, eps0, gamma), "the budget"),
        ]
        for trace, plan, limit in schemes:
            assert trace.cycles == [(length, target or None) for _, length, target in plan]
            merged = Trace(final_point=inst.x0, final_L_hat=1.0, f_star=inst.f_star)
            for k, (planned, length, target) in enumerate(plan, start=1):
                if length < planned:
                    merged.notes.append(
                        f"cycle {k} truncated from {planned} to {length} iterations by {limit}")
                point, cycle = universal_fast_gradient(
                    inst.oracle, merged.final_point, target, merged.final_L_hat, length,
                    f_star=inst.f_star)
                if k == 1:
                    merged.f_initial = cycle.f_initial
                merged.values += cycle.values
                merged.cycles += cycle.cycles
                merged.notes += cycle.notes
                merged.n_value += cycle.n_value
                merged.n_grad += cycle.n_grad
                merged.n_prox += cycle.n_prox
                merged.backtracks += cycle.backtracks
                merged.max_L_hat = max(merged.max_L_hat, cycle.max_L_hat)
                merged.final_point, merged.final_L_hat = point, cycle.final_L_hat
            assert trace_state(trace) == trace_state(merged)
            assert trace.f_star == merged.f_star

    def test_validation_keeps_its_texts(self):
        inst = make_quadratic(5, 10.0, seed=0)
        with pytest.raises(ValueError, match="^budget must be >= 1, got 0$"):
            cycle_plan(Schedule(2.0), 0, 0)
        with pytest.raises(ValueError, match="^cap must be >= the budget 5, got 4$"):
            cycle_plan(Schedule(2.0), 5, 4)
        with pytest.raises(ValueError, match="^budget must be >= 1, got 0$"):
            restart_scheduled(inst.oracle, inst.x0, Schedule(2.0), 0, 1.0)
        with pytest.raises(ValueError, match="^budget must be >= 1, got 0$"):
            h_restart(inst.oracle, inst.x0, 1.0, 0.5, Schedule(2.0), 0, 1.0)


class TestCycleRecord:
    """Every scheme records one (length, target) pair per inner-method run."""

    def test_constant_schedule_cycles_and_markers(self):
        inst = make_quadratic(6, 16.0, seed=25)
        trace = restart_scheduled(inst.oracle, inst.x0, Schedule(C=3.0), 10, 1.0, f_star=0.0)
        assert trace.cycles == [(3, None)] * 3 + [(1, None)]
        assert [e.iteration for e in trace.restart_entries()] == [3, 6, 9]
        assert trace.restart_count == 3
        trace.validate()

    def test_h_restart_targets_decay_per_cycle(self):
        inst = make_sharp_norm(4, seed=29)
        eps0, gamma = 2.0, 0.7
        trace = h_restart(inst.oracle, inst.x0, eps0, gamma, Schedule(C=6.0), 40, 1.0,
                          f_star=0.0)
        expected, eps = [], eps0
        for _ in trace.cycles:
            eps *= math.exp(-gamma)
            expected.append(eps)
        assert [target for _, target in trace.cycles] == expected
        assert len(trace.cycles) == 7
        rows = iter(trace.entries)
        for length, target in trace.cycles:
            assert all(next(rows).eps_target == target for _ in range(length))
        trace.validate()

    def test_criterion_cycle_lengths_sum_to_accepted(self):
        inst = make_quadratic(10, 40.0, seed=30)
        trace = criterion_restart(inst.oracle, inst.x0, 0.0, 1.0, 300, 1.0)
        assert len(trace.cycles) >= 2
        assert sum(length for length, _ in trace.cycles) == trace.accepted
        assert all(target is not None for _, target in trace.cycles)
        trace.validate()

    def test_every_scheme_validates(self):
        inst = make_quadratic(8, 30.0, seed=31)
        gap0 = inst.gap0()
        traces = [
            restart_scheduled(inst.oracle, inst.x0, Schedule(C=7.0, alpha=0.2), 60, 1.0,
                              f_star=0.0),
            h_restart(inst.oracle, inst.x0, gap0, 1.0, Schedule(C=7.0), 60, 1.0, f_star=0.0),
            criterion_restart(inst.oracle, inst.x0, 0.0, 1.0, 60, 1.0),
            monotone_restart(inst.oracle, inst.x0, 60, 1.0, f_star=0.0),
            *adaptive_grid(inst.oracle, inst.x0, 16, 1.0, f_star=0.0).runs.values(),
        ]
        for trace in traces:
            trace.validate()
            assert trace.restart_count == len(trace.cycles) - 1


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda o, x0: gradient_descent(o, x0, math.inf, 20), "L0"),
        (lambda o, x0: accelerated(o, x0, math.nan, 20), "L0"),
        (lambda o, x0: universal_fast_gradient(o, x0, math.inf, 1.0, 20), "epsilon"),
        (lambda o, x0: universal_fast_gradient(o, x0, math.nan, 1.0, 20), "epsilon"),
        (lambda o, x0: Schedule(math.inf), "C"),
        (lambda o, x0: Schedule(math.nan), "C"),
        (lambda o, x0: Schedule(4.0, math.inf), "alpha"),
        (lambda o, x0: h_restart(o, x0, math.inf, 1.0, Schedule(4.0), 20, 1.0), "eps0"),
        (lambda o, x0: h_restart(o, x0, 1.0, math.nan, Schedule(4.0), 20, 1.0), "gamma"),
        (lambda o, x0: criterion_restart(o, x0, math.nan, 1.0, 20, 1.0), "f_star"),
        (lambda o, x0: criterion_restart(o, x0, 0.0, math.inf, 20, 1.0), "gamma"),
    ],
    ids=["grad-L0-inf", "acc-L0-nan", "ufgm-eps-inf", "ufgm-eps-nan", "schedule-C-inf",
         "schedule-C-nan", "schedule-alpha-inf", "h-restart-eps0-inf", "h-restart-gamma-nan",
         "criterion-f_star-nan", "criterion-gamma-inf"],
)
def test_non_finite_parameter_raises_value_error(call, named):
    # nan and inf pass every `<= 0` / `< 0` test, so each is checked on its own
    inst = make_quadratic(5, 10.0)
    with pytest.raises(ValueError, match=f"^{named} must be finite"):
        call(inst.oracle, inst.x0)
