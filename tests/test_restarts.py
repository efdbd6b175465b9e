"""Restart meta-schemes: schedules, bound tracking, grid search, baselines."""

import math

import numpy as np
import pytest

from restartopt import (
    Schedule,
    accelerated,
    adaptive_grid,
    bound_adaptive,
    bound_holder,
    bound_smooth,
    criterion_restart,
    derive_conditioning,
    h_restart,
    make_norm_power,
    make_quadratic,
    make_sharp_norm,
    monotone_restart,
    optimal_schedule_holder,
    optimal_schedule_smooth,
    restart_scheduled,
    schedule_threshold,
    ufgm_constant,
)

E = math.e


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

    def test_f_star_below_true_optimum_surfaces_diagnostic(self):
        inst = make_quadratic(8, 10.0, seed=32)
        trace = criterion_restart(inst.oracle, inst.x0, -1.0, 2.0, 50, 1.0)
        assert any("budget exhausted" in note for note in trace.notes)

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
        assert not out.skipped

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
                complete_final_cycle=True, hard_cap=2 * N,
            )

        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = dict(pool.map(run_one, sequential.runs.keys()))
        for ij, trace in sequential.runs.items():
            assert [e.f_value for e in concurrent[ij].entries] == [
                e.f_value for e in trace.entries
            ], ij


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
