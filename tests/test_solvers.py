"""Inner-solver behavior: line searches, guarantees, and trace accounting."""

import dataclasses
import math

import numpy as np
import pytest

from restartopt import (
    DivergenceError,
    ProximalOracle,
    QuadraticForm,
    Schedule,
    Trace,
    accelerated,
    adaptive_grid,
    bound_accelerated,
    bound_universal,
    criterion_restart,
    gradient_descent,
    h_restart,
    make_dual_svm,
    make_lasso,
    make_least_squares,
    make_logistic,
    make_quadratic,
    make_sharp_norm,
    monotone_restart,
    reference_solve,
    restart_scheduled,
    restarts,
    soft_threshold,
    synthetic_classification,
    synthetic_regression,
    universal_fast_gradient,
)
from conftest import reference_optimum


def quadratic_oracle(A):
    return ProximalOracle(
        dimension=A.shape[0],
        value=lambda x: 0.5 * float(x @ (A @ x)),
        smooth_gradient=lambda x: A @ x,
    )


class CountingMatrix:
    """A matrix that counts its products with vectors."""

    def __init__(self, A):
        self.A = A
        self.matvecs = 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.A @ x


def counting_quadratic_oracle(A):
    """f = x^T A x / 2 with a fused evaluation, and the counter of A @ x."""
    M = CountingMatrix(A)

    def value_and_grad(x):
        Ax = M @ x
        return 0.5 * float(x @ Ax), Ax

    oracle = ProximalOracle(
        dimension=A.shape[0],
        value=lambda x: 0.5 * float(x @ (M @ x)),
        smooth_gradient=lambda x: M @ x,
        smooth_value_and_gradient=value_and_grad,
    )
    return oracle, M


def assert_traces_equal(a, b):
    a, b = dict(vars(a)), dict(vars(b))
    assert np.array_equal(a.pop("final_point"), b.pop("final_point"))
    assert a == b


def half_norm_oracle(n):
    return ProximalOracle(
        dimension=n,
        value=lambda x: 0.5 * float(x @ x),
        smooth_gradient=lambda x: np.asarray(x, dtype=float),
    )


def step_oracle():
    # f jumps from 0 at the start point to 1 everywhere else, so no step
    # from the start passes the descent test and the first step stalls.
    # Later steps start at f = 1 with an estimate near 2^119, where the
    # model's decrease rounds away and the first trial passes.
    return ProximalOracle(
        dimension=1,
        value=lambda x: 0.0 if x[0] == 0.0 else 1.0,
        smooth_gradient=lambda x: np.ones(1),
    )


def huge_curvature_oracle(nan_entry=False):
    # f = 1e200 ||x||^2 / 2: from x0 = [1, 1] the gradient entries are a
    # finite 1e200 but ||g||^2 overflows. The first step lands on the
    # minimizer 0 exactly when L0 = 1e200.
    def grad(x):
        g = 1e200 * np.asarray(x, dtype=float)
        if nan_entry:
            g[1] = math.nan
        return g

    return ProximalOracle(
        dimension=2, value=lambda x: 1e200 * float(x @ x) / 2, smooth_gradient=grad
    )


def finite_only_at_start_oracle():
    # f is 1 on its first evaluation (the start point) and inf on every
    # later one, so each trial fails and the line search doubles the
    # estimate until it overflows.
    calls = []

    def value(x):
        calls.append(x)
        return 1.0 if len(calls) == 1 else math.inf

    return ProximalOracle(dimension=2, value=value, smooth_gradient=lambda x: np.ones(2))


def assert_stalled_once(trace, budget):
    assert trace.backtracks == 120
    assert trace.accepted == budget
    assert sum("line search stalled" in note for note in trace.notes) == 1


class TestGradientDescent:
    def test_one_step_hand_computation(self):
        # f = x^2/2 from x0 = 1 with L0 = 1: candidate 0 satisfies the
        # descent condition with equality, then the estimate halves
        oracle = half_norm_oracle(1)
        trace = gradient_descent(oracle, np.array([1.0]), 1.0, 1, f_star=0.0)
        assert trace.final_point[0] == 0.0
        assert trace.final_L_hat == 0.5
        assert trace.entries[0].f_value == 0.0

    def test_quadratic_pointwise_rate(self):
        # gap_t <= lambda_max d0^2 / t, with lambda_max from an eigendecomposition
        rng = np.random.default_rng(11)
        B = rng.standard_normal((20, 20))
        A = B @ B.T / 20 + 0.05 * np.eye(20)
        lam_max = float(np.linalg.eigvalsh(A)[-1])
        oracle = quadratic_oracle(A)
        x0 = rng.standard_normal(20)
        d0_sq = float(x0 @ x0)
        trace = gradient_descent(oracle, x0, 1.0, 200, f_star=0.0)
        for e in trace.entries:
            assert e.gap <= lam_max * d0_sq / e.iteration * (1 + 1e-9)

    def test_constant_objective_never_moves(self):
        oracle = ProximalOracle(
            dimension=3,
            value=lambda x: 4.2,
            smooth_gradient=lambda x: np.zeros(3),
        )
        x0 = np.array([1.0, -2.0, 0.5])
        trace = gradient_descent(oracle, x0, 1.0, 10)
        assert np.array_equal(trace.final_point, x0)
        assert all(e.f_value == 4.2 for e in trace.entries)

    def test_nan_objective_signals_divergence(self):
        oracle = ProximalOracle(
            dimension=1, value=lambda x: math.nan, smooth_gradient=lambda x: np.ones(1)
        )
        with pytest.raises(DivergenceError):
            gradient_descent(oracle, np.array([1.0]), 1.0, 5)

    def test_nan_gradient_signals_divergence(self):
        oracle = ProximalOracle(
            dimension=1,
            value=lambda x: float(x[0] ** 2),
            smooth_gradient=lambda x: np.full(1, math.nan),
        )
        with pytest.raises(DivergenceError):
            gradient_descent(oracle, np.array([1.0]), 1.0, 5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_gradient_is_not_divergence(self):
        trace = gradient_descent(huge_curvature_oracle(), np.ones(2), 1e200, 3)
        assert trace.accepted == 3
        assert trace.final_f == 0.0
        with pytest.raises(DivergenceError):
            gradient_descent(huge_curvature_oracle(nan_entry=True), np.ones(2), 1e200, 3)

    def test_overflowing_estimate_signals_divergence(self):
        with pytest.raises(DivergenceError, match="Lipschitz estimate overflowed"):
            gradient_descent(finite_only_at_start_oracle(), np.ones(2), 1e300, 5)

    def test_oracle_call_accounting(self):
        # one gradient per step, one value per trial, plus the initial value
        inst = make_quadratic(12, 30.0, seed=1)
        trace = gradient_descent(inst.oracle, inst.x0, 0.01, 60, f_star=0.0)
        assert trace.n_grad == trace.accepted
        assert trace.n_value == 1 + trace.accepted + trace.backtracks
        assert trace.n_value + trace.n_grad <= 2 * trace.accepted + trace.backtracks + 1
        # composite: one prox per trial, alongside its value
        inst = make_lasso(np.eye(4) * 2.0, np.array([3.0, -0.5, 1.0, 0.0]), lam=1.0)
        trace = gradient_descent(inst.oracle, inst.x0, 0.01, 40)
        assert trace.n_prox == trace.accepted + trace.backtracks
        assert trace.n_value == 1 + trace.n_prox

    def test_line_search_stall_accepts_with_note(self):
        trace = gradient_descent(step_oracle(), np.array([0.0]), 1.0, 3)
        assert_stalled_once(trace, 3)

    def test_validation(self):
        oracle = half_norm_oracle(2)
        with pytest.raises(ValueError):
            gradient_descent(oracle, np.zeros(2), 1.0, 0)
        with pytest.raises(ValueError):
            gradient_descent(oracle, np.zeros(2), -1.0, 5)


class TestAccelerated:
    def test_isotropic_quadratic_meets_rate_bound(self):
        oracle = half_norm_oracle(10)
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal(10)
        x0 /= np.linalg.norm(x0)
        _, trace = accelerated(oracle, x0, 1.0, 20, f_star=0.0)
        assert trace.final_gap <= bound_accelerated(1.0, 1.0, 20) * (1 + 1e-9)

    def test_start_at_minimizer_stays(self):
        oracle = half_norm_oracle(4)
        y, trace = accelerated(oracle, np.zeros(4), 1.0, 1, f_star=0.0)
        assert trace.final_gap == 0.0
        assert np.array_equal(y, np.zeros(4))

    def test_ill_conditioned_pointwise_envelope(self):
        inst = make_quadratic(50, 1e4, seed=13)
        L = inst.regularity.L
        d0 = inst.x_star_distance(inst.x0)
        _, trace = accelerated(inst.oracle, inst.x0, 1.0, 500, f_star=0.0)
        for e in trace.entries:
            bound = bound_accelerated(L, d0, e.iteration)
            assert e.gap <= bound * (1 + 1e-9), e.iteration

    def test_least_squares_pointwise_envelope(self):
        from restartopt import make_least_squares, synthetic_regression

        A, b = synthetic_regression(80, 20, cond=500.0, seed=44)
        inst = make_least_squares(A, b)
        d0 = inst.x_star_distance(inst.x0)
        _, trace = accelerated(
            inst.oracle, inst.x0, 1.0, 300, f_star=inst.f_star
        )
        for e in trace.entries:
            bound = bound_accelerated(inst.regularity.L, d0, e.iteration)
            assert e.gap <= bound * (1 + 1e-9), e.iteration

    def test_estimate_never_exceeds_twice_lipschitz(self):
        inst = make_quadratic(30, 100.0, seed=14)
        _, trace = accelerated(inst.oracle, inst.x0, 1.0, 150, f_star=0.0)
        assert trace.max_L_hat <= 2 * inst.regularity.L

    def test_doubling_count_bounded(self):
        inst = make_quadratic(30, 100.0, seed=15)
        L0 = 0.125
        _, trace = accelerated(inst.oracle, inst.x0, L0, 150, f_star=0.0)
        cap = math.log2(2 * inst.regularity.L / L0) + trace.accepted
        assert trace.backtracks <= cap

    def test_gradient_calls_match_trials(self):
        inst = make_quadratic(15, 40.0, seed=16)
        _, trace = accelerated(inst.oracle, inst.x0, 1.0, 80, f_star=0.0)
        assert trace.n_grad == trace.accepted + trace.backtracks
        assert trace.n_value == 1 + 2 * trace.n_grad


class TestUniversal:
    def test_nonsmooth_reaches_target_within_analytic_count(self):
        # on f = |x| the universal method needs at most 4 L^2 d^2 / eps^2
        # iterations to certify f <= eps
        inst = make_sharp_norm(1, seed=0)
        x0 = np.array([0.2])
        eps = 0.1
        t_star = math.ceil(4 * 0.2**2 / eps**2)
        y, trace = universal_fast_gradient(
            inst.oracle, x0, eps, 1.0, 10 * t_star,
            stop=lambda p, f: f <= eps, f_star=0.0,
        )
        assert trace.final_f <= eps
        assert trace.accepted <= t_star

    def test_nonsmooth_pointwise_envelope(self):
        inst = make_sharp_norm(1, seed=0)
        x0 = np.array([0.2])
        for eps in (0.1, 0.01):
            _, trace = universal_fast_gradient(inst.oracle, x0, eps, 1.0, 2500, f_star=0.0)
            for e in trace.entries:
                bound = bound_universal(1.0, 1.0, 0.2, eps, e.iteration)
                assert e.f_value <= bound * (1 + 1e-9)

    def test_start_at_optimum_stays(self):
        oracle = half_norm_oracle(3)
        y, trace = universal_fast_gradient(oracle, np.zeros(3), 0.5, 1.0, 25, f_star=0.0)
        assert trace.final_gap == 0.0
        assert np.array_equal(y, np.zeros(3))

    def test_smooth_pointwise_envelope_with_positive_target(self):
        # quartic on the unit ball: s = 2 with L = 12 and nonzero accuracy
        from restartopt import make_norm_power

        inst = make_norm_power(10, 4.0, 1.0, seed=2)
        for eps in (1e-2, 1e-3):
            _, trace = universal_fast_gradient(
                inst.oracle, inst.x0, eps, 1.0, 400, f_star=0.0
            )
            for e in trace.entries:
                bound = bound_universal(2.0, 12.0, 1.0, eps, e.iteration)
                assert e.f_value <= bound * (1 + 1e-9), (eps, e.iteration)

    def test_composite_lasso_reaches_epsilon(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((40, 30))
        b = rng.standard_normal(40) * 2
        inst = make_lasso(A, b, lam=1.0)
        f_star, tol = reference_optimum("lasso_40x30_seed17", inst)
        eps = 1e-3
        _, trace = universal_fast_gradient(inst.oracle, inst.x0, eps, 1.0, 3000)
        assert trace.final_f - f_star <= eps + tol

    def test_eps_target_recorded(self):
        inst = make_sharp_norm(2, seed=3)
        _, trace = universal_fast_gradient(inst.oracle, inst.x0, 0.25, 1.0, 10, f_star=0.0)
        assert all(e.eps_target == 0.25 for e in trace.entries)
        _, plain = accelerated(inst.oracle, inst.x0, 1.0, 5, f_star=0.0)
        assert all(e.eps_target is None for e in plain.entries)

    def test_warm_started_estimate_is_valid(self):
        inst = make_quadratic(10, 50.0, seed=18)
        _, first = accelerated(inst.oracle, inst.x0, 1.0, 40, f_star=0.0)
        y, second = accelerated(
            inst.oracle, first.final_point, first.final_L_hat, 40, f_star=0.0
        )
        assert second.final_gap < first.final_gap
        assert second.max_L_hat <= 2 * inst.regularity.L

    def test_trace_invariants(self):
        inst = make_quadratic(8, 25.0, seed=19)
        _, trace = accelerated(inst.oracle, inst.x0, 1.0, 30, f_star=0.0)
        trace.validate()
        iters = [e.iteration for e in trace.entries]
        assert iters == list(range(1, 31))

    def test_one_cycle_per_call(self):
        inst = make_quadratic(8, 25.0, seed=19)
        _, trace = universal_fast_gradient(inst.oracle, inst.x0, 0.5, 1.0, 12, f_star=0.0)
        assert trace.cycles == [(12, 0.5)]
        plain = gradient_descent(inst.oracle, inst.x0, 1.0, 9, f_star=0.0)
        assert plain.cycles == [(9, None)]
        plain.validate()

    def test_stopped_run_records_its_length(self):
        inst = make_quadratic(8, 25.0, seed=19)
        steps = []

        def stop(_y, _fy):
            steps.append(1)
            return len(steps) == 7

        _, trace = accelerated(inst.oracle, inst.x0, 1.0, 30, f_star=0.0, stop=stop)
        assert trace.cycles == [(7, None)]
        assert trace.accepted == 7
        assert trace.restart_count == 0
        trace.validate()

    def test_validate_checks_the_cycle_record(self):
        with pytest.raises(AssertionError, match="at least one step"):
            Trace(values=[3.0, 2.0], cycles=[(2, None), (0, None)]).validate()
        with pytest.raises(AssertionError, match="sum"):
            Trace(values=[3.0, 2.0, 1.0], cycles=[(2, None)]).validate()
        with pytest.raises(AssertionError, match="sum"):
            Trace(values=[3.0], cycles=[(1, None), (1, None)]).validate()
        Trace(values=[3.0, 2.0, 1.0], cycles=[(2, None), (1, 0.5)]).validate()

    def test_copy_owns_its_lists_and_final_point(self):
        inst = make_quadratic(5, 20.0, seed=3)
        _, trace = accelerated(inst.oracle, inst.x0, 1.0, 9, f_star=0.0)
        trace.notes.append("a note")
        copy = trace.copy()
        assert_traces_equal(copy, trace)
        assert copy.values is not trace.values
        assert copy.cycles is not trace.cycles
        assert copy.notes is not trace.notes
        assert not np.shares_memory(copy.final_point, trace.final_point)
        assert Trace().copy().final_point is None

    def test_rows_are_derived_from_values_and_cycles(self):
        trace = Trace(values=[4.0, 3.0, 2.0, 1.5], cycles=[(1, None), (3, 0.25)], f_star=1.0)
        assert [tuple(e) for e in trace.entries] == [
            (1, 4.0, 3.0, True, None),
            (2, 3.0, 2.0, False, 0.25),
            (3, 2.0, 1.0, False, 0.25),
            (4, 1.5, 0.5, False, 0.25),
        ]
        assert trace.restart_count == 1
        assert trace.final_f == 1.5
        with pytest.raises(AttributeError):
            trace.entries[0].restart = False

    def test_gap_none_without_f_star(self):
        inst = make_quadratic(8, 25.0, seed=19)
        _, trace = accelerated(inst.oracle, inst.x0, 1.0, 10)
        assert all(e.gap is None for e in trace.entries)
        assert trace.final_gap is None
        trace.validate()

    def test_nan_objective_signals_divergence(self):
        oracle = ProximalOracle(
            dimension=1, value=lambda x: math.nan, smooth_gradient=lambda x: np.ones(1)
        )
        with pytest.raises(DivergenceError):
            universal_fast_gradient(oracle, np.array([1.0]), 0.0, 1.0, 5)

    def test_nan_gradient_signals_divergence(self):
        oracle = ProximalOracle(
            dimension=1,
            value=lambda x: float(x[0] ** 2),
            smooth_gradient=lambda x: np.full(1, math.nan),
        )
        with pytest.raises(DivergenceError):
            universal_fast_gradient(oracle, np.array([1.0]), 0.0, 1.0, 5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_gradient_is_not_divergence(self):
        _, trace = universal_fast_gradient(huge_curvature_oracle(), np.ones(2), 0.0, 1e200, 3)
        assert trace.accepted == 3
        assert trace.final_f == 0.0
        with pytest.raises(DivergenceError):
            universal_fast_gradient(
                huge_curvature_oracle(nan_entry=True), np.ones(2), 0.0, 1e200, 3
            )

    def test_line_search_stall_accepts_with_note(self):
        _, trace = universal_fast_gradient(step_oracle(), np.array([0.0]), 0.0, 1.0, 3)
        assert_stalled_once(trace, 3)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_overflowing_estimate_signals_divergence(self, epsilon):
        with pytest.raises(DivergenceError, match="Lipschitz estimate overflowed"):
            universal_fast_gradient(finite_only_at_start_oracle(), np.ones(2), epsilon, 1e300, 5)

    def test_validation(self):
        oracle = half_norm_oracle(2)
        with pytest.raises(ValueError):
            universal_fast_gradient(oracle, np.zeros(2), -0.1, 1.0, 5)
        with pytest.raises(ValueError):
            universal_fast_gradient(oracle, np.zeros(2), 0.1, 1.0, 0)


class TestFusedEvaluation:
    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_ufgm_does_two_matvecs_per_trial(self, epsilon):
        rng = np.random.default_rng(22)
        B = rng.standard_normal((30, 30))
        oracle, M = counting_quadratic_oracle(B @ B.T / 30 + 0.01 * np.eye(30))
        x0 = rng.standard_normal(30)
        _, trace = universal_fast_gradient(oracle, x0, epsilon, 1.0, 80)
        trials = trace.accepted + trace.backtracks
        assert trace.backtracks > 0
        # f0(x0), then one fused evaluation at x and one value at y per trial
        assert M.matvecs == 1 + 2 * trials
        # the counters count oracle quantities, not calls
        assert trace.n_grad == trials
        assert trace.n_value == 1 + 2 * trials

        M.matvecs = 0
        separate = dataclasses.replace(oracle, smooth_value_and_gradient=None)
        _, separate_trace = universal_fast_gradient(separate, x0, epsilon, 1.0, 80)
        assert M.matvecs == 1 + 3 * trials
        assert_traces_equal(trace, separate_trace)

    @pytest.mark.parametrize("method", ["accelerated", "criterion", "grid"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_quadratic(40, 1e3, seed=23),
            lambda: make_least_squares(*synthetic_regression(80, 20, cond=1e3, seed=24)),
            lambda: make_logistic(*synthetic_classification(60, 10, cond=100.0, seed=25)),
        ],
        ids=["quadratic", "least_squares", "logistic"],
    )
    def test_fused_and_separate_evaluations_give_equal_traces(self, method, make):
        inst = make()
        # without a declared form the UFGM takes the generic path, whose
        # trials call the fused evaluation
        oracle = dataclasses.replace(inst.oracle, quadratic=None)
        fused_calls = 0

        def counted(x):
            nonlocal fused_calls
            fused_calls += 1
            return oracle.smooth_value_and_gradient(x)

        fused = dataclasses.replace(oracle, smooth_value_and_gradient=counted)
        separate = dataclasses.replace(oracle, smooth_value_and_gradient=None)
        f_star = inst.f_star
        if f_star is None:
            _, f_star, _ = reference_solve(oracle, inst.x0, grad_map_tol=1e-8)

        def solve(oracle):
            if method == "accelerated":
                return [accelerated(oracle, inst.x0, 1.0, 150, f_star=f_star)[1]]
            if method == "criterion":
                return [criterion_restart(oracle, inst.x0, f_star, 1.0, 150, 1.0)]
            outcome = adaptive_grid(oracle, inst.x0, 64, 1.0, f_star=f_star)
            assert outcome.runs
            return [outcome.best, outcome.total_inner_iterations] + [
                outcome.runs[key] for key in sorted(outcome.runs)
            ]

        fused_runs = solve(fused)
        assert fused_calls > 0
        separate_runs = solve(separate)
        assert len(fused_runs) == len(separate_runs)
        for a, b in zip(fused_runs, separate_runs):
            if isinstance(a, Trace):
                assert_traces_equal(a, b)
            else:
                assert a == b


def restart_marks(trace):
    return [e.iteration for e in trace.entries if e.restart]


def noiseless_least_squares():
    rng = np.random.default_rng(1)
    A = 3.0 * rng.standard_normal((200, 100))
    b = A @ (5.0 * rng.standard_normal(100))
    assert 1.8e6 < 0.5 * float(b @ b) < 2.0e6
    return make_least_squares(A, b)


FORM_INSTANCES = {
    "quadratic": lambda: make_quadratic(40, 1e3, seed=23),
    "least_squares": lambda: make_least_squares(*synthetic_regression(80, 20, cond=1e3, seed=24)),
    "lasso": lambda: make_lasso(*synthetic_regression(100, 40, cond=1e4, seed=27), lam=0.5),
    "dual_svm": lambda: make_dual_svm(*synthetic_classification(50, 8, cond=100.0, seed=26)),
}


class TestQuadraticImages:
    """The UFGM on a declared quadratic form against its reference path.

    The reference path is the same oracle with ``quadratic=None``: the
    generic loop with fused evaluations. Carrying the gradients g_y and g_z
    changes rounding, so the contract is a tolerance, not bitwise equality.
    """

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_smooth_form_pays_one_matvec_per_accepted_step(self, epsilon):
        rng = np.random.default_rng(22)
        B = rng.standard_normal((30, 30))
        M = CountingMatrix(B @ B.T / 30 + 0.01 * np.eye(30))
        oracle = ProximalOracle.from_quadratic(QuadraticForm(M, rng.standard_normal(30), 2.0))
        _, trace = universal_fast_gradient(oracle, rng.standard_normal(30), epsilon, 1.0, 80)
        trials = trace.accepted + trace.backtracks
        assert trace.backtracks > 0
        # Q x0 and Q g0 at the start, one product per accepted step (failed
        # trials are tested on scalars), and four at each re-anchor, before
        # steps 33 and 65; the counters keep their meaning
        assert trace.accepted == 80
        assert M.matvecs == 2 + 80 + 4 * 2
        assert trace.n_grad == trials
        assert trace.n_value == 1 + 2 * trials

    @pytest.mark.parametrize("prox", ["l1", "box"])
    def test_composite_adds_one_matvec_per_step_after_the_first(self, prox):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((40, 20))
        if prox == "l1":
            b = 3.0 * rng.standard_normal(40)
            M = CountingMatrix(A.T @ A)
            oracle = ProximalOracle.from_quadratic(
                QuadraticForm(M, A.T @ b, 0.5 * float(b @ b)),
                prox=lambda v, t: soft_threshold(v, 0.5 * t),
                nonsmooth_value=lambda x: 0.5 * float(np.abs(x).sum()),
            )
        else:
            # the dual SVM's own box prox, on its Gram matrix behind a counter
            svm = make_dual_svm(A[:20], np.sign(rng.standard_normal(20))).oracle
            M = CountingMatrix(svm.quadratic.Q)
            oracle = ProximalOracle.from_quadratic(
                dataclasses.replace(svm.quadratic, Q=M), svm.prox, svm.nonsmooth_value)
        _, trace = universal_fast_gradient(oracle, np.zeros(20), 0.0, 1.0, 60)
        trials = trace.accepted + trace.backtracks
        # Q x0, Q d per trial, and Q z after the prox of z in every step but
        # the first (where z = x0)
        assert M.matvecs == 1 + trials + (trace.accepted - 1)
        assert trace.n_prox == trials + trace.accepted - 1
        assert trace.n_value == 1 + 2 * trials

    @pytest.mark.parametrize(
        "make, method",
        [
            pytest.param(make, method, id=f"{name}-{method}")
            for name, make in FORM_INSTANCES.items()
            for method in ["accelerated", "h_restart", "criterion", "grid"]
        ]
        # mono feeds accepted values to its stop test. It is left out on
        # dual_svm, where its restart marks differ between the two paths
        # even without the smooth-form path: consecutive values tie to
        # rounding level, so the last bits decide each restart.
        + [
            pytest.param(FORM_INSTANCES[name], "mono", id=f"{name}-mono")
            for name in ["quadratic", "least_squares", "lasso"]
        ],
    )
    def test_cached_path_matches_reference_path(self, make, method):
        inst = make()
        assert inst.oracle.quadratic is not None
        reference = dataclasses.replace(inst.oracle, quadratic=None)
        f_star = inst.f_star
        if f_star is None:
            _, f_star, _ = reference_solve(inst.oracle, inst.x0, grad_map_tol=1e-8)
        # eps0 at the starting gap: with much larger targets the universal
        # method's path on the box QP amplifies rounding-level changes of
        # x0 on either path alike
        gap0 = inst.oracle.value(inst.x0) - f_star

        def solve(oracle):
            if method == "accelerated":
                return [accelerated(oracle, inst.x0, 1.0, 200, f_star=f_star)[1]]
            if method == "h_restart":
                return [h_restart(oracle, inst.x0, gap0, 1.0, Schedule(C=10.0), 200, 1.0,
                                  f_star=f_star)]
            if method == "criterion":
                return [criterion_restart(oracle, inst.x0, f_star, 1.0, 200, 1.0)]
            if method == "mono":
                return [monotone_restart(oracle, inst.x0, 200, 1.0, f_star=f_star)]
            outcome = adaptive_grid(oracle, inst.x0, 64, 1.0, f_star=f_star)
            return [outcome] + [outcome.runs[key] for key in sorted(outcome.runs)]

        cached, ref = solve(inst.oracle), solve(reference)
        if method == "grid":
            assert cached[0].best == ref[0].best
            assert sorted(cached[0].runs) == sorted(ref[0].runs)
            cached, ref = cached[1:], ref[1:]
        for a, b in zip(cached, ref):
            assert a.accepted == b.accepted
            assert restart_marks(a) == restart_marks(b)
            assert math.isclose(a.final_f, b.final_f, rel_tol=1e-10)
            f_reported = inst.oracle.value(a.final_point)
            assert abs(a.final_f - f_reported) <= 1e-12 * max(1.0, abs(a.final_f))

    @pytest.mark.parametrize(
        "make, budget",
        [
            (lambda: make_least_squares(*synthetic_regression(208, 60, cond=1e4, seed=19)), 3000),
            (lambda: make_least_squares(*synthetic_regression(208, 60, cond=1e4, seed=19)), 20000),
            (lambda: make_lasso(*synthetic_regression(208, 60, cond=1e4, seed=19), lam=0.5), 3000),
        ],
        ids=["least_squares", "least_squares-20000", "lasso"],
    )
    def test_reported_value_matches_the_oracle_after_a_long_cycle(self, make, budget):
        # carried gradients drift from Q @ y - h by rounding over one long
        # cycle; the smooth-form loop re-anchors them from fresh products
        inst = make()
        y, trace = accelerated(inst.oracle, inst.x0, 1.0, budget)
        f = trace.final_f
        assert abs(f - inst.oracle.value(y)) <= 1e-12 * max(1.0, abs(f))

    def test_descent_test_has_no_constant_floor(self):
        # Noiseless least squares with ||b||^2 / 2 about 1.9e6: near the
        # optimum, f0(y) - model computed from values drowns in the rounding
        # of the constant, and the estimate doubled to about 3.5e13. The
        # difference-form test has no constant in it.
        inst = noiseless_least_squares()
        _, trace = accelerated(inst.oracle, inst.x0, 1.0, 3000, f_star=inst.f_star)
        assert trace.max_L_hat <= 2 * inst.regularity.L

    def test_huge_form_does_not_diverge(self):
        # f = 1e200 ||x||^2 / 2 as a form: Q g would overflow, Q d does not
        oracle = ProximalOracle.from_quadratic(QuadraticForm(1e200 * np.eye(2), np.zeros(2)))
        _, trace = universal_fast_gradient(oracle, np.ones(2), 0.0, 1e200, 3)
        assert trace.accepted == 3
        assert trace.final_f == 0.0

    @pytest.mark.filterwarnings("error")
    def test_small_starting_estimate_does_not_overflow(self):
        # the rows are scaled by a power-of-two multiple of L0 at least the
        # curvature along g0; scaled by L0 = 1e-100 itself, the step's
        # product would overflow at step 2
        inst = FORM_INSTANCES["least_squares"]()
        _, trace = accelerated(inst.oracle, inst.x0, 1e-100, 50)
        assert trace.accepted == 50
        assert math.isfinite(trace.final_f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("L0", [1e-60, 1e-200, 1e-300])
    @pytest.mark.parametrize("name", ["least_squares", "lasso"])
    @pytest.mark.parametrize("method", ["accelerated", "gradient_descent"])
    def test_tiny_starting_estimate_doubles_up_to_the_curvature(self, method, name, L0):
        # a form's difference test fails only on real curvature, so its line
        # search doubles until the test holds, past the generic path's cap of
        # 120 doublings; capped, the first step stalled and was accepted from
        # 1e-60 (least squares ended at 3.8e50) and failed from 1e-200. No
        # set-up product overflows on the way.
        inst = FORM_INSTANCES[name]()
        if method == "accelerated":
            def run(L):
                return accelerated(inst.oracle, inst.x0, L, 50)[1]
        else:
            def run(L):
                return gradient_descent(inst.oracle, inst.x0, L, 50)
        trace, ref = run(L0), run(1.0)
        assert trace.accepted == 50
        assert trace.notes == []
        assert trace.backtracks > 120
        f0 = trace.f_initial
        assert f0 - trace.final_f >= 0.9 * (f0 - ref.final_f)

    @pytest.mark.filterwarnings("error")
    def test_line_search_doubles_past_the_generic_cap(self):
        # 120 doublings from L0 = 1e-60 stay far below the curvature; the
        # first step doubles 209 times, to 823, before its test holds
        inst = FORM_INSTANCES["least_squares"]()
        _, trace = accelerated(inst.oracle, inst.x0, 1e-60, 50)
        assert trace.accepted == 50
        assert trace.backtracks == 258
        assert trace.max_L_hat == 1645.504557321206
        assert (trace.n_grad, trace.n_value) == (308, 617)
        assert trace.notes == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("budget", [31, 32, 33, 64])
    @pytest.mark.parametrize(
        "make, at_minimizer",
        [
            (FORM_INSTANCES["quadratic"], False),
            (FORM_INSTANCES["least_squares"], False),
            (FORM_INSTANCES["quadratic"], True),
        ],
        ids=["quadratic", "least_squares", "quadratic-at-minimizer"],
    )
    def test_reported_value_matches_the_oracle_around_a_reanchor(
        self, make, at_minimizer, budget
    ):
        # f0(y) comes from the carried rows, h among them (h = 0 on the
        # quadratic), which are re-anchored after every 32nd step but the
        # last; at the minimizer g0 = 0
        inst = make()
        x0 = np.zeros_like(inst.x0) if at_minimizer else inst.x0
        y, trace = accelerated(inst.oracle, x0, 1.0, budget)
        f = trace.final_f
        assert abs(f - inst.oracle.value(y)) <= 1e-12 * max(1.0, abs(f))
        if at_minimizer:
            assert trace.values == [0.0] * budget

    def test_non_finite_value_signals_divergence(self):
        oracle = ProximalOracle.from_quadratic(QuadraticForm(np.eye(2), np.zeros(2), math.nan))
        with pytest.raises(DivergenceError):
            universal_fast_gradient(oracle, np.ones(2), 0.0, 1.0, 3)

    @pytest.mark.parametrize(
        "Q, h",
        [
            (np.eye(2), np.array([1.0, math.nan])),
            (np.array([[1.0, math.inf], [math.inf, 1.0]]), np.ones(2)),
        ],
        ids=["nan_in_h", "inf_in_Q"],
    )
    def test_non_finite_data_signals_divergence(self, Q, h):
        oracle = ProximalOracle.from_quadratic(QuadraticForm(Q, h))
        with pytest.raises(DivergenceError):
            universal_fast_gradient(oracle, np.ones(2), 0.0, 1.0, 3)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_overflowing_estimate_signals_divergence(self, epsilon):
        # curvature 1.5e308 exceeds every finite estimate on the doubling
        # path from 1e300, whose last finite value is about 1.34e308
        oracle = ProximalOracle.from_quadratic(QuadraticForm(1.5e308 * np.eye(2), np.zeros(2)))
        with pytest.raises(DivergenceError, match="Lipschitz estimate overflowed"):
            universal_fast_gradient(oracle, np.full(2, 1e-10), epsilon, 1e300, 5)

    @pytest.mark.parametrize("name", ["least_squares", "lasso"])
    def test_stop_ends_the_run_at_the_first_iterate_where_it_holds(self, name):
        inst = FORM_INSTANCES[name]()
        _, full = accelerated(inst.oracle, inst.x0, 1.0, 60)
        threshold = full.values[29]
        first = next(i for i, f in enumerate(full.values) if f <= threshold)
        seen = []

        def stop(y, fy):
            seen.append((y, fy))
            return fy <= threshold

        y, trace = accelerated(inst.oracle, inst.x0, 1.0, 60, stop=stop)
        assert trace.values == full.values[: first + 1]
        assert trace.cycles == [(first + 1, None)]
        assert [fy for _, fy in seen] == trace.values
        assert y is seen[-1][0] is trace.final_point
        # no prox of z for a step the stopped run does not take
        trials = trace.accepted + trace.backtracks
        assert trace.n_prox == (0 if inst.oracle.prox is None else trials + trace.accepted - 1)


class TestGradientDescentQuadraticImages:
    """Gradient descent carrying Q x on a declared quadratic form.

    The reference path is the same oracle with ``quadratic=None``. The
    contract is the UFGM's: equal accepted counts, final values within
    1e-10 relative, and reported values within 1e-12 max(1, |f|) of the
    oracle at the final point.
    """

    def test_one_matvec_per_trial(self):
        # a smooth form, and a composite one with a soft-threshold prox
        for prox in (None, lambda v, t: soft_threshold(v, 0.1 * t)):
            rng = np.random.default_rng(22)
            B = rng.standard_normal((30, 30))
            M = CountingMatrix(B @ B.T / 30 + 0.01 * np.eye(30))
            oracle = ProximalOracle.from_quadratic(
                QuadraticForm(M, rng.standard_normal(30), 2.0), prox)
            trace = gradient_descent(oracle, rng.standard_normal(30), 1.0, 50)
            trials = trace.accepted + trace.backtracks
            assert trace.backtracks > 0
            # Q x0 at the start, then Q d per trial; the counters keep their meaning
            assert M.matvecs == 1 + trials
            assert trace.n_grad == trace.accepted
            assert trace.n_value == 1 + trials
            assert trace.n_prox == (0 if prox is None else trials)

    @pytest.mark.parametrize("prox", [None, lambda v, t: v.copy()],
                             ids=["smooth", "copying_identity_prox"])
    def test_divergence_on_an_indefinite_form_is_typed(self, prox):
        # along the form's negative curvature every trial passes, the
        # estimate halves and the steps run off until Q x overflows; the run
        # raises the typed error, with no numpy warning before it (tier-1
        # turns a RuntimeWarning into an error)
        oracle = ProximalOracle.from_quadratic(
            QuadraticForm(np.diag([1.0, 0.5, -0.2]), np.zeros(3)), prox)
        x0 = np.array([1.0, 1.0, 1e-3])
        with pytest.raises(DivergenceError, match="non-finite objective or gradient"):
            gradient_descent(oracle, x0, 1.0, 5000)
        # the generic path keeps numpy's warnings
        with pytest.warns(RuntimeWarning, match="overflow"):
            gradient_descent(dataclasses.replace(oracle, quadratic=None), x0, 1.0, 5000)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_quadratic(40, 1e3, seed=23),
            lambda: make_least_squares(*synthetic_regression(80, 20, cond=1e3, seed=24)),
            lambda: make_least_squares(*synthetic_regression(208, 60, cond=1e4, seed=19)),
            lambda: make_lasso(*synthetic_regression(100, 40, cond=1e4, seed=27), lam=0.5),
            lambda: make_dual_svm(*synthetic_classification(50, 8, cond=100.0, seed=26)),
        ],
        ids=["quadratic", "least_squares_80x20", "least_squares_208x60", "lasso", "dual_svm"],
    )
    def test_cached_path_matches_reference_path(self, make):
        inst = make()
        assert inst.oracle.quadratic is not None
        reference = dataclasses.replace(inst.oracle, quadratic=None)
        a = gradient_descent(inst.oracle, inst.x0, 1.0, 200)
        b = gradient_descent(reference, inst.x0, 1.0, 200)
        assert a.accepted == b.accepted
        assert a.oracle_calls() == b.oracle_calls()
        assert math.isclose(a.final_f, b.final_f, rel_tol=1e-10)
        f_reported = inst.oracle.value(a.final_point)
        assert abs(a.final_f - f_reported) <= 1e-12 * max(1.0, abs(a.final_f))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_least_squares(*synthetic_regression(208, 60, cond=1e4, seed=19)),
            lambda: make_lasso(*synthetic_regression(208, 60, cond=1e4, seed=19), lam=0.5),
        ],
        ids=["least_squares", "lasso"],
    )
    def test_reported_value_matches_the_oracle_after_a_long_run(self, make):
        # Q x drifts from Q @ x by rounding over the run
        inst = make()
        trace = gradient_descent(inst.oracle, inst.x0, 1.0, 3000)
        f = trace.final_f
        assert abs(f - inst.oracle.value(trace.final_point)) <= 1e-12 * max(1.0, abs(f))

    def test_descent_test_has_no_constant_floor(self):
        # the value-form test doubled the estimate to about 1.4e14 here
        inst = noiseless_least_squares()
        trace = gradient_descent(inst.oracle, inst.x0, 1.0, 3000, f_star=inst.f_star)
        assert trace.max_L_hat <= 2 * inst.regularity.L


ALIASING_PATHS = {
    "smooth_form": lambda: FORM_INSTANCES["least_squares"]().oracle,
    "composite_form": lambda: FORM_INSTANCES["lasso"]().oracle,
    "generic": lambda: dataclasses.replace(FORM_INSTANCES["least_squares"]().oracle,
                                           quadratic=None),
}


def test_composite_identity_prox_matches_a_copying_one():
    # The identity prox hands back its argument, a work buffer of the
    # composite loop or of gradient descent on a form; were that buffer to
    # become an iterate, the next trial would overwrite it and the two runs
    # would part.
    form = FORM_INSTANCES["lasso"]().oracle.quadratic
    runs = []
    for prox in (lambda v, t: v, lambda v, t: v.copy()):
        oracle = ProximalOracle.from_quadratic(form, prox)
        seen = []

        def stop(y, _fy):
            seen.append(y)
            return False

        _, trace = universal_fast_gradient(oracle, np.zeros(oracle.dimension), 1e-3, 1.0, 60,
                                           stop=stop)
        runs.append((trace, seen, gradient_descent(oracle, np.zeros(oracle.dimension), 1.0, 60)))
    (a, seen_a, descent_a), (b, seen_b, descent_b) = runs
    assert a.accepted == 60 and a.backtracks > 0
    assert_traces_equal(a, b)
    assert a.final_point.tobytes() == b.final_point.tobytes()
    assert [y.tobytes() for y in seen_a] == [y.tobytes() for y in seen_b]
    assert a.final_point.base is None
    # gradient descent's prox is handed a work buffer too
    assert descent_a.accepted == 60 and descent_a.backtracks > 0
    assert_traces_equal(descent_a, descent_b)
    assert descent_a.final_point.tobytes() == descent_b.final_point.tobytes()
    assert descent_a.final_point.base is None


@pytest.mark.parametrize("path", sorted(ALIASING_PATHS))
class TestHandedOutPointsStayPut:
    """A point a run hands out is never written to afterwards.

    The runs cross the smooth-form loop's re-anchors after steps 32, 64
    and 96, which rewrite rows of its state in place.
    """

    def test_points_passed_to_stop(self, path):
        oracle = ALIASING_PATHS[path]()
        x0 = np.zeros(oracle.dimension)
        seen = []

        def stop(y, _fy):
            seen.append((y, y.copy()))
            return False

        _, trace = accelerated(oracle, x0, 1.0, 100, stop=stop)
        assert len(seen) == trace.accepted == 100
        assert all(np.array_equal(y, copy) for y, copy in seen)
        assert trace.final_point is seen[-1][0]
        assert trace.final_point.base is None

    def test_final_point_owns_its_data(self, path):
        # a view would keep the run's whole state alive in the trace
        oracle = ALIASING_PATHS[path]()
        x0 = np.zeros(oracle.dimension)
        y, trace = accelerated(oracle, x0, 1.0, 40)
        assert y is trace.final_point
        assert trace.final_point.base is None
        assert gradient_descent(oracle, x0, 1.0, 40).final_point.base is None

    def test_final_point_of_every_cycle(self, path, monkeypatch):
        oracle = ALIASING_PATHS[path]()
        solve = restarts.universal_fast_gradient
        points = []

        def recording(*args, **kwargs):
            y, trace = solve(*args, **kwargs)
            points.append((trace.final_point, trace.final_point.copy()))
            return y, trace

        monkeypatch.setattr(restarts, "universal_fast_gradient", recording)
        trace = restart_scheduled(oracle, np.zeros(oracle.dimension), Schedule(C=40.0), 120, 1.0)
        assert len(points) == 3
        assert all(np.array_equal(p, copy) for p, copy in points)
        assert np.array_equal(trace.final_point, points[-1][1])
