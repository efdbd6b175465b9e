"""Oracle contracts, regularity validation, and derived conditioning."""

import dataclasses
import math

import numpy as np
import pytest

from restartopt import (
    DerivedConditioning,
    DivergenceError,
    ProximalOracle,
    RegularityParams,
    check_sharpness_bound,
    check_suboptimality_upper_bound,
    derive_conditioning,
    gradient_finite_difference_error,
    make_dual_svm,
    make_lasso,
    make_least_squares,
    make_norm_power,
    make_quadratic,
    make_sharp_norm,
    sample_validation_points,
)


def norm_oracle(power):
    def value(x):
        return float(np.linalg.norm(x)) ** power

    def grad(x):
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            return np.zeros_like(x)
        return power * nrm ** (power - 2.0) * x

    return ProximalOracle(dimension=5, value=value, smooth_gradient=grad)


class TestDeriveConditioning:
    def test_classical_condition_number(self):
        cond = derive_conditioning(RegularityParams(s=2, L=10, r=2, mu=2))
        assert cond.kappa == 5.0
        assert cond.tau == 0.0
        assert cond.q == 2.0

    def test_sharp_quartic(self):
        cond = derive_conditioning(RegularityParams(s=2, L=1, r=4, mu=1))
        assert cond.kappa == 1.0
        assert cond.tau == 0.5
        assert cond.q == 2.0

    def test_nonsmooth_sharp(self):
        cond = derive_conditioning(RegularityParams(s=1, L=1, r=1, mu=1))
        assert cond.kappa == 1.0
        assert cond.tau == 0.0
        assert cond.q == 0.5

    def test_s_recovered_from_q(self):
        for s in (1.0, 1.5, 2.0):
            cond = derive_conditioning(RegularityParams(s=s, L=3, r=4, mu=0.5))
            assert cond.s == pytest.approx(s, rel=1e-15)

    def test_rejects_s_greater_than_r(self):
        with pytest.raises(ValueError):
            RegularityParams(s=2, L=1, r=1.5, mu=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s=0.5, L=1, r=2, mu=1),
            dict(s=2.5, L=1, r=3, mu=1),
            dict(s=2, L=0, r=2, mu=1),
            dict(s=2, L=1, r=2, mu=0),
            dict(s=2, L=1, r=2, mu=1, gap0=-1.0),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RegularityParams(**kwargs)

    def test_pure_function(self):
        params = RegularityParams(s=1.7, L=3.3, r=2.9, mu=0.21)
        assert derive_conditioning(params) == derive_conditioning(params)


class TestSharpnessCheck:
    def test_equality_case_on_unit_sphere(self):
        oracle = norm_oracle(2.0)
        params = RegularityParams(s=2, L=2, r=2, mu=1, f_star=0.0)
        rng = np.random.default_rng(0)
        points = [v / np.linalg.norm(v) for v in rng.standard_normal((20, 5))]
        assert check_sharpness_bound(oracle, params, points, np.linalg.norm)

    def test_quartic_random_points(self):
        oracle = norm_oracle(4.0)
        params = RegularityParams(s=2, L=12, r=4, mu=1, f_star=0.0)
        rng = np.random.default_rng(1)
        points = []
        for _ in range(100):
            v = rng.standard_normal(5)
            points.append(v / np.linalg.norm(v) * rng.uniform() ** 0.2)
        assert check_sharpness_bound(oracle, params, points, np.linalg.norm)

    def test_quartic_mu_too_large(self):
        oracle = norm_oracle(4.0)
        params = RegularityParams(s=2, L=12, r=4, mu=2, f_star=0.0)
        point = np.full(5, 0.3)
        assert not check_sharpness_bound(oracle, params, [point], np.linalg.norm)

    def test_missing_f_star_rejected(self):
        oracle = norm_oracle(2.0)
        params = RegularityParams(s=2, L=2, r=2, mu=1)
        with pytest.raises(ValueError):
            check_sharpness_bound(oracle, params, [np.ones(5)], np.linalg.norm)


class TestUpperBound:
    @pytest.mark.parametrize("seed", range(3))
    def test_builtins_satisfy_smoothness_upper_bound(self, seed):
        for instance in (
            make_quadratic(8, 50.0, seed=seed),
            make_norm_power(6, 4.0, 1.0, seed=seed),
            make_sharp_norm(7, seed=seed),
        ):
            points = sample_validation_points(instance, 100, seed=seed)
            assert check_suboptimality_upper_bound(
                instance.oracle, instance.regularity, points, instance.x_star_distance
            ), instance.name


class TestGradients:
    def test_finite_differences_on_differentiable_builtins(self):
        for instance in (
            make_quadratic(6, 20.0, seed=2),
            make_norm_power(6, 4.0, 1.0, seed=2),
            make_norm_power(4, 2.0, 1.0, seed=2),
        ):
            points = sample_validation_points(instance, 10, seed=3)
            err = gradient_finite_difference_error(instance.oracle, points)
            assert err <= 1e-5, instance.name

    def test_finite_differences_away_from_kink(self):
        instance = make_sharp_norm(5, seed=4)
        points = [p for p in sample_validation_points(instance, 30, seed=5)
                  if np.linalg.norm(p) > 0.05]
        assert points
        err = gradient_finite_difference_error(instance.oracle, points)
        assert err <= 1e-5

    def test_smooth_gradient_of_composite_ignores_nonsmooth_part(self):
        rng = np.random.default_rng(6)
        instance = make_lasso(rng.standard_normal((12, 6)), rng.standard_normal(12), lam=0.7)
        points = [rng.standard_normal(6) for _ in range(5)]
        err = gradient_finite_difference_error(instance.oracle, points)
        assert err <= 1e-5

    def test_non_finite_difference_raises_naming_the_point(self):
        oracle = ProximalOracle(
            dimension=2, value=lambda x: math.nan, smooth_gradient=lambda x: np.ones(2)
        )
        with pytest.raises(DivergenceError, match=r"x = \[0\.5, -2\.0\]"):
            gradient_finite_difference_error(oracle, [np.array([0.5, -2.0])])

    def test_dual_svm_at_box_corner_is_checked(self):
        # At the corner, x + e leaves the box, where f = inf; the form's
        # smooth value stays finite there, so the differences are measured
        # (an error of exactly 0 would mean nothing was compared).
        rng = np.random.default_rng(12)
        inst = make_dual_svm(rng.standard_normal((40, 5)), np.sign(rng.standard_normal(40)))
        assert 0.0 < gradient_finite_difference_error(inst.oracle, [np.ones(40)]) <= 1e-5


class TestCompositeDecomposition:
    def test_lasso_value_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((15, 8))
        b = rng.standard_normal(15)
        lam = 1.3
        instance = make_lasso(A, b, lam=lam)
        for _ in range(10):
            x = rng.standard_normal(8)
            direct = 0.5 * np.linalg.norm(A @ x - b) ** 2 + lam * np.abs(x).sum()
            assert instance.oracle.value(x) == pytest.approx(direct, rel=1e-10)
            assert instance.oracle.smooth_value(x) == pytest.approx(
                0.5 * np.linalg.norm(A @ x - b) ** 2, rel=1e-10
            )

    def test_least_squares_value_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((20, 6))
        b = rng.standard_normal(20)
        instance = make_least_squares(A, b)
        for _ in range(10):
            x = rng.standard_normal(6)
            direct = 0.5 * np.linalg.norm(A @ x - b) ** 2
            assert instance.oracle.value(x) == pytest.approx(direct, rel=1e-9)

    def test_soft_threshold_prox_optimality(self):
        # 0 must belong to lam*t*d|u*| + (u* - v): |v - u*| <= lam*t at 0,
        # and u* = v - lam*t*sign(u*) otherwise.
        rng = np.random.default_rng(9)
        instance = make_lasso(np.eye(4), np.zeros(4), lam=0.8)
        for _ in range(25):
            v = rng.standard_normal(4) * 2
            t = rng.uniform(0.05, 3.0)
            u = instance.oracle.prox(v, t)
            thresh = 0.8 * t
            for ui, vi in zip(u, v):
                if ui == 0.0:
                    assert abs(vi) <= thresh + 1e-12
                else:
                    assert ui == pytest.approx(vi - thresh * np.sign(ui), abs=1e-12)

    def test_box_projection_prox_optimality(self):
        rng = np.random.default_rng(10)
        instance = make_dual_svm(rng.standard_normal((6, 3)), np.sign(rng.standard_normal(6)))
        for _ in range(25):
            v = rng.standard_normal(6) * 2
            u = instance.oracle.prox(v, rng.uniform(0.1, 2.0))
            assert np.all(u >= 0.0) and np.all(u <= 1.0)
            # projection optimality: moving toward any box point cannot get closer
            w = rng.uniform(0.0, 1.0, size=6)
            assert np.linalg.norm(u - v) <= np.linalg.norm(w - v) + 1e-12

    def test_dual_svm_smooth_value_outside_the_box(self):
        rng = np.random.default_rng(13)
        A, y = rng.standard_normal((40, 5)), np.sign(rng.standard_normal(40))
        inst = make_dual_svm(A, y)
        K = np.outer(y, y) * (A @ A.T)
        alpha = np.full(40, 1.5)
        assert inst.oracle.value(alpha) == math.inf
        assert inst.oracle.smooth_value(alpha) == pytest.approx(
            0.5 * alpha @ K @ alpha - alpha.sum(), rel=1e-12
        )

    def test_oracle_requires_positive_dimension(self):
        with pytest.raises(ValueError):
            ProximalOracle(dimension=0, value=lambda x: 0.0, smooth_gradient=lambda x: x)


class TestSmoothEval:
    def test_falls_back_to_value_and_gradient_without_fused_field(self):
        rng = np.random.default_rng(11)
        smooth = norm_oracle(3.0)
        lasso = make_lasso(rng.standard_normal((10, 5)), rng.standard_normal(10), lam=0.4)
        # a composite oracle with neither a fused evaluation nor a declared form
        composite = dataclasses.replace(
            lasso.oracle, smooth_value_and_gradient=None, quadratic=None
        )
        for oracle in (smooth, composite):
            assert oracle.smooth_value_and_gradient is None
            for _ in range(5):
                x = rng.standard_normal(5)
                f0, g = oracle.smooth_eval(x)
                assert f0 == oracle.smooth_value(x)
                assert np.array_equal(g, oracle.smooth_gradient(x))

    def test_uses_fused_field_when_given(self):
        calls = []

        def fused(x):
            calls.append(x)
            return 7.0, np.full_like(x, 2.0)

        oracle = ProximalOracle(
            dimension=2, value=lambda x: 0.0, smooth_gradient=lambda x: np.zeros_like(x),
            smooth_value_and_gradient=fused,
        )
        f0, g = oracle.smooth_eval(np.ones(2))
        assert f0 == 7.0 and np.array_equal(g, [2.0, 2.0])
        assert len(calls) == 1


def test_conditioning_identities_from_construction():
    # kappa = L/mu at r = s = 2; q = 2 at s = 2 and 1/2 at s = 1
    cond = derive_conditioning(RegularityParams(s=2, L=8, r=2, mu=2))
    assert cond.kappa == 4.0
    assert DerivedConditioning(kappa=1, tau=0, q=2).s == 2.0
    assert DerivedConditioning(kappa=1, tau=0, q=0.5).s == pytest.approx(1.0)
