"""Built-in problem construction, regularity declarations, dataset parsing."""

import itertools
import math

import numpy as np
import pytest

from restartopt import (
    DatasetFormatError,
    DivergenceError,
    ProximalOracle,
    check_sharpness_bound,
    check_suboptimality_upper_bound,
    derive_conditioning,
    load_dataset,
    make_dual_svm,
    make_lasso,
    make_least_squares,
    make_logistic,
    make_norm_power,
    make_quadratic,
    make_sharp_norm,
    reference_solve,
    sample_validation_points,
    synthetic_classification,
    synthetic_regression,
)
from conftest import reference_optimum


class TestQuadratic:
    def test_one_dimensional_unit_condition(self):
        inst = make_quadratic(1, 1.0, seed=0)
        assert inst.oracle.value(np.array([2.0])) == pytest.approx(2.0)  # x^2/2 at 2
        assert inst.regularity.L == 1.0
        assert inst.regularity.mu == 0.5
        assert inst.f_star == 0.0

    def test_spectrum_ratio_matches_target(self):
        inst = make_quadratic(50, 100.0, seed=1)
        # recover the spectrum independently from oracle gradients
        A = np.column_stack(
            [inst.oracle.smooth_gradient(e) for e in np.eye(50)]
        )
        eig = np.linalg.eigvalsh(A)
        assert eig[-1] / eig[0] == pytest.approx(100.0, abs=1e-10)
        assert inst.regularity.L == pytest.approx(eig[-1], rel=1e-12)
        assert inst.regularity.mu == pytest.approx(eig[0] / 2.0, rel=1e-12)

    def test_sharpness_holds_with_declared_mu(self):
        inst = make_quadratic(20, 30.0, seed=2)
        points = sample_validation_points(inst, 100, seed=3)
        assert check_sharpness_bound(
            inst.oracle, inst.regularity, points, inst.x_star_distance
        )

    def test_reproducible(self):
        a = make_quadratic(7, 12.0, seed=4)
        b = make_quadratic(7, 12.0, seed=4)
        assert np.array_equal(a.x0, b.x0)
        probe = np.linspace(-1, 1, 7)
        assert a.oracle.value(probe) == b.oracle.value(probe)
        assert np.array_equal(a.oracle.smooth_gradient(probe), b.oracle.smooth_gradient(probe))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_quadratic(0, 10.0)
        with pytest.raises(ValueError):
            make_quadratic(5, 0.5)


class TestNormPower:
    def test_square_norm_constants(self):
        inst = make_norm_power(4, 2.0, 1.0, seed=5)
        assert inst.regularity.L == 2.0
        cond = derive_conditioning(inst.regularity)
        assert cond.kappa == 2.0
        assert cond.tau == 0.0

    def test_quartic_constants(self):
        inst = make_norm_power(10, 4.0, 1.0, seed=6)
        assert inst.regularity.L == 12.0
        assert derive_conditioning(inst.regularity).tau == 0.5

    def test_holder_condition_on_sampled_pairs(self):
        inst = make_norm_power(6, 4.0, 1.0, seed=7)
        L = inst.regularity.L
        rng = np.random.default_rng(8)
        for _ in range(1000):
            x = rng.standard_normal(6)
            x *= rng.uniform() ** (1 / 6) / np.linalg.norm(x)
            y = rng.standard_normal(6)
            y *= rng.uniform() ** (1 / 6) / np.linalg.norm(y)
            gx = inst.oracle.smooth_gradient(x)
            gy = inst.oracle.smooth_gradient(y)
            assert np.linalg.norm(gx - gy) <= L * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_requires_power_at_least_two(self):
        with pytest.raises(ValueError):
            make_norm_power(3, 1.5)


class TestSharpNorm:
    def test_subgradient_norm_bounded_and_zero_at_kink(self):
        inst = make_sharp_norm(5, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(50):
            g = inst.oracle.smooth_gradient(rng.standard_normal(5))
            assert np.linalg.norm(g) <= 1.0 + 1e-12
        assert np.array_equal(inst.oracle.smooth_gradient(np.zeros(5)), np.zeros(5))

    def test_sharpness_is_equality(self):
        inst = make_sharp_norm(5, seed=11)
        points = sample_validation_points(inst, 50, seed=12)
        assert check_sharpness_bound(inst.oracle, inst.regularity, points, inst.x_star_distance)
        assert check_suboptimality_upper_bound(
            inst.oracle, inst.regularity, points, inst.x_star_distance
        )


class TestLeastSquares:
    def test_identity_design(self):
        inst = make_least_squares(np.eye(4), np.zeros(4))
        assert inst.f_star == 0.0
        assert inst.regularity.L == pytest.approx(1.0)
        assert inst.regularity.mu == pytest.approx(0.5)

    def test_full_rank_matches_normal_equations(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((208, 60))
        b = rng.standard_normal(208)
        inst = make_least_squares(A, b)
        x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
        f_direct = 0.5 * np.linalg.norm(A @ x_star - b) ** 2
        assert inst.f_star == pytest.approx(f_direct, abs=1e-10 * max(1, f_direct))
        assert inst.regularity is not None

    def test_rank_deficient_drops_regularity(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal((30, 4))
        A = np.hstack([base, base[:, :2]])  # duplicated columns
        b = rng.standard_normal(30)
        inst = make_least_squares(A, b)
        assert inst.regularity is None
        x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert inst.f_star == pytest.approx(
            0.5 * np.linalg.norm(A @ x_star - b) ** 2, rel=1e-9
        )

    def test_sharpness_of_full_rank_instance(self):
        A, b = synthetic_regression(60, 12, cond=50.0, seed=15)
        inst = make_least_squares(A, b)
        points = [inst.x0 + p for p in sample_validation_points(inst, 100, seed=16)]
        assert check_sharpness_bound(inst.oracle, inst.regularity, points, inst.x_star_distance)
        assert check_suboptimality_upper_bound(
            inst.oracle, inst.regularity, points, inst.x_star_distance
        )


class TestLogistic:
    def test_zero_features_constant_loss(self):
        A = np.zeros((9, 3))
        y = np.array([1.0, -1.0] * 4 + [1.0])
        inst = make_logistic(A, y)
        for x in (np.zeros(3), np.ones(3), np.full(3, -2.0)):
            assert inst.oracle.value(x) == pytest.approx(9 * math.log(2), rel=1e-12)

    def test_separable_two_points_flagged(self):
        A = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        inst = make_logistic(A, y)
        assert any("separable" in note for note in inst.notes)

    def test_non_separable_reference_reachable(self):
        A, y = synthetic_classification(40, 8, cond=10.0, seed=17, flip=0.25)
        inst = make_logistic(A, y)
        assert not inst.notes
        f_star, tol = reference_optimum("logistic_40x8_seed17", inst)
        assert f_star < inst.oracle.value(inst.x0)
        x, f, _ = reference_solve(inst.oracle, inst.x0, max_iters=20000, grad_map_tol=1e-10)
        assert f == pytest.approx(f_star, abs=1e-6)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_quadratic(40, 1e3, seed=18),
        lambda: make_least_squares(*synthetic_regression(208, 60, cond=1e4, seed=19)),
        lambda: make_logistic(*synthetic_classification(208, 60, cond=100.0, seed=20)),
        lambda: make_lasso(*synthetic_regression(208, 60, cond=1e4, seed=19), lam=0.5),
        lambda: make_dual_svm(*synthetic_classification(60, 8, cond=100.0, seed=20)),
    ],
    ids=["quadratic", "least_squares", "logistic", "lasso", "dual_svm"],
)
def test_fused_evaluation_is_bitwise_equal_to_separate_calls(make):
    inst = make()
    oracle = inst.oracle
    assert oracle.smooth_value_and_gradient is not None
    rng = np.random.default_rng(21)
    points = [inst.x0] + [3.0 * rng.standard_normal(inst.dimension) for _ in range(50)]
    for x in points:
        f0, g = oracle.smooth_value_and_gradient(x)
        assert isinstance(f0, float)
        assert f0 == oracle.smooth_value(x)
        assert np.array_equal(g, oracle.smooth_gradient(x))


class TestLasso:
    def test_small_targets_threshold_to_zero(self):
        b = np.array([0.5, -0.8, 0.3])
        inst = make_lasso(np.eye(3), b, lam=1.0)
        x, f, _ = reference_solve(inst.oracle, inst.x0, grad_map_tol=1e-13)
        assert np.allclose(x, 0.0, atol=1e-12)
        assert f == pytest.approx(0.5 * float(b @ b), rel=1e-12)

    def test_one_dimensional_hand_solution(self):
        inst = make_lasso(np.array([[1.0]]), np.array([2.0]), lam=1.0)
        x, f, _ = reference_solve(inst.oracle, inst.x0, grad_map_tol=1e-13)
        assert x[0] == pytest.approx(1.0, abs=1e-10)
        assert f == pytest.approx(1.5, abs=1e-10)

    def test_random_instance_reference_is_stable(self):
        rng = np.random.default_rng(18)
        A = rng.standard_normal((25, 10))
        b = rng.standard_normal(25) * 3
        inst = make_lasso(A, b, lam=1.0)
        f_star, tol = reference_optimum("lasso_25x10_seed18", inst)
        x, f, _ = reference_solve(inst.oracle, rng.standard_normal(10), grad_map_tol=1e-12)
        assert f == pytest.approx(f_star, abs=max(tol, 1e-9))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_lasso(np.eye(2), np.zeros(2), lam=0.0)


def solve_box_qp_by_enumeration(K, box=(0.0, 1.0)):
    """Minimize a^T K a / 2 - sum(a) over a box by active-set enumeration.

    Exhaustive over which coordinates sit at which bound; free coordinates
    solve the reduced linear system. Only usable for tiny dimensions.
    """
    m = K.shape[0]
    lo, hi = box
    best_val, best_a = math.inf, None
    for pattern in itertools.product(("lo", "hi", "free"), repeat=m):
        a = np.empty(m)
        free = [i for i, p in enumerate(pattern) if p == "free"]
        for i, p in enumerate(pattern):
            a[i] = lo if p == "lo" else hi if p == "hi" else 0.0
        if free:
            fixed = [i for i in range(m) if i not in free]
            rhs = np.ones(len(free)) - K[np.ix_(free, fixed)] @ a[fixed]
            try:
                a[free] = np.linalg.solve(K[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(a[free] < lo - 1e-12) or np.any(a[free] > hi + 1e-12):
                continue
        val = 0.5 * a @ K @ a - a.sum()
        if val < best_val:
            best_val, best_a = val, a.copy()
    return best_a, best_val


class TestDualSvm:
    def test_two_point_closed_form(self):
        A = np.array([[2.0], [-0.5]])
        y = np.array([1.0, -1.0])
        inst = make_dual_svm(A, y, regularization=1.0)
        K = np.outer(y, y) * (A @ A.T)
        a_star, f_star = solve_box_qp_by_enumeration(K)
        x, f, _ = reference_solve(inst.oracle, inst.x0, grad_map_tol=1e-13)
        assert f == pytest.approx(f_star, abs=1e-10)
        assert np.allclose(x, a_star, atol=1e-8)

    def test_zero_features_solution_at_box_corner(self):
        inst = make_dual_svm(np.zeros((5, 2)), np.array([1.0, -1, 1, -1, 1]))
        x, f, _ = reference_solve(inst.oracle, inst.x0, grad_map_tol=1e-13)
        assert np.allclose(x, 1.0, atol=1e-12)
        assert f == pytest.approx(-5.0, rel=1e-12)

    def test_random_small_instance_vs_enumeration(self):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((4, 2))
        y = np.sign(rng.standard_normal(4))
        inst = make_dual_svm(A, y, regularization=1.0)
        K = np.outer(y, y) * (A @ A.T)
        _, f_star = solve_box_qp_by_enumeration(K)
        x, f, _ = reference_solve(inst.oracle, inst.x0, grad_map_tol=1e-13)
        assert f == pytest.approx(f_star, abs=1e-9)

    def test_iterates_stay_in_box(self):
        rng = np.random.default_rng(20)
        inst = make_dual_svm(rng.standard_normal((8, 3)), np.sign(rng.standard_normal(8)))
        from restartopt import universal_fast_gradient

        y_out, trace = universal_fast_gradient(inst.oracle, inst.x0, 1e-4, 1.0, 200)
        assert np.all(y_out >= 0.0) and np.all(y_out <= 1.0)
        assert all(math.isfinite(e.f_value) for e in trace.entries)


class TestReferenceSolve:
    def test_nan_objective_signals_divergence(self):
        oracle = ProximalOracle(
            dimension=1, value=lambda x: math.nan, smooth_gradient=lambda x: np.ones(1)
        )
        with pytest.raises(DivergenceError):
            reference_solve(oracle, np.array([1.0]), max_iters=50)

    def test_nan_gradient_signals_divergence(self):
        oracle = ProximalOracle(
            dimension=1,
            value=lambda x: float(x[0] ** 2),
            smooth_gradient=lambda x: np.full(1, math.nan),
        )
        with pytest.raises(DivergenceError):
            reference_solve(oracle, np.array([1.0]), max_iters=50)


class TestLoadDataset:
    def test_csv_two_lines(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1,2,1\n3,4,-1\n")
        X, y = load_dataset(str(path), fmt="csv")
        assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(y, [1.0, -1.0])

    def test_csv_maps_binary_labels(self, tmp_path):
        path = tmp_path / "zeroone.csv"
        path.write_text("1,0\n2,1\n3,0\n")
        _, y = load_dataset(str(path), fmt="csv")
        assert np.array_equal(y, [-1.0, 1.0, -1.0])

    def test_csv_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,1\n3,oops,-1\n")
        with pytest.raises(DatasetFormatError, match=r"bad\.csv:2"):
            load_dataset(str(path), fmt="csv")

    def test_csv_inconsistent_width(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,1\n3,4,5,-1\n")
        with pytest.raises(DatasetFormatError, match="expected 3 columns"):
            load_dataset(str(path), fmt="csv")

    def test_libsvm_sparse_row(self, tmp_path):
        path = tmp_path / "row.svm"
        path.write_text("1 1:0.5 3:2\n")
        X, y = load_dataset(str(path), fmt="libsvm", dimension=3)
        assert np.array_equal(X, [[0.5, 0.0, 2.0]])
        assert np.array_equal(y, [1.0])

    def test_libsvm_infers_dimension(self, tmp_path):
        path = tmp_path / "rows.svm"
        path.write_text("1 1:1\n-1 4:2\n")
        X, y = load_dataset(str(path), fmt="libsvm")
        assert X.shape == (2, 4)
        assert X[1, 3] == 2.0

    def test_libsvm_rejects_nonincreasing_indices(self, tmp_path):
        path = tmp_path / "dup.svm"
        path.write_text("1 2:1 2:3\n")
        with pytest.raises(DatasetFormatError, match="strictly increasing"):
            load_dataset(str(path), fmt="libsvm")

    def test_sonar_shaped_file(self, tmp_path):
        rng = np.random.default_rng(21)
        rows = []
        for i in range(208):
            feats = rng.uniform(size=60)
            label = 1.0 if i % 2 == 0 else -1.0
            rows.append(",".join(format(v, ".6f") for v in feats) + f",{label}")
        path = tmp_path / "sonar_like.csv"
        path.write_text("\n".join(rows) + "\n")
        X, y = load_dataset(str(path), fmt="csv")
        assert X.shape == (208, 60)
        assert set(np.unique(y)) == {-1.0, 1.0}

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n")
        with pytest.raises(ValueError):
            load_dataset(str(path), fmt="parquet")


class TestSyntheticDesigns:
    def test_regression_conditioning(self):
        A, b = synthetic_regression(208, 60, cond=100.0, seed=22)
        assert A.shape == (208, 60) and b.shape == (208,)
        eig = np.linalg.eigvalsh(A.T @ A)
        assert eig[-1] / eig[0] == pytest.approx(100.0, rel=1e-8)

    def test_classification_labels(self):
        A, y = synthetic_classification(100, 10, seed=23, flip=0.2)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_reproducible(self):
        A1, b1 = synthetic_regression(30, 5, seed=24)
        A2, b2 = synthetic_regression(30, 5, seed=24)
        assert np.array_equal(A1, A2) and np.array_equal(b1, b2)
