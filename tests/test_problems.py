"""Built-in problem construction, regularity declarations, dataset parsing."""

import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import restartopt
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
    soft_threshold,
    synthetic_classification,
    synthetic_regression,
)
from restartopt.problems import (
    _aligned,
    _dataset_targets,
    _map_labels,
    _parse_csv_lines,
    _read_csv_fast,
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

    @pytest.mark.parametrize("n", [1, 7, 50, 301])
    def test_matrix_is_exactly_symmetric(self, n):
        Q = make_quadratic(n, 1e4, seed=5).oracle.quadratic.Q
        assert np.array_equal(Q, Q.T)

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

    def test_overflow_is_inf_not_an_exception(self):
        oracle = make_norm_power(3, 1e6, 1.0).oracle
        far = np.full(3, 2.0)
        assert oracle.value(far) == math.inf
        assert not np.isfinite(oracle.smooth_gradient(far)).any()

    def test_overflowing_smoothness_constant_rejected(self):
        with pytest.raises(ValueError, match="radius=2"):
            make_norm_power(3, 1e6, 2.0)


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


def test_design_without_columns_is_rejected():
    A, labels = np.zeros((3, 0)), np.array([1.0, -1.0, 1.0])
    for make in (make_least_squares, make_logistic):
        with pytest.raises(ValueError, match="empty design: the 3x0 matrix has no columns"):
            make(A, labels)


@pytest.mark.parametrize("rows, cols", [(208, 0), (5, 10), (0, 0)])
def test_synthetic_design_needs_rows_at_least_cols(rows, cols):
    for make in (synthetic_regression, synthetic_classification):
        with pytest.raises(ValueError, match=f"rows={rows}, cols={cols}"):
            make(rows, cols)


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


# Every kind of double, with the edge cases drawn often.
EDGE_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan])


def assert_equal_but_for_sign_of_zero(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    same = ((new.view(np.uint64) == old.view(np.uint64))
            | ((new == 0.0) & (old == 0.0)) | (np.isnan(new) & np.isnan(old)))
    assert same.all(), (new[~same], old[~same])


class TestBuiltInProxes:
    """The proxes against the formulas they replaced: equal but for the sign of zero."""

    @given(st.lists(EDGE_FLOATS, min_size=1, max_size=20),
           st.floats(min_value=0.0, allow_nan=False, allow_subnormal=True) | st.sampled_from(
               [0.0, 5e-324, math.inf]))
    @settings(max_examples=300)
    def test_soft_threshold(self, values, threshold):
        v = np.array(values)
        with np.errstate(invalid="ignore"):
            old = np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)
            assert_equal_but_for_sign_of_zero(soft_threshold(v, threshold), old)

    @given(st.lists(EDGE_FLOATS, min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_dual_svm_box(self, values):
        v = np.array(values)
        prox = make_dual_svm(np.eye(len(v)), np.ones(len(v))).oracle.prox
        assert_equal_but_for_sign_of_zero(prox(v, 1.0), np.clip(v, 0.0, 1.0))

    def test_zeros_come_out_positive(self):
        v = np.array([-0.0, -0.25, 0.25, 0.0])
        assert np.signbit(soft_threshold(v, 0.5)).sum() == 0
        box = make_dual_svm(np.eye(4), np.ones(4)).oracle.prox
        assert np.signbit(box(v, 1.0)).sum() == 0


@pytest.mark.parametrize("make", [
    lambda A: make_least_squares(A, np.ones(len(A))),
    lambda A: make_lasso(A, np.ones(len(A))),
    lambda A: make_dual_svm(A, np.sign(A[:, 0])),
], ids=["least_squares", "lasso", "dual_svm"])
def test_gram_matrices_are_cache_line_aligned(make):
    rng = np.random.default_rng(21)
    A = rng.standard_normal((90, 60))
    Q = make(A).oracle.quadratic.Q
    assert Q.ctypes.data % 64 == 0 and Q.flags.c_contiguous


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (300, 300)])
def test_aligned_copy_is_exact(shape):
    M = np.random.default_rng(22).standard_normal(shape)
    out = _aligned(M)
    assert out.ctypes.data % 64 == 0 and out.shape == shape and out.tobytes() == M.tobytes()


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


# The label rules as they were when they called np.unique on every load.
def unique_dataset_targets(y):
    values = np.unique(y)
    if values.size == 2 and not set(values.tolist()) <= {-1.0, 1.0}:
        return np.where(y == values[0], -1.0, 1.0)
    return y


def unique_map_labels(y):
    values = np.unique(y)
    if set(values.tolist()) <= {-1.0, 1.0}:
        return y.astype(float)
    if values.size != 2:
        raise ValueError(f"classification labels must take exactly two values, got {values}")
    return np.where(y == values[0], -1.0, 1.0)


def assert_bitwise_equal(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes(), (new, old)


LABELS = [-1.0, 1.0, 0.0, -0.0, 2.0, 0.5, 1e300, math.nan, math.inf]
# A few distinct labels first, so one, two and three or more values all come up often.
LABEL_VECTORS = st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique_by=repr).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
).map(lambda labels: np.array(labels, dtype=float))


class TestLabelRule:
    """The min/max label check gives what np.unique gave, bit for bit."""

    @settings(max_examples=400)
    @given(LABEL_VECTORS)
    def test_dataset_targets_match_the_unique_rule(self, y):
        new, old = _dataset_targets(y), unique_dataset_targets(y)
        assert_bitwise_equal(new, old)
        assert (new is y) == (old is y)  # both map, or both pass y through

    @settings(max_examples=400)
    @given(LABEL_VECTORS)
    def test_map_labels_match_the_unique_rule(self, y):
        try:
            old = unique_map_labels(y)
        except ValueError as exc:
            with pytest.raises(ValueError) as new_exc:
                _map_labels(y)
            assert str(new_exc.value) == str(exc)
        else:
            assert_bitwise_equal(_map_labels(y), old)

    @pytest.mark.parametrize("labels, text", [
        ([2.0, 2.0], "got [2.]"),
        ([math.nan], "got [nan]"),
        ([0.0, 1.0, 2.0, 1.0], "got [0. 1. 2.]"),
        ([-0.0, 1.0, 0.5], "got [-0.   0.5  1. ]"),
        ([1.0, -1.0, math.inf], "got [-1.  1. inf]"),
    ])
    def test_map_labels_error_names_the_distinct_values(self, labels, text):
        with pytest.raises(ValueError) as exc:
            _map_labels(np.array(labels))
        assert str(exc.value) == f"classification labels must take exactly two values, {text}"


IMPORT_GUARD = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(77)
from restartopt import cli, load_dataset, make_dual_svm, make_logistic, synthetic_classification
zero_one_csv, zero_one_svm, regression_csv, out = sys.argv[1:]
load_dataset(zero_one_csv)
load_dataset(zero_one_svm, fmt="libsvm")
A, y = synthetic_classification(30, 4, seed=0)
make_logistic(A, y)
make_logistic(A, (y > 0).astype(float))
make_dual_svm(A, y)
for path in (regression_csv, zero_one_csv):  # a cache miss, then a hit
    assert cli.main(["grid", "--dataset", path, "--loss", "lasso", "--N", "10",
                     "--out", out]) == 0
sys.exit("numpy.ma" in sys.modules)
"""


def test_loads_and_label_maps_do_not_import_numpy_ma(tmp_path):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 4))
    zero_one_csv, regression_csv = tmp_path / "zero_one.csv", tmp_path / "regression.csv"
    np.savetxt(zero_one_csv, np.column_stack([A, A[:, 0] > 0]), fmt="%.17g", delimiter=",")
    np.savetxt(regression_csv, np.column_stack([A, A @ [1.0, 2.0, 0.0, -1.0]]), fmt="%.17g",
               delimiter=",")
    zero_one_svm = tmp_path / "zero_one.svm"
    zero_one_svm.write_text("0 1:1 2:3\n1 1:2\n0 2:1 3:0.5\n1 3:2\n")
    src = os.path.dirname(os.path.dirname(restartopt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(zero_one_csv), str(zero_one_svm),
         str(regression_csv), str(tmp_path / "grid")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    if proc.returncode == 77:
        pytest.skip(f"a bare `import numpy` loads numpy.ma in numpy {np.__version__}")
    assert proc.returncode == 0, proc.stderr


# Files numpy's C reader accepts: its array must equal the line parser's
# bit for bit.
CSV_FAST_CASES = {
    "plain": "1,2,3\n4,5,6\n",
    "no_final_newline": "1,2,3\n4,5,6",
    "crlf": "1,2,3\r\n4,5,6\r\n",
    "cr": "1,2,3\r4,5,6\r",
    "blank_lines": "\n\n1,2,3\n\n4,5,6\n\n",
    "leading_whitespace_line": "  \n1,2,3\n",
    "whitespace_around_fields": " 1 , 2,3 \n\t4,\t5 ,6\n",
    "signed_zeros": "-0,0,-0.0\n+0,-0e5,1\n",
    "subnormals": "5e-324,2.2250738585072014e-308,4.9406564584124654e-324\n"
                  "1e-320,-1e-310,1\n",
    "long_digits": "0.1000000000000000055511151231257827021181583404541015625,"
                   "1.00000000000000011102230246251565404236316680908203125,"
                   "1.7976931348623157e308\n",
    "halfway": "9007199254740993,1.0000000000000001110223024625156540423631668090820312501,"
               "0.3\n",
    "exponent_forms": "1E5,1e+5,1.e5\n.5,5.,-.5e-3\n",
    "round_trip": "\n".join(
        ",".join(format(v, ".17g") for v in row)
        for row in np.random.default_rng(5).standard_normal((20, 7)) * 1e3
    ),
}

# Files numpy's reader rejects but the line parser accepts.
CSV_FALLBACK_CASES = {
    "whitespace_only_line": ("1,2,3\n   \n4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
    "underscore": ("1_000,2,3\n", [[1000, 2, 3]]),
    "non_ascii_digit": ("\u0661,2,3\n", [[1, 2, 3]]),
}


def write_exact(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return str(path)


class TestCsvFastPath:
    @pytest.mark.parametrize("name", sorted(CSV_FAST_CASES))
    def test_fast_path_is_bitwise_equal_to_line_parser(self, tmp_path, name):
        path = write_exact(tmp_path / f"{name}.csv", CSV_FAST_CASES[name])
        with open(path, "rb") as fh:
            fast = _read_csv_fast(path, fh)
            reference = _parse_csv_lines(path, fh)
        assert fast is not None
        assert fast.shape == reference.shape
        assert fast.tobytes() == reference.tobytes()
        X, _ = load_dataset(path, fmt="csv")
        assert X.tobytes() == reference[:, :-1].tobytes()

    @pytest.mark.parametrize("name", sorted(CSV_FALLBACK_CASES))
    def test_numpy_rejects_load_through_line_parser(self, tmp_path, name):
        text, expected = CSV_FALLBACK_CASES[name]
        path = write_exact(tmp_path / f"{name}.csv", text)
        with open(path, "rb") as fh:
            assert _read_csv_fast(path, fh) is None
            assert np.array_equal(_parse_csv_lines(path, fh), expected)
        X, _ = load_dataset(path, fmt="csv")
        assert np.array_equal(X, np.asarray(expected)[:, :-1])

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("single_column", "1\n2\n", r"single_column\.csv:1: need at least one feature"),
            ("empty", "", r"empty\.csv: empty dataset"),
            ("blank_only", "\n\n\r\n", r"blank_only\.csv: empty dataset"),
            ("whitespace_only", "  \n\t\n", r"whitespace_only\.csv: empty dataset"),
        ],
    )
    def test_rejected_shapes_keep_their_messages_without_warnings(
        self, tmp_path, name, text, message
    ):
        path = write_exact(tmp_path / f"{name}.csv", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DatasetFormatError, match=message):
                load_dataset(path, fmt="csv")
        assert caught == []


class TestNonFiniteDataset:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("column", ["feature", "target"])
    def test_csv_names_the_line(self, tmp_path, value, column):
        bad = f"1,{value},2" if column == "feature" else f"1,2,{value}"
        path = write_exact(tmp_path / "nonfinite.csv", f"1,2,3\n\n{bad}\n4,5,6\n")
        with pytest.raises(DatasetFormatError, match=r"nonfinite\.csv:3: non-finite"):
            load_dataset(path, fmt="csv")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["feature", "target"])
    def test_libsvm_names_the_line(self, tmp_path, value, column):
        bad = f"1 1:{value} 2:1" if column == "feature" else f"{value} 1:1 2:1"
        path = write_exact(tmp_path / "nonfinite.svm", f"1 1:1\n-1 2:1\n{bad}\n")
        with pytest.raises(DatasetFormatError, match=r"nonfinite\.svm:3: non-finite"):
            load_dataset(path, fmt="libsvm")


class TestSyntheticDesigns:
    def test_regression_conditioning(self):
        A, b = synthetic_regression(208, 60, cond=100.0, seed=22)
        assert A.shape == (208, 60) and b.shape == (208,)
        eig = np.linalg.eigvalsh(A.T @ A)
        assert eig[-1] / eig[0] == pytest.approx(100.0, rel=1e-8)

    def test_classification_labels(self):
        A, y = synthetic_classification(100, 10, seed=23, flip=0.2)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("cond", [-1.0, 0.0, 0.5, math.nan])
    def test_regression_rejects_cond_below_one(self, cond):
        with pytest.raises(ValueError, match=r"needs cond >= 1, got cond="):
            synthetic_regression(20, 5, cond=cond)

    def test_unit_cond_is_orthogonal_columns(self):
        A, _ = synthetic_regression(20, 5, cond=1.0, seed=25)
        assert np.allclose(A.T @ A, np.eye(5))

    @pytest.mark.parametrize("flip", [-0.1, 1.5, 2.0, math.nan])
    def test_classification_rejects_flip_outside_unit_interval(self, flip):
        with pytest.raises(ValueError, match=r"need flip in \[0, 1\], got flip="):
            synthetic_classification(20, 5, flip=flip)

    @pytest.mark.parametrize("flip", [0.0, 1.0])
    def test_classification_flip_bounds(self, flip):
        # flip = 1 flips every planted label, flip = 0 none
        A, y = synthetic_classification(40, 5, seed=26, flip=flip)
        A0, y0 = synthetic_classification(40, 5, seed=26, flip=0.0)
        assert np.array_equal(A, A0)
        assert np.array_equal(y, y0 if flip == 0.0 else -y0)

    def test_reproducible(self):
        A1, b1 = synthetic_regression(30, 5, seed=24)
        A2, b2 = synthetic_regression(30, 5, seed=24)
        assert np.array_equal(A1, A2) and np.array_equal(b1, b2)


class TestNonUtf8Dataset:
    # the bad byte sits after more than one read buffer of valid lines, so
    # only a per-line check can name its line
    PREFIX_LINES = 3000

    @pytest.mark.parametrize(
        "bad, byte", [(b"7,\xe9,9", "e9"), (b"7,8,9\xe9", "e9"), (b"7,8,9 \xff", "ff"),
                      (b"\xe9", "e9")]
    )
    def test_csv_names_the_line(self, tmp_path, bad, byte):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"1,2,3\n" * self.PREFIX_LINES + bad + b"\n4,5,6\n")
        line = self.PREFIX_LINES + 1
        with pytest.raises(
            DatasetFormatError, match=rf"latin\.csv:{line}: byte 0x{byte} is not UTF-8"
        ):
            load_dataset(str(path), fmt="csv")

    @pytest.mark.parametrize(
        "bad, byte", [(b"-1 1:\xe9", "e9"), (b"\xe9 1:1", "e9"), (b"1 1:2 \xff", "ff")]
    )
    def test_libsvm_names_the_line(self, tmp_path, bad, byte):
        path = tmp_path / "latin.svm"
        path.write_bytes(b"1 1:2\n" * self.PREFIX_LINES + bad + b"\n")
        line = self.PREFIX_LINES + 1
        with pytest.raises(
            DatasetFormatError, match=rf"latin\.svm:{line}: byte 0x{byte} is not UTF-8"
        ):
            load_dataset(str(path), fmt="libsvm")
