"""Print one sha256 per grid-search outcome and per scheduled run of a fixed matrix.

Usage: python tools/solver_digests.py SRC

Imports ``restartopt`` from the source tree SRC and, for every oracle below,
every starting estimate L0 in {1e-100, 1, 1e100} and every budget N in
{4, 33, 100}, prints one line for ``adaptive_grid``, one line for each
of its schemes run alone as ``restart_scheduled(..., cap=2N)``, and one
line for each single run of N steps: ``gradient_descent``, and
``universal_fast_gradient`` at epsilon 0 and 1e-3:

* smooth forms: least squares (40x10, cond 100), a generated quadratic
  (``make_quadratic``, dimension 12, cond 100), and the least squares again
  with its Q wrapped in an object that has only ``__matmul__``, so that
  every product goes through ``Q @ v`` and not through ``np.matmul``;
* composite forms: LASSO (the l1 prox), dual SVM (the box prox), and the
  LASSO's form with a prox that returns its argument and with one that
  returns a copy of it;
* generic: logistic, and the LASSO with ``quadratic=None``;
* failing forms, whose runs raise at different steps: the indefinite form
  diag(1, 0.5, -1) from (1, 1, 1e-3) alone (its steps run off along the
  negative curvature), with a declared row-wise soft-threshold that returns
  inf past 1e3 (its estimate overflows), and with one that raises past
  1e3; and the generated quadratic with its Q wrapped in an object that
  refuses the product of a vector shorter than 1e-6.

It does the same for the Figure-1 least squares (208x60, cond 1e4, seed 1)
at L0 = 1 and N = 500, where up to 80 grid cycles run at once.

Every run is given the instance's ``f_star`` (its optimum where known,
else ``None``). A line digests the trace's values, cycles, oracle
counters, backtracks, largest and final estimates, notes, final point,
f(x0) and ``f_star`` (for the grid, every run's digest, the best index and
the total), or the error's type and message. Run it once per tree and diff
the two listings: equal lines mean bitwise-equal runs, and on the failing
forms equal errors.

A grid on an oracle whose prox is declared row-wise (``prox_rowwise``: the
LASSO and the dual SVM) runs its cycles in lockstep on matrix products that
round differently from the scheduled runs' own. For each such grid the
tool also prints, per run, the largest relative difference
|f_grid - f_run| / max(1, |f_run|) of its values against its own
``restart_scheduled(..., cap=2N)``, which must be at most ``TOLERANCE``
with equal cycles (so equal accepted steps and restart marks), and it
checks that a grid that raises raises what the first failing run raises.

Exits 1 after the listing if any run raised an error other than
``DivergenceError``, ``ConfigError``, ``DatasetFormatError`` or the
failing forms' own ``Refused``, or if a lockstep grid's run is off its
scheduled run.
"""

import dataclasses
import hashlib
import os
import sys

import numpy as np

# The largest relative value difference |f - f_run| / max(1, |f_run|) a
# lockstep composite grid's run may have against its own scheduled run,
# about 4,500 ulps; the largest measured over this matrix is 3.5e-13.
TOLERANCE = 1e-12


class MatmulOnly:
    """A matrix that supports ``Q @ v`` and nothing else."""

    def __init__(self, Q):
        self._Q = Q

    def __matmul__(self, v):
        return self._Q @ v


class Refused(Exception):
    """The error the failing forms' own Q and prox raise."""


class ShortVectorsRefused(MatmulOnly):
    """A ``MatmulOnly`` matrix that refuses the product of a vector shorter than 1e-6."""

    def __matmul__(self, v):
        norm = float(np.linalg.norm(v))
        if norm < 1e-6:
            raise Refused(f"norm {norm!r} below 1e-6")
        return self._Q @ v


def failing_forms(ro) -> dict:
    """The failing forms of the matrix, by name."""
    lam = 1e-3
    indefinite = ro.QuadraticForm(np.diag([1.0, 0.5, -1.0]), np.zeros(3))

    def l1(x):
        return lam * float(np.abs(x).sum())

    def capped(v, t):
        return np.where(np.abs(v) > 1e3, np.inf, ro.soft_threshold(v, lam * t))

    def raising(v, t):
        size = float(np.abs(v).max())
        if size > 1e3:
            raise Refused(f"prox input of size {size:g}")
        return ro.soft_threshold(v, lam * t)

    x0 = np.array([1.0, 1.0, 1e-3])
    quadratic = ro.make_quadratic(12, 100.0, seed=5)
    refusing = ro.QuadraticForm(ShortVectorsRefused(quadratic.oracle.quadratic.Q), np.zeros(12))
    return {
        "indefinite": ro.ProblemInstance(
            "indefinite", ro.ProximalOracle.from_quadratic(indefinite), x0),
        "indefinite-capped-prox": ro.ProblemInstance(
            "indefinite-capped-prox",
            ro.ProximalOracle.from_quadratic(indefinite, capped, l1, prox_rowwise=True), x0),
        "indefinite-raising-prox": ro.ProblemInstance(
            "indefinite-raising-prox",
            ro.ProximalOracle.from_quadratic(indefinite, raising, l1, prox_rowwise=True), x0),
        "quadratic-short-vectors-refused": ro.ProblemInstance(
            "quadratic-short-vectors-refused", ro.ProximalOracle.from_quadratic(refusing),
            quadratic.x0),
    }


def hexed(v):
    return None if v is None else v.hex()


def trace_key(trace) -> str:
    floats = [v.hex() for v in trace.values]
    return repr((
        floats, trace.cycles, trace.n_value, trace.n_grad, trace.n_prox,
        trace.backtracks, trace.max_L_hat.hex(), trace.final_L_hat.hex(),
        trace.notes, trace.final_point.tobytes().hex(), hexed(trace.f_initial),
        hexed(trace.f_star),
    ))


def main(src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import restartopt as ro
    from restartopt.cli import ConfigError

    typed = (ro.DivergenceError, ConfigError, ro.DatasetFormatError, Refused)
    lasso = ro.make_lasso(*ro.synthetic_regression(40, 10, cond=100.0, seed=2))
    least_squares = ro.make_least_squares(*ro.synthetic_regression(40, 10, cond=100.0, seed=1))
    form = least_squares.oracle.quadratic
    instances = {
        "least-squares": least_squares,
        "least-squares-matmul-only": dataclasses.replace(
            least_squares, oracle=ro.ProximalOracle.from_quadratic(
                ro.QuadraticForm(MatmulOnly(form.Q), form.h, form.c))),
        "quadratic": ro.make_quadratic(12, 100.0, seed=5),
        "lasso": lasso,
        "dual-svm": ro.make_dual_svm(*ro.synthetic_classification(40, 6, cond=100.0, seed=3)),
        "logistic": ro.make_logistic(*ro.synthetic_classification(40, 6, cond=10.0, seed=4)),
        "lasso-generic": dataclasses.replace(
            lasso, oracle=dataclasses.replace(lasso.oracle, quadratic=None)),
        # a prox that returns its argument hands back a solver's work buffer
        "lasso-form-identity-prox": dataclasses.replace(
            lasso, oracle=ro.ProximalOracle.from_quadratic(lasso.oracle.quadratic,
                                                           lambda v, t: v)),
        "lasso-form-copying-prox": dataclasses.replace(
            lasso, oracle=ro.ProximalOracle.from_quadratic(lasso.oracle.quadratic,
                                                           lambda v, t: v.copy())),
        **failing_forms(ro),
    }
    untyped = off = 0

    def line(label: str, run) -> None:
        nonlocal untyped
        try:
            key = run()
        except Exception as exc:  # every failure is listed; untyped ones fail the tool
            key = f"{type(exc).__name__}: {exc}"
            untyped += not isinstance(exc, typed)
        print(f"{hashlib.sha256(key.encode()).hexdigest()}  {label}", flush=True)

    cases = [(name, inst, L0, N) for name, inst in instances.items()
             for L0 in (1e-100, 1.0, 1e100) for N in (4, 33, 100)]
    figure_1 = ro.make_least_squares(*ro.synthetic_regression(208, 60, cond=1e4, seed=1))
    cases.append(("figure-1", figure_1, 1.0, 500))
    for name, inst, L0, N in cases:
        tag = f"{name} L0={L0:g} N={N}"

        def grid():
            out = ro.adaptive_grid(inst.oracle, inst.x0, N, L0, f_star=inst.f_star)
            runs = [(ij, trace_key(tr)) for ij, tr in sorted(out.runs.items())]
            return repr((runs, out.best, out.total_inner_iterations))

        line(f"{tag} grid", grid)
        if inst.oracle.prox_rowwise and inst.oracle.quadratic is not None:
            off += tolerance(ro, tag, inst, L0, N)
        line(f"{tag} gradient descent", lambda: trace_key(ro.gradient_descent(
            inst.oracle, inst.x0, L0, N, f_star=inst.f_star)))
        for eps in (0.0, 1e-3):
            line(f"{tag} ufgm eps={eps:g}", lambda: trace_key(ro.universal_fast_gradient(
                inst.oracle, inst.x0, eps, L0, N, f_star=inst.f_star)[1]))
        i_max, j_max = N.bit_length() - 1, (N - 1).bit_length()
        for i in range(1, i_max + 1):
            for j in range(0, j_max + 1):
                line(f"{tag} run ({i}, {j})", lambda: trace_key(ro.restart_scheduled(
                    inst.oracle, inst.x0, ro.grid_schedule(i, j), N, L0, f_star=inst.f_star,
                    cap=2 * N)))
    if untyped or off:
        sys.exit(f"{untyped} run(s) failed with an untyped error; "
                 f"{off} lockstep grid run(s) off their scheduled runs")


def tolerance(ro, tag: str, inst, L0: float, N: int) -> int:
    """Print each grid run's largest relative value difference; count those off."""
    def scheduled(i, j):
        return ro.restart_scheduled(inst.oracle, inst.x0, ro.grid_schedule(i, j), N, L0,
                                    f_star=inst.f_star, cap=2 * N)

    try:
        runs = ro.adaptive_grid(inst.oracle, inst.x0, N, L0, f_star=inst.f_star).runs
    except Exception as exc:
        # the grid must raise what its first failing run raises alone
        i_max, j_max = N.bit_length() - 1, (N - 1).bit_length()
        for ij in [(i, j) for i in range(1, i_max + 1) for j in range(j_max + 1)]:
            try:
                scheduled(*ij)
            except Exception as first:
                same = type(first) is type(exc) and str(first) == str(exc)
                print(f"{tag} tolerance: raises {type(exc).__name__} as run {ij}: {same}")
                return not same
        print(f"{tag} tolerance: raises {type(exc).__name__}, no run does")
        return 1
    off = 0
    for ij, trace in sorted(runs.items()):
        ref = scheduled(*ij)
        worst = max((abs(f - g) / max(1.0, abs(g)) for f, g in zip(trace.values, ref.values)),
                    default=0.0)
        ok = trace.cycles == ref.cycles and worst <= TOLERANCE
        off += not ok
        print(f"{tag} tolerance run {ij}: {worst:.1e} {'ok' if ok else 'OFF'}")
    return off


if __name__ == "__main__":
    main(sys.argv[1])
