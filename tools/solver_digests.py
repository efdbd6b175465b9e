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
* generic: logistic, and the LASSO with ``quadratic=None``.

It does the same for the Figure-1 least squares (208x60, cond 1e4, seed 1)
at L0 = 1 and N = 500, where up to 80 grid cycles run at once.

Every run is given the instance's ``f_star`` (its optimum where known,
else ``None``). A line digests the trace's values, cycles, oracle
counters, backtracks, largest and final estimates, notes, final point,
f(x0) and ``f_star`` (for the grid, every run's digest, the best index and
the total), or the error's type and message. Run it once per tree and diff
the two listings: equal lines mean bitwise-equal runs. Exits 1 after the
listing if any run raised an error other than ``DivergenceError``,
``ConfigError`` or ``DatasetFormatError``.
"""

import dataclasses
import hashlib
import os
import sys


class MatmulOnly:
    """A matrix that supports ``Q @ v`` and nothing else."""

    def __init__(self, Q):
        self._Q = Q

    def __matmul__(self, v):
        return self._Q @ v


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

    typed = (ro.DivergenceError, ConfigError, ro.DatasetFormatError)
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
    }
    untyped = 0

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
    if untyped:
        sys.exit(f"{untyped} run(s) failed with an untyped error")


if __name__ == "__main__":
    main(sys.argv[1])
