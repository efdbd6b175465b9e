"""Time the grid searches of two source trees in alternating pairs.

Usage: python tools/grid_pairs.py SRC_A SRC_B [--pairs 10]

Each timing runs ``adaptive_grid`` at L0 = 1 in process, in a fresh
subprocess with the tree on PYTHONPATH and one BLAS thread; the instance is
built before the clock starts. Three instances are timed, one after
the other:

* ``fig1``: the Figure-1 least squares (208x60, cond 1e4, seed 1), N = 500;
* ``lasso``: the LASSO of the benchmark's ``lasso-csv-grid`` workload, its
  design from ``perfbench/workloads.lasso_design(1)`` (2000x300, imported
  read-only, no bytecode written), N = 100;
* ``dual-svm``: the dual SVM of ``synthetic_classification(400, 40,
  seed=1)`` (a 400x400 kernel), N = 100.

The last two run their cycles in lockstep where the tree declares their
prox row-wise.

Pair k runs A first when k is even and B first when k is odd, so drift in
the machine's load falls on both sides. Prints each timing, then for each
instance each side's median and quartiles, the number of pairs each side
won (the lower time wins), B's median over A's, and a verdict on B's gain
by the benchmark's rule: B wins at least 9 in 10 of the pairs, and A's
median exceeds B's by more than A's interquartile range. Last for each
instance, it runs one more grid per side, untimed and under
``tracemalloc`` (started after the instance is built), and prints its
Python heap peak, which shows what the grid holds at once.
"""

import argparse
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
INSTANCES = {
    "fig1": """
from restartopt import make_least_squares, synthetic_regression
inst = make_least_squares(*synthetic_regression(208, 60, cond=1e4, seed=1))
N = 500
""",
    "lasso": """
from perfbench.workloads import lasso_design
from restartopt import make_lasso
inst = make_lasso(*lasso_design(1))
N = 100
""",
    "dual-svm": """
from restartopt import make_dual_svm, synthetic_classification
inst = make_dual_svm(*synthetic_classification(400, 40, seed=1))
N = 100
""",
}
CHILD = """
import time
import tracemalloc
from restartopt import adaptive_grid
{setup}
if {heap}:
    tracemalloc.start()
start = time.perf_counter()
adaptive_grid(inst.oracle, inst.x0, N, 1.0)
elapsed = time.perf_counter() - start
print(tracemalloc.get_traced_memory()[1] if {heap} else elapsed)
"""


def run_grid(src: str, instance: str, heap: bool = False) -> float:
    """The grid's time in seconds or, with ``heap``, its Python heap peak in bytes."""
    env = {**os.environ, **dict.fromkeys(THREADS, "1"), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([os.path.abspath(src), ROOT])}
    child = CHILD.format(setup=INSTANCES[instance], heap=heap)
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f} s"


def verdict(a: list[float], b: list[float]) -> str:
    """Whether B's gain over A meets the benchmark's rule, and why."""
    q1, median_a, q3 = statistics.quantiles(a, n=4)
    median_b = statistics.median(b)
    wins = sum(tb < ta for ta, tb in zip(a, b))
    won = 10 * wins >= 9 * len(a)
    clear = median_a - median_b > q3 - q1
    reasons = [f"B won {wins} of {len(a)} pairs ({'at least' if won else 'fewer than'} 9 in 10)",
               f"median gain {median_a - median_b:.4f} s "
               f"({'above' if clear else 'not above'} A's interquartile range {q3 - q1:.4f} s)"]
    return ("meets" if won and clear else "does not meet") + " the rule: " + "; ".join(reasons)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    for instance in INSTANCES:
        a, b = [], []
        for k in range(args.pairs):
            if k % 2 == 0:
                a.append(run_grid(args.src_a, instance))
                b.append(run_grid(args.src_b, instance))
            else:
                b.append(run_grid(args.src_b, instance))
                a.append(run_grid(args.src_a, instance))
            print(f"{instance} pair {k + 1}: A {a[-1]:.4f} s, B {b[-1]:.4f} s", flush=True)
        print(f"{instance} A {args.src_a}: {summary(a)}")
        print(f"{instance} B {args.src_b}: {summary(b)}")
        b_wins = sum(tb < ta for ta, tb in zip(a, b))
        a_wins = sum(ta < tb for ta, tb in zip(a, b))
        print(f"{instance} pairs won: A {a_wins}, B {b_wins} of {args.pairs}")
        ratio = statistics.median(b) / statistics.median(a)
        print(f"{instance} B/A medians {ratio:.3f}; B's gain {verdict(a, b)}", flush=True)
        peaks = [run_grid(src, instance, heap=True) / 1e6 for src in (args.src_a, args.src_b)]
        print(f"{instance} Python heap peak of one untimed grid: "
              f"A {peaks[0]:.2f} MB, B {peaks[1]:.2f} MB", flush=True)


if __name__ == "__main__":
    main()
