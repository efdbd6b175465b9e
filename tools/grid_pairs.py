"""Time the Figure-1 grid search of two source trees in alternating pairs.

Usage: python tools/grid_pairs.py SRC_A SRC_B [--pairs 10]

Each timing runs ``adaptive_grid`` in process on the Figure-1 instance
(least squares 208x60, cond 1e4, seed 1, N = 500, L0 = 1) in a fresh
subprocess with the tree on PYTHONPATH and one BLAS thread; the instance is
built before the clock starts. Pair k runs A first when k is even and B
first when k is odd, so drift in the machine's load falls on both sides.
Prints each timing, then each side's median and quartiles and the number of
pairs each side won (the lower time wins).
"""

import argparse
import os
import statistics
import subprocess
import sys

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD = """
import time
from restartopt import adaptive_grid, make_least_squares, synthetic_regression
inst = make_least_squares(*synthetic_regression(208, 60, cond=1e4, seed=1))
start = time.perf_counter()
adaptive_grid(inst.oracle, inst.x0, 500, 1.0)
print(time.perf_counter() - start)
"""


def time_once(src: str) -> float:
    env = {**os.environ, **dict.fromkeys(THREADS, "1"), "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f} s"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    a, b = [], []
    for k in range(args.pairs):
        if k % 2 == 0:
            a.append(time_once(args.src_a))
            b.append(time_once(args.src_b))
        else:
            b.append(time_once(args.src_b))
            a.append(time_once(args.src_a))
        print(f"pair {k + 1}: A {a[-1]:.4f} s, B {b[-1]:.4f} s", flush=True)
    print(f"A {args.src_a}: {summary(a)}")
    print(f"B {args.src_b}: {summary(b)}")
    b_wins = sum(tb < ta for ta, tb in zip(a, b))
    a_wins = sum(ta < tb for ta, tb in zip(a, b))
    print(f"pairs won: A {a_wins}, B {b_wins} of {args.pairs}")


if __name__ == "__main__":
    main()
