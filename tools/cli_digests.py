"""Print one sha256 per output file and per stdout of a fixed set of CLI runs.

Usage: python tools/cli_digests.py SRC

Runs ``python -m restartopt.cli`` with the source tree SRC on PYTHONPATH,
inside ``cli_digests_out/`` under the current directory (emptied first),
at seeds 1 and 2. Every ``--out`` is relative, so no path of the tree
reaches the outputs. Run it once per tree from the same directory and
diff the two listings: equal lines mean byte-identical outputs. Exits 1
after the listing if any run exited non-zero.
"""

import hashlib
import os
import shutil
import subprocess
import sys

WORKDIR = "cli_digests_out"
LS = "--problem least-squares --rows 60 --cols 20 --cond 100"
QUAD = "--problem quadratic --dim 8 --kappa 50"
RUNS = {
    "compare": f"compare {LS} --N 120 --methods grad,acc,mono,restart,h-restart,criterion,grid",
    "compare-lasso": "compare --problem lasso --rows 80 --cols 20 --N 60 "
                     "--methods grad,acc,mono,restart --C 4 --alpha 0.2",
    "grid-csv": "grid --problem lasso --rows 80 --cols 20 --N 60",
    "grid-dual-svm": "grid --problem dual-svm --rows 60 --cols 8 --N 60",
    "grid-logistic": "grid --problem logistic --rows 60 --cols 8 --N 40",
    "grid-json": f"grid {QUAD} --N 77 --format json",
    "restart-explicit": f"run {QUAD} --method restart --C 3 --alpha 0.3 --N 60",
    "restart-derived": f"run {LS} --method restart --N 90 --format json",
    "h-restart-explicit": f"run {QUAD} --method h-restart --C 4 --alpha 0.2 --gamma 0.5 --N 60",
    "h-restart-derived": "run --problem norm-power --power 4 --dim 5 --method h-restart --N 70",
}


def main(src: str) -> None:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    failed = 0
    for seed in (1, 2):
        for name, args in RUNS.items():
            out = f"{name}-s{seed}"  # a file for run, a directory for compare and grid
            cmd = [sys.executable, "-m", "restartopt.cli", *args.split(),
                   "--seed", str(seed), "--out", out]
            res = subprocess.run(cmd, cwd=WORKDIR, env=env, capture_output=True)
            print(f"{hashlib.sha256(res.stdout).hexdigest()}  {out}.stdout (exit {res.returncode})")
            failed += res.returncode != 0
    for root, _, files in sorted(os.walk(WORKDIR)):
        for path in sorted(os.path.join(root, fname) for fname in files):
            with open(path, "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {os.path.relpath(path, WORKDIR)}")
    if failed:
        sys.exit(f"{failed} run(s) exited non-zero")


if __name__ == "__main__":
    main(sys.argv[1])
