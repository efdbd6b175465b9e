"""Print one sha256 per output file and per stdout of a fixed set of CLI runs.

Usage: python tools/cli_digests.py SRC

Runs ``python -m restartopt.cli`` with the source tree SRC on PYTHONPATH,
inside ``cli_digests_out/`` under the current directory (emptied first),
at seeds 1 and 2. Every ``--out`` is relative, so no path of the tree
reaches the outputs. Run it once per tree from the same directory and
diff the two listings: equal lines mean byte-identical outputs. Exits 1
after the listing if any run exited non-zero.

The dataset runs read four CSVs and a LibSVM file that the tool writes
from the seed with 17 significant digits. Between them they take every
branch of the target rule that exits 0: many values (a regression CSV)
and one value pass through, as do targets in {-1, +1}; two other
values, {1, 2} and the LibSVM file's {0, 1}, are mapped onto {-1, +1}.
Each runs twice, ``cold/`` then ``warm/``, under one fresh private
``XDG_CACHE_HOME``, so the second run can take its arrays from the
dataset cache the first one filled. Both runs use the same relative
paths. The tool also exits 1 if any of their outputs or stdouts differ.
On a tree that has the cache
(``restartopt/datacache.py``) it exits 1 as well unless each warm run
was a hit: the cold run stored an entry, and the warm run marked that
entry used (its modification time, set back after the cold run, moved)
without writing it again (same inode). On a tree without the cache the
hit check is skipped, with a note on standard error.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

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
# Run from WORKDIR/cold and WORKDIR/warm, beside the files write_datasets makes.
DATASET_RUNS = {
    "grid-dataset-csv": "grid --dataset ../data-s{seed}.csv --loss lasso --N 60 --format json",
    "grid-dataset-libsvm": "grid --dataset ../data-s{seed}.svm --dataset-format libsvm "
                           "--loss logistic --N 40",
    "grid-dataset-pm1": "grid --dataset ../pm1-s{seed}.csv --loss dual-svm --N 40",
    "grid-dataset-two-valued": "grid --dataset ../two-valued-s{seed}.csv --loss lasso --N 60",
    "grid-dataset-one-valued": "grid --dataset ../one-valued-s{seed}.csv --loss lasso --N 40",
}
PHASES = ("cold", "warm")


def write_datasets(seed: int) -> None:
    """From the seed: a dense regression CSV, a sparse two-class LibSVM file, two
    two-class CSVs, one with targets in {-1, +1} and one in {1, 2}, and a CSV whose
    targets are all 3."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((80, 20))
    b = A @ rng.standard_normal(20) + 0.1 * rng.standard_normal(80)
    np.savetxt(os.path.join(WORKDIR, f"data-s{seed}.csv"), np.column_stack([A, b]),
               fmt="%.17g", delimiter=",")
    X = rng.standard_normal((60, 8)) * (rng.uniform(size=(60, 8)) < 0.5)
    labels = (X @ rng.standard_normal(8) + rng.standard_normal(60) > 0).astype(int)
    with open(os.path.join(WORKDIR, f"data-s{seed}.svm"), "w") as fh:
        for label, row in zip(labels, X):
            feats = " ".join(f"{k}:{v:.17g}" for k, v in enumerate(row, start=1) if v != 0.0)
            fh.write(f"{label} {feats}\n")
    for name, low, high in (("pm1", -1.0, 1.0), ("two-valued", 1.0, 2.0),
                            ("one-valued", 3.0, 3.0)):
        X = rng.standard_normal((60, 8))
        y = np.where(X @ rng.standard_normal(8) + rng.standard_normal(60) > 0, high, low)
        np.savetxt(os.path.join(WORKDIR, f"{name}-s{seed}.csv"), np.column_stack([X, y]),
                   fmt="%.17g", delimiter=",")


# The modification time a cold entry is set back to; a hit moves it to the present.
UNUSED_NS = 10**9


def cache_entries(cache: str) -> dict[str, os.stat_result]:
    """The dataset cache's entries under ``XDG_CACHE_HOME=cache``, by name."""
    root = os.path.join(cache, "restartopt")
    names = os.listdir(root) if os.path.isdir(root) else []
    return {name: os.stat(os.path.join(root, name)) for name in names if name.endswith(".npy")}


def all_hit(cold: dict[str, os.stat_result], warm: dict[str, os.stat_result]) -> bool:
    """Whether the warm run read every cold entry: marked it used and did not rewrite it."""
    return bool(cold) and all(
        name in warm and warm[name].st_ino == st.st_ino and warm[name].st_mtime_ns != UNUSED_NS
        for name, st in cold.items())


def run(args: str, seed: int, out: str, cwd: str, env: dict) -> tuple[str, int]:
    """Run one CLI command; return its stdout's sha256 and its exit code."""
    cmd = [sys.executable, "-m", "restartopt.cli", *args.split(), "--seed", str(seed),
           "--out", out]
    res = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True)
    return hashlib.sha256(res.stdout).hexdigest(), res.returncode


def main(src: str) -> None:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    for phase in PHASES:
        os.makedirs(os.path.join(WORKDIR, phase))
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    has_cache = os.path.exists(os.path.join(src, "restartopt", "datacache.py"))
    if not has_cache:
        print("no dataset cache in this tree: warm runs are not checked for hits",
              file=sys.stderr)
    by_phase: dict[str, dict[str, str]] = {phase: {} for phase in PHASES}
    failed = misses = 0
    for seed in (1, 2):
        for name, args in RUNS.items():
            out = f"{name}-s{seed}"  # a file for run, a directory for compare and grid
            digest, rc = run(args, seed, out, WORKDIR, env)
            print(f"{digest}  {out}.stdout (exit {rc})")
            failed += rc != 0
        write_datasets(seed)
        for name, args in DATASET_RUNS.items():
            out = f"{name}-s{seed}"
            with tempfile.TemporaryDirectory() as cache:
                for phase in PHASES:
                    if phase == "warm":
                        stored = cache_entries(cache)
                        for entry in stored:
                            os.utime(os.path.join(cache, "restartopt", entry), ns=(0, UNUSED_NS))
                    digest, rc = run(args.format(seed=seed), seed, out,
                                     os.path.join(WORKDIR, phase),
                                     {**env, "XDG_CACHE_HOME": cache})
                    by_phase[phase][f"{out}.stdout"] = digest
                    print(f"{digest}  {phase}/{out}.stdout (exit {rc})")
                    failed += rc != 0
                if has_cache and not all_hit(stored, cache_entries(cache)):
                    print(f"{out}: the warm run did not take the cold run's cache entry",
                          file=sys.stderr)
                    misses += 1
    for root, _, files in sorted(os.walk(WORKDIR)):
        for path in sorted(os.path.join(root, fname) for fname in files):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            name = os.path.relpath(path, WORKDIR)
            print(f"{digest}  {name}")
            phase, _, rest = name.partition(os.sep)
            if phase in by_phase:
                by_phase[phase][rest] = digest
    cold, warm = by_phase.values()
    differ = sorted(k for k in cold.keys() | warm.keys() if cold.get(k) != warm.get(k))
    if differ:
        sys.exit(f"cold and warm dataset runs differ in {len(differ)} files and stdouts, "
                 f"first {', '.join(differ[:3])}")
    if failed or misses:
        sys.exit(f"{failed} run(s) exited non-zero, {misses} warm run(s) missed the cache")

if __name__ == "__main__":
    main(sys.argv[1])
