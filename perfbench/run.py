"""restartopt benchmark: time CLI invocations, check their outputs, print metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig1-compare --seed 1 --seconds 30 --trace 0

The harness builds the workload's inputs from the seed, then runs the CLI
one invocation at a time (a closed loop with one client), each in its own
child process, until ``--seconds`` have passed and at least three have
run. Every invocation's outputs are checked and hashed; an invocation
that exits non-zero, writes a malformed or wrong file, or hashes
differently from the first one counts as failed.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
invocations). With ``--trace 1`` untraced and traced invocations
alternate, and the metrics are the per-layer figures of the traced ones
plus the tracing overhead. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the environment and the output
digest. The full record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from tracer import PER_LAYER_UNITS
from workloads import WORKLOADS, CheckError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 120

# Pinned in every child so that BLAS threading cannot drift between runs.
# One thread per process: the machine has two cores and runs one
# invocation at a time, and single-threaded BLAS keeps timings steady.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "inner_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Invocation:
    traced: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    record: dict = field(default_factory=dict)
    digest: str = ""
    iterations: int = 0
    error: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def tree_digest(path: str) -> str:
    """sha256 over the relative names and bytes of every file under ``path``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spawn(cmd: list[str], env: dict, log: str) -> tuple[int, float, float]:
    """Run ``cmd`` to completion; return (exit code, wall seconds, peak RSS MB).

    ``os.wait4`` reaps the child and gives its own resource usage, so the
    peak RSS is this child's alone.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.send_signal, (signal.SIGKILL,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def invoke(case, work: str, traced: bool, env: dict) -> Invocation:
    """One CLI invocation in a fresh child process, checked and hashed."""
    inv = Invocation(traced=traced)
    out_dir = os.path.join(work, "cli_out")
    record_path = os.path.join(work, "record.json")
    log = os.path.join(work, "child.log")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path,
           "1" if traced else "0", "--", *case.argv, "--out", out_dir]
    rc, inv.wall_s, inv.rss_mb = spawn(cmd, env, log)
    inv.error = evaluate(inv, case, rc, out_dir, record_path, log)
    return inv


def evaluate(inv: Invocation, case, rc: int, out_dir: str, record_path: str,
             log: str) -> str | None:
    """Check one invocation's outputs; return why it failed, or None."""
    if rc != 0:
        with open(log, errors="replace") as fh:
            tail = fh.read()[-2000:]
        return f"exit code {rc}: {tail}"
    try:
        with open(record_path) as fh:
            inv.record = json.load(fh)
        if len(inv.record["setup_s"]) != 1:
            return f"expected one problem build, saw {len(inv.record['setup_s'])}"
        inv.iterations = case.check(out_dir) + sum(inv.record["grid_inner_iters"])
        inv.digest = tree_digest(out_dir)
    except CheckError as exc:
        return f"check failed: {exc}"
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable record or outputs: {exc!r}"
    if inv.traced and inv.record["layers"]["solvers.accepted"] != inv.iterations:
        return "traced solver steps disagree with the outputs"
    return None


def tally(invocations: list[Invocation]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons); a digest unlike the first one fails."""
    reasons = []
    first = next((inv.digest for inv in invocations if inv.error is None), None)
    for i, inv in enumerate(invocations):
        if inv.error is None and inv.digest != first:
            inv.error = f"output digest {inv.digest} differs from {first}"
        if inv.error is not None:
            reasons.append(f"invocation {i}: {inv.error}")
    return len(invocations), len(reasons), reasons


def summarize(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def end_to_end(invocations: list[Invocation]) -> dict[str, list[float]]:
    ok = [inv for inv in invocations if inv.error is None and not inv.traced]
    return {
        "wall_s": [inv.wall_s for inv in ok],
        "setup_s": [inv.record["setup_s"][0] for inv in ok],
        "inner_iters_per_s": [
            inv.iterations / (inv.wall_s - inv.record["setup_s"][0]) for inv in ok],
        "peak_rss_mb": [inv.rss_mb for inv in ok],
    }


def per_layer(invocations: list[Invocation]) -> dict[str, list[float]]:
    traced = [inv for inv in invocations if inv.error is None and inv.traced]
    plain = [inv.wall_s for inv in invocations if inv.error is None and not inv.traced]
    samples = {name: [inv.record["layers"][name] for inv in traced]
               for name in (traced[0].record["layers"] if traced else ())}
    if traced and plain:
        overhead = statistics.median(inv.wall_s for inv in traced) / statistics.median(plain)
        samples["trace_overhead_frac"] = [overhead - 1.0]
    return samples


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "src_sha256": tree_digest(os.path.join(SRC, "restartopt")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env()
    t0 = time.perf_counter()
    case = WORKLOADS[workload](seed, work)
    prepare_s = time.perf_counter() - t0
    # Compile the package's bytecode and fault in numpy before timing.
    subprocess.run([sys.executable, "-c", "import restartopt.cli"], env=env, cwd=ROOT,
                   check=True, timeout=INVOCATION_TIMEOUT_S)

    invocations: list[Invocation] = []
    start = time.perf_counter()
    while (len(invocations) < (2 * MIN_INVOCATIONS if trace else MIN_INVOCATIONS)
           or time.perf_counter() - start < seconds):
        traced = trace and len(invocations) % 2 == 1
        invocations.append(invoke(case, work, traced, env))
    attempted, failed, reasons = tally(invocations)

    samples = per_layer(invocations) if trace else end_to_end(invocations)
    digests = sorted({inv.digest for inv in invocations if inv.digest})
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "prepare_s": prepare_s,
        "expected": case.expected,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "output_digests": digests,
        "metrics": {name: summarize(v) for name, v in samples.items() if v},
        "samples": samples,
    }
    last_traced = next((inv for inv in reversed(invocations)
                        if inv.traced and inv.error is None), None)
    if last_traced is not None:
        result["spans"] = last_traced.record["spans"]
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "restartopt", "cli.py")):
        print(f"error: no restartopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": result["metrics"][name]["median"], "unit": unit}
               for name, unit in units.items() if name in result["metrics"]}
    print(json.dumps({"environment": result["environment"],
                      "output_digests": result["output_digests"],
                      "failures": result["failures"][:5]}))
    print(json.dumps({
        "correct": result["failed"] == 0 and len(metrics) == len(units),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
