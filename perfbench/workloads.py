"""The benchmark's workloads: generated inputs, CLI arguments, output checks.

Each workload turns a seed into one CLI command line and an output check.
The check reads every file the CLI wrote, raises ``CheckError`` on the
first problem, and returns the accepted inner iterations the outputs
report outside grid searches (grid totals come from the child record,
because ``compare`` reports only the winning grid run).

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md beside this file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

CSV_TRACE_HEADER = "iter,f,gap,restart,eps_target"
CSV_COMPARE_HEADER = "method,final_f,final_gap,restarts,oracle_calls,accepted,error"

# Relative distance allowed between the grid's best LASSO value and the
# reference optimum. The reference stops at a gradient-mapping norm of
# 1e-6; the design is 1-strongly convex (lambda_min(A^T A) = 1), so its
# own suboptimality is at most (1e-6)^2 / 2. Smaller tolerances stall on
# the rounding floor of the Gram-form objective. On seeds 0-5 the best
# grid value sat within 4e-14 (relative) of the reference.
LASSO_REF_GRAD_MAP_TOL = 1e-6
LASSO_REL_TOL = 1e-9


class CheckError(Exception):
    """An output file is missing, malformed, or wrong."""


@dataclass
class TraceFile:
    accepted: int
    final_f: float
    final_gap: float | None
    restarts: int


@dataclass
class Case:
    """One workload at one seed: what to run and how to judge its outputs."""

    argv: list[str]
    check: Callable[[str], int]
    # Untimed figures the check compares against, kept for the results file.
    expected: dict


def _number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckError(f"{where}: non-finite value {text!r}")
    return value


def read_csv_trace(path: str) -> TraceFile:
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0] != CSV_TRACE_HEADER or lines[-1] != "":
        raise CheckError(f"{path}: bad header or truncated file")
    last, restarts, f, gap = 0, 0, math.nan, None
    for lineno, line in enumerate(lines[1:-1], start=2):
        parts = line.split(",")
        where = f"{path}:{lineno}"
        if len(parts) != 5:
            raise CheckError(f"{where}: expected 5 fields, got {len(parts)}")
        it = int(_number(parts[0], where))
        if it != last + 1:
            raise CheckError(f"{where}: iteration {it} after {last}")
        f = _number(parts[1], where)
        gap = _number(parts[2], where) if parts[2] else None
        if parts[3] not in ("0", "1"):
            raise CheckError(f"{where}: restart flag {parts[3]!r}")
        restarts += parts[3] == "1"
        last = it
    if last == 0:
        raise CheckError(f"{path}: no iterations")
    return TraceFile(last, f, gap, restarts)


def read_json_trace(path: str) -> TraceFile:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        meta, entries = doc["metadata"], doc["entries"]
        iters = [e["iter"] for e in entries]
        markers = sum(1 for e in entries if e["restart"] is True)
        final_f = float(entries[-1]["f"])
        accepted, restarts = int(meta["accepted"]), int(meta["restarts"])
        meta_f = float(meta["final_f"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckError(f"{path}: unreadable trace: {exc!r}") from None
    if iters != list(range(1, len(iters) + 1)) or accepted != len(iters):
        raise CheckError(f"{path}: iterations do not run 1..{accepted}")
    if markers != restarts or final_f != meta_f or not math.isfinite(final_f):
        raise CheckError(f"{path}: metadata disagrees with entries")
    return TraceFile(accepted, final_f, None, restarts)


def _expect_files(out_dir: str, names: set[str]) -> None:
    present = set(os.listdir(out_dir))
    if present != names:
        raise CheckError(
            f"{out_dir}: missing {sorted(names - present)}, "
            f"unexpected {sorted(present - names)}")


def read_compare(out_dir: str, methods: list[str]) -> dict[str, tuple[dict, TraceFile]]:
    """Summary rows and parsed traces of a CSV ``compare`` run, by method."""
    _expect_files(out_dir, {"summary.csv"} | {f"trace_{m}.csv" for m in methods})
    path = os.path.join(out_dir, "summary.csv")
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0] != CSV_COMPARE_HEADER or lines[-1] != "" or len(lines) != len(methods) + 2:
        raise CheckError(f"{path}: bad header, row count or truncated file")
    result = {}
    for method, line in zip(methods, lines[1:-1]):
        parts = line.split(",")
        if len(parts) != 7 or parts[0] != method or parts[6]:
            raise CheckError(f"{path}: bad row for {method}: {line!r}")
        row = {
            "final_f": _number(parts[1], path),
            "final_gap": _number(parts[2], path),
            "restarts": int(_number(parts[3], path)),
            "accepted": int(_number(parts[5], path)),
        }
        trace = read_csv_trace(os.path.join(out_dir, f"trace_{method}.csv"))
        if (trace.accepted, trace.final_f, trace.final_gap, trace.restarts) != (
                row["accepted"], row["final_f"], row["final_gap"], row["restarts"]):
            raise CheckError(f"{path}: {method} row disagrees with its trace")
        result[method] = (row, trace)
    return result


def _check_budget(name: str, accepted: int, low: int, high: int) -> None:
    if not low <= accepted <= high:
        raise CheckError(f"{name}: {accepted} accepted iterations, want [{low}, {high}]")


# ---------------------------------------------------------------------------
# fig1-compare


FIG1_N = 500
FIG1_METHODS = ["grad", "acc", "mono", "grid"]


def fig1_compare(seed: int, work: str) -> Case:
    argv = ["compare", "--problem", "least-squares", "--rows", "208", "--cols", "60",
            "--cond", "10000", "--methods", ",".join(FIG1_METHODS),
            "--N", str(FIG1_N), "--seed", str(seed)]

    def check(out_dir: str) -> int:
        runs = read_compare(out_dir, FIG1_METHODS)
        for m in ("grad", "acc", "mono"):
            _check_budget(m, runs[m][0]["accepted"], FIG1_N, FIG1_N)
        _check_budget("grid", runs["grid"][0]["accepted"], FIG1_N, 2 * FIG1_N)
        gap = {m: runs[m][0]["final_gap"] for m in FIG1_METHODS}
        if not gap["grid"] <= gap["mono"] <= gap["acc"]:
            raise CheckError(f"gaps out of order (want grid <= mono <= acc): {gap}")
        if runs["grid"][1].restarts < 1:
            raise CheckError("the best grid run carries no restart marker")
        return sum(runs[m][0]["accepted"] for m in ("grad", "acc", "mono"))

    return Case(argv, check, {})


# ---------------------------------------------------------------------------
# quad-1500


QUAD_DIM = 1500
QUAD_KAPPA = 1e4
QUAD_N = 200
QUAD_METHODS = ["restart", "criterion"]


def quad_1500(seed: int, work: str) -> Case:
    from restartopt import bound_smooth, derive_conditioning, make_quadratic

    argv = ["compare", "--problem", "quadratic", "--dim", str(QUAD_DIM),
            "--kappa", f"{QUAD_KAPPA:g}", "--methods", ",".join(QUAD_METHODS),
            "--N", str(QUAD_N), "--seed", str(seed)]
    instance = make_quadratic(QUAD_DIM, QUAD_KAPPA, seed=seed)
    cond = derive_conditioning(instance.regularity)
    envelope = bound_smooth(cond, instance.gap0(), 4.0, QUAD_N)

    def check(out_dir: str) -> int:
        runs = read_compare(out_dir, QUAD_METHODS)
        for m in QUAD_METHODS:
            _check_budget(m, runs[m][0]["accepted"], 1, QUAD_N)
        _check_budget("restart", runs["restart"][0]["accepted"], QUAD_N, QUAD_N)
        gap = runs["restart"][0]["final_gap"]
        if not gap <= envelope:
            raise CheckError(f"restart gap {gap!r} above the envelope {envelope!r}")
        return sum(runs[m][0]["accepted"] for m in QUAD_METHODS)

    return Case(argv, check, {"bound_smooth_at_N": envelope})


# ---------------------------------------------------------------------------
# lasso-csv-grid


LASSO_ROWS = 2000
LASSO_COLS = 300
LASSO_N = 100


def lasso_design(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Regression data with cond(A^T A) = 100 and a sparse planted vector."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((LASSO_ROWS, LASSO_COLS)))
    v, _ = np.linalg.qr(rng.standard_normal((LASSO_COLS, LASSO_COLS)))
    A = (u * np.geomspace(1.0, 10.0, LASSO_COLS)) @ v.T
    x_true = rng.standard_normal(LASSO_COLS) * (rng.uniform(size=LASSO_COLS) < 0.2)
    b = A @ x_true + 0.1 * rng.standard_normal(LASSO_ROWS)
    return A, b


def lasso_csv_grid(seed: int, work: str) -> Case:
    from restartopt import make_lasso, reference_solve

    A, b = lasso_design(seed)
    dataset = os.path.join(work, "lasso.csv")
    # 17 significant digits round-trip every double, so the CLI reads back
    # exactly the arrays the reference below is computed on.
    np.savetxt(dataset, np.column_stack([A, b]), fmt="%.17g", delimiter=",")
    instance = make_lasso(A, b)
    _, f_ref, _ = reference_solve(instance.oracle, instance.x0, max_iters=20000,
                                  grad_map_tol=LASSO_REF_GRAD_MAP_TOL)
    argv = ["grid", "--dataset", dataset, "--loss", "lasso", "--format", "json",
            "--N", str(LASSO_N)]

    def check(out_dir: str) -> int:
        path = os.path.join(out_dir, "summary.json")
        try:
            with open(path) as fh:
                doc = json.load(fh)
            rows, best = doc["rows"], doc["best"]
            total = int(doc["total_inner_iterations"])
            names = {f"trace_i{r['i']}_j{r['j']}.json" for r in rows}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"{path}: unreadable summary: {exc!r}") from None
        _expect_files(out_dir, names | {"summary.json"})
        best_rows = [r for r in rows if r["best"]]
        if len(best_rows) != 1 or [best_rows[0]["i"], best_rows[0]["j"]] != best:
            raise CheckError(f"{path}: best is not exactly one row")
        for r in rows:
            name = f"trace_i{r['i']}_j{r['j']}.json"
            trace = read_json_trace(os.path.join(out_dir, name))
            if (trace.accepted, trace.final_f) != (r["accepted"], r["final_f"]):
                raise CheckError(f"{path}: row for {name} disagrees with its trace")
            _check_budget(name, trace.accepted, LASSO_N, 2 * LASSO_N)
        if total != sum(r["accepted"] for r in rows):
            raise CheckError(f"{path}: total_inner_iterations is not the row sum")
        f_best = best_rows[0]["final_f"]
        if min(r["final_f"] for r in rows) != f_best:
            raise CheckError(f"{path}: the best row is not the lowest value")
        if abs(f_best - f_ref) > LASSO_REL_TOL * max(1.0, abs(f_ref)):
            raise CheckError(f"best value {f_best!r} is not within "
                             f"{LASSO_REL_TOL:g} of the reference {f_ref!r}")
        return 0

    return Case(argv, check, {"reference_f": f_ref})


WORKLOADS: dict[str, Callable[[int, str], Case]] = {
    "fig1-compare": fig1_compare,
    "quad-1500": quad_1500,
    "lasso-csv-grid": lasso_csv_grid,
}
