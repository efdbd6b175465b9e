"""Benchmark command line: run, compare, and grid-search restart schemes.

Subcommands::

    restartopt run      one method on one problem, emitting a trace file
    restartopt compare  several methods at equal budget, with a summary table
    restartopt grid     the full schedule grid search, one trace per scheme

Configuration comes from flags or a plain ``key=value`` file given with
``--config``. File lines are parsed as the flags ``--key=value``, with
the flags' types and choices, and a key that names no flag is an error;
explicit flags override file values. Flags and keys must be spelled
out: a prefix of a flag (``--kap`` for ``--kappa``) is rejected, not
expanded. Traces are written atomically as CSV (header
``iter,f,gap,restart,eps_target``, floats with 17 significant digits) or
JSON (same fields per entry plus a metadata block). Identical configs
and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from . import bounds
from .core import DerivedConditioning, DivergenceError, derive_conditioning
from .problems import (
    DatasetFormatError,
    ProblemInstance,
    _check_utf8,
    load_dataset,
    make_dual_svm,
    make_lasso,
    make_least_squares,
    make_logistic,
    make_norm_power,
    make_quadratic,
    make_sharp_norm,
    synthetic_classification,
    synthetic_regression,
)
from .restarts import (
    GridOutcome,
    Schedule,
    adaptive_grid,
    criterion_restart,
    grid_schedule,
    h_restart,
    monotone_restart,
    optimal_schedule_holder,
    optimal_schedule_smooth,
    restart_scheduled,
)
from .solvers import Trace, accelerated, gradient_descent

METHODS = ("grad", "acc", "mono", "restart", "h-restart", "criterion", "grid")
PROBLEMS = (
    "quadratic",
    "norm-power",
    "sharp-norm",
    "least-squares",
    "logistic",
    "lasso",
    "dual-svm",
)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


_TRACE_COLUMNS = ("iter", "f", "gap", "restart", "eps_target")


def _csv_cell(column: str, val: object) -> str:
    if not isinstance(val, str):
        return _fmt(val)  # a number, a boolean (1 or 0) or None (empty)
    return f'"{val}"' if column == "error" else val


def _write_doc(path: str, fmt: str, doc: dict, rows: list[dict],
               columns: Sequence[str]) -> None:
    """Write one output file: ``doc`` as JSON, or ``rows`` over ``columns`` as CSV.

    A CSV cell is empty where a row lacks the column; the error text is quoted.
    """
    if fmt == "json":
        text = json.dumps(doc, indent=1)
    else:
        lines = [",".join(columns)]
        lines += [",".join([_csv_cell(col, row.get(col)) for col in columns]) for row in rows]
        text = "\n".join(lines)
    _atomic_write(path, text + "\n")


def write_trace(trace: Trace, path: str, fmt: str, config: dict) -> None:
    """Write one row per ``trace.entries`` entry; JSON adds the run's metadata."""
    rows = [dict(zip(_TRACE_COLUMNS, entry)) for entry in trace.entries]
    metadata = {
        "config": config,
        "accepted": trace.accepted,
        "final_f": trace.final_f,
        "final_gap": trace.final_gap,
        "final_L_hat": trace.final_L_hat,
        "oracle_calls": {"value": trace.n_value, "grad": trace.n_grad, "prox": trace.n_prox},
        "backtracks": trace.backtracks,
        "restarts": trace.restart_count,
        "notes": list(trace.notes),
    }
    _write_doc(path, fmt, {"metadata": metadata, "entries": rows}, rows, _TRACE_COLUMNS)


def build_instance(cfg: dict) -> ProblemInstance:
    """Construct the problem named by the config (dataset- or generator-backed)."""
    dataset = cfg.get("dataset")
    if dataset is not None:
        loss = cfg.get("loss") or "least-squares"
        if not os.path.exists(dataset):
            raise ConfigError(f"dataset file not found: {dataset}")
        try:
            X, y = load_dataset(dataset, fmt=cfg.get("dataset_format", "csv"))
        except DatasetFormatError as exc:
            raise ConfigError(str(exc)) from None
        return _apply_loss(loss, X, y, cfg)

    name = cfg.get("problem")
    if name is None:
        raise ConfigError("either --problem or --dataset is required")
    seed = cfg.get("seed", 0)
    dim = cfg.get("dim", 10)
    rows, cols, cond = cfg.get("rows", 208), cfg.get("cols", 60), cfg.get("cond", 100.0)
    if name == "quadratic":
        return make_quadratic(dim, cfg.get("kappa", 100.0), seed=seed)
    if name == "norm-power":
        return make_norm_power(dim, cfg.get("power", 4.0), cfg.get("radius", 1.0), seed=seed)
    if name == "sharp-norm":
        return make_sharp_norm(dim, seed=seed)
    if name in ("least-squares", "lasso"):
        A, b = synthetic_regression(
            rows, cols, cond=cond, seed=seed, noise=cfg.get("noise", 0.1)
        )
        return _apply_loss(name, A, b, cfg)
    if name in ("logistic", "dual-svm"):
        A, y = synthetic_classification(
            rows, cols, cond=cond, seed=seed, flip=cfg.get("flip", 0.1)
        )
        return _apply_loss(name, A, y, cfg)
    raise ConfigError(f"unknown problem {name!r} (choose from {', '.join(PROBLEMS)})")


def _apply_loss(loss: str, X: np.ndarray, y: np.ndarray, cfg: dict) -> ProblemInstance:
    if loss == "least-squares":
        return make_least_squares(X, y)
    if loss == "logistic":
        return make_logistic(X, y)
    if loss == "lasso":
        return make_lasso(X, y, lam=cfg.get("lam", 1.0))
    if loss == "dual-svm":
        return make_dual_svm(X, y, regularization=cfg.get("reg", 1.0))
    raise ConfigError(f"unknown loss {loss!r}")


def _f_star(instance: ProblemInstance, cfg: dict) -> Optional[float]:
    """The supplied --f-star, else the instance's known optimum (or None)."""
    return cfg.get("f_star", instance.f_star)


def _gap0(instance: ProblemInstance, cfg: dict) -> Optional[float]:
    """f(x0) minus the supplied or known optimum, else --eps0, else None."""
    f_star = _f_star(instance, cfg)
    if f_star is not None:
        return float(instance.oracle.value(instance.x0)) - float(f_star)
    return cfg.get("eps0")


_NO_GAP0 = "this method needs an initial gap estimate: supply --f-star or --eps0"


def _explicit_schedule(cfg: dict) -> Optional[Schedule]:
    """The schedule that --C and --alpha give, or None to derive one."""
    if "C" in cfg:
        return Schedule(C=cfg["C"], alpha=cfg.get("alpha", 0.0))
    if "alpha" in cfg:
        raise ConfigError("--alpha needs --C: together they give t_k = C e^(alpha k)")
    return None


Envelope = Optional[tuple[str, float]]


def _envelope(name: str, bound: Callable[..., float], cond: Optional[DerivedConditioning],
              gap0: Optional[float], *args: float) -> Envelope:
    """``(name, bound(cond, gap0, *args))``; None without cond or a positive gap0."""
    applies = cond is not None and gap0 is not None and gap0 > 0
    return (name, bound(cond, gap0, *args)) if applies else None


def run_method(method: str, instance: ProblemInstance, cfg: dict) -> tuple[Trace, Envelope]:
    """Run one method on one problem per the config; return its trace and envelope.

    The envelope ``(name, value at N)`` is the guarantee for the schedule
    the run used, computed from the same derived values. A method has one
    only when it derives its schedule from the instance's declared
    regularity, and only from a positive gap estimate; otherwise None.
    """
    N, L0, n = cfg["N"], cfg["L0"], float(cfg["N"])  # envelopes take N as a real
    f_star, gap0 = _f_star(instance, cfg), _gap0(instance, cfg)
    oracle, x0, reg = instance.oracle, instance.x0, instance.regularity
    cond = None if reg is None else derive_conditioning(reg)
    smooth_cond = cond if reg is not None and reg.s == 2.0 else None  # s = 2 bounds need it

    if method == "grad":
        trace = gradient_descent(oracle, x0, L0, N, f_star=f_star)
        return trace, _envelope("gradient-descent envelope", bounds.bound_gradient_descent,
                                smooth_cond, gap0, n)
    if method == "acc":
        _, trace = accelerated(oracle, x0, L0, N, f_star=f_star)
        if reg is None or instance.x_star_distance is None:
            return trace, None
        d0 = instance.x_star_distance(x0)
        return trace, ("accelerated c L d^2 / N^2", bounds.bound_accelerated(reg.L, d0, n))
    if method == "mono":
        return monotone_restart(oracle, x0, N, L0, f_star=f_star), None
    if method == "grid":
        trace = adaptive_grid(oracle, x0, N, L0, f_star=f_star).best_trace
        return trace, _envelope("grid-search envelope", bounds.bound_adaptive,
                                smooth_cond, gap0, 4.0, n)

    if method == "restart":
        schedule = _explicit_schedule(cfg)
        if schedule is not None:
            return restart_scheduled(oracle, x0, schedule, N, L0, f_star=f_star), None
        if smooth_cond is None:
            raise ConfigError("restart needs --C/--alpha, or an instance with declared "
                              "smooth (s = 2) regularity to derive the optimal schedule")
        if gap0 is None:
            raise ConfigError(_NO_GAP0)
        schedule = optimal_schedule_smooth(smooth_cond, gap0, 4.0)
        envelope = ("scheduled-restart envelope", bounds.bound_smooth(smooth_cond, gap0, 4.0, n))
        return restart_scheduled(oracle, x0, schedule, N, L0, f_star=f_star), envelope

    if method == "h-restart":
        eps0 = cfg.get("eps0", gap0)
        if eps0 is None:
            raise ConfigError(_NO_GAP0)
        schedule, gamma = _explicit_schedule(cfg), cfg.get("gamma")
        if schedule is not None and gamma is not None:
            return h_restart(oracle, x0, eps0, gamma, schedule, N, L0, f_star=f_star), None
        if reg is None:
            raise ConfigError("h-restart needs --C/--alpha/--gamma, or an instance with "
                              "declared regularity to derive the optimal schedule")
        c = bounds.ufgm_constant(reg.s)
        opt_schedule, opt_gamma = optimal_schedule_holder(cond, eps0, c)
        envelope = None
        if schedule is None and gamma is None:
            envelope = ("accuracy-scheduled envelope", bounds.bound_holder(cond, eps0, c, n))
        schedule = schedule or opt_schedule
        gamma = opt_gamma if gamma is None else gamma
        return h_restart(oracle, x0, eps0, gamma, schedule, N, L0, f_star=f_star), envelope

    if method == "criterion":
        if f_star is None:
            raise ConfigError("criterion restart needs --f-star (or a known optimum)")
        gamma, envelope = cfg.get("gamma"), None
        if gamma is None and reg is None:
            gamma = 1.0  # parameter-free default
        elif gamma is None:
            gamma = cond.q
            envelope = _envelope("accuracy-scheduled envelope", bounds.bound_holder, cond,
                                 gap0, bounds.ufgm_constant(reg.s), n)
        return criterion_restart(oracle, x0, float(f_star), gamma, N, L0), envelope

    raise ConfigError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")


# ---------------------------------------------------------------------------
# argument handling


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a number that is neither nan nor inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; flags override its values")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--dataset", help="path to a CSV or LibSVM file")
    p.add_argument("--dataset-format", choices=("csv", "libsvm"), dest="dataset_format")
    p.add_argument("--loss", choices=("least-squares", "logistic", "lasso", "dual-svm"))
    p.add_argument("--N", type=int, help="budget of accepted inner iterations")
    p.add_argument("--L0", type=_finite_float, help="initial Lipschitz estimate (default 1)")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--gamma", type=_finite_float, help="accuracy decay rate per cycle")
    p.add_argument("--C", type=_finite_float, help="explicit schedule constant")
    p.add_argument("--alpha", type=_finite_float, help="explicit schedule growth rate")
    p.add_argument("--eps0", type=_finite_float, help="initial gap (upper) estimate")
    p.add_argument("--f-star", type=_finite_float, dest="f_star", help="known optimal value")
    p.add_argument("--out", help="output file (run) or directory (compare/grid)")
    p.add_argument("--format", choices=("csv", "json"), help="trace format (default csv)")
    p.add_argument("--dim", type=int, help="dimension of synthetic problems")
    p.add_argument("--kappa", type=_finite_float, help="quadratic: spectral condition number")
    p.add_argument("--power", type=_finite_float, help="norm-power: exponent r >= 2")
    p.add_argument("--radius", type=_finite_float, help="norm-power: validated ball radius")
    p.add_argument("--lam", type=_finite_float, help="lasso: l1 weight (default 1)")
    p.add_argument("--reg", type=_finite_float, help="dual-svm: regularization (default 1)")
    p.add_argument("--rows", type=int, help="synthetic dataset: sample count")
    p.add_argument("--cols", type=int, help="synthetic dataset: feature count")
    p.add_argument("--cond", type=_finite_float, help="synthetic dataset: conditioning")
    p.add_argument("--noise", type=_finite_float, help="synthetic regression: target noise")
    p.add_argument("--flip", type=_finite_float, help="synthetic classification: label flips")


def _read_config_file(path: str) -> list[str]:
    """The file's ``key=value`` lines as ``--key=value`` flag tokens.

    The file is read as UTF-8 in every locale; a byte that is not UTF-8
    raises ``ConfigError`` naming its line.
    """
    tokens = []
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                _check_utf8(path, lineno, line, ConfigError)
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                tokens.append(f"--{key.replace('_', '-')}={val}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return tokens


def effective_config(args: argparse.Namespace) -> dict:
    """The flags that were given (config-file values included), plus defaults."""
    cfg = {
        key: val
        for key, val in vars(args).items()
        if key not in ("config", "command", "handler") and val is not None
    }
    if "N" not in cfg:
        raise ConfigError("--N is required")
    if cfg["N"] < 1:
        raise ConfigError(f"--N must be >= 1, got {cfg['N']}")
    cfg.setdefault("L0", 1.0)
    cfg.setdefault("seed", 0)
    cfg.setdefault("format", "csv")
    return cfg


def _config_echo(cfg: dict, method: str) -> dict:
    return {**dict(sorted(cfg.items())), "method": method}


def cmd_run(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    method = cfg.get("method")
    if method is None:
        raise ConfigError("--method is required")
    instance = build_instance(cfg)
    trace, envelope = run_method(method, instance, cfg)
    fmt = cfg["format"]
    out = cfg.get("out") or f"trace.{fmt}"
    write_trace(trace, out, fmt, _config_echo(cfg, method))
    _print_problem(instance)
    print(f"method: {method}  accepted: {trace.accepted}  restarts: {trace.restart_count}")
    print(f"final f: {_fmt(trace.final_f)}")
    if trace.final_gap is not None:
        print(f"final gap: {_fmt(trace.final_gap)}")
    if envelope is not None:
        print(f"envelope [{envelope[0]}] at N={cfg['N']}: {_fmt(envelope[1])}")
    print(f"trace written to {out}")
    for note in trace.notes:
        print(f"note: {note}")
    return 0


def _print_problem(instance: ProblemInstance, suffix: str = "") -> None:
    print(f"problem: {instance.name}{suffix}")
    for note in instance.notes:
        print(f"note: {note}")


def _summary_row(method: str, trace: Trace) -> dict:
    return {
        "method": method,
        "final_f": trace.final_f,
        "final_gap": trace.final_gap,
        "restarts": trace.restart_count,
        "oracle_calls": trace.oracle_calls(),
        "accepted": trace.accepted,
        "backtracks": trace.backtracks,
    }


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    methods = [m.strip() for m in cfg.get("methods", "").split(",") if m.strip()]
    if not methods:
        raise ConfigError("--methods is required (comma-separated list)")
    for k, m in enumerate(methods):
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r} (choose from {', '.join(METHODS)})")
        if m in methods[:k]:
            raise ConfigError(f"method {m!r} is listed twice in --methods")
    instance = build_instance(cfg)
    out_dir = cfg.get("out") or "compare_out"
    os.makedirs(out_dir, exist_ok=True)
    fmt = cfg["format"]

    rows = []
    for method in methods:
        try:
            trace, _ = run_method(method, instance, cfg)
        except (ValueError, DivergenceError) as exc:
            rows.append({"method": method, "error": str(exc)})
            continue
        rows.append(_summary_row(method, trace))
        write_trace(
            trace, os.path.join(out_dir, f"trace_{method}.{fmt}"), fmt,
            _config_echo(cfg, method),
        )

    header = ["method", "final_f", "final_gap", "restarts", "oracle_calls", "accepted"]
    _print_problem(instance, f"  N={cfg['N']}")
    print("  ".join(f"{h:>12}" for h in header))
    for row in rows:
        if "error" in row:
            print(f"{row['method']:>12}  FAILED: {row['error']}")
            continue
        cells = [
            f"{row['method']:>12}",
            f"{row['final_f']:>12.5e}",
            f"{row['final_gap']:>12.5e}" if row["final_gap"] is not None else f"{'':>12}",
            f"{row['restarts']:>12}",
            f"{row['oracle_calls']:>12}",
            f"{row['accepted']:>12}",
        ]
        print("  ".join(cells))

    summary_path = os.path.join(out_dir, f"summary.{fmt}")
    _write_doc(summary_path, fmt, {"problem": instance.name, "rows": rows}, rows,
               [*header, "error"])
    print(f"summary written to {summary_path}")
    return 1 if any("error" in row for row in rows) else 0


def cmd_grid(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    instance = build_instance(cfg)
    outcome: GridOutcome = adaptive_grid(
        instance.oracle, instance.x0, cfg["N"], cfg["L0"], f_star=_f_star(instance, cfg)
    )
    out_dir = cfg.get("out") or "grid_out"
    os.makedirs(out_dir, exist_ok=True)
    fmt = cfg["format"]
    rows = []
    for (i, j), trace in sorted(outcome.runs.items()):
        sched = grid_schedule(i, j)
        name = f"trace_i{i}_j{j}.{fmt}"
        write_trace(
            trace, os.path.join(out_dir, name), fmt,
            _config_echo(cfg, f"grid[{i},{j}]"),
        )
        rows.append(
            {
                "i": i,
                "j": j,
                "C": sched.C,
                "alpha": sched.alpha,
                "accepted": trace.accepted,
                "final_f": trace.final_f,
                "final_gap": trace.final_gap,
                "restarts": trace.restart_count,
                "best": (i, j) == outcome.best,
            }
        )
    doc = {
        "problem": instance.name,
        "best": list(outcome.best),
        "total_inner_iterations": outcome.total_inner_iterations,
        "rows": rows,
    }
    # the CSV columns are the row keys; scheme (1, 0) always runs, so rows[0] exists
    summary_path = os.path.join(out_dir, f"summary.{fmt}")
    _write_doc(summary_path, fmt, doc, rows, list(rows[0]))
    bi, bj = outcome.best
    best = outcome.best_trace
    _print_problem(instance, f"  N={cfg['N']}")
    print(f"schemes run: {len(outcome.runs)}")
    print(f"total inner iterations: {outcome.total_inner_iterations}")
    gap_text = _fmt(best.final_gap) if best.final_gap is not None else "n/a"
    print(f"best scheme: (i={bi}, j={bj})  final f: {_fmt(best.final_f)}  gap: {gap_text}")
    print(f"summary written to {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restartopt",
        description="Benchmark restart schemes for first-order convex optimization.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one method and write its trace", allow_abbrev=False
    )
    _add_common(p_run)
    p_run.add_argument("--method", choices=METHODS)
    p_run.set_defaults(handler=cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="run several methods at equal budget", allow_abbrev=False
    )
    _add_common(p_cmp)
    p_cmp.add_argument("--methods", help="comma-separated subset of: " + ",".join(METHODS))
    p_cmp.set_defaults(handler=cmd_compare)

    p_grid = sub.add_parser(
        "grid", help="run the schedule grid search", allow_abbrev=False
    )
    _add_common(p_grid)
    p_grid.set_defaults(handler=cmd_grid)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1e6`` as ``--flag=-1e6``, for a value that is a negative number.

    argparse takes a token that starts with '-' for an option unless it
    reads like ``-12`` or ``-1.5``, which would leave ``--f-star -1e6``
    (or ``-inf``) without its argument.
    """
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        takes_value = flag.startswith("--") and "=" not in flag and flag not in ("--", "--help")
        if takes_value and token.startswith("-") and _is_number(token):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv: Optional[list[str]] = None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # File values parse as flags placed before the explicit ones,
            # so they get the same checks and an explicit flag wins.
            file_tokens = _read_config_file(args.config)
            args = parser.parse_args([args.command, *file_tokens, *argv[1:]])
        return args.handler(args)
    except (DatasetFormatError, DivergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ConfigError, or a value out of its range
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
