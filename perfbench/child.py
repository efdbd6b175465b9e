"""Run one ``restartopt`` CLI invocation and record what the harness measures.

Usage::

    python3 perfbench/child.py RECORD.json TRACE(0|1) -- CLI ARGS...

Calls ``restartopt.cli.main`` with the CLI arguments and exits with its
return code. Before that it wraps two functions that run once per
invocation: ``build_instance`` (its time is the set-up time) and
``adaptive_grid`` (its inner-iteration total is not in the compare
outputs). With TRACE=1 it first installs the layer tracer. The record
file is written after ``main`` returns.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as layer_tracer


def main() -> int:
    record_path, trace, sep, *cli_args = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit(__doc__)

    from restartopt import cli

    tr = None
    if trace == "1":
        tr = layer_tracer.Tracer()
        layer_tracer.install(tr)

    record: dict = {"setup_s": [], "grid_inner_iters": []}
    build_instance = cli.build_instance
    adaptive_grid = cli.adaptive_grid

    def timed_build_instance(cfg):
        t0 = time.perf_counter()
        instance = build_instance(cfg)
        record["setup_s"].append(time.perf_counter() - t0)
        return instance

    def counted_adaptive_grid(*args, **kwargs):
        outcome = adaptive_grid(*args, **kwargs)
        record["grid_inner_iters"].append(outcome.total_inner_iterations)
        return outcome

    cli.build_instance = timed_build_instance
    cli.adaptive_grid = counted_adaptive_grid

    if tr is None:
        rc = cli.main(cli_args)
    else:
        root = tr.push("cli", "cli.main")
        try:
            rc = cli.main(cli_args)
        finally:
            tr.pop(root)
        record["layers"] = layer_tracer.layer_metrics(tr)
        record["spans"] = tr.dump_spans()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
