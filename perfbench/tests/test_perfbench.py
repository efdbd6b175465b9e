"""Tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from restartopt import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def scripted_clock(*times: float):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_duration_minus_child_spans():
    tr = tracer.Tracer(clock=scripted_clock(0.0, 1.0, 2.0, 3.5, 4.0, 10.0))
    root = tr.push("cli", "cli.main")  # 0.0
    child = tr.push("solvers", "solvers.step")  # 1.0
    tr.leaf("problems", "problems.value", lambda: None)()  # 2.0 .. 3.5
    tr.pop(child)  # 4.0
    tr.pop(root)  # 10.0

    assert child.duration == 3.0 and child.self_time == 1.5
    assert root.duration == 10.0 and root.self_time == 7.0
    assert dict(tr.self_s) == {"cli": 7.0, "solvers": 1.5, "problems": 1.5}
    assert child.counters == {"problems.value": 1, "problems.value.s": 1.5}
    assert sum(tr.self_s.values()) == root.duration


def test_nested_leaves_charge_only_their_own_time():
    # A core glue call that spends part of its time in a problems callable.
    tr = tracer.Tracer(clock=scripted_clock(0.0, 1.0, 2.0, 5.0, 6.0, 8.0))
    value = tr.leaf("problems", "problems.value", lambda: 42.0)
    glue = tr.leaf("core", "core.smooth_value", lambda: value())
    root = tr.push("solvers", "solvers.step")  # 0.0
    assert glue() == 42.0  # glue 1.0 .. 6.0, value 2.0 .. 5.0
    tr.pop(root)  # 8.0

    assert dict(tr.self_s) == {"problems": 3.0, "core": 2.0, "solvers": 3.0}
    assert root.counters["core.smooth_value.s"] == 5.0


def test_spans_closed_out_of_order_are_refused():
    tr = tracer.Tracer(clock=scripted_clock(0.0, 1.0, 2.0))
    outer = tr.push("cli", "outer")
    tr.push("solvers", "inner")
    with pytest.raises(RuntimeError):
        tr.pop(outer)


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = load_benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracer.PER_LAYER_UNITS
    names = list(run.END_TO_END_UNITS) + list(tracer.PER_LAYER_UNITS)
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    tr = tracer.Tracer()
    tr.pop(tr.push("cli", "cli.main"))
    produced = set(tracer.layer_metrics(tr)) | {"trace_overhead_frac"}
    assert produced == set(tracer.PER_LAYER_UNITS)


@pytest.fixture(scope="module")
def fig1_outputs(tmp_path_factory):
    """One real fig1-compare invocation, run in-process."""
    work = str(tmp_path_factory.mktemp("fig1"))
    case = workloads.fig1_compare(0, work)
    out_dir = os.path.join(work, "cli_out")
    assert cli.main(case.argv + ["--out", out_dir]) == 0
    record_path = os.path.join(work, "record.json")
    with open(record_path, "w") as fh:
        json.dump({"setup_s": [0.01], "grid_inner_iters": [28000]}, fh)
    return case, out_dir, record_path


def evaluate(case, out_dir, record_path) -> run.Invocation:
    inv = run.Invocation(traced=False)
    inv.error = run.evaluate(inv, case, 0, out_dir, record_path, "unused.log")
    return inv


def test_intact_outputs_pass(fig1_outputs):
    inv = evaluate(*fig1_outputs)
    assert inv.error is None
    assert inv.iterations == 3 * workloads.FIG1_N + 28000
    assert run.tally([inv, inv]) == (2, 0, [])


def test_corrupted_trace_file_counts_as_failure(fig1_outputs, tmp_path):
    case, out_dir, record_path = fig1_outputs
    good = evaluate(case, out_dir, record_path)
    broken_dir = tmp_path / "broken"
    broken_dir.mkdir()
    for name in os.listdir(out_dir):
        data = open(os.path.join(out_dir, name), "rb").read()
        if name == "trace_acc.csv":
            data = data[: len(data) // 2]  # cut mid-line, as a crash would
        (broken_dir / name).write_bytes(data)

    bad = evaluate(case, str(broken_dir), record_path)
    assert bad.error is not None and "trace_acc.csv" in bad.error
    attempted, failed, reasons = run.tally([good, bad])
    assert (attempted, failed) == (2, 1) and len(reasons) == 1


def test_differing_output_digest_counts_as_failure(fig1_outputs):
    a, b = evaluate(*fig1_outputs), evaluate(*fig1_outputs)
    b.digest = "0" * 64
    assert run.tally([a, b])[:2] == (2, 1)


def test_corrupted_json_trace_is_refused(tmp_path):
    out_dir = str(tmp_path / "grid")
    argv = ["grid", "--problem", "least-squares", "--rows", "30", "--cols", "5",
            "--N", "8", "--format", "json", "--out", out_dir]
    assert cli.main(argv) == 0
    path = os.path.join(out_dir, "trace_i1_j0.json")
    assert workloads.read_json_trace(path).accepted >= 8
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text.replace('"f": ', '"f": "x', 1))
    with pytest.raises(workloads.CheckError):
        workloads.read_json_trace(path)
