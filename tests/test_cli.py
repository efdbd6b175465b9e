"""Command-line behavior: trace files, summaries, determinism, errors."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from restartopt import (
    bound_accelerated,
    bound_adaptive,
    bound_gradient_descent,
    bound_holder,
    bound_smooth,
    derive_conditioning,
    make_quadratic,
    ufgm_constant,
)
from restartopt import cli
from restartopt.cli import ConfigError, main, write_trace
from restartopt.solvers import Trace


def run_cli(*argv):
    return main(list(argv))


def separable_csv(path):
    # the label is the sign of the first feature, so the data is separable
    rng = np.random.default_rng(2)
    lines = []
    for _ in range(20):
        feats = rng.standard_normal(3)
        feats[0] += np.sign(feats[0])
        lines.append(",".join(format(v, ".8f") for v in feats) + f",{np.sign(feats[0]):g}")
    path.write_text("\n".join(lines) + "\n")


def logistic_csv(path):
    rng = np.random.default_rng(3)
    lines = []
    for _ in range(30):
        feats = rng.standard_normal(3)
        lines.append(",".join(format(v, ".8f") for v in feats) + f",{rng.choice([-1, 1])}")
    path.write_text("\n".join(lines) + "\n")


def envelope_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith("envelope")]


def trace_rows(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()[1:]]


class TestRun:
    def test_trace_rows_equal_budget(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--problem", "quadratic", "--dim", "10", "--kappa", "100",
            "--method", "acc", "--N", "50", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iter,f,gap,restart,eps_target"
        assert len(lines) == 51  # header + one row per accepted iteration
        assert "final gap" in capsys.readouterr().out

    def test_accelerated_run_meets_envelope_at_budget(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--problem", "quadratic", "--dim", "10", "--kappa", "100",
            "--method", "acc", "--N", "500", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 500
        final_gap = float(rows[-1].split(",")[2])
        # L = kappa and d(x0, X*) = 1 for the synthetic quadratic
        assert final_gap <= 4 * 100.0 * 1.0 / 500**2

    def test_tiny_starting_estimate_meets_envelope(self, tmp_path, capsys):
        # from --L0 1e-60 the first step's line search needs more than 120
        # doublings; capped there, the run accepted a stalled step and printed
        # a final gap of 3.8e50 beside an envelope of 2.07
        out = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--problem", "least-squares", "--rows", "80", "--cols", "20",
            "--cond", "1000", "--seed", "24", "--method", "acc", "--N", "50",
            "--L0", "1e-60", "--out", str(out),
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert "stalled" not in stdout
        [envelope] = envelope_lines(stdout)
        final_gap = float(trace_rows(out)[-1][2])
        assert 0.0 <= final_gap <= float(envelope.split(": ")[-1])

    def test_envelope_reported_when_regularity_known(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        run_cli(
            "run", "--problem", "quadratic", "--dim", "10", "--kappa", "50",
            "--method", "restart", "--N", "200", "--out", str(out),
        )
        stdout = capsys.readouterr().out
        assert "envelope" in stdout

    @pytest.mark.parametrize(
        "explicit",
        [
            ("--method", "restart", "--C", "2"),
            ("--method", "h-restart", "--gamma", "1"),
            ("--method", "criterion", "--gamma", "0.5"),
            ("--method", "restart", "--C", "2", "--alpha", "0.1"),
            ("--method", "h-restart", "--C", "5"),
        ],
        ids=["restart-C", "h-restart-gamma", "criterion-gamma", "restart-C-alpha",
             "h-restart-C"],
    )
    def test_no_envelope_for_an_explicit_schedule(self, tmp_path, capsys, explicit):
        # the envelope assumes the schedule derived from the regularity
        code = run_cli(
            "run", "--problem", "quadratic", "--dim", "30", "--kappa", "1000",
            "--N", "300", *explicit, "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        assert not envelope_lines(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "method", ["grad", "acc", "restart", "h-restart", "criterion", "grid"]
    )
    def test_envelope_is_the_bound_of_the_derived_schedule(self, tmp_path, capsys, method):
        code = run_cli(
            "run", "--problem", "quadratic", "--dim", "30", "--kappa", "1000",
            "--method", method, "--N", "100", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        inst = make_quadratic(30, 1000.0, seed=0)
        reg, cond = inst.regularity, derive_conditioning(inst.regularity)
        gap0 = float(inst.oracle.value(inst.x0)) - inst.f_star
        holder = bound_holder(cond, gap0, ufgm_constant(reg.s), 100.0)
        name, value = {
            "grad": ("gradient-descent envelope", bound_gradient_descent(cond, gap0, 100.0)),
            "acc": ("accelerated c L d^2 / N^2",
                    bound_accelerated(reg.L, inst.x_star_distance(inst.x0), 100.0)),
            "restart": ("scheduled-restart envelope", bound_smooth(cond, gap0, 4.0, 100.0)),
            "h-restart": ("accuracy-scheduled envelope", holder),
            "criterion": ("accuracy-scheduled envelope", holder),
            "grid": ("grid-search envelope", bound_adaptive(cond, gap0, 4.0, 100.0)),
        }[method]
        assert envelope_lines(capsys.readouterr().out) == [
            f"envelope [{name}] at N=100: {value:.17g}"
        ]

    @pytest.mark.parametrize("method", ["grad", "grid", "criterion"])
    @pytest.mark.parametrize(
        "problem", [("norm-power", "--power", "4"), ("quadratic",)], ids=["tau>0", "tau=0"]
    )
    def test_no_envelope_from_a_gap_estimate_at_or_below_0(
        self, tmp_path, capsys, problem, method
    ):
        # --f-star above f(x0): the run still goes, but no envelope holds
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--problem", *problem, "--dim", "5", "--method", method,
            "--f-star", "1e6", "--N", "20", "--out", str(out),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "final gap: -" in stdout
        assert not envelope_lines(stdout)
        assert out.exists()

    @pytest.mark.parametrize("method", ["restart", "h-restart"])
    def test_alpha_without_C_exits_2(self, tmp_path, capsys, method):
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--problem", "quadratic", "--dim", "6", "--method", method,
            "--alpha", "0.5", "--N", "20", "--out", str(out),
        )
        assert code == 2
        assert "--alpha needs --C" in capsys.readouterr().err
        assert not out.exists()

    def test_h_restart_envelope_uses_the_supplied_eps0(self, tmp_path, capsys):
        code = run_cli(
            "run", "--problem", "quadratic", "--dim", "30", "--kappa", "1000",
            "--method", "h-restart", "--eps0", "1e6", "--N", "300",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        reg = make_quadratic(30, 1000.0, seed=0).regularity
        bound = bound_holder(derive_conditioning(reg), 1e6, ufgm_constant(reg.s), 300.0)
        assert envelope_lines(capsys.readouterr().out) == [
            f"envelope [accuracy-scheduled envelope] at N=300: {bound:.17g}"
        ]

    def test_byte_identical_reruns(self, tmp_path):
        args = (
            "run", "--problem", "norm-power", "--dim", "8", "--power", "4",
            "--method", "mono", "--N", "120", "--seed", "7",
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_metadata_mirrors_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run_cli(
            "run", "--problem", "quadratic", "--dim", "6", "--kappa", "10",
            "--method", "criterion", "--N", "80", "--format", "json",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        meta = doc["metadata"]
        assert meta["accepted"] == len(doc["entries"])
        assert {"value", "grad", "prox"} == set(meta["oracle_calls"])
        assert meta["config"]["method"] == "criterion"
        entry = doc["entries"][0]
        assert set(entry) == {"iter", "f", "gap", "restart", "eps_target"}
        assert entry["eps_target"] is not None  # criterion cycles carry targets

    def test_csv_floats_round_trip(self, tmp_path):
        out_csv = tmp_path / "t.csv"
        out_json = tmp_path / "t.json"
        args = (
            "run", "--problem", "quadratic", "--dim", "5", "--kappa", "30",
            "--method", "acc", "--N", "40",
        )
        run_cli(*args, "--out", str(out_csv))
        run_cli(*args, "--format", "json", "--out", str(out_json))
        doc = json.loads(out_json.read_text())
        rows = out_csv.read_text().strip().splitlines()[1:]
        for row, entry in zip(rows, doc["entries"]):
            f_text = row.split(",")[1]
            assert float(f_text) == entry["f"]  # 17 significant digits are lossless

    def test_restart_markers_present(self, tmp_path):
        out = tmp_path / "trace.csv"
        run_cli(
            "run", "--problem", "quadratic", "--dim", "10", "--kappa", "100",
            "--method", "restart", "--N", "300", "--out", str(out),
        )
        flags = [line.split(",")[3] for line in out.read_text().strip().splitlines()[1:]]
        assert "1" in flags

    def test_missing_dataset_is_reported(self, capsys):
        code = run_cli(
            "run", "--dataset", "/nonexistent/file.csv", "--loss", "lasso",
            "--method", "acc", "--N", "10",
        )
        assert code != 0
        assert "/nonexistent/file.csv" in capsys.readouterr().err

    def test_missing_budget_rejected(self, capsys):
        code = run_cli("run", "--problem", "quadratic", "--method", "acc")
        assert code == 2
        assert "--N" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "problem=quadratic\ndim=6\nkappa=25\nmethod=acc\nN=30\nseed=3\n"
        )
        out = tmp_path / "t.csv"
        code = run_cli("run", "--config", str(cfg), "--N", "45", "--out", str(out))
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 45  # flag overrides the file's N=30

    @pytest.mark.parametrize("loss, value", [("least-squares", "nan"), ("lasso", "inf")])
    def test_non_finite_dataset_value_is_a_config_error(self, tmp_path, capsys, loss, value):
        data = tmp_path / "d.csv"
        data.write_text(f"1,2,3\n4,5,6\n7,{value},9\n1,0,2\n")
        code = run_cli(
            "run", "--dataset", str(data), "--loss", loss, "--method", "acc", "--N", "10",
        )
        assert code == 2
        assert "d.csv:3: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--problem", "norm-power", "--power", "1e6"),  # ||x||^r overflows off the ball
        ("--problem", "quadratic", "--dim", "3", "--L0", "1e308"),  # 2 L0 overflows
    ])
    @pytest.mark.parametrize("method", ["acc", "grad", "mono", "grid"])
    def test_overflow_runs_to_the_budget(self, tmp_path, capsys, argv, method):
        out = tmp_path / "t.csv"
        code = run_cli("run", *argv, "--method", method, "--N", "5", "--out", str(out))
        assert code == 0
        assert all(np.isfinite(float(row[1])) for row in trace_rows(out))

    @pytest.mark.parametrize("schedule", [
        ("--method", "restart", "--C", "1", "--alpha", "800"),  # e^(alpha k) overflows
        ("--method", "restart", "--C", "1e308", "--alpha", "1"),  # C e^(alpha k) is inf
        ("--method", "h-restart", "--C", "1e308", "--alpha", "1", "--gamma", "1"),
    ], ids=["restart-exp", "restart-product", "h-restart"])
    def test_overflowing_schedule_runs_the_budget(self, tmp_path, capsys, schedule):
        out = tmp_path / "t.csv"
        code = run_cli("run", "--problem", "quadratic", "--dim", "5", *schedule,
                       "--N", "10", "--out", str(out))
        assert code == 0
        assert len(trace_rows(out)) == 10
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note")]
        assert notes == ["note: cycle 1 truncated from inf to 10 iterations by the budget"]

    def test_non_finite_start_value_fails_criterion(self, tmp_path, capsys):
        # f(x0) = inf; this used to loop forever on targets that never shrink
        code = run_cli("run", "--problem", "norm-power", "--power", "4", "--radius", "1e78",
                       "--dim", "3", "--method", "criterion", "--N", "10",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite objective or gradient encountered\n"

    def test_libsvm_dataset_run(self, tmp_path):
        data = tmp_path / "d.svm"
        data.write_text("1 1:0.5 2:1.0\n-1 1:-0.3 3:0.8\n1 2:0.9\n-1 1:0.1 3:-0.4\n")
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--dataset", str(data), "--dataset-format", "libsvm",
            "--loss", "logistic", "--method", "acc", "--N", "15", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 16

    def test_dataset_run(self, tmp_path):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(20):
            feats = rng.standard_normal(4)
            target = rng.standard_normal()
            lines.append(",".join(format(v, ".8f") for v in feats) + f",{target:.8f}")
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--dataset", str(data), "--loss", "least-squares",
            "--method", "grad", "--N", "25", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 26


class TestHRestartRun:
    def test_derived_schedule(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--problem", "quadratic", "--dim", "10", "--kappa", "50",
            "--method", "h-restart", "--N", "120", "--out", str(out),
        )
        assert code == 0
        rows = trace_rows(out)
        assert len(rows) == 120
        assert all(row[4] for row in rows)  # every cycle carries its target
        assert "1" in [row[3] for row in rows]
        assert envelope_lines(capsys.readouterr().out)

    def test_explicit_schedule_without_regularity(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        logistic_csv(data)
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--dataset", str(data), "--loss", "logistic", "--method", "h-restart",
            "--C", "5", "--gamma", "0.5", "--eps0", "10", "--N", "40", "--out", str(out),
        )
        assert code == 0
        rows = trace_rows(out)
        assert len(rows) == 40
        assert all(row[2] == "" and row[4] for row in rows)  # no optimum, targets set
        assert not envelope_lines(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--eps0", "1"), "h-restart needs --C/--alpha/--gamma"),
            (("--C", "5", "--gamma", "0.5"), "initial gap estimate"),
        ],
        ids=["eps0-alone", "no-gap-estimate"],
    )
    def test_incomplete_config_without_regularity_exits_2(
        self, tmp_path, capsys, flags, message
    ):
        data = tmp_path / "d.csv"
        logistic_csv(data)
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--dataset", str(data), "--loss", "logistic", "--method", "h-restart",
            *flags, "--N", "40", "--out", str(out),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_summary_and_traces(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "--problem", "quadratic", "--dim", "10", "--kappa", "100",
            "--methods", "grad,acc,mono", "--N", "80", "--out", str(out),
        )
        assert code == 0
        assert (out / "summary.csv").exists()
        for m in ("grad", "acc", "mono"):
            assert (out / f"trace_{m}.csv").exists()
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert rows[0].startswith("method,final_f,final_gap")
        assert len(rows) == 4

    def test_grid_beats_plain_accelerated_on_conditioned_quadratic(self, tmp_path):
        out = tmp_path / "cmp_order"
        code = run_cli(
            "compare", "--problem", "quadratic", "--dim", "10", "--kappa", "100",
            "--methods", "acc,grid", "--N", "1000", "--out", str(out),
        )
        assert code == 0
        gaps = {}
        for line in (out / "summary.csv").read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            gaps[cells[0]] = float(cells[2])
        assert gaps["grid"] <= gaps["acc"]

    def test_single_method_degenerate(self, tmp_path):
        out = tmp_path / "cmp1"
        code = run_cli(
            "compare", "--problem", "quadratic", "--dim", "5", "--kappa", "10",
            "--methods", "acc", "--N", "30", "--out", str(out),
        )
        assert code == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_failed_method_flagged_partial_summary(self, tmp_path, capsys):
        # criterion needs f*; the synthetic lasso instance has none
        out = tmp_path / "cmp2"
        code = run_cli(
            "compare", "--problem", "lasso", "--rows", "20", "--cols", "6",
            "--methods", "acc,criterion", "--N", "30", "--out", str(out),
        )
        assert code == 1
        summary = (out / "summary.csv").read_text()
        assert "FAILED" in capsys.readouterr().out or "criterion" in summary
        assert (out / "trace_acc.csv").exists()

    def test_alpha_without_C_fails_the_scheduled_rows(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "--problem", "quadratic", "--dim", "6", "--alpha", "0.5",
            "--methods", "acc,restart,h-restart", "--N", "20", "--out", str(out),
        )
        assert code == 1
        stdout = capsys.readouterr().out
        for method in ("restart", "h-restart"):
            assert f"{method}  FAILED: --alpha needs --C" in stdout
            assert not (out / f"trace_{method}.csv").exists()
        assert (out / "trace_acc.csv").exists()

    def test_unknown_method_rejected(self, capsys):
        code = run_cli(
            "compare", "--problem", "quadratic", "--methods", "acc,warp",
            "--N", "10",
        )
        assert code == 2

    def test_repeated_method_rejected_before_running(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "--problem", "quadratic", "--methods", "acc,grad,acc",
            "--N", "10", "--out", str(out),
        )
        assert code == 2
        assert "method 'acc' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_restart_without_gap_estimate_rejected_before_running(self, capsys):
        # scheduled restart on a problem without declared regularity needs
        # an explicit schedule; validation happens before any computation
        code = run_cli(
            "run", "--problem", "lasso", "--rows", "10", "--cols", "4",
            "--method", "restart", "--N", "20",
        )
        assert code == 2
        assert "restart" in capsys.readouterr().err


class TestGrid:
    def test_file_count_and_best(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code = run_cli(
            "grid", "--problem", "quadratic", "--dim", "6", "--kappa", "10",
            "--N", "16", "--out", str(out),
        )
        assert code == 0
        traces = sorted(p.name for p in out.iterdir() if p.name.startswith("trace_"))
        assert len(traces) == 20  # floor(log2 16) x (ceil(log2 16) + 1)
        stdout = capsys.readouterr().out
        assert "best scheme" in stdout
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "i,j,C,alpha,accepted,final_f,final_gap,restarts,best"
        assert sum(line.endswith(",1") for line in summary[1:]) == 1

    def test_grid_at_64_runs_42_schemes(self, tmp_path):
        out = tmp_path / "grid64"
        code = run_cli(
            "grid", "--problem", "quadratic", "--dim", "5", "--kappa", "12",
            "--N", "64", "--out", str(out),
        )
        assert code == 0
        traces = [p for p in out.iterdir() if p.name.startswith("trace_")]
        assert len(traces) == 42
        best_rows = [
            line for line in (out / "summary.csv").read_text().strip().splitlines()[1:]
            if line.endswith(",1")
        ]
        assert len(best_rows) == 1

    def test_json_summary_lists_best_index(self, tmp_path):
        out = tmp_path / "gridj"
        code = run_cli(
            "grid", "--problem", "quadratic", "--dim", "4", "--kappa", "8",
            "--N", "8", "--format", "json", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        assert len(doc["best"]) == 2
        assert doc["rows"]


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--problem", "lasso", "--lam", "-1", "--method", "acc"),
            ("run", "--problem", "quadratic", "--kappa", "0.5", "--method", "acc"),
            ("run", "--problem", "quadratic", "--L0", "0", "--method", "acc"),
            ("run", "--problem", "quadratic", "--C", "0", "--method", "restart"),
            ("grid", "--problem", "quadratic"),
        ],
    )
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = run_cli(*argv, "--N", "3", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--method", "grad", "--f-star", "nan", "--format", "json"), "--f-star"),
            (("--method", "h-restart", "--C", "4", "--gamma", "nan"), "--gamma"),
            (("--method", "acc", "--L0", "inf"), "--L0"),
            (("--method", "restart", "--C", "nan"), "--C"),
            (("--method", "acc", "--kappa=-inf"), "--kappa"),
        ],
    )
    def test_non_finite_flag_exits_2_naming_it(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--problem", "quadratic", *argv, "--N", "10", "--out", str(out))
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shape", [("--cols", "0"), ("--rows", "5", "--cols", "10")])
    def test_unbuildable_synthetic_shape_exits_2(self, tmp_path, capsys, shape):
        out = tmp_path / "t.csv"
        code = run_cli("run", "--problem", "least-squares", *shape, "--method", "acc",
                       "--N", "5", "--out", str(out))
        assert code == 2
        assert "needs rows >= cols >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cond", ["-1", "0", "0.5"])
    def test_synthetic_cond_below_one_exits_2(self, tmp_path, capsys, cond):
        out = tmp_path / "t.csv"
        code = run_cli("run", "--problem", "least-squares", "--rows", "20", "--cols", "5",
                       "--cond", cond, "--method", "acc", "--N", "5", "--out", str(out))
        assert code == 2
        assert f"needs cond >= 1, got cond={float(cond)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flip", ["-0.5", "2"])
    def test_synthetic_flip_outside_unit_interval_exits_2(self, tmp_path, capsys, flip):
        out = tmp_path / "t.csv"
        code = run_cli("run", "--problem", "logistic", "--rows", "20", "--cols", "5",
                       "--flip", flip, "--method", "acc", "--N", "5", "--out", str(out))
        assert code == 2
        assert f"need flip in [0, 1], got flip={float(flip)}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_float_in_exponent_form(self, tmp_path, capsys):
        outputs = []
        for f_star in (["--f-star", "-1e6"], ["--f-star=-1e6"]):
            out = tmp_path / "t.csv"
            code = run_cli("run", "--problem", "quadratic", "--method", "grad", "--N", "5",
                           *f_star, "--out", str(out))
            assert code == 0
            outputs.append((capsys.readouterr().out, out.read_text()))
        assert outputs[0] == outputs[1]
        assert "final gap: 1000000." in outputs[0][0]
        code = run_cli("run", "--problem", "lasso", "--lam", "-1e-3", "--method", "acc",
                       "--N", "5", "--out", str(tmp_path / "l.csv"))
        assert code == 2
        assert "lam must be positive, got -0.001" in capsys.readouterr().err

    def test_non_utf8_dataset_byte_names_the_line(self, tmp_path, capsys):
        data = tmp_path / "latin.csv"
        data.write_bytes(b"1,2,3\n4,5,6\n7,\xe9,9\n")
        code = run_cli("run", "--dataset", str(data), "--method", "grad", "--N", "5",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "latin.csv:3: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("loss", ["least-squares", "logistic"])
    def test_labels_only_dataset_exits_2_naming_the_empty_design(self, tmp_path, capsys, loss):
        data = tmp_path / "labels.libsvm"
        data.write_text("1\n-1\n1\n")
        out = tmp_path / "t.csv"
        code = run_cli("run", "--dataset", str(data), "--dataset-format", "libsvm",
                       "--loss", loss, "--method", "acc", "--N", "5", "--out", str(out))
        assert code == 2
        assert "empty design: the 3x0 matrix has no columns" in capsys.readouterr().err
        assert not out.exists()

    def test_method_rejecting_a_value_becomes_failed_row(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "--problem", "quadratic", "--dim", "5", "--C", "0",
            "--methods", "acc,restart", "--N", "20", "--out", str(out),
        )
        assert code == 1
        assert "restart  FAILED: schedule constant C" in capsys.readouterr().out
        assert (out / "trace_acc.csv").exists()
        assert not (out / "trace_restart.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[2].startswith('restart,,,,,,"schedule constant C')


class TestConfigFile:
    def test_config_file_equals_flags(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# compare two methods\nproblem = quadratic\ndim=6\nkappa=25\n"
            "methods=acc,criterion\nN=40\nf-star=0\nL0=2\nformat=json\n"
        )
        out = tmp_path / "cmp"

        def files():
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        assert run_cli("compare", "--config", str(cfg), "--out", str(out)) == 0
        from_file = files()
        for p in out.iterdir():
            p.unlink()
        assert run_cli(
            "compare", "--problem", "quadratic", "--dim", "6", "--kappa", "25",
            "--methods", "acc,criterion", "--N", "40", "--f-star", "0", "--L0", "2",
            "--format", "json", "--out", str(out),
        ) == 0
        assert sorted(from_file) == ["summary.json", "trace_acc.json", "trace_criterion.json"]
        assert files() == from_file

    @pytest.mark.parametrize(
        "line, named",
        [("N=abc", "--N"), ("format=xml", "--format"), ("wibble=1", "--wibble"),
         ("gamma=inf", "--gamma: must be finite")],
    )
    def test_bad_file_value_rejected_before_output(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem=quadratic\nmethods=acc,grad\nN=20\n{line}\n")
        out = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--config", str(cfg), "--out", str(out))
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_byte_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"problem=quadratic\n# caf\xe9\nmethod=acc\nN=5\n")
        out = tmp_path / "trace.csv"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
        assert f"error: {cfg}:2: byte 0xe9 is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_utf8_comment_reads_under_an_ascii_locale(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# café\nproblem=quadratic\nmethod=acc\nN=5\n", encoding="utf-8")
        out = tmp_path / "trace.csv"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "restartopt.cli", "run", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestAbbreviatedFlags:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["run", "--problem", "quadratic", "--method", "acc", "--N", "5",
              "--kap", "5"], "--kap"),
            (["compare", "--problem", "quadratic", "--method", "acc", "--N", "5"],
             "--method"),
        ],
    )
    def test_flag_prefix_rejected(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(out))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_prefix_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem=quadratic\nmethod=acc\nN=5\nkap=5\n")
        out = tmp_path / "trace.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(cfg), "--out", str(out))
        assert exc.value.code == 2
        assert "unrecognized arguments: --kap=5" in capsys.readouterr().err
        assert not out.exists()


class TestInstanceNotes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--method", "acc"),
            ("compare", "--methods", "acc"),
            ("grid",),
        ],
    )
    def test_note_follows_problem_line(self, tmp_path, capsys, argv):
        data = tmp_path / "sep.csv"
        separable_csv(data)
        code = run_cli(
            *argv, "--dataset", str(data), "--loss", "logistic", "--N", "8",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("problem: logistic(m=20,n=3)")
        assert lines[1] == "note: separable data: the infimum is approached but not attained"

    def test_no_note_on_non_separable_data(self, tmp_path, capsys):
        code = run_cli(
            "run", "--problem", "logistic", "--rows", "100", "--cols", "10",
            "--method", "acc", "--N", "5", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "problem: logistic(m=100,n=10)"
        assert lines[1].startswith("method: acc")


def golden_trace():
    # two cycles, the first with a target; f_star known; one note
    return Trace(values=[3.0, 0.1, 1 / 3], cycles=[(2, 0.5), (1, None)], f_star=0.0625,
                 f_initial=4.0, final_L_hat=2.0, n_value=7, n_grad=3, n_prox=1,
                 backtracks=2, notes=["a note"])


GOLDEN_TRACE = {
    "csv": """\
iter,f,gap,restart,eps_target
1,3,2.9375,0,0.5
2,0.10000000000000001,0.037500000000000006,1,0.5
3,0.33333333333333331,0.27083333333333331,0,
""",
    "json": """\
{
 "metadata": {
  "config": {
   "N": 3,
   "method": "acc"
  },
  "accepted": 3,
  "final_f": 0.3333333333333333,
  "final_gap": 0.2708333333333333,
  "final_L_hat": 2.0,
  "oracle_calls": {
   "value": 7,
   "grad": 3,
   "prox": 1
  },
  "backtracks": 2,
  "restarts": 1,
  "notes": [
   "a note"
  ]
 },
 "entries": [
  {
   "iter": 1,
   "f": 3.0,
   "gap": 2.9375,
   "restart": false,
   "eps_target": 0.5
  },
  {
   "iter": 2,
   "f": 0.1,
   "gap": 0.037500000000000006,
   "restart": true,
   "eps_target": 0.5
  },
  {
   "iter": 3,
   "f": 0.3333333333333333,
   "gap": 0.2708333333333333,
   "restart": false,
   "eps_target": null
  }
 ]
}
""",
}

GOLDEN_SUMMARY = {
    "csv": """\
method,final_f,final_gap,restarts,oracle_calls,accepted,error
acc,0.33333333333333331,0.27083333333333331,1,11,3,
criterion,,,,,,"criterion restart needs --f-star (or a known optimum)"
""",
    "json": """\
{
 "problem": "quadratic(n=2,kappa=100,seed=0)",
 "rows": [
  {
   "method": "acc",
   "final_f": 0.3333333333333333,
   "final_gap": 0.2708333333333333,
   "restarts": 1,
   "oracle_calls": 11,
   "accepted": 3,
   "backtracks": 2
  },
  {
   "method": "criterion",
   "error": "criterion restart needs --f-star (or a known optimum)"
  }
 ]
}
""",
}


class TestFileBytes:
    """The exact bytes of a trace and of a compare summary, in both formats."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trace(self, tmp_path, fmt):
        path = tmp_path / f"t.{fmt}"
        write_trace(golden_trace(), str(path), fmt, {"N": 3, "method": "acc"})
        assert path.read_text() == GOLDEN_TRACE[fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compare_summary_with_a_failed_row(self, tmp_path, capsys, monkeypatch, fmt):
        def fake_run_method(method, instance, cfg):
            if method == "criterion":
                raise ConfigError("criterion restart needs --f-star (or a known optimum)")
            return golden_trace(), None

        monkeypatch.setattr(cli, "run_method", fake_run_method)
        out = tmp_path / "cmp"
        code = run_cli("compare", "--problem", "quadratic", "--dim", "2", "--methods",
                       "acc,criterion", "--N", "3", "--out", str(out), "--format", fmt)
        assert code == 1
        assert (out / f"summary.{fmt}").read_text() == GOLDEN_SUMMARY[fmt]


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "restartopt.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "compare" in proc.stdout and "grid" in proc.stdout
