"""Command-line behavior: trace files, summaries, determinism, errors."""

import json
import subprocess
import sys

import numpy as np
import pytest

from restartopt.cli import main


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

    def test_envelope_reported_when_regularity_known(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        run_cli(
            "run", "--problem", "quadratic", "--dim", "10", "--kappa", "50",
            "--method", "restart", "--N", "200", "--out", str(out),
        )
        stdout = capsys.readouterr().out
        assert "envelope" in stdout

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

    def test_unknown_method_rejected(self, capsys):
        code = run_cli(
            "compare", "--problem", "quadratic", "--methods", "acc,warp",
            "--N", "10",
        )
        assert code == 2

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
        "line, named", [("N=abc", "--N"), ("format=xml", "--format"), ("wibble=1", "--wibble")]
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


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "restartopt.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "compare" in proc.stdout and "grid" in proc.stdout
