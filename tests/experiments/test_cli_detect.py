"""Tests for the ``ricd detect`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.graph import write_click_table
from repro.obs import TraceReport


@pytest.fixture(scope="module")
def click_table(tmp_path_factory):
    from repro.datagen import small_scenario

    path = tmp_path_factory.mktemp("detect") / "clicks.csv"
    write_click_table(small_scenario().graph, path)
    return path


class TestDetectCommand:
    def test_detect_runs_and_prints(self, click_table, capsys):
        assert main(["detect", str(click_table), "--k1", "5", "--k2", "5"]) == 0
        out = capsys.readouterr().out
        assert "thresholds:" in out
        assert "suspicious users" in out

    def test_detect_writes_output_files(self, click_table, tmp_path, capsys):
        prefix = tmp_path / "findings"
        code = main(
            [
                "detect",
                str(click_table),
                "--k1",
                "5",
                "--k2",
                "5",
                "--output",
                str(prefix),
            ]
        )
        assert code == 0
        users_csv = tmp_path / "findings_users.csv"
        items_csv = tmp_path / "findings_items.csv"
        assert users_csv.exists() and items_csv.exists()
        header = users_csv.read_text().splitlines()[0]
        assert header == "User_ID,Risk"

    def test_detect_with_feedback_expectation(self, click_table, capsys):
        code = main(
            [
                "detect",
                str(click_table),
                "--k1",
                "5",
                "--k2",
                "5",
                "--t-click",
                "40",
                "--expectation",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "feedback rounds" in out

    def test_trace_prints_stage_table(self, click_table, capsys):
        args = ["detect", str(click_table), "--k1", "5", "--k2", "5", "--trace"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "calls" in out
        assert "detector.RICD" in out
        assert "extract.fixpoint_rounds" in out

    def test_no_trace_by_default(self, click_table, capsys):
        assert main(["detect", str(click_table), "--k1", "5", "--k2", "5"]) == 0
        out = capsys.readouterr().out
        assert "stage" not in out and "counter" not in out

    def test_trace_out_writes_json(self, click_table, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        args = [
            "detect",
            str(click_table),
            "--k1",
            "5",
            "--k2",
            "5",
            "--trace-out",
            str(trace_path),
        ]
        assert main(args) == 0
        report = TraceReport.from_json(trace_path.read_text())
        assert report.meta["command"] == "detect"
        assert any(path.startswith("detector.RICD") for path in report.spans)
        assert report.counters["detect.threshold_cache_misses"] >= 1
        # --trace-out implies the printed summary too.
        assert "wrote trace to" in capsys.readouterr().out

    def test_run_trace_covers_experiment(self, tmp_path, capsys):
        trace_path = tmp_path / "run_trace.json"
        assert main(["run", "eq3", "--trace-out", str(trace_path)]) == 0
        data = json.loads(trace_path.read_text())
        assert data["meta"]["experiments"] == "eq3"
        assert any(path.startswith("experiment.eq3") for path in data["spans"])

    def test_missing_file_errors(self, capsys):
        assert main(["detect", "/no/such/file.csv"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_invalid_params_error(self, click_table, capsys):
        assert main(["detect", str(click_table), "--alpha", "3.0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_removed_sparse_engine_exits_2(self, click_table, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", str(click_table), "--engine", "sparse"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_removed_auto_engine_exits_2(self, click_table, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", str(click_table), "--engine", "auto"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_removed_auto_engine_threshold_exits_2(self, click_table, capsys):
        # argparse resolves unambiguous prefixes, so this fails while any
        # flag starting with --auto-engine (the removed threshold flag
        # among them) exists.
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", str(click_table), "--auto-engine", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_default_engine_recorded_as_bitset(self, click_table, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        args = ["detect", str(click_table), "--k1", "5", "--k2", "5"]
        assert main(args + ["--trace-out", str(trace_path)]) == 0
        report = TraceReport.from_json(trace_path.read_text())
        assert report.meta["engine"] == "bitset"
        assert report.gauges["detect.engine"] == "bitset"

    @pytest.mark.parametrize("flag", ["--shards", "--jobs", "--retries"])
    def test_removed_sharding_flags_exit_2(self, click_table, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", str(click_table), flag, "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
