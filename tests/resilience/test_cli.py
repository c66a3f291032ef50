"""CLI surface of the resilience layer: --deadline, provenance, counters."""

import csv

import pytest

from repro.cli import build_parser, main
from repro.resilience import FaultInjector, injecting


@pytest.fixture()
def click_table(tiny, tmp_path):
    path = tmp_path / "clicks.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["User_ID", "Item_ID", "Click"])
        for user, item, clicks in tiny.graph.edges():
            writer.writerow([user, item, clicks])
    return str(path)


class TestFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["detect", "x.csv"])
        assert args.deadline is None

    def test_values_parse(self):
        args = build_parser().parse_args(["detect", "x.csv", "--deadline", "30.5"])
        assert args.deadline == 30.5

    def test_non_positive_deadline_rejected(self, click_table, capsys):
        assert main(["detect", click_table, "--deadline", "0"]) == 2
        assert "deadline" in capsys.readouterr().err


class TestDetectWithResilience:
    def test_healthy_run_with_budgets(self, click_table, capsys):
        code = main(
            [
                "detect",
                click_table,
                "--k1", "4",
                "--k2", "4",
                "--deadline", "3600",
                "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "detected" in out
        assert "degraded" not in out

    def test_degraded_run_reports_provenance_and_counters(self, click_table, capsys):
        # An unreachable expectation forces a relaxation round, which the
        # injected fault cuts short.
        with injecting(FaultInjector(error=1.0, sites=("feedback",), max_faults=1)):
            code = main(
                [
                    "detect",
                    click_table,
                    "--k1", "4",
                    "--k2", "4",
                    "--expectation", "1000000",
                    "--trace",
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "degraded run (fallbacks: feedback.round1)" in out
        # The trace summary carries the resilience counters.
        assert "resilience.fallbacks" in out
