"""Fig. 8 — the baseline comparison (quality 8a, elapsed time 8b).

Each detector in the paper's line-up is benchmarked individually (the
pytest-benchmark comparison table is the Fig. 8b equivalent), and one
summary test renders the Fig. 8a quality table and asserts the paper's
robust shape claims:

* RICD has the highest exact precision among detectors with recall > 0.3
  (dense-but-time-boxed COPYCATCH may edge precision at very low recall);
* community methods (Louvain) trade precision for recall;
* FRAUDAR and COPYCATCH recall fall below RICD's (block-budget and
  deadline limits, as the paper reports);
* the naive algorithm is the fastest and the weakest.
"""

import dataclasses

import pytest

from repro.eval.harness import default_detector_suite, evaluate_detector
from repro.eval.reporting import format_float, render_table

COPYCATCH_DEADLINE = 5.0


def _suite():
    return {d.name: d for d in default_detector_suite(copycatch_deadline=COPYCATCH_DEADLINE)}


def _cold(scenario):
    """``scenario`` over a copy of its graph: a fresh snapshot, no memos.

    The session-scoped graph keeps whatever snapshot and fixpoint memo an
    earlier test left on it; timing a detector on it would time RICD's
    extraction as a cache hit while every baseline runs cold.
    """
    return dataclasses.replace(scenario, graph=scenario.graph.copy())


@pytest.fixture(scope="module")
def quality_runs(scenario, known_labels):
    """One evaluated run per detector, shared by the assertions below."""
    return {
        name: evaluate_detector(detector, _cold(scenario), known_labels)
        for name, detector in _suite().items()
    }


@pytest.mark.parametrize(
    "name",
    ["RICD", "LPA+UI", "CN+UI", "Louvain+UI", "COPYCATCH+UI", "FRAUDAR+UI", "Naive+UI"],
)
def test_fig8b_detector_elapsed(benchmark, scenario, name):
    """Fig. 8b: end-to-end elapsed time per detector (one timed round)."""
    detector = _suite()[name]
    graph = scenario.graph.copy()  # cold, as in _cold
    benchmark.pedantic(detector.detect, args=(graph,), rounds=1, iterations=1)


def test_fig8a_quality_table(benchmark, quality_runs, emit_report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for name, run in quality_runs.items():
        rows.append(
            [
                name,
                format_float(run.exact.precision),
                format_float(run.exact.recall),
                format_float(run.exact.f1),
                format_float(run.known.precision),
                format_float(run.known.recall),
                format_float(run.known.f1),
                format_float(run.elapsed, 2),
            ]
        )
    emit_report(
        render_table(
            ["method", "P", "R", "F1", "P(known)", "R(known)", "F1(known)", "elapsed s"],
            rows,
            title="Fig. 8a — baseline comparison (exact truth / paper's partial labels)",
        )
    )

    ricd = quality_runs["RICD"]
    assert ricd.exact.recall > 0.3, "RICD must retain meaningful recall"
    # RICD precision leads among all usable-recall detectors.
    for name, run in quality_runs.items():
        if name != "RICD" and run.exact.recall > 0.3:
            assert ricd.exact.precision >= run.exact.precision - 0.12, name

    # Community methods: recall-rich, precision-poor relative to RICD.
    louvain = quality_runs["Louvain+UI"]
    assert louvain.exact.recall >= ricd.exact.recall - 0.05
    assert louvain.exact.precision < ricd.exact.precision

    # Dense-graph methods: COPYCATCH dies on the deadline (worst recall);
    # FRAUDAR is precision-competitive but recall-limited by its block budget.
    copycatch = quality_runs["COPYCATCH+UI"]
    assert copycatch.exact.recall < ricd.exact.recall

    # Naive is the weakest detector overall.
    naive = quality_runs["Naive+UI"]
    assert naive.exact.f1 <= min(
        run.exact.f1 for name, run in quality_runs.items() if name != "Naive+UI"
    ) + 1e-9


def test_fig8b_time_table(benchmark, quality_runs, emit_report):
    """The Fig. 8b split: detection time dominates the UI (screening) time."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for name, run in quality_runs.items():
        if name in ("COPYCATCH+UI", "FRAUDAR+UI"):
            continue  # excluded from the paper's timing comparison
        detection = run.result.timings.get("detection", 0.0)
        screening = run.result.timings.get("screening", 0.0)
        rows.append(
            [
                name,
                format_float(run.elapsed, 3),
                format_float(detection, 3),
                format_float(screening, 3),
            ]
        )
    emit_report(
        render_table(
            ["method", "elapsed (s)", "detection (s)", "UI (s)"],
            rows,
            title="Fig. 8b — elapsed time (COPYCATCH/FRAUDAR excluded, as in the paper)",
        )
    )
    # Paper: "the elapsed time of the detection algorithm occupies most of
    # the time" and "the naive algorithm [is] the best performer".
    naive = quality_runs["Naive+UI"]
    others = [r for n, r in quality_runs.items() if n not in ("Naive+UI", "COPYCATCH+UI", "FRAUDAR+UI")]
    assert all(naive.elapsed <= run.elapsed for run in others)
    ricd = quality_runs["RICD"]
    assert ricd.result.timings["detection"] > ricd.result.timings["screening"]
