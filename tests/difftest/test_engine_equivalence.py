"""Differential tests: every alternate execution path must agree exactly.

The repo has three pairs of paths that promise identical detection
output:

* the pure-Python **reference** extraction engine vs the numpy **bitset**
  engine (and ``auto``, the retired spelling that maps to bitset);
* the **serial** evaluation harness vs the ``jobs=2`` process-pool path;
* running with an **active recorder** (``--trace``) vs without.

Each pair is exercised over a grid of seeded randomized scenarios that
vary the attack density (biclique vs near-biclique), the marketplace's
hot-item skew, and camouflage on/off — the axes along which the engines'
pruning orders could plausibly diverge.  Canonical group sets, not just
summary metrics, are compared.
"""

import pytest

from repro import obs
from repro.config import RICDParams
from repro.core.extraction import extract_groups
from repro.core.extraction_bitset import extract_groups_bitset
from repro.core.framework import RICDDetector
from repro.eval import run_suite
from repro.eval.reporting import format_float, render_table

from .scenarios import SCENARIO_GRID, build_scenario

pytestmark = pytest.mark.difftest


@pytest.fixture(scope="module", params=SCENARIO_GRID, ids=lambda case: case[0])
def scenario(request):
    _, seed, density, exponent, camouflage = request.param
    return build_scenario(seed, density, exponent, camouflage)


def _group_set(groups):
    """Order-free canonical form of a group list."""
    return {
        (frozenset(map(str, g.users)), frozenset(map(str, g.items)))
        for g in groups
    }


def _result_key(result):
    return (
        sorted(map(str, result.suspicious_users)),
        sorted(map(str, result.suspicious_items)),
        _group_set(result.groups),
    )


class TestEngineEquivalence:
    def test_bitset_extraction_identical_groups(self, scenario):
        params = RICDParams(k1=5, k2=5, t_hot=60, t_click=12)
        reference = extract_groups(scenario.graph, params)
        bitset = extract_groups_bitset(scenario.graph, params)
        assert _group_set(reference) == _group_set(bitset)

    @pytest.mark.parametrize("seeded", [False, True], ids=["full", "seeded"])
    def test_full_detector_identical_across_engines(self, scenario, seeded):
        # Seeded: Algorithm 2 from the first planted worker, so the bitset
        # kernel runs under region masks and the reference engine on the
        # subgraph they induce.
        params = RICDParams(k1=5, k2=5)
        seeds = [scenario.truth.groups[0].workers[0]] if seeded else []
        keys = {}
        for engine in ("reference", "bitset", "auto"):
            detector = RICDDetector(
                params=params,
                engine=engine,
            )
            keys[engine] = _result_key(detector.detect(scenario.graph, seed_users=seeds))
        assert keys["reference"] == keys["bitset"] == keys["auto"]


def _suite():
    # COPYCATCH is excluded: its wall-clock deadline is the one legitimate
    # source of run-to-run variation (see tests/eval/test_parallel.py).
    from repro.baselines import (
        CommonNeighborsDetector,
        LabelPropagationDetector,
        NaiveDetector,
        WithScreening,
    )

    params = RICDParams(k1=5, k2=5)
    return [
        RICDDetector(params=params),
        WithScreening(LabelPropagationDetector(min_users=5, min_items=5)),
        WithScreening(
            CommonNeighborsDetector(cn_threshold=5, min_users=5, min_items=5)
        ),
        NaiveDetector(),
    ]


def _suite_report(runs) -> str:
    """A deterministic textual report: everything except wall-clock."""
    rows = [
        [
            run.name,
            format_float(run.exact.precision),
            format_float(run.exact.recall),
            format_float(run.exact.f1),
            format_float(run.known.f1 if run.known else None),
            len(run.result.suspicious_users),
            len(run.result.suspicious_items),
            len(run.result.groups),
            run.degraded,
        ]
        for run in runs
    ]
    return render_table(
        ["method", "P", "R", "F1", "F1(known)", "users", "items", "groups", "degraded"],
        rows,
    )


class TestParallelEquivalence:
    def test_serial_vs_jobs2_reports_byte_identical(self, scenario):
        serial = run_suite(_suite(), scenario, label_seed=5)
        parallel = run_suite(_suite(), scenario, label_seed=5, jobs=2)
        assert _suite_report(serial) == _suite_report(parallel)
        for left, right in zip(serial, parallel):
            assert _result_key(left.result) == _result_key(right.result)


class TestRecorderTransparency:
    def test_enabled_recorder_changes_no_detection_output(self, scenario):
        detector = RICDDetector(params=RICDParams(k1=5, k2=5))
        plain = detector.detect(scenario.graph)
        with obs.recording(obs.Recorder()) as recorder:
            traced = detector.detect(scenario.graph)
        assert _result_key(plain) == _result_key(traced)
        # Sanity: the traced run really did record.
        assert recorder.counters["identify.groups"] == len(traced.groups)

    def test_traced_suite_report_matches_untraced(self, scenario):
        untraced = run_suite(_suite(), scenario, label_seed=5, jobs=2)
        with obs.recording(obs.Recorder()):
            traced = run_suite(_suite(), scenario, label_seed=5, jobs=2)
        assert _suite_report(untraced) == _suite_report(traced)
