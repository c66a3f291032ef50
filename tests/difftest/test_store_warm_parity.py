"""Differential test: warm store resume equals a cold build.

The store layer promises that persisting a detected version and
rehydrating every cache layer from it — the indexed snapshot, the
resolved thresholds, the fixpoint memos — changes *nothing* observable
about detection.  Both paths are pinned in canonical, order-free form
across the shared scenario grid.
"""

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.framework import RICDDetector
from repro.core.incremental import IncrementalRICD
from repro.graph import BipartiteGraph
from repro.store import DetectionStore, memos_to_json

from ..canon import canonical_result
from .scenarios import SCENARIO_GRID, build_scenario

pytestmark = pytest.mark.difftest

PARAMS = RICDParams(k1=5, k2=5)
SCREENING = ScreeningParams()


def click_records(graph):
    return [
        (user, item, graph.get_click(user, item))
        for user in sorted(graph.users(), key=str)
        for item in sorted(graph.user_neighbors(user), key=str)
    ]


def persist_detected(root, graph):
    """Detect cold, commit one fully-derived version, return the result."""
    detector = RICDDetector(params=PARAMS, screening=SCREENING, engine="bitset")
    result = detector.detect(graph)
    store = DetectionStore.create(root)
    store.begin_version()
    snapshot = graph.indexed()
    store.put_snapshot(snapshot)
    store.put_thresholds(
        detector.params,
        detector.resolve_thresholds(graph),
        detector.screening,
        memos=memos_to_json(snapshot.derived),
    )
    store.put_result(result)
    store.commit()
    return result


@pytest.mark.parametrize("case", SCENARIO_GRID, ids=lambda case: case[0])
def test_warm_detection_matches_cold(case, tmp_path):
    """Reload + rehydrate + detect == the detection that was persisted."""
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)
    cold = persist_detected(tmp_path / "store", scenario.graph)

    reopened = DetectionStore.open(tmp_path / "store")
    warm_graph = reopened.load_graph()
    stored_params, stored_resolved, stored_screening = reopened.load_thresholds()
    warm_detector = RICDDetector(
        params=stored_params,
        screening=stored_screening,
        engine="bitset",
    )
    warm_detector._thresholds().rehydrate(warm_graph, stored_params, stored_resolved)
    warm = warm_detector.detect(warm_graph)

    assert canonical_result(warm) == canonical_result(cold)
    assert canonical_result(reopened.load_result()) == canonical_result(cold)


@pytest.mark.parametrize("case", SCENARIO_GRID, ids=lambda case: case[0])
def test_warm_resume_then_stream_matches_cold_batch(case, tmp_path):
    """Persist a prefix, resume from the store, stream the rest: the final
    state equals a one-shot cold detection over the full table."""
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)
    records = click_records(scenario.graph)
    half = len(records) // 2

    prefix = BipartiteGraph()
    for user, item, clicks in records[:half]:
        prefix.add_click(user, item, clicks)
    persist_detected(tmp_path / "store", prefix)

    resumed = IncrementalRICD.from_store(DetectionStore.open(tmp_path / "store"))
    resumed.ingest(records[half:])
    resumed.recheck()

    expected = RICDDetector(params=PARAMS, screening=SCREENING).detect(resumed.graph)
    assert resumed.graph.num_edges == scenario.graph.num_edges
    assert canonical_result(resumed.current_result) == canonical_result(expected)
