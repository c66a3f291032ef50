"""What a resumed service's ingest, rechecks and checkpoints never do.

The live graph is array-backed: ingest interns each batch into a tail and
writes no adjacency dict, a recheck or checkpoint merges the tail into the
index once, and screening and identification read only group members'
rows.  So, counted by ``repro.obs`` on a service resumed from a store:

* ingest hydrates no user or item;
* a recheck and a checkpoint build no CSC arrays, hydrate no item and
  rebuild no index;
* each merge is exactly one ``graph.indexed.delta_builds``;
* the status route's counts merge nothing;
* a cleanup neither flattens the live graph nor rebuilds its index, so
  later ingest and rechecks cost what they cost before it.
"""

import pytest

from repro import obs
from repro.config import RICDParams
from repro.core.incremental import IncrementalRICD
from repro.core.screening import collect_fake_edges
from repro.core.thresholds import t_click_from_graph
from repro.datagen import tiny_scenario
from repro.serve import (
    ClickEvent,
    DetectionService,
    ServeConfig,
    SimulatedClock,
    StalenessPolicy,
)

pytestmark = pytest.mark.servertest

PARAMS = RICDParams(k1=4, k2=4)


def batch_of(graph, start, size):
    """Clicks by existing users on existing items, plus one new pair."""
    edges = list(graph.edges())
    events = [
        ClickEvent(user, item, 2)
        for user, item, _ in edges[start * size : (start + 1) * size - 1]
    ]
    return events + [ClickEvent(f"new-user-{start}", f"new-item-{start}", 3)]


def test_resumed_ingest_and_rechecks_skip_dicts_and_the_csc(tmp_path):
    scenario = tiny_scenario()
    store = tmp_path / "store"
    DetectionService.from_store(store, initial_graph=scenario.graph, params=PARAMS)
    service = DetectionService.from_store(
        store,
        params=PARAMS,
        config=ServeConfig(
            max_batch=50,
            staleness=StalenessPolicy(max_dirty=None, max_batches=3, max_age=None),
        ),
        clock=SimulatedClock(),
    )
    ingest, recheck, checkpoint = obs.Recorder(), obs.Recorder(), obs.Recorder()
    pumps = 0
    while True:
        service.submit_events(batch_of(scenario.graph, pumps, 50))
        pumps += 1
        recorder = obs.Recorder()
        with obs.recording(recorder):
            report = service.pump()
        if report.recheck_reason is not None:
            break
        for name, value in recorder.counters.items():
            ingest.counters[name] = ingest.counters.get(name, 0) + value
    assert report.recheck_reason == "batches" and pumps == 3
    recheck = recorder
    service.submit_events(batch_of(scenario.graph, pumps, 50))
    with obs.recording(checkpoint):
        service.checkpoint()

    assert ingest.counters.get("graph.lazy.user_hydrations", 0) == 0
    assert ingest.counters.get("graph.lazy.item_hydrations", 0) == 0
    assert ingest.counters.get("graph.indexed.delta_builds", 0) == 0
    for recorder in (recheck, checkpoint):
        counters = recorder.counters
        assert counters.get("graph.indexed.csc_builds", 0) == 0
        assert counters.get("graph.lazy.item_hydrations", 0) == 0
        assert counters.get("graph.indexed.builds", 0) == 0
        assert counters.get("graph.indexed.delta_builds", 0) == 1
    # Both passes did screen and rank groups from members' rows.
    assert service.result.groups
    assert checkpoint.counters.get("graph.lazy.user_hydrations", 0) > 0


def test_a_status_read_between_rechecks_merges_nothing(tmp_path):
    scenario = tiny_scenario()
    store = tmp_path / "store"
    DetectionService.from_store(store, initial_graph=scenario.graph, params=PARAMS)
    service = DetectionService.from_store(
        store,
        params=PARAMS,
        config=ServeConfig(
            max_batch=50,
            staleness=StalenessPolicy(max_dirty=None, max_batches=10**9, max_age=None),
        ),
        clock=SimulatedClock(),
    )
    service.submit_events(batch_of(scenario.graph, 0, 50))
    assert service.pump().recheck_reason is None
    status = obs.Recorder()
    with obs.recording(status):
        _, _, (users, items, edges) = service.vitals()
    assert status.counters.get("graph.indexed.delta_builds", 0) == 0
    # 49 repeat clicks and one new pair.
    assert edges == scenario.graph.num_edges + 1
    assert (users, items, edges) == (
        scenario.graph.num_users + 1,
        scenario.graph.num_items + 1,
        service.online.graph.indexed().num_edges,
    )


def test_a_cleanup_keeps_the_resumed_live_graph_array_backed(tmp_path):
    scenario = tiny_scenario()
    store = tmp_path / "store"
    DetectionService.from_store(store, initial_graph=scenario.graph, params=PARAMS)
    online = IncrementalRICD.from_store(store, params=PARAMS)

    def records(start):
        return [event[:3] for event in batch_of(scenario.graph, start, 50)]

    def cleanup():
        group = online.current_result.groups[0]
        edges = collect_fake_edges(online.graph, group, t_click_from_graph(online.graph))
        before = online.graph.total_clicks
        online.apply_cleanup(edges)
        assert online.graph.total_clicks == before - sum(clicks for _, _, clicks in edges)

    steps = [
        ("ingest", lambda: online.ingest(records(0))),
        ("detect", online.recheck),
        ("cleanup", cleanup),
        ("later ingest", lambda: online.ingest(records(1))),
        ("recheck", online.recheck),
    ]
    counted = {}
    for name, step in steps:
        with obs.recording(obs.Recorder()) as recorder:
            step()
        counted[name] = recorder.counters
    for name, counters in counted.items():
        assert counters.get("graph.indexed.builds", 0) == 0, name
    later = counted["later ingest"]
    assert later.get("graph.lazy.user_hydrations", 0) == 0
    assert later.get("graph.lazy.item_hydrations", 0) == 0
    assert later.get("graph.indexed.delta_builds", 0) == 0
    assert counted["detect"].get("graph.indexed.delta_builds", 0) == 1
    assert counted["recheck"].get("graph.indexed.delta_builds", 0) == 1
