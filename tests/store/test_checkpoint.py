"""Service checkpoints commit the live index as a snapshot.

A checkpoint's full pass has just built the live index, so the version it
commits is a full snapshot of that index: no delta is written and nothing
is reloaded.  The sweep that compaction always ran still reclaims what an
absorbed write strands, and a checkpoint the store refuses loses nothing.
"""

import pytest

from repro import obs
from repro.config import RICDParams
from repro.datagen import tiny_scenario
from repro.resilience.faults import injecting
from repro.serve import DetectionService, ServeConfig, SimulatedClock, StalenessPolicy
from repro.store import DetectionStore

pytestmark = pytest.mark.servertest

PARAMS = RICDParams(k1=4, k2=4)


@pytest.fixture(scope="module")
def records():
    graph = tiny_scenario().graph
    return [
        (user, item, graph.get_click(user, item))
        for user in sorted(graph.users(), key=str)
        for item in sorted(graph.user_neighbors(user), key=str)
    ]


def make_service(root):
    return DetectionService.from_store(
        root,
        params=PARAMS,
        config=ServeConfig(staleness=StalenessPolicy(max_batches=10**9)),
        clock=SimulatedClock(),
    )


def ingest(service, rows):
    for user, item, clicks in rows:
        service.submit(user, item, clicks)
    service.pump_until_idle()


def assert_snapshot_head(store):
    entry = store.entry(store.head)
    assert "snapshot" in entry
    assert "delta" not in entry


def test_checkpoint_commits_a_snapshot_without_reloading(tmp_path, records):
    service = make_service(tmp_path / "store")
    half = len(records) // 2
    ingest(service, records[:half])
    service.online.recheck()  # a regional recheck commits a delta
    store = service.store
    assert "delta" in store.entry(store.head)
    ingest(service, records[half:])

    recorder = obs.Recorder()
    with obs.recording(recorder):
        service.checkpoint()

    assert_snapshot_head(store)
    assert recorder.counters.get("store.snapshot_loads", 0) == 0
    reopened = DetectionStore.open(store.root)
    for version in reopened.versions():
        reopened.load_snapshot(version)
    head = reopened.load_snapshot()
    assert head.num_edges == service.online.graph.num_edges
    assert head.total_clicks == service.online.graph.total_clicks
    assert reopened.verify() == []


def test_checkpoint_sweeps_a_stranded_delta(tmp_path, records):
    service = make_service(tmp_path / "store")
    ingest(service, records)
    store = service.store
    store.begin_version()
    store.put_delta([("uX", "i0", 3)])
    store.abort()
    assert store.verify() == [f"deltas/v{store.head + 1}.json"]

    service.checkpoint()

    assert "snapshot" in store.entry(store.head)
    assert store.verify() == []


def test_faulted_checkpoint_loses_nothing(tmp_path, records):
    service = make_service(tmp_path / "store")
    ingest(service, records)
    store = service.store
    head = store.head

    recorder = obs.Recorder()
    with obs.recording(recorder):
        with injecting("error=1.0,sites=store"):
            service.checkpoint()

    # Both the full recheck's write and the checkpoint's retry failed.
    assert recorder.counters["store.persist_failures"] == 2
    assert store.head == head
    reopened = DetectionStore.open(store.root)
    assert reopened.head == head
    reopened.load_snapshot()

    service.checkpoint()

    assert store.head == head + 1
    assert_snapshot_head(store)
    assert store.verify() == []
    loaded = DetectionStore.open(store.root).load_snapshot()
    assert loaded.total_clicks == service.online.graph.total_clicks
