"""The warm-start path: every cache layer rehydrates from the store.

Pins the cold==warm contract at each layer: the graph's memoized index
(zero ``graph.indexed.builds`` through a store load), the resolved
thresholds cache, the bitset fixpoint memos, the incremental detector's
resume, and the detection service's restart — including degraded/stale
provenance surviving the round trip.
"""

import pytest

from repro import obs
from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.core.incremental import IncrementalRICD
from repro.datagen import tiny_scenario
from repro.graph import BipartiteGraph
from repro.resilience.faults import injecting
from repro.serve import DetectionService, ServeConfig, SimulatedClock, StalenessPolicy
from repro.store import DetectionStore

from ..canon import canonical_result

pytestmark = pytest.mark.servertest

PARAMS = RICDParams(k1=4, k2=4)


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario()


def records_of(graph):
    return [
        (user, item, graph.get_click(user, item))
        for user in sorted(graph.users(), key=str)
        for item in sorted(graph.user_neighbors(user), key=str)
    ]


def persisted_store(tmp_path, graph, engine="bitset"):
    """A store holding one detected version of ``graph``."""
    detector = RICDDetector(params=PARAMS, engine=engine)
    result = detector.detect(graph)
    store = DetectionStore.create(tmp_path / "store")
    store.begin_version()
    snapshot = graph.indexed()
    store.put_snapshot(snapshot)
    from repro.store import memos_to_json

    store.put_thresholds(
        detector.params,
        detector.resolve_thresholds(graph),
        detector.screening,
        memos=memos_to_json(snapshot.derived),
    )
    store.put_result(result)
    store.commit()
    return store, result


class TestGraphWarmCache:
    def test_loaded_graph_indexes_without_a_miss(self, tmp_path, scenario):
        graph = scenario.graph.copy()
        store, _ = persisted_store(tmp_path, graph)
        recorder = obs.Recorder()
        with obs.recording(recorder):
            warm = DetectionStore.open(store.root).load_graph()
            warm.indexed()
        assert recorder.counters.get("graph.indexed.hits", 0) == 1
        assert recorder.counters.get("graph.indexed.builds", 0) == 0

    def test_snapshot_version_is_the_store_version(self, tmp_path, scenario):
        store, _ = persisted_store(tmp_path, scenario.graph.copy())
        assert store.load_snapshot().version == 1

    def test_mutating_the_warm_graph_invalidates_cleanly(self, tmp_path, scenario):
        store, _ = persisted_store(tmp_path, scenario.graph.copy())
        warm = store.load_graph()
        before = warm.indexed().num_edges
        warm.add_click("fresh-user", "fresh-item", 3)
        after = warm.indexed()
        assert after.num_edges == before + 1
        assert "fresh-user" in after.user_index


class TestThresholdRehydration:
    def test_rehydrated_thresholds_hit_without_resolving(self, tmp_path, scenario):
        graph = scenario.graph.copy()
        store, _ = persisted_store(tmp_path, graph)
        reopened = DetectionStore.open(store.root)
        warm = reopened.load_graph()
        stored_input, stored_resolved, _ = reopened.load_thresholds()
        detector = RICDDetector(params=stored_input)
        recorder = obs.Recorder()
        with obs.recording(recorder):
            resolved = detector.resolve_thresholds(warm)
        assert recorder.counters.get("detect.threshold_cache_hits", 0) == 1
        assert recorder.counters.get("detect.threshold_cache_misses", 0) == 0
        assert resolved == stored_resolved

    def test_rehydrated_values_match_a_cold_resolve(self, tmp_path, scenario):
        graph = scenario.graph.copy()
        store, _ = persisted_store(tmp_path, graph)
        _, stored_resolved, _ = DetectionStore.open(store.root).load_thresholds()
        # The detect inside persisted_store memoized graph's snapshot; a
        # copy starts cold, so the reference is derived, not looked up.
        recorder = obs.Recorder()
        with obs.recording(recorder):
            cold = RICDDetector(params=PARAMS).resolve_thresholds(graph.copy())
        assert recorder.counters.get("detect.threshold_cache_misses", 0) == 1
        assert stored_resolved == cold

    @pytest.mark.parametrize(
        "params, hits, misses",
        [(None, 1, 0), (PARAMS, 1, 0), (RICDParams(k1=5, k2=5), 0, 1)],
        ids=["stored", "same", "other"],
    )
    def test_from_store_hits_only_with_the_stored_params(
        self, tmp_path, scenario, params, hits, misses
    ):
        store, _ = persisted_store(tmp_path, scenario.graph.copy())
        online = IncrementalRICD.from_store(DetectionStore.open(store.root), params=params)
        recorder = obs.Recorder()
        with obs.recording(recorder):
            online._detector.resolve_thresholds(online.graph)
        assert recorder.counters.get("detect.threshold_cache_hits", 0) == hits
        assert recorder.counters.get("detect.threshold_cache_misses", 0) == misses


class TestFixpointMemoRehydration:
    def test_memos_round_trip_into_the_snapshot(self, tmp_path, scenario):
        graph = scenario.graph.copy()
        store, _ = persisted_store(tmp_path, graph, engine="bitset")
        cold_derived = graph.indexed().derived
        memo_keys = [key for key in cold_derived if key[0] == "prune_fixpoint_bitset"]
        assert memo_keys, "bitset detection should have left a fixpoint memo"
        warm = DetectionStore.open(store.root).load_snapshot()
        for key in memo_keys:
            assert key in warm.derived
            warm_users, warm_items = warm.derived[key]
            cold_users, cold_items = cold_derived[key]
            assert {str(u) for u in warm_users} == {str(u) for u in cold_users}
            assert {str(i) for i in warm_items} == {str(i) for i in cold_items}


class TestIncrementalResume:
    def test_resume_then_ingest_matches_cold_batch(self, tmp_path, scenario):
        graph = scenario.graph.copy()
        records = records_of(graph)
        half = len(records) // 2

        cold_half = BipartiteGraph()
        for user, item, clicks in records[:half]:
            cold_half.add_click(user, item, clicks)
        store = DetectionStore.create(tmp_path / "store")
        online = IncrementalRICD(cold_half, params=PARAMS)
        online.attach_store(store)
        online.persist_checkpoint()

        resumed = IncrementalRICD.from_store(DetectionStore.open(store.root))
        resumed.ingest(records[half:])
        resumed.recheck()

        expected = RICDDetector(params=PARAMS).detect(resumed.graph)
        assert canonical_result(resumed.current_result) == canonical_result(expected)

    def test_from_store_defaults_params_to_stored(self, tmp_path, scenario):
        store, _ = persisted_store(tmp_path, scenario.graph.copy())
        resumed = IncrementalRICD.from_store(DetectionStore.open(store.root))
        assert resumed._detector.params == PARAMS

    def test_resume_serves_persisted_result_without_detecting(self, tmp_path, scenario):
        store, result = persisted_store(tmp_path, scenario.graph.copy())
        resumed = IncrementalRICD.from_store(DetectionStore.open(store.root))
        assert canonical_result(resumed.current_result) == canonical_result(result)

    def test_recheck_persists_a_new_version(self, tmp_path, scenario):
        store, _ = persisted_store(tmp_path, scenario.graph.copy())
        resumed = IncrementalRICD.from_store(store)
        resumed.ingest([("fresh", "i-fresh", 9)])
        resumed.recheck()
        assert store.head == 2
        assert ("fresh", "i-fresh", 9) in store.load_delta_records(2)

    def test_persist_failure_keeps_records_pending(self, tmp_path, scenario):
        store, _ = persisted_store(tmp_path, scenario.graph.copy())
        resumed = IncrementalRICD.from_store(store)
        resumed.ingest([("fresh", "i-fresh", 9)])
        recorder = obs.Recorder()
        with obs.recording(recorder):
            with injecting("error=1.0,sites=store"):
                resumed.recheck()  # detection fine; persistence absorbed
        assert store.head == 1
        assert recorder.counters.get("store.persist_failures", 0) >= 1
        resumed.recheck()  # pressure off: pending records land
        assert store.head == 2
        assert ("fresh", "i-fresh", 9) in store.load_delta_records(2)

    def test_cleanup_forces_next_persist_to_snapshot(self, tmp_path, scenario):
        store, result = persisted_store(tmp_path, scenario.graph.copy())
        resumed = IncrementalRICD.from_store(store)
        if not result.suspicious_users:
            pytest.skip("scenario produced no removable suspicious nodes")
        user = next(iter(result.suspicious_users))
        item = next(iter(resumed.graph.user_neighbors(user)))
        resumed.apply_cleanup([(user, item, resumed.graph.get_click(user, item))])
        # Cleanup rechecks (and persists) immediately; the removal cannot
        # ride an append-only delta, so version 2 is a full snapshot.
        assert store.head == 2
        assert "snapshot" in store.entry(2)
        resumed.ingest([("post-clean", "i0", 2)])
        resumed.recheck()
        assert store.head == 3
        assert "delta" in store.entry(3)  # back to cheap deltas afterwards


class TestServiceRestart:
    def make_service(self, root, clock=None):
        return DetectionService.from_store(
            root,
            params=PARAMS,
            engine="reference",
            config=ServeConfig(staleness=StalenessPolicy(max_batches=10**9)),
            clock=clock or SimulatedClock(),
        )

    def test_bootstrap_commits_version_one(self, tmp_path):
        service = self.make_service(tmp_path / "store")
        assert service.store_version == 1

    def test_restart_resumes_same_result_at_same_version(self, tmp_path, scenario):
        service = self.make_service(tmp_path / "store")
        for user, item, clicks in records_of(scenario.graph):
            service.submit(user, item, clicks)
        checkpointed = service.checkpoint()
        version = service.store_version

        restarted = self.make_service(tmp_path / "store")
        assert restarted.store_version == version
        assert canonical_result(restarted.result) == canonical_result(checkpointed)

    def test_restart_equals_cold_detection(self, tmp_path, scenario):
        service = self.make_service(tmp_path / "store")
        for user, item, clicks in records_of(scenario.graph):
            service.submit(user, item, clicks)
        service.checkpoint()
        restarted = self.make_service(tmp_path / "store")
        # A copy is cold: no thresholds or fixpoints the store installed.
        cold = RICDDetector(params=PARAMS, engine="reference").detect(
            restarted.online.graph.copy()
        )
        assert canonical_result(restarted.result) == canonical_result(cold)

    def test_stale_flag_survives_the_round_trip(self, tmp_path, scenario):
        service = self.make_service(tmp_path / "store")
        for user, item, clicks in records_of(scenario.graph):
            service.submit(user, item, clicks)
        service.pump_until_idle()
        with injecting("error=1.0,sites=recheck,max=1"):
            service.online.recheck()
        assert service.result.stale
        assert service.store_version is not None
        restarted = self.make_service(tmp_path / "store")
        assert restarted.result.stale
        assert restarted.snapshot().degraded
