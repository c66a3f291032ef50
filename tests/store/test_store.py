"""The versioned detection store: write protocol, reads, integrity, crashes.

Everything here runs on ``tmp_path`` stores; the crash-safety class
drives the ``store`` fault-injection site and pins the catalog contract:
a version exists exactly when the catalog references it, and the catalog
never references a partial artifact.
"""

import json

import numpy as np
import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.framework import RICDDetector
from repro.core.groups import DetectionResult, SuspiciousGroup
from repro.errors import (
    CorruptArtifactError,
    ReproError,
    SchemaVersionError,
    StoreError,
)
from repro.graph import BipartiteGraph
from repro.resilience.faults import injecting
from repro.store import CATALOG_SCHEMA, DetectionStore

from ..canon import canonical_result

pytestmark = pytest.mark.servertest

PARAMS = RICDParams(k1=3, k2=3)


def attack_graph() -> BipartiteGraph:
    graph = BipartiteGraph()
    for u in range(5):
        for i in range(5):
            graph.add_click(f"u{u}", f"i{i}", 40)
    for u in range(30):
        for i in range(4):
            graph.add_click(f"bg{u}", f"b{(u + i) % 11}", 1)
    return graph


def commit_snapshot(store, graph, result=None):
    store.begin_version()
    store.put_snapshot(graph.indexed())
    if result is not None:
        store.put_result(result)
    return store.commit()


class TestLifecycle:
    def test_create_open_round_trip(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        assert store.head is None and store.versions() == []
        again = DetectionStore.open(tmp_path / "s")
        assert again.head is None

    def test_create_refuses_existing_store(self, tmp_path):
        DetectionStore.create(tmp_path / "s")
        with pytest.raises(StoreError):
            DetectionStore.create(tmp_path / "s")

    def test_open_refuses_non_store(self, tmp_path):
        with pytest.raises(StoreError):
            DetectionStore.open(tmp_path)

    def test_open_rejects_unknown_catalog_schema(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        catalog = json.loads((store.root / "catalog.json").read_text())
        catalog["schema"] = "ricd.store/99"
        (store.root / "catalog.json").write_text(json.dumps(catalog))
        with pytest.raises(SchemaVersionError) as excinfo:
            DetectionStore.open(tmp_path / "s")
        assert excinfo.value.found == "ricd.store/99"
        assert CATALOG_SCHEMA in excinfo.value.supported

    def test_open_or_create_is_idempotent(self, tmp_path):
        first = DetectionStore.open_or_create(tmp_path / "s")
        commit_snapshot(first, attack_graph())
        second = DetectionStore.open_or_create(tmp_path / "s")
        assert second.head == 1


class TestWriteProtocol:
    def test_versions_are_monotone(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        graph = attack_graph()
        assert commit_snapshot(store, graph) == 1
        store.begin_version()
        store.put_delta([("uX", "i0", 3)])
        assert store.commit() == 2
        assert store.versions() == [1, 2]

    def test_first_version_must_be_a_snapshot(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        store.begin_version()
        with pytest.raises(StoreError):
            store.put_delta([("u", "i", 1)])

    def test_commit_requires_snapshot_or_delta(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        store.begin_version()
        with pytest.raises(StoreError):
            store.commit()

    def test_concurrent_begin_rejected_and_abort_clears(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        store.begin_version()
        with pytest.raises(StoreError):
            store.begin_version()
        store.abort()
        assert store.begin_version() == 1

    def test_put_without_begin_raises(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        with pytest.raises(StoreError):
            store.put_snapshot(attack_graph().indexed())

    def test_delta_is_written_on_one_line(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("zz", "i0", 5), ("zz", "i1", 2)])
        store.commit()
        text = (store.root / store.entry(2)["delta"]).read_text()
        assert len(text.splitlines()) == 1
        assert store.load_delta_records(2) == [("zz", "i0", 5), ("zz", "i1", 2)]

    def test_unknown_version_reads_raise(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        with pytest.raises(StoreError):
            store.load_snapshot()  # empty store
        commit_snapshot(store, attack_graph())
        with pytest.raises(StoreError):
            store.entry(7)


class TestRoundTrips:
    def test_snapshot_load_equals_cold_index(self, tmp_path):
        graph = attack_graph()
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, graph)
        loaded = DetectionStore.open(tmp_path / "s").load_snapshot()
        cold = graph.indexed()
        assert list(loaded.users) == [str(u) for u in cold.users]
        np.testing.assert_array_equal(loaded.user_idx, cold.user_idx)
        np.testing.assert_array_equal(loaded.item_idx, cold.item_idx)
        np.testing.assert_array_equal(loaded.clicks, cold.clicks)

    def test_delta_chain_replay_equals_cold_build(self, tmp_path):
        graph = attack_graph()
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, graph)
        extra = [("zz1", "i0", 7), ("u0", "i0", 2), ("zz1", "zzi", 1)]
        more = [("zz2", "zzi", 4)]
        for batch in (extra, more):
            store.begin_version()
            store.put_delta(batch)
            store.commit()
        for user, item, clicks in extra + more:
            graph.add_click(user, item, clicks)
        loaded = DetectionStore.open(tmp_path / "s").load_graph()
        cold = graph.indexed()
        warm = loaded.indexed()
        assert warm.num_edges == cold.num_edges
        np.testing.assert_array_equal(warm.clicks, cold.clicks)
        assert sorted(map(str, loaded.users())) == sorted(map(str, graph.users()))

    def test_intermediate_versions_stay_loadable(self, tmp_path):
        graph = attack_graph()
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, graph)
        store.begin_version()
        store.put_delta([("late", "i0", 9)])
        store.commit()
        v1 = store.load_snapshot(1)
        assert "late" not in v1.user_index
        v2 = store.load_snapshot(2)
        assert "late" in v2.user_index

    def test_result_round_trip_preserves_provenance(self, tmp_path):
        graph = attack_graph()
        result = RICDDetector(params=PARAMS).detect(graph)
        result.degraded = True
        result.degradations = ("shard.2", "serve.stale")
        result.stale = True
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, graph, result)
        loaded = DetectionStore.open(tmp_path / "s").load_result()
        assert loaded.degraded and loaded.stale
        assert loaded.degradations == ("shard.2", "serve.stale")
        assert canonical_result(loaded) == canonical_result(result)

    def test_thresholds_round_trip(self, tmp_path):
        graph = attack_graph()
        detector = RICDDetector(params=PARAMS)
        resolved = detector.resolve_thresholds(graph)
        store = DetectionStore.create(tmp_path / "s")
        store.begin_version()
        store.put_snapshot(graph.indexed())
        store.put_thresholds(PARAMS, resolved, ScreeningParams(hot_click_cap=6.0))
        store.commit()
        stored_input, stored_resolved, stored_screening = DetectionStore.open(
            tmp_path / "s"
        ).load_thresholds()
        assert stored_input == PARAMS
        assert stored_resolved == resolved
        assert stored_screening.hot_click_cap == 6.0

    def test_missing_slots_read_as_none(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        assert store.load_result() is None
        assert store.load_thresholds() is None

    def test_groups_survive_the_round_trip(self, tmp_path):
        group = SuspiciousGroup(
            users=frozenset({"u1", "u2"}),
            items=frozenset({"i1", "i2"}),
            hot_items=frozenset({"h1"}),
        )
        result = DetectionResult.from_groups([group])
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph(), result)
        loaded = store.load_result()
        (loaded_group,) = loaded.groups
        assert set(map(str, loaded_group.users)) == {"u1", "u2"}
        assert set(map(str, loaded_group.hot_items)) == {"h1"}


class TestCompaction:
    def test_compact_folds_the_delta_chain(self, tmp_path):
        graph = attack_graph()
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, graph)
        store.begin_version()
        store.put_delta([("zz", "i0", 5)])
        store.commit()
        before = store.load_snapshot()
        assert store.compact() == 2
        assert "snapshot" in store.entry(2)
        after = DetectionStore.open(tmp_path / "s").load_snapshot()
        np.testing.assert_array_equal(before.clicks, after.clicks)
        assert before.users == after.users

    def test_compact_is_idempotent(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        assert store.compact() == 1
        assert store.compact() == 1

    def test_history_survives_compaction(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("zz", "i0", 5)])
        store.commit()
        store.compact()
        v1 = store.load_snapshot(1)
        assert "zz" not in v1.user_index
        store.verify()


class TestIntegrity:
    def test_verify_passes_on_clean_store(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph(), RICDDetector(params=PARAMS).detect(attack_graph()))
        store.verify()

    def test_verify_detects_bit_rot(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph(), RICDDetector(params=PARAMS).detect(attack_graph()))
        result_path = store.root / store.entry(1)["result"]
        result_path.write_text(result_path.read_text().replace("suspicious", "suspect"))
        with pytest.raises(CorruptArtifactError) as excinfo:
            store.verify()
        assert excinfo.value.version == 1

    def test_delta_base_mismatch_is_corrupt(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        for user in ("v2_user", "v3_user"):
            store.begin_version()
            store.put_delta([(user, "i0", 3)])
            store.commit()
        # A v3 delta claiming v1 as its base would replay without v2.
        path = store.root / store.entry(3)["delta"]
        payload = json.loads(path.read_text())
        payload["base"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptArtifactError) as excinfo:
            DetectionStore.open(tmp_path / "s").load_snapshot(3)
        assert excinfo.value.version == 3

    def test_verify_detects_missing_artifact(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        snapshot_dir = store.root / store.entry(1)["snapshot"]
        next(iter(sorted(snapshot_dir.iterdir()))).unlink()
        with pytest.raises(CorruptArtifactError):
            store.verify(1)


class TestCrashSafety:
    """The ``store`` injection site: catalog never names a partial artifact."""

    def test_fault_before_artifact_write_leaves_store_unchanged(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        with injecting("error=1.0,sites=store,max=1"):
            with pytest.raises(ReproError):
                store.put_delta([("zz", "i0", 1)])
        store.abort()
        reopened = DetectionStore.open(tmp_path / "s")
        assert reopened.head == 1
        reopened.verify()

    def test_fault_at_catalog_publish_rolls_back(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("zz", "i0", 1)])
        with injecting("error=1.0,sites=store,max=1"):
            with pytest.raises(ReproError):
                store.commit()
        # In-memory view rolled back to match the on-disk catalog.
        assert store.head == 1
        reopened = DetectionStore.open(tmp_path / "s")
        assert reopened.head == 1 and reopened.versions() == [1]
        reopened.verify()
        # The orphaned delta file is invisible; a retry reclaims the slot.
        store.abort()
        store.begin_version()
        store.put_delta([("zz", "i0", 1)])
        assert store.commit() == 2
        assert "zz" in store.load_snapshot().user_index

    def test_interrupted_compaction_keeps_the_chain_loadable(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("zz", "i0", 1)])
        store.commit()
        with injecting("error=1.0,sites=store,max=1"):
            with pytest.raises(ReproError):
                store.compact()
        reopened = DetectionStore.open(tmp_path / "s")
        assert "snapshot" not in reopened.entry(2)
        assert "zz" in reopened.load_snapshot().user_index
        reopened.verify()

    def test_sustained_faults_never_corrupt_the_catalog(self, tmp_path):
        """Probabilistic storm: every surviving commit is fully readable."""
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        committed = 1
        with injecting("error=0.4,sites=store,seed=7"):
            for round_index in range(12):
                store.begin_version()
                try:
                    store.put_delta([(f"w{round_index}", "i0", 1 + round_index)])
                    store.commit()
                    committed += 1
                except ReproError:
                    store.abort()
        reopened = DetectionStore.open(tmp_path / "s")
        assert reopened.head == committed
        assert reopened.versions() == list(range(1, committed + 1))
        reopened.verify()
        reopened.load_snapshot()
