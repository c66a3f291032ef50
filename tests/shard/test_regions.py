"""Multi-region stores: global thresholds, canonical merge, warm restart.

The one-store-per-region layout keeps thresholds global: a cold region
must inherit marketplace-level thresholds from the union graph, the
per-region groups must fold through one total order, and the merged
verdict must be reconstructible from the region stores alone after a
restart.
"""

import random

import pytest

from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.datagen import tiny_scenario
from repro.errors import StoreError
from repro.graph import BipartiteGraph
from repro.shard import RegionalStores, detect_regions
from repro.shard.regions import group_sort_key, merge_groups

from .canon import canonical_result

pytestmark = pytest.mark.servertest

PARAMS = RICDParams(k1=4, k2=4)


@pytest.fixture(scope="module")
def attack_graph():
    return tiny_scenario().graph


@pytest.fixture(scope="module")
def cold_graph():
    """A quiet region: light organic traffic, nothing hot, no attack."""
    graph = BipartiteGraph()
    for u in range(25):
        for i in range(3):
            graph.add_click(f"eu_u{u}", f"eu_i{(u + i) % 10}", 1)
    return graph


def edges(graph):
    return [(user, item, clicks) for user, item, clicks in graph.edges()]


@pytest.fixture(scope="module")
def federated_groups():
    """Merged groups of three attacked tiny regions (one group each)."""
    regions = {}
    for region in range(3):
        graph = BipartiteGraph()
        for user, item, clicks in tiny_scenario(seed=region).graph.edges():
            graph.add_click(f"r{region}:{user}", f"r{region}:{item}", clicks)
        regions[f"r{region}"] = graph
    merged, _ = detect_regions(regions, params=PARAMS, engine="reference")
    return merged.groups


@pytest.fixture()
def layout(tmp_path, attack_graph, cold_graph):
    layout = RegionalStores.open_or_create(tmp_path / "regions")
    layout.ingest("na", edges(attack_graph))
    layout.ingest("eu", edges(cold_graph))
    return layout


class TestLayout:
    def test_regions_discovered_and_sorted(self, layout):
        assert layout.regions() == ("eu", "na")

    def test_invalid_region_names_rejected(self, layout):
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(StoreError):
                layout.region_store(bad)

    def test_ingest_bootstraps_then_appends_deltas(self, layout):
        store = layout.region_store("na")
        assert "snapshot" in store.entry(1)
        version = layout.ingest("na", [("late", "i0", 2)])
        assert version == 2
        assert "delta" in store.entry(2)

    def test_empty_checkpoint_raises(self, tmp_path):
        empty = RegionalStores.open_or_create(tmp_path / "none")
        with pytest.raises(StoreError):
            empty.checkpoint(params=PARAMS)


class TestGlobalThresholds:
    def test_every_region_persists_the_union_thresholds(self, layout):
        merged, reports = layout.checkpoint(params=PARAMS, engine="reference")
        resolved_by_region = {}
        for region in layout.regions():
            _, resolved, _ = layout.region_store(region).load_thresholds()
            resolved_by_region[region] = (resolved.t_hot, resolved.t_click)
        assert len(set(resolved_by_region.values())) == 1, resolved_by_region

    def test_cold_region_does_not_lower_the_bar(self, layout, attack_graph, cold_graph):
        """A quiet region detecting with local thresholds would flag its
        organic traffic; with union thresholds it stays clean."""
        merged, reports = layout.checkpoint(params=PARAMS, engine="reference")
        by_region = {report.region: report for report in reports}
        assert by_region["na"].suspicious_users > 0
        assert by_region["eu"].suspicious_users == 0
        # Everything merged is attributable to the attacked region.
        na_result = layout.region_store("na").load_result()
        assert {str(u) for u in merged.suspicious_users} == {
            str(u) for u in na_result.suspicious_users
        }

    def test_single_region_equals_plain_detection(self, tmp_path, attack_graph):
        layout = RegionalStores.open_or_create(tmp_path / "solo")
        layout.ingest("only", edges(attack_graph))
        merged, _ = layout.checkpoint(params=PARAMS, engine="reference")
        loaded = layout.region_store("only").load_graph()
        expected = RICDDetector(params=PARAMS, engine="reference").detect(loaded)
        assert canonical_result(merged) == canonical_result(expected)


class TestMergeAndRestart:
    def test_merge_is_order_free(self, attack_graph, cold_graph):
        forward, _ = detect_regions(
            {"na": attack_graph, "eu": cold_graph}, params=PARAMS, engine="reference"
        )
        backward, _ = detect_regions(
            {"eu": cold_graph, "na": attack_graph}, params=PARAMS, engine="reference"
        )
        assert canonical_result(forward) == canonical_result(backward)

    def test_restart_reconstructs_the_merged_verdict(self, tmp_path, layout):
        merged, _ = layout.checkpoint(params=PARAMS, engine="reference")
        reopened = RegionalStores(layout.root)
        assert reopened.regions() == layout.regions()
        again = reopened.merged_result()
        assert {str(u) for u in again.suspicious_users} == {
            str(u) for u in merged.suspicious_users
        }
        assert {str(i) for i in again.suspicious_items} == {
            str(i) for i in merged.suspicious_items
        }
        assert len(again.groups) == len(merged.groups)

    def test_merged_result_empty_before_any_checkpoint(self, layout):
        assert layout.merged_result().suspicious_users == set()

    def test_degraded_provenance_is_region_tagged(self, attack_graph):
        from repro.core.groups import DetectionResult

        from repro.shard.regions import _merge_results

        degraded = DetectionResult(degraded=True, degradations=("shard.1",), stale=True)
        clean = DetectionResult()
        merged = _merge_results({"na": degraded, "eu": clean})
        assert merged.degraded and merged.stale
        assert merged.degradations == ("na:shard.1",)


class TestMergeGroups:
    def test_merge_is_invariant_under_region_order(self, federated_groups):
        groups = list(federated_groups)
        assert len(groups) >= 2  # non-vacuous
        rng = random.Random(7)
        for _ in range(10):
            buckets = [[] for _ in range(4)]
            for group in groups:
                buckets[rng.randrange(4)].append(group)
            rng.shuffle(buckets)
            assert merge_groups(buckets) == groups

    def test_sort_key_is_a_total_order_on_distinct_groups(self, federated_groups):
        keys = [group_sort_key(group) for group in federated_groups]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)

    def test_merge_of_empty_regions(self):
        assert merge_groups([[], [], []]) == []
