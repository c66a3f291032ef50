"""Tests for the Louvain and COPYCATCH baselines."""

import time

from repro.baselines import CopyCatchDetector, LouvainDetector
from repro.baselines.copycatch import enumerate_bicliques
from repro.graph import BipartiteGraph

from ..conftest import make_biclique


class TestLouvain:
    def test_name(self):
        assert LouvainDetector().name == "Louvain"

    def test_planted_blocks_partitioned(self):
        graph = BipartiteGraph()
        make_biclique(graph, 5, 5, user_prefix="au", item_prefix="ai")
        make_biclique(graph, 5, 5, user_prefix="bu", item_prefix="bi")
        result = LouvainDetector(min_users=5, min_items=5, seed=0).detect(graph)
        assert len(result.groups) == 2
        for group in result.groups:
            prefixes = {str(u)[0] for u in group.users}
            assert len(prefixes) == 1  # blocks not mixed

    def test_floors_filter_small_communities(self):
        graph = BipartiteGraph()
        make_biclique(graph, 3, 3)
        result = LouvainDetector(min_users=5, min_items=5).detect(graph)
        assert not result.groups

    def test_empty_graph(self, empty_graph):
        result = LouvainDetector().detect(empty_graph)
        assert not result.suspicious_users

    def test_covers_attack_workers(self, small):
        result = LouvainDetector(min_users=5, min_items=5).detect(small.graph)
        covered = result.suspicious_users & small.truth.abnormal_users
        assert len(covered) >= 0.5 * len(small.truth.abnormal_users)


class TestEnumerateBicliques:
    def test_finds_planted_biclique(self):
        graph = BipartiteGraph()
        users, items = make_biclique(graph, 4, 4)
        found = enumerate_bicliques(graph, 4, 4, deadline_seconds=5.0)
        assert any(u == set(users) and set(items) <= i for u, i in found)

    def test_respects_size_floors(self):
        graph = BipartiteGraph()
        make_biclique(graph, 2, 6)
        found = enumerate_bicliques(graph, 3, 3, deadline_seconds=2.0)
        assert found == []

    def test_deadline_is_honoured(self, small):
        start = time.perf_counter()
        enumerate_bicliques(small.graph, 2, 2, deadline_seconds=0.2, max_results=10**9)
        assert time.perf_counter() - start < 2.0

    def test_max_results_cap(self):
        graph = BipartiteGraph()
        make_biclique(graph, 6, 6)
        found = enumerate_bicliques(graph, 2, 2, deadline_seconds=5.0, max_results=3)
        assert len(found) <= 3

    def test_maximality_no_duplicate_bicliques(self):
        graph = BipartiteGraph()
        make_biclique(graph, 4, 4)
        found = enumerate_bicliques(graph, 2, 2, deadline_seconds=5.0)
        keys = [
            (tuple(sorted(map(str, u))), tuple(sorted(map(str, i)))) for u, i in found
        ]
        assert len(keys) == len(set(keys))


class TestCopyCatch:
    def test_name(self):
        assert CopyCatchDetector().name == "COPYCATCH"

    def test_planted_biclique_detected(self):
        graph = BipartiteGraph()
        users, items = make_biclique(graph, 5, 5)
        graph.add_click("noise", "elsewhere", 1)
        result = CopyCatchDetector(
            min_users=5, min_items=5, deadline_seconds=5.0
        ).detect(graph)
        assert set(users) <= result.suspicious_users

    def test_tiny_deadline_degrades_gracefully(self, small):
        result = CopyCatchDetector(
            min_users=5, min_items=5, deadline_seconds=0.01
        ).detect(small.graph)
        assert isinstance(result.suspicious_users, set)  # may be empty

    def test_input_untouched(self, tiny):
        before = tiny.graph.copy()
        CopyCatchDetector(min_users=4, min_items=4, deadline_seconds=1.0).detect(
            tiny.graph
        )
        assert tiny.graph == before
