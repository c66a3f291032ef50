"""Tests for the FRAUDAR baseline."""

from repro.baselines import FraudarDetector
from repro.baselines.fraudar import peel_densest_block
from repro.graph import BipartiteGraph

from ..conftest import make_biclique


class TestPeeling:
    def test_dense_block_survives_peeling(self):
        graph = BipartiteGraph()
        users, items = make_biclique(graph, 6, 6)
        for index in range(20):  # sparse noise
            graph.add_click(f"n{index}", f"x{index}", 1)
        block_users, block_items, density = peel_densest_block(graph)
        assert set(users) <= block_users
        assert set(items) <= block_items
        assert density > 0
        assert not any(str(u).startswith("n") for u in block_users)

    def test_input_untouched(self, simple_graph):
        before = simple_graph.copy()
        peel_densest_block(simple_graph)
        assert simple_graph == before

    def test_column_weighting_discounts_hot_items(self):
        """Edges into a high-degree item count less: a small tight block
        beats a big star around one popular item."""
        graph = BipartiteGraph()
        users, items = make_biclique(graph, 5, 5)
        for index in range(200):
            graph.add_click(f"fan{index}", "megahit", 1)
        block_users, _items, _density = peel_densest_block(graph)
        assert set(users) <= block_users
        # The star fans must not dominate the block.
        fans_in = sum(1 for u in block_users if str(u).startswith("fan"))
        assert fans_in < 100


class TestDetector:
    def test_name(self):
        assert FraudarDetector().name == "FRAUDAR"

    def test_finds_two_blocks(self):
        graph = BipartiteGraph()
        make_biclique(graph, 6, 6, user_prefix="au", item_prefix="ai")
        make_biclique(graph, 5, 5, user_prefix="bu", item_prefix="bi")
        result = FraudarDetector(max_blocks=4).detect(graph)
        prefixes = {str(u)[:2] for u in result.suspicious_users}
        assert {"au", "bu"} <= prefixes

    def test_block_budget_limits_recall(self):
        """The paper's criticism: the block count must be known in advance."""
        graph = BipartiteGraph()
        for index in range(5):
            make_biclique(
                graph, 5, 5, user_prefix=f"g{index}u", item_prefix=f"g{index}i"
            )
        limited = FraudarDetector(max_blocks=2, density_floor=0.0).detect(graph)
        generous = FraudarDetector(max_blocks=8, density_floor=0.0).detect(graph)
        assert len(limited.groups) <= 2
        assert len(generous.suspicious_users) >= len(limited.suspicious_users)

    def test_density_floor_stops_early(self):
        graph = BipartiteGraph()
        make_biclique(graph, 8, 8, user_prefix="big", item_prefix="bigi")
        # Second "block" is far sparser.
        graph.add_click("s1", "weak", 1)
        graph.add_click("s2", "weak", 1)
        result = FraudarDetector(max_blocks=5, density_floor=0.9).detect(graph)
        assert len(result.groups) == 1

    def test_empty_graph(self, empty_graph):
        result = FraudarDetector().detect(empty_graph)
        assert not result.groups

    def test_size_floors(self):
        graph = BipartiteGraph()
        make_biclique(graph, 2, 2)
        result = FraudarDetector(min_users=3, min_items=3).detect(graph)
        assert not result.groups

    def test_timing_recorded(self, tiny):
        result = FraudarDetector().detect(tiny.graph)
        assert result.timings["detection"] > 0
