"""Unit tests for component discovery and the shard planner."""

from __future__ import annotations

import pytest

from repro.graph import BipartiteGraph, connected_components, from_click_records
from repro.shard.partition import ShardPlan, graph_components, partition_graph


def _component_graph(n_components: int, users_per: int = 3, clicks: int = 2):
    """``n`` disjoint bicliques, each ``users_per`` x 2 items."""
    graph = BipartiteGraph()
    for c in range(n_components):
        for u in range(users_per):
            for i in range(2):
                graph.add_click(f"c{c}:u{u}", f"c{c}:i{i}", clicks)
    return graph


def _as_sets(components):
    return {(component.users, component.items) for component in components}


class TestGraphComponents:
    def test_matches_dict_bfs(self, small):
        graph = small.graph
        fast = graph_components(graph)
        reference = {
            (frozenset(users), frozenset(items))
            for users, items in connected_components(graph)
        }
        assert _as_sets(fast) == reference

    def test_edge_counts_sum_to_graph(self):
        graph = _component_graph(5)
        components = graph_components(graph)
        assert sum(component.edges for component in components) == graph.num_edges

    def test_isolated_nodes_form_components(self):
        graph = _component_graph(2)
        graph.add_user("lonely-user")
        graph.add_item("lonely-item")
        components = graph_components(graph)
        assert len(components) == 4
        assert {component.edges for component in components} == {6, 0}

    def test_canonical_order_is_largest_first(self):
        graph = _component_graph(3, users_per=2)
        for u in range(10):  # one clearly dominant component
            graph.add_click(f"big:u{u}", "big:i0", 1)
        components = graph_components(graph)
        assert components[0].edges == max(c.edges for c in components)
        assert [c.sort_key() for c in components] == sorted(
            c.sort_key() for c in components
        )

    def test_empty_graph(self):
        assert graph_components(BipartiteGraph()) == []


class TestPartitionGraph:
    def test_covers_every_node_disjointly(self, small):
        graph = small.graph
        plan = partition_graph(graph, 4)
        users: list = []
        items: list = []
        for index in range(len(plan)):
            users.extend(plan.shard_users(index))
            items.extend(plan.shard_items(index))
        assert sorted(map(str, users)) == sorted(map(str, graph.users()))
        assert sorted(map(str, items)) == sorted(map(str, graph.items()))
        assert len(users) == len(set(users)) and len(items) == len(set(items))

    def test_balanced_on_equal_components(self):
        plan = partition_graph(_component_graph(8), 4)
        assert len(plan) == 4
        loads = [plan.shard_edges(index) for index in range(4)]
        assert loads == [12, 12, 12, 12]

    def test_never_more_shards_than_components(self):
        plan = partition_graph(_component_graph(3), 7)
        assert plan.requested == 7
        assert len(plan) == 3

    def test_mega_component_kept_whole(self):
        graph = _component_graph(4, users_per=2)
        for u in range(40):  # giant component dwarfing the others
            for i in range(3):
                graph.add_click(f"mega:u{u}", f"mega:i{i}", 1)
        plan = partition_graph(graph, 3)
        assert plan.mega_components  # the giant was flagged...
        mega_shard = max(range(len(plan)), key=plan.shard_edges)
        # ...and landed in one shard, unsplit.
        assert {f"mega:u{u}" for u in range(40)} <= plan.shard_users(mega_shard)

    def test_deterministic_across_insertion_orders(self):
        rows = [(f"c{c}:u{u}", f"c{c}:i{u % 2}", u + 1) for c in range(6) for u in range(4)]
        forward = partition_graph(from_click_records(rows), 3)
        backward = partition_graph(from_click_records(rows[::-1]), 3)
        def key(plan):
            return [
                sorted(
                    (sorted(map(str, c.users)), sorted(map(str, c.items)), c.edges)
                    for c in shard
                )
                for shard in plan.shards
            ]

        assert key(forward) == key(backward)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            partition_graph(BipartiteGraph(), 0)

    def test_empty_graph_yields_single_empty_shard(self):
        plan = partition_graph(BipartiteGraph(), 5)
        assert len(plan) == 1 and plan.shard_edges(0) == 0
        assert plan.subgraph(BipartiteGraph(), 0).num_edges == 0


class TestShardSubgraphs:
    def test_subgraph_preserves_incident_edges(self, small):
        """Shards are whole components: no node loses a single edge."""
        graph = small.graph
        plan = partition_graph(graph, 4)
        for shard_graph in plan.subgraphs(graph):
            for user in shard_graph.users():
                assert shard_graph.user_neighbors(user) == graph.user_neighbors(user)
            for item in shard_graph.items():
                assert shard_graph.item_degree(item) == graph.item_degree(item)
                assert shard_graph.item_total_clicks(item) == graph.item_total_clicks(
                    item
                )

    def test_subgraph_edges_match_plan(self):
        graph = _component_graph(6)
        plan = partition_graph(graph, 3)
        for index in range(len(plan)):
            assert plan.subgraph(graph, index).num_edges == plan.shard_edges(index)

    def test_repr_mentions_shape(self):
        plan = partition_graph(_component_graph(2), 2)
        assert "ShardPlan" in repr(plan) and "requested=2" in repr(plan)
        assert isinstance(plan, ShardPlan)
