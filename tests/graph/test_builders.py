"""Tests for graph constructors and seed expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClickTableError
from repro.graph import (
    BipartiteGraph,
    from_click_records,
    from_edge_list,
    seed_expansion,
    seed_expansion_masks,
)


class TestFromClickRecords:
    def test_builds_graph(self):
        graph = from_click_records([("u1", "i1", 3), ("u2", "i1", 1)])
        assert graph.num_users == 2
        assert graph.item_total_clicks("i1") == 4

    def test_repeated_rows_accumulate(self):
        graph = from_click_records([("u", "i", 1), ("u", "i", 2)])
        assert graph.get_click("u", "i") == 3
        assert graph.num_edges == 1

    def test_rejects_nonpositive_clicks(self):
        with pytest.raises(ClickTableError) as excinfo:
            from_click_records([("u", "i", 1), ("u2", "i", 0)])
        assert excinfo.value.line_number == 2

    def test_empty_input(self):
        graph = from_click_records([])
        assert len(graph) == 0


class TestFromEdgeList:
    def test_each_edge_one_click(self):
        graph = from_edge_list([("u", "i"), ("u", "j"), ("v", "i")])
        assert graph.total_clicks == 3
        assert graph.get_click("u", "i") == 1

    def test_duplicates_accumulate(self):
        graph = from_edge_list([("u", "i"), ("u", "i")])
        assert graph.get_click("u", "i") == 2


class TestSeedExpansion:
    @pytest.fixture()
    def chain_graph(self):
        """u1-i1-u2-i2-u3-i3: a path to test hop radii."""
        graph = BipartiteGraph()
        graph.add_click("u1", "i1", 1)
        graph.add_click("u2", "i1", 1)
        graph.add_click("u2", "i2", 1)
        graph.add_click("u3", "i2", 1)
        graph.add_click("u3", "i3", 1)
        return graph

    def test_zero_hops_keeps_only_seeds(self, chain_graph):
        sub = seed_expansion(chain_graph, seed_users=["u2"], hops=0)
        assert set(sub.users()) == {"u2"}
        assert sub.num_items == 0

    def test_one_hop_reaches_items(self, chain_graph):
        sub = seed_expansion(chain_graph, seed_users=["u2"], hops=1)
        assert set(sub.users()) == {"u2"}
        assert set(sub.items()) == {"i1", "i2"}

    def test_two_hops_reach_co_clicking_users(self, chain_graph):
        sub = seed_expansion(chain_graph, seed_users=["u2"], hops=2)
        assert set(sub.users()) == {"u1", "u2", "u3"}
        assert set(sub.items()) == {"i1", "i2"}
        assert not sub.has_item("i3")

    def test_item_seed(self, chain_graph):
        sub = seed_expansion(chain_graph, seed_items=["i3"], hops=1)
        assert set(sub.users()) == {"u3"}

    def test_unknown_seeds_ignored(self, chain_graph):
        sub = seed_expansion(chain_graph, seed_users=["ghost"], hops=2)
        assert len(sub) == 0

    def test_negative_hops_rejected(self, chain_graph):
        with pytest.raises(ValueError):
            seed_expansion(chain_graph, seed_users=["u1"], hops=-1)

    def test_edges_are_induced(self, chain_graph):
        """Edges between reached nodes are preserved even across BFS layers."""
        sub = seed_expansion(chain_graph, seed_users=["u2"], hops=2)
        assert sub.has_edge("u1", "i1")
        assert sub.has_edge("u3", "i2")


# Ids 0-9 can appear in the graph; 10-11 never do (unknown seeds).
users = st.integers(min_value=0, max_value=11).map(lambda n: f"u{n}")
items = st.integers(min_value=0, max_value=11).map(lambda n: f"i{n}")


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9).map(lambda n: f"u{n}"),
            st.integers(min_value=0, max_value=9).map(lambda n: f"i{n}"),
        ),
        max_size=40,
    ),
    st.lists(users, max_size=3),
    st.lists(items, max_size=3),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([None, 1, 2, 3]),
)
@settings(max_examples=150, deadline=None)
def test_masks_select_seed_expansion_nodes(edges, seed_users, seed_items, hops, cap):
    graph = from_edge_list(edges)
    snapshot = graph.indexed()
    user_mask, item_mask = seed_expansion_masks(
        snapshot, seed_users, seed_items, hops=hops, max_traverse_degree=cap
    )
    region = seed_expansion(
        graph, seed_users, seed_items, hops=hops, max_traverse_degree=cap
    )
    assert {snapshot.users[row] for row in np.flatnonzero(user_mask)} == set(region.users())
    assert {snapshot.items[col] for col in np.flatnonzero(item_mask)} == set(region.items())
