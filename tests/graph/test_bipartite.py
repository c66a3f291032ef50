"""Unit tests for the BipartiteGraph core container."""

import pytest

from repro.errors import DuplicateNodeError, NodeNotFoundError
from repro.graph import BipartiteGraph


class TestNodeManagement:
    def test_add_user_and_item(self, empty_graph):
        empty_graph.add_user("u")
        empty_graph.add_item("i")
        assert empty_graph.has_user("u")
        assert empty_graph.has_item("i")
        assert empty_graph.num_users == 1
        assert empty_graph.num_items == 1

    def test_add_user_idempotent(self, empty_graph):
        empty_graph.add_click("u", "i", 2)
        empty_graph.add_user("u")  # must not wipe adjacency
        assert empty_graph.user_degree("u") == 1

    def test_add_strict_raises_on_duplicate(self, empty_graph):
        empty_graph.add_user_strict("u")
        with pytest.raises(DuplicateNodeError):
            empty_graph.add_user_strict("u")
        empty_graph.add_item_strict("i")
        with pytest.raises(DuplicateNodeError):
            empty_graph.add_item_strict("i")

    def test_same_id_both_sides(self, empty_graph):
        """User and item namespaces are independent."""
        empty_graph.add_user("x")
        empty_graph.add_item("x")
        empty_graph.add_click("x", "x", 1)
        assert empty_graph.get_click("x", "x") == 1

    def test_remove_user_cascades_edges(self, simple_graph):
        simple_graph.remove_user("u1")
        assert not simple_graph.has_user("u1")
        assert simple_graph.item_degree("i1") == 1
        assert simple_graph.item_degree("i2") == 1
        assert simple_graph.total_clicks == 9

    def test_remove_item_cascades_edges(self, simple_graph):
        simple_graph.remove_item("i3")
        assert not simple_graph.has_item("i3")
        assert simple_graph.user_degree("u2") == 1
        assert simple_graph.user_degree("u3") == 1

    def test_remove_missing_raises(self, empty_graph):
        with pytest.raises(NodeNotFoundError):
            empty_graph.remove_user("ghost")
        with pytest.raises(NodeNotFoundError):
            empty_graph.remove_item("ghost")

    def test_node_not_found_error_is_keyerror(self, empty_graph):
        with pytest.raises(KeyError):
            empty_graph.user_neighbors("ghost")


class TestEdges:
    def test_add_click_accumulates(self, empty_graph):
        empty_graph.add_click("u", "i", 2)
        empty_graph.add_click("u", "i", 3)
        assert empty_graph.get_click("u", "i") == 5
        assert empty_graph.num_edges == 1
        assert empty_graph.total_clicks == 5

    def test_add_click_rejects_nonpositive(self, empty_graph):
        with pytest.raises(ValueError):
            empty_graph.add_click("u", "i", 0)
        with pytest.raises(ValueError):
            empty_graph.add_click("u", "i", -1)

    def test_set_click_overwrites(self, empty_graph):
        empty_graph.add_click("u", "i", 7)
        empty_graph.set_click("u", "i", 2)
        assert empty_graph.get_click("u", "i") == 2
        assert empty_graph.total_clicks == 2

    def test_set_click_zero_deletes_edge(self, empty_graph):
        empty_graph.add_click("u", "i", 7)
        empty_graph.set_click("u", "i", 0)
        assert not empty_graph.has_edge("u", "i")
        assert empty_graph.total_clicks == 0
        # Nodes survive edge deletion.
        assert empty_graph.has_user("u")
        assert empty_graph.has_item("i")

    def test_set_click_rejects_negative(self, empty_graph):
        with pytest.raises(ValueError):
            empty_graph.set_click("u", "i", -1)

    def test_set_click_creates_edge_on_new_nodes(self, empty_graph):
        empty_graph.set_click("u", "i", 4)
        assert empty_graph.get_click("u", "i") == 4

    def test_remove_edge(self, simple_graph):
        simple_graph.remove_edge("u1", "i1")
        assert not simple_graph.has_edge("u1", "i1")
        assert simple_graph.has_user("u1")

    def test_get_click_default(self, simple_graph):
        assert simple_graph.get_click("u1", "i3") == 0
        assert simple_graph.get_click("ghost", "i1", default=-1) == -1

    def test_mirrored_adjacency(self, simple_graph):
        """User- and item-side views must always agree."""
        for user, item, clicks in simple_graph.edges():
            assert simple_graph.item_neighbors(item)[user] == clicks


class TestAccessors:
    def test_degrees_and_totals(self, simple_graph):
        assert simple_graph.user_degree("u1") == 2
        assert simple_graph.user_total_clicks("u1") == 4
        assert simple_graph.item_degree("i1") == 2
        assert simple_graph.item_total_clicks("i1") == 5

    def test_counts(self, simple_graph):
        assert simple_graph.num_users == 3
        assert simple_graph.num_items == 3
        assert simple_graph.num_edges == 6
        assert simple_graph.total_clicks == 13
        assert len(simple_graph) == 6

    def test_edges_iteration_complete(self, simple_graph):
        edges = set(simple_graph.edges())
        assert ("u1", "i1", 3) in edges
        assert len(edges) == 6


class TestDerivedGraphs:
    def test_copy_is_independent(self, simple_graph):
        clone = simple_graph.copy()
        clone.remove_user("u1")
        assert simple_graph.has_user("u1")
        assert clone != simple_graph

    def test_copy_preserves_totals(self, simple_graph):
        clone = simple_graph.copy()
        assert clone == simple_graph
        assert clone.total_clicks == simple_graph.total_clicks

    def test_subgraph_induces(self, simple_graph):
        sub = simple_graph.subgraph({"u1", "u2"}, {"i1"})
        assert sub.num_users == 2
        assert sub.num_items == 1
        assert sub.get_click("u1", "i1") == 3
        assert not sub.has_edge("u1", "i2")

    def test_subgraph_none_keeps_side(self, simple_graph):
        sub = simple_graph.subgraph(users=None, items={"i1"})
        assert sub.num_users == 3
        assert sub.num_items == 1

    def test_subgraph_ignores_unknown_ids(self, simple_graph):
        sub = simple_graph.subgraph({"u1", "ghost"}, {"i1", "phantom"})
        assert sub.num_users == 1
        assert sub.num_items == 1

    def test_subgraph_keeps_isolated_requested_items(self, simple_graph):
        sub = simple_graph.subgraph({"u1"}, {"i3"})
        assert sub.has_item("i3")
        assert sub.item_degree("i3") == 0


class TestDunder:
    def test_equality(self, simple_graph):
        assert simple_graph == simple_graph.copy()
        other = simple_graph.copy()
        other.add_click("u1", "i1", 1)
        assert simple_graph != other

    def test_equality_other_type(self, simple_graph):
        assert simple_graph != "not a graph"

    def test_unhashable(self, simple_graph):
        with pytest.raises(TypeError):
            hash(simple_graph)

    def test_repr_mentions_counts(self, simple_graph):
        text = repr(simple_graph)
        assert "users=3" in text
        assert "clicks=13" in text


class TestSetClickInvalidation:
    """Regression pins for the cache-invalidation bugfix sweep."""

    def test_noop_set_click_does_not_bump_version(self, simple_graph):
        before = simple_graph.version
        current = simple_graph.get_click("u1", "i1")
        simple_graph.set_click("u1", "i1", current)
        assert simple_graph.version == before

    def test_noop_set_click_keeps_indexed_snapshot_valid(self, simple_graph):
        snapshot = simple_graph.indexed()
        simple_graph.set_click("u1", "i1", simple_graph.get_click("u1", "i1"))
        assert simple_graph.indexed() is snapshot

    def test_zero_set_on_absent_edge_is_noop(self, simple_graph):
        before = simple_graph.version
        simple_graph.set_click("u1", "i3", 0)  # both endpoints exist, no edge
        assert simple_graph.version == before
        assert not simple_graph.has_edge("u1", "i3")

    def test_zero_set_never_creates_endpoints(self, empty_graph):
        before = empty_graph.version
        empty_graph.set_click("ghost-u", "ghost-i", 0)
        assert not empty_graph.has_user("ghost-u")
        assert not empty_graph.has_item("ghost-i")
        assert empty_graph.version == before


class TestDeltaEventFlags:
    """The `previous == 0` new-edge flag must hold whenever the edge is
    new — including when both endpoints already existed."""

    @staticmethod
    def _snapshots_equal(graph):
        from repro.graph.indexed import IndexedGraph

        # apply_delta appends new nodes after the base ordering (its
        # documented contract), so equivalence is canonical content —
        # node sets and the weighted edge set — not raw array order.
        def content(snapshot):
            edges = {
                (snapshot.users[row], snapshot.items[column], weight)
                for row, column, weight in zip(
                    snapshot.user_idx.tolist(),
                    snapshot.item_idx.tolist(),
                    snapshot.clicks.tolist(),
                )
            }
            return sorted(snapshot.users), sorted(snapshot.items), edges

        delta_built = graph.indexed()
        rebuilt = IndexedGraph.from_graph(graph)
        assert content(delta_built) == content(rebuilt)

    def test_add_click_new_edge_existing_endpoints(self, simple_graph):
        simple_graph.indexed()  # arm the delta buffer
        simple_graph.add_click("u1", "i3", 2)  # endpoints exist, edge is new
        assert simple_graph._delta[-1] == ("edge", "u1", "i3", 2, True)
        self._snapshots_equal(simple_graph)

    def test_add_click_existing_edge_is_not_flagged_new(self, simple_graph):
        simple_graph.indexed()
        simple_graph.add_click("u1", "i1", 2)
        assert simple_graph._delta[-1] == ("edge", "u1", "i1", 2, False)
        self._snapshots_equal(simple_graph)

    def test_set_click_increase_on_new_edge_existing_endpoints(self, simple_graph):
        simple_graph.indexed()
        simple_graph.set_click("u2", "i2", 4)  # endpoints exist, edge is new
        assert simple_graph._delta[-1] == ("edge", "u2", "i2", 4, True)
        self._snapshots_equal(simple_graph)

    def test_mixed_delta_burst_matches_rebuild(self, simple_graph):
        simple_graph.indexed()
        simple_graph.add_click("u9", "i9", 1)      # both endpoints new
        simple_graph.add_click("u9", "i1", 3)      # new edge, one old endpoint
        simple_graph.set_click("u1", "i1", 11)     # increase on existing edge
        simple_graph.add_user("u10")               # idle node
        simple_graph.set_click("u10", "i9", 2)     # new edge from idle node
        self._snapshots_equal(simple_graph)
