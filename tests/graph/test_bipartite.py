"""Unit tests for the BipartiteGraph core container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateNodeError, NodeNotFoundError
from repro.graph import Adjacency, BipartiteGraph, from_click_records


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
        adjacency = Adjacency(simple_graph)
        assert adjacency.remove_user("u1") == {"i1": 3, "i2": 1}
        assert "u1" not in adjacency.users
        assert adjacency.items["i1"] == {"u2": 2}
        assert adjacency.items["i2"] == {"u3": 1}
        assert sum(sum(row.values()) for row in adjacency.users.values()) == 9
        assert simple_graph.has_user("u1") and simple_graph.total_clicks == 13

    def test_remove_item_cascades_edges(self, simple_graph):
        adjacency = Adjacency(simple_graph)
        adjacency.remove_item("i3")
        assert "i3" not in adjacency.items
        assert adjacency.users["u2"] == {"i1": 2}
        assert adjacency.users["u3"] == {"i2": 1}

    def test_remove_missing_raises(self, empty_graph):
        adjacency = Adjacency(empty_graph)
        with pytest.raises(NodeNotFoundError):
            adjacency.remove_user("ghost")
        with pytest.raises(NodeNotFoundError):
            adjacency.remove_item("ghost")

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
        clone.add_click("u9", "i1", 2)
        clone.remove_edge("u1", "i1")
        assert not simple_graph.has_user("u9")
        assert simple_graph.get_click("u1", "i1") == 3
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
    """A click appends one ``(user, item, clicks)`` record to an
    array-backed graph's tail whether the edge is new or not — including
    when both endpoints already existed — and the merged snapshot equals
    a rebuild."""

    @staticmethod
    def _array_backed(graph):
        return BipartiteGraph.from_indexed(graph.indexed())

    @staticmethod
    def _last_record(graph):
        tail = graph._tail
        return tail.users[tail.rows[-1]], tail.items[tail.columns[-1]], tail.clicks[-1]

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
        graph = self._array_backed(simple_graph)
        graph.add_click("u1", "i3", 2)  # endpoints exist, edge is new
        assert self._last_record(graph) == ("u1", "i3", 2)
        self._snapshots_equal(graph)

    def test_add_click_existing_edge_is_not_flagged_new(self, simple_graph):
        graph = self._array_backed(simple_graph)
        graph.add_click("u1", "i1", 2)
        assert self._last_record(graph) == ("u1", "i1", 2)
        self._snapshots_equal(graph)

    def test_set_click_increase_on_new_edge_existing_endpoints(self, simple_graph):
        graph = self._array_backed(simple_graph)
        graph.set_click("u2", "i2", 4)  # endpoints exist, edge is new
        assert self._last_record(graph) == ("u2", "i2", 4)
        self._snapshots_equal(graph)

    def test_mixed_delta_burst_matches_rebuild(self, simple_graph):
        graph = self._array_backed(simple_graph)
        graph.add_click("u9", "i9", 1)      # both endpoints new
        graph.add_click("u9", "i1", 3)      # new edge, one old endpoint
        graph.set_click("u1", "i1", 11)     # increase on existing edge
        graph.add_user("u10")               # idle node
        graph.set_click("u10", "i9", 2)     # new edge from idle node
        self._snapshots_equal(graph)


# ----------------------------------------------------------------------
# add_clicks: one bulk write, the same graph as one add_click per record
# ----------------------------------------------------------------------
_users = st.integers(min_value=0, max_value=9).map(lambda n: f"u{n}")
_items = st.integers(min_value=0, max_value=9).map(lambda n: f"i{n}")
_records = st.lists(st.tuples(_users, _items, st.integers(min_value=1, max_value=5)), max_size=20)


def _graph(kind, seed):
    """A graph of ``kind`` holding ``seed``.

    ``fresh``: one ``add_click`` per record.  ``lazy``: over the snapshot
    of ``seed``.  ``eager``: that snapshot's records written back with one
    ``add_clicks``, then indexed, so later appends extend the tail of a
    merged snapshot.
    """
    if kind == "fresh":
        graph = BipartiteGraph()
        for record in seed:
            graph.add_click(*record)
        return graph
    snapshot = from_click_records(seed).indexed()
    if kind == "lazy":
        return BipartiteGraph.from_indexed(snapshot)
    graph = BipartiteGraph()
    graph.add_clicks(
        (snapshot.users[row], snapshot.items[column], weight)
        for row, column, weight in zip(
            snapshot.user_idx.tolist(), snapshot.item_idx.tolist(), snapshot.clicks.tolist()
        )
    )
    graph.indexed()
    return graph


def _counts(graph):
    return graph.version, graph.total_clicks, graph.num_users, graph.num_items, graph.num_edges


def _state(graph):
    """Counts plus adjacency (read through every vertex's neighbour map)."""
    return (
        _counts(graph),
        {user: dict(graph.user_neighbors(user)) for user in graph.users()},
        {item: dict(graph.item_neighbors(item)) for item in graph.items()},
    )


class TestAddClicks:
    @given(
        kind=st.sampled_from(["fresh", "eager", "lazy"]),
        seed=_records.filter(bool),
        batches=st.lists(st.tuples(_records, st.booleans()), max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_repeated_add_click(self, kind, seed, batches):
        bulk, single = _graph(kind, seed), _graph(kind, seed)
        for records, read_index in batches:
            bulk.add_clicks(records)
            for record in records:
                single.add_click(*record)
            assert _counts(bulk) == _counts(single)
            if read_index:
                bulk.indexed()
                single.indexed()
        assert _state(bulk) == _state(single)
        a, b = bulk.indexed(), single.indexed()
        assert a.version == b.version == bulk.version
        assert a.users == b.users and a.items == b.items
        for name in ("user_idx", "item_idx", "clicks"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("kind", ["fresh", "eager", "lazy"])
    def test_a_non_positive_count_applies_nothing(self, kind):
        seed = [("u0", "i0", 2), ("u1", "i0", 1)]
        graph, untouched = _graph(kind, seed), _graph(kind, seed)
        with pytest.raises(ValueError, match="clicks must be positive, got 0"):
            graph.add_clicks([("u0", "i1", 3), ("u9", "i9", 0), ("u1", "i0", 4)])
        assert _state(graph) == _state(untouched)

    @pytest.mark.parametrize("kind", ["fresh", "eager", "lazy"])
    @pytest.mark.parametrize("bad", [("u9", "i9"), ("u9", "i9", 1, "extra")])
    def test_a_malformed_record_applies_nothing(self, kind, bad):
        seed = [("u0", "i0", 2), ("u1", "i0", 1)]
        graph, untouched = _graph(kind, seed), _graph(kind, seed)
        with pytest.raises(ValueError):
            graph.add_clicks([("u0", "i1", 3), bad, ("u1", "i0", 4)])
        assert _state(graph) == _state(untouched)
        graph.add_clicks([("u0", "i1", 3)])
        untouched.add_clicks([("u0", "i1", 3)])
        assert _state(graph) == _state(untouched)
        assert np.array_equal(graph.indexed().clicks, untouched.indexed().clicks)
