"""Tests for the IndexedGraph snapshot and its memoization contract."""

import pickle

import numpy as np
import pytest

from repro import obs
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import BipartiteGraph, IndexedGraph, from_click_records
from repro.graph.indexed import InternedDelta, coalesce

records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8).map(lambda n: f"u{n}"),
        st.integers(min_value=0, max_value=8).map(lambda n: f"i{n}"),
        st.integers(min_value=1, max_value=20),
    ),
    max_size=60,
)


class TestRoundTrip:
    @given(records)
    def test_edges_round_trip(self, rows):
        graph = from_click_records(rows)
        snapshot = graph.indexed()
        rebuilt = {
            (snapshot.users[u], snapshot.items[i]): int(c)
            for u, i, c in zip(snapshot.user_idx, snapshot.item_idx, snapshot.clicks)
        }
        expected = {(u, i): c for u, i, c in graph.edges()}
        assert rebuilt == expected
        assert snapshot.num_users == graph.num_users
        assert snapshot.num_items == graph.num_items
        assert snapshot.num_edges == graph.num_edges
        assert snapshot.total_clicks == graph.total_clicks

    @given(records)
    def test_degrees_and_clicks_round_trip(self, rows):
        graph = from_click_records(rows)
        snapshot = graph.indexed()
        user_degrees = snapshot.user_degrees()
        user_clicks = snapshot.user_total_clicks()
        for user in graph.users():
            row = snapshot.user_index[user]
            assert int(user_degrees[row]) == graph.user_degree(user)
            assert int(user_clicks[row]) == graph.user_total_clicks(user)
        item_degrees = snapshot.item_degrees()
        item_clicks = snapshot.item_total_clicks()
        for item in graph.items():
            column = snapshot.item_index[item]
            assert int(item_degrees[column]) == graph.item_degree(item)
            assert int(item_clicks[column]) == graph.item_total_clicks(item)

    def test_interning_tables_are_inverse(self, simple_graph):
        snapshot = simple_graph.indexed()
        assert [snapshot.user_index[u] for u in snapshot.users] == list(
            range(snapshot.num_users)
        )
        assert [snapshot.item_index[i] for i in snapshot.items] == list(
            range(snapshot.num_items)
        )


class TestMemoization:
    def test_repeated_access_returns_same_snapshot(self, simple_graph):
        assert simple_graph.indexed() is simple_graph.indexed()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_click("u1", "i9", 2),
            lambda g: g.add_click("u1", "i1", 1),  # existing edge: weight change
            lambda g: g.add_user("u9"),
            lambda g: g.add_item("i9"),
            lambda g: g.set_click("u1", "i1", 7),
            lambda g: g.remove_edge("u1", "i1"),
        ],
    )
    def test_every_mutation_invalidates(self, simple_graph, mutate):
        graph = simple_graph.copy()
        before = graph.indexed()
        version = graph.version
        mutate(graph)
        assert graph.version > version
        after = graph.indexed()
        assert after is not before
        assert after.total_clicks == graph.total_clicks

    def test_noop_registration_keeps_snapshot(self, simple_graph):
        graph = simple_graph.copy()
        before = graph.indexed()
        graph.add_user("u1")  # already present: structurally a no-op
        graph.add_item("i1")
        assert graph.indexed() is before

    def test_copy_does_not_share_snapshot(self, simple_graph):
        snapshot = simple_graph.indexed()
        clone = simple_graph.copy()
        assert clone.indexed() is not snapshot
        clone.add_click("extra", "edge")
        assert simple_graph.indexed() is snapshot

    def test_derived_cache_dies_with_snapshot(self, simple_graph):
        graph = simple_graph.copy()
        graph.indexed().derived["probe"] = 1
        assert graph.indexed().derived["probe"] == 1
        graph.add_click("u9", "i9")
        assert "probe" not in graph.indexed().derived

    def test_pickle_drops_snapshot_but_keeps_edges(self, simple_graph):
        simple_graph.indexed().derived["probe"] = 1
        clone = pickle.loads(pickle.dumps(simple_graph))
        assert clone == simple_graph
        assert "probe" not in clone.indexed().derived
        assert clone.indexed().num_edges == simple_graph.num_edges

    def test_pickle_keeps_order_and_counts_and_needs_no_rebuild(self):
        graph = from_click_records([("u2", "i1", 1), ("u1", "i2", 2), ("u3", "i1", 4)])
        graph.add_user("idle")
        clone = pickle.loads(pickle.dumps(graph))
        assert list(clone.users()) == ["u2", "u1", "u3", "idle"]
        assert list(clone.items()) == ["i1", "i2"]
        counts = ("num_users", "num_items", "num_edges", "total_clicks", "version")
        assert [getattr(clone, name) for name in counts] == [
            getattr(graph, name) for name in counts
        ]
        with obs.recording(obs.Recorder()) as recorder:
            clone.indexed()
        assert recorder.counters.get("graph.indexed.misses", 0) == 0
        assert recorder.counters.get("graph.indexed.delta_builds", 0) == 0

    def test_copy_is_cold(self, simple_graph):
        graph = BipartiteGraph.from_indexed(simple_graph.indexed())
        snapshot = graph.indexed()
        snapshot.derived["probe"] = 1
        cached = snapshot.user_degrees(), snapshot.item_total_clicks(), snapshot.csr_arrays()
        clone = graph.copy().indexed()
        assert clone.derived == {}
        assert clone.user_degrees() is not cached[0]
        assert clone.item_total_clicks() is not cached[1]
        assert clone.csr_arrays() is not cached[2]
        assert clone.clicks is snapshot.clicks


class TestHelpers:
    def test_from_graph_matches_accessor_ordering(self, simple_graph):
        direct = IndexedGraph.from_graph(simple_graph)
        memoized = simple_graph.indexed()
        assert direct.users == memoized.users
        assert direct.items == memoized.items

    def test_empty_graph_snapshot(self):
        snapshot = BipartiteGraph().indexed()
        assert snapshot.num_users == snapshot.num_items == snapshot.num_edges == 0
        assert snapshot.total_clicks == 0


class TestCoalesce:
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 40), st.integers(0, 2**40)),
                st.integers(-5, 20),
            ),
            max_size=200,
        )
    )
    def test_matches_the_unique_reference(self, pairs):
        keys = np.array([key for key, _ in pairs], dtype=np.int64)
        clicks = np.array([weight for _, weight in pairs], dtype=np.int64)
        unique_keys, summed = coalesce(keys, clicks)
        expected_keys, inverse = np.unique(keys, return_inverse=True)
        expected = np.zeros(len(expected_keys), dtype=np.int64)
        np.add.at(expected, inverse, clicks)
        assert unique_keys.tolist() == expected_keys.tolist()
        assert summed.tolist() == expected.tolist()
        assert summed.dtype == np.int64


class TestIncrementalMaintenance:
    """Appends maintain the snapshot; they never re-snapshot."""

    def _snapshot_table(self, snapshot):
        return {
            (snapshot.users[int(u)], snapshot.items[int(i)]): int(c)
            for u, i, c in zip(
                snapshot.user_idx, snapshot.item_idx, snapshot.clicks
            )
        }

    def test_appends_never_miss(self, simple_graph):
        graph = BipartiteGraph.from_indexed(simple_graph.indexed())
        with obs.recording(obs.Recorder()) as recorder:
            for step in range(5):
                graph.add_click(f"new_u{step}", "new_item", 2)
                graph.add_click("u1", "i1", 1)  # increment existing
                graph.indexed()
        assert recorder.counters.get("graph.indexed.misses", 0) == 0
        assert recorder.counters["graph.indexed.delta_builds"] == 5
        assert recorder.counters["graph.indexed.hits"] == 5

    def test_delta_snapshot_equals_rebuild(self, simple_graph):
        graph = BipartiteGraph.from_indexed(simple_graph.indexed())
        graph.add_click("delta_u", "delta_i", 7)
        graph.add_click("u1", "i1", 3)
        graph.add_user("idle_account")
        maintained = graph.indexed()
        rebuilt = IndexedGraph.from_graph(graph)
        assert maintained.version == graph.version
        assert set(maintained.users) == set(rebuilt.users)
        assert set(maintained.items) == set(rebuilt.items)
        assert self._snapshot_table(maintained) == self._snapshot_table(rebuilt)

    def test_chained_deltas_stay_canonical(self, simple_graph):
        graph = BipartiteGraph.from_indexed(simple_graph.indexed())
        for step in range(4):
            graph.add_click(f"burst{step}", f"bi{step % 2}", 1)
            snapshot = graph.indexed()
            # Canonical edge-array invariant after every merge.
            keys = (
                snapshot.user_idx.astype("int64") * max(snapshot.num_items, 1)
                + snapshot.item_idx
            )
            assert (keys[1:] > keys[:-1]).all()


class TestRecordDelta:
    """``apply_delta`` reads plain ``(user, item, clicks)`` records."""

    @staticmethod
    def _keys(snapshot):
        return snapshot.user_idx * max(snapshot.num_items, 1) + snapshot.item_idx

    @staticmethod
    def _content(snapshot):
        edges = {
            (snapshot.users[row], snapshot.items[column], weight)
            for row, column, weight in zip(
                snapshot.user_idx.tolist(),
                snapshot.item_idx.tolist(),
                snapshot.clicks.tolist(),
            )
        }
        return sorted(snapshot.users), sorted(snapshot.items), edges

    def test_reclick_patches_the_existing_edge(self, simple_graph):
        base = IndexedGraph.from_graph(simple_graph)
        merged = base.apply_delta([("u1", "i1", 2), ("u1", "i1", 1)], base.version + 1)
        assert merged.num_edges == base.num_edges
        keys = self._keys(merged)
        assert (keys[1:] > keys[:-1]).all()
        row, column = merged.user_index["u1"], merged.item_index["i1"]
        assert merged.edge_weight(row, column) == simple_graph.get_click("u1", "i1") + 3
        assert merged.total_clicks == base.total_clicks + 3

    def test_unseen_nodes_register_user_then_item(self, simple_graph):
        base = IndexedGraph.from_graph(simple_graph)
        merged = base.apply_delta([("nu", "ni", 4)], base.version + 1)
        interned = InternedDelta(base)
        interned.register("user", "nu")
        interned.register("item", "ni")
        interned.add([("nu", "ni", 4)])
        registered = base.apply_delta(interned, base.version + 1)
        assert registered.users == merged.users and registered.items == merged.items
        assert merged.users == base.users + ["nu"]
        assert merged.items == base.items + ["ni"]
        for name in ("user_idx", "item_idx", "clicks"):
            assert (getattr(merged, name) == getattr(registered, name)).all()
        assert merged.edge_weight(base.num_users, base.num_items) == 4

    def test_mixed_burst_equals_rebuild(self, simple_graph):
        graph = BipartiteGraph.from_indexed(simple_graph.indexed())
        graph.add_click("u1", "i1", 2)  # re-click
        graph.add_click("u9", "i9", 1)  # two unseen nodes
        graph.add_user("idle")  # idle registration
        graph.add_click("u9", "i1", 3)  # new edge, one old endpoint
        tail = graph._tail
        assert [
            (tail.users[row], tail.items[column], clicks)
            for row, column, clicks in zip(tail.rows, tail.columns, tail.clicks)
        ] == [("u1", "i1", 2), ("u9", "i9", 1), ("u9", "i1", 3)]
        assert tail.users[-2:] == ["u9", "idle"]
        rebuilt = IndexedGraph.from_graph(graph)
        assert self._content(graph.indexed()) == self._content(rebuilt)
