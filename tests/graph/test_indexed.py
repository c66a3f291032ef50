"""Tests for the IndexedGraph snapshot and its memoization contract."""

import pickle

import pytest

from repro import obs
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import BipartiteGraph, IndexedGraph, from_click_records

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
            lambda g: g.remove_user("u1"),
            lambda g: g.remove_item("i1"),
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
        simple_graph.indexed()
        clone = pickle.loads(pickle.dumps(simple_graph))
        assert clone == simple_graph
        assert clone._indexed is None
        assert clone.indexed().num_edges == simple_graph.num_edges


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


class TestIncrementalMaintenance:
    """Append-only mutation maintains the snapshot; it never re-snapshots."""

    def _snapshot_table(self, snapshot):
        return {
            (snapshot.users[int(u)], snapshot.items[int(i)]): int(c)
            for u, i, c in zip(
                snapshot.user_idx, snapshot.item_idx, snapshot.clicks
            )
        }

    def test_appends_never_miss(self, simple_graph):
        simple_graph.indexed()  # build once
        with obs.recording(obs.Recorder()) as recorder:
            for step in range(5):
                simple_graph.add_click(f"new_u{step}", "new_item", 2)
                simple_graph.add_click("u1", "i1", 1)  # increment existing
                simple_graph.indexed()
        assert recorder.counters.get("graph.indexed.misses", 0) == 0
        assert recorder.counters["graph.indexed.delta_builds"] == 5
        assert recorder.counters["graph.indexed.hits"] == 5

    def test_delta_snapshot_equals_rebuild(self, simple_graph):
        simple_graph.indexed()
        simple_graph.add_click("delta_u", "delta_i", 7)
        simple_graph.add_click("u1", "i1", 3)
        simple_graph.add_user("idle_account")
        maintained = simple_graph.indexed()
        rebuilt = IndexedGraph.from_graph(simple_graph)
        assert maintained.version == simple_graph.version
        assert set(maintained.users) == set(rebuilt.users)
        assert set(maintained.items) == set(rebuilt.items)
        assert self._snapshot_table(maintained) == self._snapshot_table(rebuilt)

    def test_destructive_mutation_still_rebuilds(self, simple_graph):
        simple_graph.indexed()
        simple_graph.remove_user("u1")
        with obs.recording(obs.Recorder()) as recorder:
            simple_graph.indexed()
        assert recorder.counters["graph.indexed.misses"] == 1

    def test_chained_deltas_stay_canonical(self, simple_graph):
        params_probe = simple_graph.indexed()
        del params_probe
        for step in range(4):
            simple_graph.add_click(f"burst{step}", f"bi{step % 2}", 1)
            snapshot = simple_graph.indexed()
            # Canonical edge-array invariant after every merge.
            keys = (
                snapshot.user_idx.astype("int64") * max(snapshot.num_items, 1)
                + snapshot.item_idx
            )
            assert (keys[1:] > keys[:-1]).all()

    def test_buffer_backstop_falls_back_to_rebuild(self, simple_graph):
        simple_graph.indexed()
        original_limit = type(simple_graph)._DELTA_LIMIT
        try:
            type(simple_graph)._DELTA_LIMIT = 3
            for step in range(6):
                simple_graph.add_click(f"flood{step}", "hot", 1)
            with obs.recording(obs.Recorder()) as recorder:
                simple_graph.indexed()
            assert recorder.counters["graph.indexed.misses"] == 1
        finally:
            type(simple_graph)._DELTA_LIMIT = original_limit
