"""Lazy-vs-eager equivalence: the tentpole's correctness pin.

``BipartiteGraph.from_indexed(snapshot, lazy=True)`` must be
*observationally identical* to the eagerly-rebuilt twin under any
interleaving of reads and writes — hydration and materialization are
cache moves, never semantic ones.  Hypothesis drives random operation
sequences against both graphs simultaneously and compares every return
value, every raised error, and the full end state (including ``edges()``
iteration order, which downstream canonicalization relies on).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError
from repro.graph import BipartiteGraph, from_click_records

# Small id universes so operations collide: hydrated vertices get
# re-read, snapshot edges get overwritten, removals hit hydrated and
# unhydrated vertices alike.
user_ids = st.integers(min_value=0, max_value=7).map(lambda n: f"u{n}")
item_ids = st.integers(min_value=0, max_value=7).map(lambda n: f"i{n}")
# A few ids outside the snapshot universe exercise the new-node paths.
new_user_ids = st.integers(min_value=90, max_value=93).map(lambda n: f"u{n}")
new_item_ids = st.integers(min_value=90, max_value=93).map(lambda n: f"i{n}")
any_user = st.one_of(user_ids, new_user_ids)
any_item = st.one_of(item_ids, new_item_ids)

seed_records = st.lists(
    st.tuples(user_ids, item_ids, st.integers(min_value=1, max_value=9)),
    min_size=1,
    max_size=40,
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add_click"), any_user, any_item, st.integers(1, 5)),
        st.tuples(st.just("set_click"), any_user, any_item, st.integers(0, 5)),
        st.tuples(st.just("remove_edge"), any_user, any_item),
        st.tuples(st.just("add_user"), any_user),
        st.tuples(st.just("add_item"), any_item),
        st.tuples(st.just("remove_user"), any_user),
        st.tuples(st.just("remove_item"), any_item),
        st.tuples(st.just("get_click"), any_user, any_item),
        st.tuples(st.just("has_edge"), any_user, any_item),
        st.tuples(st.just("has_user"), any_user),
        st.tuples(st.just("has_item"), any_item),
        st.tuples(st.just("user_neighbors"), any_user),
        st.tuples(st.just("item_neighbors"), any_item),
        st.tuples(st.just("user_degree"), any_user),
        st.tuples(st.just("item_degree"), any_item),
        st.tuples(st.just("user_total_clicks"), any_user),
        st.tuples(st.just("item_total_clicks"), any_item),
        st.tuples(st.just("users"),),
        st.tuples(st.just("items"),),
        st.tuples(st.just("edges"),),
        st.tuples(st.just("counts"),),
        st.tuples(st.just("copy"),),
        st.tuples(st.just("subgraph"),),
    ),
    max_size=30,
)


def make_twins(rows):
    """(lazy, eager) rebuilds of the same snapshot."""
    snapshot = from_click_records(rows).indexed()
    return (
        BipartiteGraph.from_indexed(snapshot, lazy=True),
        BipartiteGraph.from_indexed(snapshot, lazy=False),
    )


def apply(graph, op):
    """Run one operation; returns (outcome, payload) for comparison."""
    name, *args = op
    try:
        if name in ("add_click", "set_click"):
            getattr(graph, name)(*args)
            return ("ok", None)
        if name in ("remove_edge", "add_user", "add_item", "remove_user", "remove_item"):
            getattr(graph, name)(*args)
            return ("ok", None)
        if name in ("user_neighbors", "item_neighbors"):
            return ("value", dict(getattr(graph, name)(*args)))
        if name in ("users", "items"):
            return ("value", list(getattr(graph, name)()))
        if name == "edges":
            return ("value", list(graph.edges()))
        if name == "counts":
            return (
                "value",
                (
                    graph.num_users,
                    graph.num_items,
                    graph.num_edges,
                    graph.total_clicks,
                    len(graph),
                ),
            )
        if name == "copy":
            clone = graph.copy()
            return ("value", (list(clone.edges()), clone.total_clicks))
        if name == "subgraph":
            sub = graph.subgraph(None, None)
            return ("value", (list(sub.edges()), sorted(map(str, sub.users()))))
        return ("value", getattr(graph, name)(*args))
    except NodeNotFoundError as error:
        return ("not_found", (error.args[0] if error.args else None,))


@given(seed_records, operations)
@settings(max_examples=120, deadline=None)
def test_lazy_equals_eager_under_interleavings(rows, ops):
    lazy, eager = make_twins(rows)
    for op in ops:
        assert apply(lazy, op) == apply(eager, op), op
    # End state: identical adjacency (== materializes the lazy side),
    # identical canonical iteration order, identical aggregates.
    assert list(lazy.edges()) == list(eager.edges())
    assert list(lazy.users()) == list(eager.users())
    assert list(lazy.items()) == list(eager.items())
    assert lazy.total_clicks == eager.total_clicks
    assert lazy.num_edges == eager.num_edges
    assert lazy == eager


@given(seed_records, operations)
@settings(max_examples=60, deadline=None)
def test_lazy_indexed_snapshot_matches_eager(rows, ops):
    """After any interleaving the canonical array snapshots agree."""
    lazy, eager = make_twins(rows)
    for op in ops:
        apply(lazy, op)
        apply(eager, op)
    a, b = lazy.indexed(), eager.indexed()
    assert a.users == b.users and a.items == b.items
    assert np.array_equal(a.user_idx, b.user_idx)
    assert np.array_equal(a.item_idx, b.item_idx)
    assert np.array_equal(a.clicks, b.clicks)


@given(seed_records)
@settings(max_examples=60, deadline=None)
def test_from_indexed_contract(rows):
    """Satellite: the warm-rebuild contract, lazy and eager alike.

    ``from_indexed`` preserves ``total_clicks``/``num_edges``, iterates
    ``edges()`` in canonical snapshot order, pins ``version`` to the
    snapshot's, and serves the first ``indexed()`` call as a zero-miss
    cache hit.
    """
    from repro import obs

    snapshot = from_click_records(rows).indexed()
    canonical_edges = [
        (snapshot.users[row], snapshot.items[column], weight)
        for row, column, weight in zip(
            snapshot.user_idx.tolist(),
            snapshot.item_idx.tolist(),
            snapshot.clicks.tolist(),
        )
    ]
    for lazy in (True, False):
        graph = BipartiteGraph.from_indexed(snapshot, lazy=lazy)
        assert graph.total_clicks == snapshot.total_clicks
        assert graph.num_edges == snapshot.num_edges
        assert graph.num_users == snapshot.num_users
        assert graph.num_items == snapshot.num_items
        assert list(graph.edges()) == canonical_edges
        assert graph.version == snapshot.version
        recorder = obs.Recorder()
        with obs.recording(recorder):
            assert graph.indexed() is snapshot
        assert recorder.counters.get("graph.indexed.misses", 0) == 0
        assert recorder.counters.get("graph.indexed.hits", 0) == 1


@given(seed_records)
@settings(max_examples=40, deadline=None)
def test_hydration_is_not_a_mutation(rows):
    """Reads never bump the version, lazy or not."""
    snapshot = from_click_records(rows).indexed()
    graph = BipartiteGraph.from_indexed(snapshot)
    before = graph.version
    for user in list(graph.users()):
        graph.user_neighbors(user)
        graph.user_degree(user)
        graph.user_total_clicks(user)
    for item in list(graph.items()):
        graph.item_neighbors(item)
    list(graph.edges())
    assert graph.version == before
    assert graph.indexed() is snapshot


@given(seed_records)
@settings(max_examples=40, deadline=None)
def test_pickle_roundtrip_matches_eager(rows):
    import pickle

    snapshot = from_click_records(rows).indexed()
    lazy = BipartiteGraph.from_indexed(snapshot, lazy=True)
    eager = BipartiteGraph.from_indexed(snapshot, lazy=False)
    restored = pickle.loads(pickle.dumps(lazy))
    assert restored == eager
    assert list(restored.edges()) == list(eager.edges())
