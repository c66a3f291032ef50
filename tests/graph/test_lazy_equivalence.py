"""Array-backed-vs-eager equivalence.

``BipartiteGraph.from_indexed(snapshot)`` (an array-backed graph: the
snapshot plus an interned tail) must be *observationally identical* to an
eager twin built from the snapshot's nodes and records with ``add_user``,
``add_item`` and ``add_clicks``, under any interleaving of reads and
writes — merging (lowered counts included), read caching and flattening
are representation moves, never semantic ones.  Hypothesis drives random
operation sequences against both graphs simultaneously and compares every
return value, every raised error, and the full end state.  ``users()``/``items()`` order is
compared exactly; ``edges()`` and the copy/subgraph payloads as
multisets, because an array-backed graph iterates in canonical snapshot
order while an eager one keeps dict insertion order (the exact order is
pinned in ``test_array_backed.py``).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError
from repro.graph import BipartiteGraph, from_click_records

# Small id universes so operations collide: cached neighbour maps get
# re-read, snapshot edges get overwritten, removals hit snapshot and
# tail-only vertices alike.
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

#: Lowering batches: the first half of the records repeated, unknown ids,
#: counts above the weight; sometimes one bad count at the end.
subtractions = st.tuples(
    st.lists(st.tuples(any_user, any_item, st.integers(1, 12)), max_size=5),
    st.one_of(st.none(), st.integers(-2, 0)),
).map(
    lambda parts: parts[0]
    + parts[0][: len(parts[0]) // 2]
    + ([] if parts[1] is None else [("u0", "i0", parts[1])])
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add_click"), any_user, any_item, st.integers(1, 5)),
        # A zero count makes the whole batch fail before any write.
        st.tuples(
            st.just("add_clicks"),
            st.lists(st.tuples(any_user, any_item, st.integers(0, 5)), max_size=4),
        ),
        st.tuples(st.just("subtract_clicks"), subtractions),
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


def eager_twin(snapshot):
    """An eager graph with ``snapshot``'s nodes, in its order, and records."""
    graph = BipartiteGraph()
    for user in snapshot.users:
        graph.add_user(user)
    for item in snapshot.items:
        graph.add_item(item)
    graph.add_clicks(
        (snapshot.users[row], snapshot.items[column], weight)
        for row, column, weight in zip(
            snapshot.user_idx.tolist(),
            snapshot.item_idx.tolist(),
            snapshot.clicks.tolist(),
        )
    )
    return graph


def make_twins(rows):
    """(array-backed, eager) graphs of the same snapshot."""
    snapshot = from_click_records(rows).indexed()
    return BipartiteGraph.from_indexed(snapshot), eager_twin(snapshot)


def apply(graph, op):
    """Run one operation; returns (outcome, payload) for comparison."""
    name, *args = op
    try:
        if name in ("add_click", "add_clicks", "set_click"):
            getattr(graph, name)(*args)
            return ("ok", None)
        if name == "subtract_clicks":
            return ("value", graph.subtract_clicks(*args))
        if name in ("remove_edge", "add_user", "add_item", "remove_user", "remove_item"):
            getattr(graph, name)(*args)
            return ("ok", None)
        if name in ("user_neighbors", "item_neighbors"):
            return ("value", dict(getattr(graph, name)(*args)))
        if name in ("users", "items"):
            return ("value", list(getattr(graph, name)()))
        if name == "edges":
            return ("value", Counter(graph.edges()))
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
            return ("value", (Counter(clone.edges()), clone.total_clicks))
        if name == "subgraph":
            sub = graph.subgraph(None, None)
            return ("value", (Counter(sub.edges()), sorted(map(str, sub.users()))))
        return ("value", getattr(graph, name)(*args))
    except NodeNotFoundError as error:
        return ("not_found", (error.args[0] if error.args else None,))
    except ValueError as error:
        return ("value_error", str(error))


@given(seed_records, operations)
@settings(max_examples=120, deadline=None)
def test_lazy_equals_eager_under_interleavings(rows, ops):
    lazy, eager = make_twins(rows)
    offset = lazy.version - eager.version
    for op in ops:
        assert apply(lazy, op) == apply(eager, op), op
        # Versions move in lockstep.
        assert lazy.version - eager.version == offset, op
    # End state: identical adjacency (== flattens the array-backed side),
    # identical node order, identical aggregates.
    assert Counter(lazy.edges()) == Counter(eager.edges())
    assert list(lazy.users()) == list(eager.users())
    assert list(lazy.items()) == list(eager.items())
    assert lazy.total_clicks == eager.total_clicks
    assert lazy.num_edges == eager.num_edges
    assert lazy == eager


@given(seed_records, operations)
@settings(max_examples=60, deadline=None)
def test_lazy_indexed_snapshot_matches_eager(rows, ops):
    """After any interleaving the array snapshots agree by id.

    An array-backed snapshot numbers rows in interning order, an eager
    rebuild by ``str``, so the comparison maps ids, not raw arrays.
    """
    lazy, eager = make_twins(rows)
    for op in ops:
        apply(lazy, op)
        apply(eager, op)
    a, b = lazy.indexed(), eager.indexed()
    assert by_id(a) == by_id(b)
    for snapshot in (a, b):
        keys = snapshot.user_idx * max(snapshot.num_items, 1) + snapshot.item_idx
        assert (keys[1:] > keys[:-1]).all()


def by_id(snapshot):
    """A snapshot's node sets and ``{(user, item): clicks}``, by id."""
    edges = {
        (snapshot.users[row], snapshot.items[column]): weight
        for row, column, weight in zip(
            snapshot.user_idx.tolist(),
            snapshot.item_idx.tolist(),
            snapshot.clicks.tolist(),
        )
    }
    assert len(edges) == snapshot.num_edges
    return set(snapshot.users), set(snapshot.items), edges


@given(seed_records)
@settings(max_examples=60, deadline=None)
def test_from_indexed_contract(rows):
    """The warm-rebuild contract.

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
    graph = BipartiteGraph.from_indexed(snapshot)
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
    """Reads never bump the version or replace the snapshot."""
    snapshot = from_click_records(rows).indexed()
    graph = BipartiteGraph.from_indexed(snapshot)
    before = graph.version
    for user in list(graph.users()):
        graph.user_neighbors(user)
        graph.user_degree(user)
        graph.user_total_clicks(user)
    for item in list(graph.items()):
        graph.item_neighbors(item)
        graph.item_degree(item)
        graph.item_total_clicks(item)
    list(graph.edges())
    assert graph.version == before
    assert graph.indexed() is snapshot


@given(seed_records)
@settings(max_examples=40, deadline=None)
def test_pickle_roundtrip_matches_eager(rows):
    import pickle

    snapshot = from_click_records(rows).indexed()
    lazy = BipartiteGraph.from_indexed(snapshot)
    eager = eager_twin(snapshot)
    restored = pickle.loads(pickle.dumps(lazy))
    assert restored == eager
    assert list(restored.edges()) == list(eager.edges())
