"""The array-backed graph against a plain dict-of-dicts model.

Every ``BipartiteGraph`` is a snapshot plus an interned tail: appends
intern into the tail, reads merge it first, and lowered counts merge at
once.  The oracle here is not another ``BipartiteGraph`` but
:class:`Model`, a few dicts that state the graph's documented semantics
directly.  Hypothesis interleaves writes, reads, merges, copies, pickling
and ``==``, and every return value, error, end state and ``version`` must
match the model.

``apply_delta`` has two inputs, plain records and an already-interned
tail; both must give the same arrays and id tables, and a merge of
lowered counts leaves its base frozen.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import NodeNotFoundError
from repro.graph import BipartiteGraph, IndexedGraph, from_click_records
from repro.graph.indexed import InternedDelta

user_ids = st.integers(min_value=0, max_value=6).map(lambda n: f"u{n}")
item_ids = st.integers(min_value=0, max_value=6).map(lambda n: f"i{n}")
new_user_ids = st.integers(min_value=90, max_value=93).map(lambda n: f"u{n}")
new_item_ids = st.integers(min_value=90, max_value=93).map(lambda n: f"i{n}")
any_user = st.one_of(user_ids, new_user_ids)
any_item = st.one_of(item_ids, new_item_ids)

seed_records = st.lists(
    st.tuples(user_ids, item_ids, st.integers(min_value=1, max_value=9)),
    min_size=1,
    max_size=30,
)

#: Mostly valid batches with repeated pairs; sometimes one bad count.
batches = st.tuples(
    st.lists(st.tuples(any_user, any_item, st.integers(1, 5)), max_size=6),
    st.one_of(st.none(), st.integers(-2, 0)),
)
#: Lowering batches: the first half of the records repeated, unknown ids,
#: counts above the weight; sometimes one bad count.
subtractions = st.tuples(
    st.lists(st.tuples(any_user, any_item, st.integers(1, 12)), max_size=6).map(
        lambda records: records + records[: len(records) // 2]
    ),
    st.one_of(st.none(), st.integers(-2, 0)),
)

writes_and_reads = st.one_of(
    st.tuples(st.just("add_clicks"), batches),
    st.tuples(st.just("subtract_clicks"), subtractions),
    st.tuples(st.just("set_click"), any_user, any_item, st.integers(0, 8)),
    st.tuples(st.just("remove_edge"), any_user, any_item),
    st.tuples(st.just("add_user"), any_user),
    st.tuples(st.just("add_item"), any_item),
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
    st.tuples(st.just("nodes"),),
    st.tuples(st.just("neighbourhoods"),),
    st.tuples(st.just("edges"),),
    st.tuples(st.just("counts"),),
    st.tuples(st.just("indexed"),),
    st.tuples(st.just("copy"), any_user, any_item),
    st.tuples(st.just("subgraph"),),
    st.tuples(st.just("pickle"),),
    st.tuples(st.just("eq"),),
)
operations = st.lists(writes_and_reads, max_size=35)
#: Operations checked against the model in the test body, not by ``run``.
WHOLE_GRAPH = ("indexed", "copy", "subgraph", "pickle", "eq")


class Model:
    """The graph's documented semantics in plain dicts, plus a version."""

    def __init__(self, snapshot):
        self.users = {user: {} for user in snapshot.users}
        self.items = {item: {} for item in snapshot.items}
        for row, column, weight in zip(
            snapshot.user_idx.tolist(), snapshot.item_idx.tolist(), snapshot.clicks.tolist()
        ):
            user, item = snapshot.users[row], snapshot.items[column]
            self.users[user][item] = self.items[item][user] = weight
        self.version = snapshot.version

    # writes ------------------------------------------------------------
    def add_clicks(self, records):
        for _, _, clicks in records:
            if clicks <= 0:
                raise ValueError(f"clicks must be positive, got {clicks}")
        for user, item, clicks in records:
            weight = self.users.setdefault(user, {}).get(item, 0) + clicks
            self.items.setdefault(item, {})
            self.users[user][item] = self.items[item][user] = weight
        self.version += len(records)

    def add_user(self, user):
        if user not in self.users:
            self.users[user] = {}
            self.version += 1

    def add_item(self, item):
        if item not in self.items:
            self.items[item] = {}
            self.version += 1

    def set_click(self, user, item, clicks):
        if clicks < 0:
            raise ValueError(f"clicks must be >= 0, got {clicks}")
        current = self.get_click(user, item)
        if clicks == current:
            return
        if clicks > current:
            self.add_clicks([(user, item, clicks - current)])
            return
        if clicks == 0:
            del self.users[user][item], self.items[item][user]
        else:
            self.users[user][item] = self.items[item][user] = clicks
        self.version += 1

    def remove_edge(self, user, item):
        self.set_click(user, item, 0)

    def subtract_clicks(self, records):
        for _, _, clicks in records:
            if clicks <= 0:
                raise ValueError(f"clicks must be positive, got {clicks}")
        lowered = []
        for user, item, clicks in records:
            current = self.get_click(user, item)
            if current:
                self.set_click(user, item, max(0, current - clicks))
                if (user, item) not in lowered:
                    lowered.append((user, item))
        return lowered

    # reads -------------------------------------------------------------
    def get_click(self, user, item):
        return self.users.get(user, {}).get(item, 0)

    def has_edge(self, user, item):
        return item in self.users.get(user, {})

    def has_user(self, user):
        return user in self.users

    def has_item(self, item):
        return item in self.items

    def user_neighbors(self, user):
        if user not in self.users:
            raise NodeNotFoundError(user, "user")
        return self.users[user]

    def item_neighbors(self, item):
        if item not in self.items:
            raise NodeNotFoundError(item, "item")
        return self.items[item]

    def user_degree(self, user):
        return len(self.user_neighbors(user))

    def item_degree(self, item):
        return len(self.item_neighbors(item))

    def user_total_clicks(self, user):
        return sum(self.user_neighbors(user).values())

    def item_total_clicks(self, item):
        return sum(self.item_neighbors(item).values())

    def edges(self):
        return [
            (user, item, clicks)
            for user, adjacency in self.users.items()
            for item, clicks in adjacency.items()
        ]

    def counts(self):
        edges = self.edges()
        return (
            len(self.users),
            len(self.items),
            len(edges),
            sum(clicks for _, _, clicks in edges),
            len(self.users) + len(self.items),
        )

    def as_graph(self):
        """A ``BipartiteGraph`` holding the model's state."""
        graph = BipartiteGraph()
        for user in self.users:
            graph.add_user(user)
        for item in self.items:
            graph.add_item(item)
        graph.add_clicks(self.edges())
        return graph


def by_id(snapshot):
    """A snapshot's node sets and ``{(user, item): clicks}``, by id."""
    edges = {
        (snapshot.users[row], snapshot.items[column]): weight
        for row, column, weight in zip(
            snapshot.user_idx.tolist(), snapshot.item_idx.tolist(), snapshot.clicks.tolist()
        )
    }
    return set(snapshot.users), set(snapshot.items), edges


def run(target, op):
    """Run one operation on the graph or the model; (outcome, payload)."""
    name, *args = op
    try:
        if name in ("add_clicks", "subtract_clicks"):
            records, bad = args[0]
            if bad is not None:
                records = records + [("u0", "i0", bad)]
            return ("value", getattr(target, name)(records))
        if name in ("add_user", "add_item", "set_click", "remove_edge"):
            getattr(target, name)(*args)
            return ("ok", None)
        if name in ("user_neighbors", "item_neighbors"):
            return ("value", dict(getattr(target, name)(*args)))
        if name == "get_click":
            return ("value", target.get_click(*args))
        if name in ("has_edge", "has_user", "has_item", "user_degree", "item_degree",
                    "user_total_clicks", "item_total_clicks"):
            return ("value", getattr(target, name)(*args))
        if name == "neighbourhoods":
            # Every neighbour map, read through the graph's read cache.
            if isinstance(target, BipartiteGraph):
                return ("value", (
                    {user: dict(target.user_neighbors(user)) for user in target.users()},
                    {item: dict(target.item_neighbors(item)) for item in target.items()},
                ))
            return ("value", (target.users, target.items))
        if name == "nodes":
            return ("value", (list(target.users()), list(target.items()))
                    if isinstance(target, BipartiteGraph)
                    else (list(target.users), list(target.items)))
        if name == "edges":
            return ("value", Counter(target.edges()))
        if name == "counts":
            if isinstance(target, BipartiteGraph):
                return ("value", (target.num_users, target.num_items, target.num_edges,
                                  target.total_clicks, len(target)))
            return ("value", target.counts())
        raise AssertionError(f"unhandled operation {name}")
    except NodeNotFoundError as error:
        return ("not_found", error.args[:1])
    except ValueError as error:
        return ("value_error", str(error))


def check_state(graph, model, op):
    assert graph.version == model.version, op
    assert list(graph.users()) == list(model.users), op
    assert list(graph.items()) == list(model.items), op
    assert graph.num_users == len(model.users), op
    assert graph.total_clicks == model.counts()[3], op


@given(seed_records, operations)
@settings(max_examples=150, deadline=None)
def test_array_backed_graph_matches_the_model(rows, ops):
    snapshot = from_click_records(rows).indexed()
    graph = BipartiteGraph.from_indexed(snapshot)
    model = Model(snapshot)
    for op in ops:
        name = op[0]
        if name == "indexed":
            merged = graph.indexed()
            assert merged.version == model.version
            assert by_id(merged) == by_id(IndexedGraph.from_graph(model.as_graph()))
        elif name == "copy":
            clone = graph.copy()
            assert Counter(clone.edges()) == Counter(model.edges())
            # Writes to the clone, appends and lowered counts alike, stay there.
            clone.add_click(op[1], op[2], 3)
            clone.set_click(op[1], op[2], 1)
            assert Counter(graph.edges()) == Counter(model.edges())
            assert list(graph.users()) == list(model.users)
        elif name == "subgraph":
            sub = graph.subgraph(None, None)
            assert Counter(sub.edges()) == Counter(model.edges())
            assert list(sub.users()) == list(model.users)
        elif name == "pickle":
            restored = pickle.loads(pickle.dumps(graph))
            assert restored.version == model.version
            assert Counter(restored.edges()) == Counter(model.edges())
            assert list(restored.users()) == list(model.users)
            assert restored == model.as_graph()
        elif name == "eq":
            assert graph == model.as_graph()
            assert graph == graph.copy()
        else:
            assert run(graph, op) == run(model, op), op
        check_state(graph, model, op)
    assert run(graph, ("neighbourhoods",)) == run(model, ("neighbourhoods",))
    assert Counter(graph.edges()) == Counter(model.edges())
    assert graph == model.as_graph()


@given(seed_records, operations)
@settings(max_examples=80, deadline=None)
def test_appends_iterate_in_canonical_interning_order(rows, ops):
    """``edges()`` is canonical: users in interning order, each user's
    items by ascending column, where columns are numbered in interning
    order too."""
    snapshot = from_click_records(rows).indexed()
    graph = BipartiteGraph.from_indexed(snapshot)
    model = Model(snapshot)
    for op in ops:
        name = op[0]
        if name in WHOLE_GRAPH:
            continue
        run(graph, op)
        run(model, op)
    rows_of = {user: row for row, user in enumerate(model.users)}
    columns_of = {item: column for column, item in enumerate(model.items)}
    canonical = sorted(model.edges(), key=lambda edge: (rows_of[edge[0]], columns_of[edge[1]]))
    assert list(graph.edges()) == canonical
    assert list(graph.users()) == list(model.users)
    assert list(graph.items()) == list(model.items)


def test_a_rejected_batch_leaves_the_interner_untouched():
    graph = BipartiteGraph.from_indexed(from_click_records([("u0", "i0", 2)]).indexed())
    before = graph.version
    try:
        graph.add_clicks([("new-user", "new-item", 1), ("u0", "i0", 0)])
    except ValueError as error:
        assert str(error) == "clicks must be positive, got 0"
    else:  # pragma: no cover - the batch must fail
        raise AssertionError("a zero count was accepted")
    assert graph.version == before
    assert not graph.has_user("new-user") and not graph.has_item("new-item")
    assert list(graph.users()) == ["u0"] and list(graph.items()) == ["i0"]
    assert graph.indexed().num_users == 1


def test_appends_write_no_dict_and_reads_merge_once():
    snapshot = from_click_records([("u0", "i0", 2), ("u1", "i0", 1)]).indexed()
    graph = BipartiteGraph.from_indexed(snapshot)
    appends = obs.Recorder()
    with obs.recording(appends):
        graph.add_clicks([("u0", "i0", 1), ("u2", "i1", 4)])
        graph.add_user("idle")
    assert appends.counters == {}
    assert graph.indexed() is not snapshot
    reads = obs.Recorder()
    with obs.recording(reads):
        # set_click reads the count, then appends the increment.
        graph.set_click("u1", "i0", 5)
        merged = graph.indexed()
        assert graph.get_click("u1", "i0") == 5
        assert graph.item_degree("i0") == 2
        assert graph.item_total_clicks("i0") == 8
        assert graph.user_degree("u2") == 1
        assert graph.indexed() is merged
    assert reads.counters.get("graph.indexed.delta_builds", 0) == 1
    assert reads.counters.get("graph.indexed.csc_builds", 0) == 0
    assert list(graph.users()) == ["u0", "u1", "u2", "idle"]


# ----------------------------------------------------------------------
# apply_delta: plain records == the same records interned first
# ----------------------------------------------------------------------
records = st.lists(st.tuples(any_user, any_item, st.integers(1, 6)), max_size=25)


def arrays_and_tables(snapshot):
    return (
        list(snapshot.users),
        list(snapshot.items),
        dict(snapshot.user_index),
        dict(snapshot.item_index),
        snapshot.user_idx.tolist(),
        snapshot.item_idx.tolist(),
        snapshot.clicks.tolist(),
    )


@given(seed_records, records, st.integers(min_value=1, max_value=4))
@settings(max_examples=120, deadline=None)
def test_apply_delta_of_records_equals_of_the_interned_tail(rows, delta, chunks):
    base = from_click_records(rows).indexed()
    frozen = arrays_and_tables(base)
    plain = base.apply_delta(delta, base.version + 1)
    interned = InternedDelta(base)
    # Interning in several calls is the same as in one.
    step = max(1, -(-len(delta) // chunks))
    for start in range(0, len(delta), step):
        interned.add(delta[start : start + step])
    counted = interned.merged_num_edges()
    merged = base.apply_delta(interned, base.version + 1)
    assert counted == merged.num_edges
    assert arrays_and_tables(plain) == arrays_and_tables(merged)
    assert merged.version == plain.version
    # The base is frozen: its tables and arrays did not move.
    assert arrays_and_tables(base) == frozen
    # And the merge holds what a one-record-at-a-time replay holds.
    replay = BipartiteGraph.from_indexed(base)
    for record in delta:
        replay.add_click(*record)
    assert by_id(merged) == by_id(IndexedGraph.from_graph(replay))
    assert merged.users == list(replay.users()) and merged.items == list(replay.items())


def test_a_failed_add_leaves_the_columns_aligned():
    base = from_click_records([("u0", "i0", 1)]).indexed()
    delta = InternedDelta(base)
    with pytest.raises(TypeError):
        delta.add([("u0", "i0", 1), ("u1", ["unhashable"], 1)])
    assert delta.rows == delta.columns == delta.clicks == []
    with pytest.raises(ValueError, match="have 3 fields, got 4"):
        delta.add([("u2", "i2", 1), ("u2", "i2", 1, "extra")])
    assert delta.rows == delta.columns == delta.clicks == []
    assert "u2" not in delta.user_index
    delta.add([("u0", "i0", 2)])
    assert base.apply_delta(delta, 2).clicks.tolist() == [3]


def test_single_clicks_across_tail_flushes_merge_like_one_batch():
    """A tail flushes its buffer into int64 chunks every 4,096 records."""
    rng = np.random.default_rng(7)
    records = [
        (f"u{user}", f"i{item}", clicks)
        for user, item, clicks in zip(
            rng.integers(0, 3000, 10_000).tolist(),
            rng.integers(0, 500, 10_000).tolist(),
            rng.integers(1, 5, 10_000).tolist(),
        )
    ]
    base = from_click_records([("u0", "i0", 1)]).indexed()
    single, batch = BipartiteGraph.from_indexed(base), BipartiteGraph.from_indexed(base)
    for record in records:
        single.add_click(*record)
    batch.add_clicks(records)
    assert len(single._tail) == len(batch._tail) == len(records)
    assert (single.version, single.total_clicks) == (batch.version, batch.total_clicks)
    assert arrays_and_tables(single.indexed()) == arrays_and_tables(batch.indexed())


@given(
    seed_records,
    st.lists(st.tuples(st.integers(0, 29), st.integers(1, 12)), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_a_decrement_merge_leaves_the_base_untouched(rows, cuts):
    base = from_click_records(rows).indexed()
    frozen = arrays_and_tables(base)
    graph = BipartiteGraph.from_indexed(base)
    model = Model(base)
    edges = model.edges()
    lowering = [(*edges[at % len(edges)][:2], clicks) for at, clicks in cuts]
    assert graph.subtract_clicks(lowering) == model.subtract_clicks(lowering)
    # The decrements merged at once, against the base itself.
    assert graph._tail.base is not base and not graph._tail.rows
    assert arrays_and_tables(base) == frozen
    merged = graph.indexed()
    assert by_id(merged) == by_id(IndexedGraph.from_graph(model.as_graph()))
    assert merged.users == base.users and merged.items == base.items
    keys = merged.user_idx * max(merged.num_items, 1) + merged.item_idx
    assert (keys[1:] > keys[:-1]).all() and (merged.clicks > 0).all()


def test_a_delta_cannot_take_an_edge_below_zero():
    base = from_click_records([("u0", "i0", 2), ("u1", "i0", 1)]).indexed()
    with pytest.raises(ValueError, match="below zero"):
        base.apply_delta([("u0", "i0", -3)], 2)
    with pytest.raises(ValueError, match="below zero"):
        base.apply_delta([("u2", "i0", -1)], 2)
    assert base.apply_delta([("u0", "i0", -2)], 2).clicks.tolist() == [1]


def test_the_edge_count_between_merges_does_not_merge():
    snapshot = from_click_records([("u0", "i0", 2), ("u1", "i0", 1)]).indexed()
    graph = BipartiteGraph.from_indexed(snapshot)
    # One increment, one new edge twice, one edge between known nodes.
    graph.add_clicks([("u0", "i0", 1), ("u2", "i1", 4), ("u2", "i1", 1), ("u1", "i2", 1)])
    graph.add_user("idle")
    counts = obs.Recorder()
    with obs.recording(counts):
        assert graph.num_edges == 4
    assert counts.counters == {}
    assert graph.indexed().num_edges == 4


@given(
    seed_records,
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_has_edges_is_the_batched_edge_weight(rows, pairs):
    snapshot = from_click_records(rows).indexed()
    expected = [
        row < snapshot.num_users
        and column < snapshot.num_items
        and snapshot.edge_weight(row, column) > 0
        for row, column in pairs
    ]
    found = snapshot.has_edges([row for row, _ in pairs], [column for _, column in pairs])
    assert found.tolist() == expected
