"""Screening and identification read group members' rows, not item columns.

``item_behavior_verification`` (heavy clickers, ridden-hot-item quorum)
and ``score_groups`` (item scores) find an item's clickers by inverting
the rows of a known user set.  The reference implementations below are
the item-column loops they replaced, kept as the oracle: on random
graphs, eager and array-backed alike, with random groups and thresholds,
both must return the same groups in the same order, the same hot items
and the same scores.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ScreeningParams
from repro.core.groups import SuspiciousGroup
from repro.core.identification import score_groups
from repro.core.screening import _jaccard, _split_items, item_behavior_verification
from repro.graph import BipartiteGraph, from_click_records


def reference_item_behavior_verification(graph, group, t_hot, t_click, params):
    """``item_behavior_verification`` reading each item's clicker column."""
    hot, ordinary = _split_items(graph, group.items, t_hot)
    heavy_clickers = {}
    for item in ordinary:
        clickers = {
            user
            for user, clicks in graph.item_neighbors(item).items()
            if user in group.users and clicks >= t_click
        }
        if len(clickers) >= params.min_users:
            heavy_clickers[item] = clickers
    candidates = sorted(heavy_clickers, key=str)
    parent = {item: item for item in candidates}

    def find(node):
        while parent[node] != node:
            node = parent[node]
        return node

    verified = set()
    for index, item in enumerate(candidates):
        for other in candidates[index + 1 :]:
            if _jaccard(heavy_clickers[item], heavy_clickers[other]) >= params.min_overlap:
                verified.update((item, other))
                root_a, root_b = find(item), find(other)
                if root_a != root_b:
                    parent[root_b] = root_a
    clusters = {}
    for item in verified:
        cluster = clusters.setdefault(find(item), SuspiciousGroup())
        cluster.items.add(item)
        cluster.users |= heavy_clickers[item]
    for cluster in clusters.values():
        quorum = max(2, len(cluster.users) // 2)
        cluster.hot_items = {
            item
            for item in hot
            if sum(1 for user in graph.item_neighbors(item) if user in cluster.users)
            >= quorum
        }
    groups = [
        cluster
        for cluster in clusters.values()
        if len(cluster.users) >= params.min_users and len(cluster.items) >= params.min_items
    ]
    groups.sort(key=lambda g: (-g.size, min((str(u) for u in g.users), default="")))
    return groups


def reference_score_groups(graph, groups):
    """``score_groups`` reading each suspicious item's clicker column."""
    suspicious_items, suspicious_users = set(), set()
    for group in groups:
        suspicious_items |= group.items
        suspicious_users |= group.users
    user_scores = {}
    for user in suspicious_users:
        if not graph.has_user(user):
            user_scores[user] = 0.0
            continue
        user_scores[user] = float(
            sum(1 for item in graph.user_neighbors(user) if item in suspicious_items)
        )
    item_scores = {}
    for item in suspicious_items:
        if not graph.has_item(item):
            item_scores[item] = 0.0
            continue
        risks = [user_scores[user] for user in graph.item_neighbors(item) if user in user_scores]
        item_scores[item] = sum(risks) / len(risks) if risks else 0.0
    return user_scores, item_scores


users = st.integers(min_value=0, max_value=11).map(lambda n: f"u{n}")
items = st.integers(min_value=0, max_value=7).map(lambda n: f"i{n}")
records = st.lists(st.tuples(users, items, st.integers(1, 12)), min_size=1, max_size=70)
groups = st.builds(
    SuspiciousGroup,
    users=st.sets(st.one_of(users, st.just("ghost-user")), max_size=10),
    items=st.sets(st.one_of(items, st.just("ghost-item")), max_size=8),
)
screening = st.builds(
    ScreeningParams,
    min_overlap=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
    min_users=st.integers(1, 3),
    min_items=st.integers(1, 3),
)


@st.composite
def planted(draw):
    """One or two worker blocks on their targets, riding hot items, plus noise.

    Returns ``(rows, group, t_hot, t_click)``: the group holds the blocks,
    the ridden hot items and some bystanders, so verification finds
    clusters (several, in a defined order) and ridden hot items instead
    of returning nothing.
    """
    t_click = draw(st.integers(2, 6))
    t_hot = draw(st.integers(20, 60))
    rows = [("whale", "h0", t_hot), ("whale", "h1", t_hot)]
    group = SuspiciousGroup(items={"h0", "h1"})
    for block in range(draw(st.integers(1, 2))):
        workers = [f"w{block}.{n}" for n in range(draw(st.integers(2, 7)))]
        targets = [f"t{block}.{n}" for n in range(draw(st.integers(2, 5)))]
        for user in workers:
            for item in targets:
                if draw(st.integers(0, 3)):
                    rows.append((user, item, t_click + draw(st.integers(-1, 4))))
            for hot in ("h0", "h1"):
                if draw(st.integers(0, 2)):
                    rows.append((user, hot, draw(st.integers(1, 3))))
        group.users.update(workers)
        group.items.update(targets)
    rows += draw(st.lists(st.tuples(users, items, st.integers(1, 12)), max_size=20))
    group.users |= draw(st.sets(st.one_of(users, st.just("ghost-user")), max_size=4))
    group.items |= draw(st.sets(st.one_of(items, st.just("ghost-item")), max_size=3))
    return rows, group, t_hot, t_click


random_case = st.tuples(records, groups, st.integers(1, 40), st.integers(1, 10))


def as_graph(rows, kind):
    graph = from_click_records(rows)
    if kind == "array":
        graph = BipartiteGraph.from_indexed(graph.indexed())
    return graph


def canonical(found):
    return [(group.users, group.items, group.hot_items) for group in found]


@given(
    case=st.one_of(planted(), random_case),
    kind=st.sampled_from(["eager", "array"]),
    params=screening,
)
@settings(max_examples=300, deadline=None)
def test_item_verification_matches_the_item_column_reference(case, kind, params):
    rows, group, t_hot, t_click = case
    graph = as_graph(rows, kind)
    expected = reference_item_behavior_verification(graph, group, t_hot, t_click, params)
    found = item_behavior_verification(graph, group.copy(), t_hot, t_click, params)
    assert canonical(found) == canonical(expected)


@given(
    case=st.one_of(
        planted().map(lambda case: (case[0], [case[1]])),
        st.tuples(records, st.lists(groups, max_size=3)),
    ),
    kind=st.sampled_from(["eager", "array"]),
)
@settings(max_examples=200, deadline=None)
def test_scores_match_the_item_column_reference(case, kind):
    rows, chosen = case
    graph = as_graph(rows, kind)
    expected = reference_score_groups(graph, chosen)
    found = score_groups(graph, chosen)
    assert found == expected
    assert [list(scores) for scores in found] == [list(scores) for scores in expected]
