"""Property-based tests of Algorithm 3's pruning invariants."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ceil_frac
from repro.config import RICDParams
from repro.core.extraction import core_pruning, extract_groups, prune_to_fixpoint
from repro.graph import Adjacency, BipartiteGraph, from_click_records

records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11).map(lambda n: f"u{n}"),
        st.integers(min_value=0, max_value=11).map(lambda n: f"i{n}"),
        st.just(1),
    ),
    max_size=80,
)

param_values = st.tuples(
    st.integers(min_value=1, max_value=4),  # k1
    st.integers(min_value=1, max_value=4),  # k2
    st.sampled_from([0.5, 0.7, 0.8, 1.0]),  # alpha
)


@given(records, param_values)
@settings(max_examples=80)
def test_core_pruning_postcondition(rows, values):
    k1, k2, alpha = values
    adjacency = Adjacency(from_click_records(rows))
    params = RICDParams(k1=k1, k2=k2, alpha=alpha)
    core_pruning(adjacency, params)
    for row in adjacency.users.values():
        assert len(row) >= ceil_frac(alpha, k2)
    for column in adjacency.items.values():
        assert len(column) >= ceil_frac(alpha, k1)


@given(records, param_values)
@settings(max_examples=60)
def test_fixpoint_is_stable(rows, values):
    k1, k2, alpha = values
    adjacency = Adjacency(from_click_records(rows))
    params = RICDParams(k1=k1, k2=k2, alpha=alpha)
    prune_to_fixpoint(adjacency, params)
    snapshot = copy.deepcopy((adjacency.users, adjacency.items))
    prune_to_fixpoint(adjacency, params)
    assert (adjacency.users, adjacency.items) == snapshot


@given(records, param_values)
@settings(max_examples=60)
def test_square_pruning_lemma2_postcondition(rows, values):
    """Every survivor has >= k1 (resp. k2) strong same-side partners, self included."""
    k1, k2, alpha = values
    adjacency = Adjacency(from_click_records(rows))
    params = RICDParams(k1=k1, k2=k2, alpha=alpha)
    prune_to_fixpoint(adjacency, params)
    users, items = adjacency.users, adjacency.items
    user_floor = ceil_frac(alpha, k2)
    for user in users:
        strong = sum(
            1
            for other in users
            if other != user
            and len(set(users[user]) & set(users[other])) >= user_floor
        )
        if len(users[user]) >= user_floor:
            strong += 1
        assert strong >= k1
    item_floor = ceil_frac(alpha, k1)
    for item in items:
        strong = sum(
            1
            for other in items
            if other != item
            and len(set(items[item]) & set(items[other])) >= item_floor
        )
        if len(items[item]) >= item_floor:
            strong += 1
        assert strong >= k2


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=25)
def test_planted_biclique_always_recovered(n_users, n_items):
    """Completeness: a clean biclique at exactly (k1, k2) is never lost."""
    graph = BipartiteGraph()
    for user_index in range(n_users):
        for item_index in range(n_items):
            graph.add_click(f"u{user_index}", f"i{item_index}", 1)
    groups = extract_groups(graph, RICDParams(k1=n_users, k2=n_items, alpha=1.0))
    assert len(groups) == 1
    assert len(groups[0].users) == n_users
    assert len(groups[0].items) == n_items


@given(records)
@settings(max_examples=50)
def test_extraction_output_within_input(rows):
    graph = from_click_records(rows)
    groups = extract_groups(graph, RICDParams(k1=2, k2=2))
    all_users = set(graph.users())
    all_items = set(graph.items())
    for group in groups:
        assert group.users <= all_users
        assert group.items <= all_items


@given(records, st.sampled_from([0.5, 0.7, 1.0]))
@settings(max_examples=50)
def test_lower_alpha_keeps_no_fewer_nodes(rows, alpha):
    """Relaxing alpha never shrinks the surviving vertex set."""
    strict = Adjacency(from_click_records(rows))
    prune_to_fixpoint(strict, RICDParams(k1=3, k2=3, alpha=1.0))
    loose = Adjacency(from_click_records(rows))
    prune_to_fixpoint(loose, RICDParams(k1=3, k2=3, alpha=alpha))
    assert set(strict.users) <= set(loose.users)
    assert set(strict.items) <= set(loose.items)
