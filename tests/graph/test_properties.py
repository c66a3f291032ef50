"""Property-based tests of the BipartiteGraph invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Adjacency, connected_components, from_click_records

# Click records over a small id universe so collisions (accumulation) and
# shared neighbourhoods actually occur.
records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8).map(lambda n: f"u{n}"),
        st.integers(min_value=0, max_value=8).map(lambda n: f"i{n}"),
        st.integers(min_value=1, max_value=20),
    ),
    max_size=60,
)


@given(records)
def test_total_clicks_equals_record_sum(rows):
    graph = from_click_records(rows)
    assert graph.total_clicks == sum(clicks for _u, _i, clicks in rows)


@given(records)
def test_adjacency_mirrors_are_consistent(rows):
    graph = from_click_records(rows)
    for user, item, clicks in graph.edges():
        assert graph.item_neighbors(item)[user] == clicks
    assert graph.num_edges == sum(graph.item_degree(i) for i in graph.items())


@given(records)
def test_degree_totals_match_both_sides(rows):
    graph = from_click_records(rows)
    user_total = sum(graph.user_total_clicks(u) for u in graph.users())
    item_total = sum(graph.item_total_clicks(i) for i in graph.items())
    assert user_total == item_total == graph.total_clicks


@given(records)
def test_copy_equals_original(rows):
    graph = from_click_records(rows)
    assert graph.copy() == graph


@given(records, st.randoms(use_true_random=False))
def test_removal_keeps_mirrors_consistent(rows, rng):
    graph = from_click_records(rows)
    adjacency = Adjacency(graph)
    removed = 0
    for user in sorted(graph.users()):
        if rng.random() < 0.5:
            removed += sum(adjacency.remove_user(user).values())
    for item in sorted(graph.items()):
        if item in adjacency.items and rng.random() < 0.5:
            removed += sum(adjacency.remove_item(item).values())
    # After arbitrary removals every edge must still be mirrored and the
    # click accounting intact.
    user_side = {(u, i): c for u, row in adjacency.users.items() for i, c in row.items()}
    item_side = {(u, i): c for i, column in adjacency.items.items() for u, c in column.items()}
    assert user_side == item_side
    assert sum(user_side.values()) == graph.total_clicks - removed


@given(records)
@settings(max_examples=50)
def test_components_partition_the_graph(rows):
    graph = from_click_records(rows)
    components = connected_components(graph)
    seen_users = [u for users, _items in components for u in users]
    seen_items = [i for _users, items in components for i in items]
    assert sorted(seen_users) == sorted(graph.users())
    assert sorted(seen_items) == sorted(graph.items())
    # Disjointness.
    assert len(seen_users) == len(set(seen_users))
    assert len(seen_items) == len(set(seen_items))


@given(records)
@settings(max_examples=50)
def test_subgraph_is_subset(rows):
    graph = from_click_records(rows)
    keep_users = {u for u in graph.users() if str(u) < "u5"}
    sub = graph.subgraph(keep_users, None)
    for user, item, clicks in sub.edges():
        assert graph.get_click(user, item) == clicks
    assert set(sub.users()) == keep_users
