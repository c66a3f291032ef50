"""Tests for the bitset/CSR extraction kernel.

Two layers: the CSR helper primitives (pinned against naive
recomputation), and the fixpoint itself (pinned against the
pure-Python reference engine over randomized click tables — the pruning
conditions are anti-monotone in the surviving set, so the fixpoint is
unique regardless of evaluation order, and the engines must agree
exactly).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import RICDParams
from repro.core import extraction_bitset
from repro.core.extraction import extract_groups, prune_to_fixpoint
from repro.core.extraction_bitset import (
    _gather,
    _recount_alive_degrees,
    extract_groups_bitset,
    prune_fixpoint_arrays,
    prune_to_fixpoint_bitset,
)
from repro.graph import Adjacency, BipartiteGraph, from_click_records

from ..conftest import make_biclique


class TestCSRHelpers:
    def _csr(self):
        # Rows: [1, 3], [], [0, 2, 3]
        indptr = np.array([0, 2, 2, 5], dtype=np.int64)
        indices = np.array([1, 3, 0, 2, 3], dtype=np.int64)
        return indptr, indices

    def test_gather_concatenates_slices(self):
        indptr, indices = self._csr()
        neighbors, lens, seg_starts = _gather(
            np.array([2, 0], dtype=np.int64), indptr, indices
        )
        assert list(neighbors) == [0, 2, 3, 1, 3]
        assert list(lens) == [3, 2]
        assert list(seg_starts) == [0, 3]

    def test_gather_empty_rows(self):
        indptr, indices = self._csr()
        neighbors, lens, _ = _gather(np.array([1], dtype=np.int64), indptr, indices)
        assert len(neighbors) == 0
        assert list(lens) == [0]

    def test_recount_alive_degrees_matches_bruteforce(self):
        indptr, indices = self._csr()
        other_alive = np.array([True, True, True, False])
        deg = np.full(3, -1, dtype=np.int64)
        _recount_alive_degrees(
            np.array([0, 1, 2], dtype=np.int64), indptr, indices, other_alive, deg
        )
        # Row 0 loses item 3, row 1 is empty, row 2 loses item 3.
        assert list(deg) == [1, 0, 2]


def graph_arrays(graph):
    snapshot = graph.indexed()
    user_indptr, user_items = snapshot.csr_arrays()
    item_indptr, item_users = snapshot.csc_arrays()
    return snapshot, user_indptr, user_items, item_indptr, item_users


records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11).map(lambda n: f"u{n}"),
        st.integers(min_value=0, max_value=11).map(lambda n: f"i{n}"),
        st.just(1),
    ),
    max_size=80,
)

param_values = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.5, 0.7, 1.0]),
)


@given(records, param_values)
@settings(max_examples=80, deadline=None)
def test_bitset_matches_reference(rows, values):
    k1, k2, alpha = values
    params = RICDParams(k1=k1, k2=k2, alpha=alpha)
    reference = Adjacency(from_click_records(rows))
    prune_to_fixpoint(reference, params)
    graph = from_click_records(rows)
    users, items = prune_to_fixpoint_bitset(graph, params)
    assert users == set(reference.users)
    assert items == set(reference.items)


@given(records, param_values)
@settings(max_examples=40, deadline=None)
def test_array_kernel_degrees_consistent_at_fixpoint(rows, values):
    """Survivors' alive-degrees clear the floors (reduceat cross-check)."""
    k1, k2, alpha = values
    params = RICDParams(k1=k1, k2=k2, alpha=alpha)
    graph = from_click_records(rows)
    if graph.num_users == 0 or graph.num_items == 0:
        return
    _, user_indptr, user_items, item_indptr, item_users = graph_arrays(graph)
    alive_users, alive_items = prune_fixpoint_arrays(
        user_indptr, user_items, item_indptr, item_users, params
    )
    n_items = len(item_indptr) - 1
    alive_mask = np.zeros(n_items, dtype=bool)
    alive_mask[alive_items] = True
    deg = np.zeros(len(user_indptr) - 1, dtype=np.int64)
    _recount_alive_degrees(alive_users, user_indptr, user_items, alive_mask, deg)
    assert (deg[alive_users] >= params.user_degree_floor).all()


@given(records, param_values, st.data())
@settings(max_examples=80, deadline=None)
def test_masked_fixpoint_is_the_induced_subgraphs(rows, values, data):
    """A region-masked run equals the kernel on the region subgraph's own index."""
    k1, k2, alpha = values
    params = RICDParams(k1=k1, k2=k2, alpha=alpha)
    graph = from_click_records(rows)
    if graph.num_users == 0 or graph.num_items == 0:
        return
    snapshot = graph.indexed()
    region = tuple(
        np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        for size in (snapshot.num_users, snapshot.num_items)
    )
    masked = prune_to_fixpoint_bitset(graph, params, region)
    # The memo holds whole-graph fixpoints only: a masked run writes none
    # and reads none.
    assert not any(key[0] == "prune_fixpoint_bitset" for key in snapshot.derived)
    prune_to_fixpoint_bitset(graph, params)
    assert prune_to_fixpoint_bitset(graph, params, region) == masked

    subgraph = graph.subgraph(
        [snapshot.users[row] for row in np.flatnonzero(region[0])],
        [snapshot.items[column] for column in np.flatnonzero(region[1])],
    )
    sub, user_indptr, user_items, item_indptr, item_users = graph_arrays(subgraph)
    alive_users, alive_items = prune_fixpoint_arrays(
        user_indptr, user_items, item_indptr, item_users, params
    )
    assert masked == (
        {sub.users[row] for row in alive_users},
        {sub.items[column] for column in alive_items},
    )


class TestFixpointEdgeCases:
    def test_empty_graph(self):
        users, items = prune_to_fixpoint_bitset(BipartiteGraph(), RICDParams())
        assert users == set() and items == set()

    def test_everything_pruned(self):
        graph = BipartiteGraph()
        graph.add_click("u1", "i1", 1)
        users, items = prune_to_fixpoint_bitset(
            graph, RICDParams(k1=5, k2=5, alpha=1.0)
        )
        assert users == set() and items == set()

    def test_perfect_biclique_survives_whole(self):
        graph = BipartiteGraph()
        users, items = make_biclique(graph, 6, 6)
        got_users, got_items = prune_to_fixpoint_bitset(
            graph, RICDParams(k1=5, k2=5, alpha=1.0)
        )
        assert got_users == set(users)
        assert got_items == set(items)

    def test_input_graph_untouched(self, small):
        before = small.graph.copy()
        prune_to_fixpoint_bitset(small.graph, RICDParams(k1=5, k2=5))
        assert small.graph == before

    def test_fixpoint_memoized_on_snapshot(self, small):
        params = RICDParams(k1=5, k2=5)
        graph = small.graph.copy()  # fresh snapshot: no cached fixpoints
        with obs.recording(obs.Recorder()) as recorder:
            first = prune_to_fixpoint_bitset(graph, params)
            second = prune_to_fixpoint_bitset(graph, params)
        assert first == second
        assert recorder.counters["extract.bitset.fixpoint_cache_misses"] == 1
        assert recorder.counters["extract.bitset.fixpoint_cache_hits"] == 1

    def test_distinct_params_distinct_cache_entries(self, small):
        loose = prune_to_fixpoint_bitset(small.graph, RICDParams(k1=2, k2=2))
        tight = prune_to_fixpoint_bitset(small.graph, RICDParams(k1=8, k2=8))
        assert tight[0] <= loose[0]


class TestGroups:
    def test_groups_match_reference(self, small, monkeypatch):
        params = RICDParams(k1=5, k2=5)
        reference = {
            (frozenset(g.users), frozenset(g.items))
            for g in extract_groups(small.graph, params)
        }
        bitset = {
            (frozenset(g.users), frozenset(g.items))
            for g in extract_groups_bitset(small.graph, params)
        }
        assert bitset == reference
        # Gram row blocks of a few rows.  The square rounds' cores are
        # 975x158, 778x133 and 778x129, so every product spans several
        # blocks and ends in a partial one.  The copy has a fresh
        # snapshot, so the memoized fixpoint cannot stand in for the run.
        monkeypatch.setattr(extraction_bitset, "_TARGET_CELLS", 6000)
        blocked = {
            (frozenset(g.users), frozenset(g.items))
            for g in extract_groups_bitset(small.graph.copy(), params)
        }
        assert blocked == reference
