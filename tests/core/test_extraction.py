"""Tests for Algorithm 3: CorePruning, SquarePruning, group extraction."""

from repro.config import RICDParams
from repro.core.extraction import (
    core_pruning,
    extract_groups,
    prune_to_fixpoint,
    square_pruning,
)
from repro.graph import BipartiteGraph

from ..conftest import make_biclique


def params(k1=3, k2=3, alpha=1.0):
    return RICDParams(k1=k1, k2=k2, alpha=alpha)


class TestCorePruning:
    def test_removes_low_degree_users(self):
        graph = BipartiteGraph()
        make_biclique(graph, 3, 3)
        graph.add_click("loner", "bi0", 1)  # degree 1 < ceil(1.0 * 3)
        core_pruning(graph, params())
        assert not graph.has_user("loner")
        assert graph.num_users == 3

    def test_cascades(self):
        # A chain where removing the first user drops an item below floor,
        # which drops another user, etc.
        graph = BipartiteGraph()
        make_biclique(graph, 3, 3)
        graph.add_click("x", "extra", 1)
        graph.add_click("y", "extra", 1)
        graph.add_click("y", "extra2", 1)
        core_pruning(graph, params(k1=2, k2=2))
        # x (degree 1) goes; "extra" drops to degree 1 and goes; y follows.
        assert not graph.has_user("x")
        assert not graph.has_item("extra")
        assert not graph.has_user("y")

    def test_biclique_survives(self):
        graph = BipartiteGraph()
        users, items = make_biclique(graph, 4, 5)
        core_pruning(graph, params(k1=4, k2=5))
        assert set(graph.users()) == set(users)
        assert set(graph.items()) == set(items)

    def test_lemma1_postcondition(self, small):
        """After CorePruning every survivor satisfies Lemma 1 degrees."""
        graph = small.graph.copy()
        p = params(k1=5, k2=5, alpha=0.8)
        core_pruning(graph, p)
        for user in graph.users():
            assert graph.user_degree(user) >= p.user_degree_floor
        for item in graph.items():
            assert graph.item_degree(item) >= p.item_degree_floor

    def test_returns_whether_removed(self):
        graph = BipartiteGraph()
        make_biclique(graph, 3, 3)
        assert core_pruning(graph, params()) is False
        graph.add_click("loner", "bi0", 1)
        assert core_pruning(graph, params()) is True

    def test_alpha_scales_floor(self):
        graph = BipartiteGraph()
        make_biclique(graph, 3, 3)
        graph.add_click("partial", "bi0", 1)
        graph.add_click("partial", "bi1", 1)
        # ceil(0.6 * 3) = 2 -> degree-2 user survives.
        core_pruning(graph, params(alpha=0.6))
        assert graph.has_user("partial")


class TestSquarePruning:
    def test_biclique_survives(self):
        graph = BipartiteGraph()
        users, items = make_biclique(graph, 4, 4)
        prune_to_fixpoint(graph, params(k1=4, k2=4))
        assert set(graph.users()) == set(users)
        assert set(graph.items()) == set(items)

    def test_exact_core_size_survives(self):
        """A k1 x k2 biclique must survive (self counts in Lemma 2)."""
        graph = BipartiteGraph()
        make_biclique(graph, 3, 3)
        prune_to_fixpoint(graph, params(k1=3, k2=3))
        assert graph.num_users == 3
        assert graph.num_items == 3

    def test_undersized_biclique_removed(self):
        graph = BipartiteGraph()
        make_biclique(graph, 2, 5)  # only 2 users < k1=3
        prune_to_fixpoint(graph, params(k1=3, k2=3))
        assert graph.num_users == 0

    def test_sparse_star_removed(self):
        """A hub item with many degree-1 users is not a biclique."""
        graph = BipartiteGraph()
        for index in range(10):
            graph.add_click(f"u{index}", "hub", 1)
        square_pruning(graph, params(k1=2, k2=2))
        assert graph.num_users == 0

    def test_extension_at_lower_alpha(self):
        """An 80%-connected extension user survives alpha=0.8, dies at 1.0."""
        graph = BipartiteGraph()
        _users, items = make_biclique(graph, 4, 5)
        for item in items[:4]:  # connected to 4/5 = 80% of core items
            graph.add_click("ext", item, 1)
        strict = graph.copy()
        prune_to_fixpoint(strict, params(k1=4, k2=5, alpha=1.0))
        assert not strict.has_user("ext")
        loose = graph.copy()
        prune_to_fixpoint(loose, params(k1=4, k2=5, alpha=0.8))
        assert loose.has_user("ext")


class TestExtractGroups:
    def test_planted_biclique_found(self):
        graph = BipartiteGraph()
        users, items = make_biclique(graph, 4, 4)
        # Background noise that must be pruned away.
        graph.add_click("n1", "other", 1)
        graph.add_click("n2", "other", 1)
        groups = extract_groups(graph, params(k1=4, k2=4))
        assert len(groups) == 1
        assert groups[0].users == set(users)
        assert groups[0].items == set(items)

    def test_two_disjoint_groups(self):
        graph = BipartiteGraph()
        make_biclique(graph, 4, 4, user_prefix="au", item_prefix="ai")
        make_biclique(graph, 5, 5, user_prefix="bu", item_prefix="bi")
        groups = extract_groups(graph, params(k1=4, k2=4))
        assert len(groups) == 2
        assert len(groups[0].users) == 5  # largest first

    def test_component_floors(self):
        graph = BipartiteGraph()
        make_biclique(graph, 3, 6)
        groups = extract_groups(graph, params(k1=4, k2=4))
        assert groups == []

    def test_max_size_filters(self):
        graph = BipartiteGraph()
        make_biclique(graph, 10, 4)
        assert extract_groups(graph, params(k1=4, k2=4), max_users=8) == []
        assert len(extract_groups(graph, params(k1=4, k2=4), max_users=10)) == 1

    def test_copy_semantics(self):
        graph = BipartiteGraph()
        make_biclique(graph, 4, 4)
        graph.add_click("noise", "bi0", 1)
        before = graph.copy()
        extract_groups(graph, params(k1=4, k2=4))
        assert graph == before  # default copy=True leaves input intact
        extract_groups(graph, params(k1=4, k2=4), copy=False)
        assert graph != before  # in-place pruning mutates

    def test_empty_graph(self, empty_graph):
        assert extract_groups(empty_graph, params()) == []

    def test_attack_group_recovered_from_scenario(self, small):
        """End-to-end on generated data: planted workers are extracted."""
        groups = extract_groups(small.graph, params(k1=5, k2=5))
        extracted_users = {u for g in groups for u in g.users}
        caught = len(extracted_users & small.truth.abnormal_users)
        assert caught >= 0.5 * len(small.truth.abnormal_users)

    def test_single_pass_is_weaker_or_equal(self, small):
        """Fixpoint iteration can only remove more than a single pass."""
        single = small.graph.copy()
        prune_to_fixpoint(single, params(k1=5, k2=5), iterate=False)
        fixed = small.graph.copy()
        prune_to_fixpoint(fixed, params(k1=5, k2=5), iterate=True)
        assert set(fixed.users()) <= set(single.users())
        assert set(fixed.items()) <= set(single.items())
