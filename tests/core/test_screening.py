"""Tests for the screening module (user check + item verification)."""

import pytest

from repro.config import ScreeningParams
from repro.core.groups import SuspiciousGroup
from repro.core.screening import (
    item_behavior_verification,
    screen_groups,
    user_behavior_check,
)
from repro.errors import ScreeningError
from repro.graph import BipartiteGraph

T_HOT = 50
T_CLICK = 10


@pytest.fixture()
def attack_graph():
    """Two workers attacking targets t1/t2 riding hot item h, plus an
    organic heavy user and a hot-spamming account."""
    graph = BipartiteGraph()
    # h is hot: organic volume 60.
    for index in range(30):
        graph.add_click(f"bg{index}", "h", 2)
    for worker in ("w1", "w2"):
        graph.add_click(worker, "h", 1)
        graph.add_click(worker, "t1", 12)
        graph.add_click(worker, "t2", 13)
        graph.add_click(worker, "camo", 1)
    # Organic user: clicks hot a lot, ordinary items a little.
    graph.add_click("organic", "h", 9)
    graph.add_click("organic", "t1", 1)
    # Hot spammer: heavy ordinary clicks but also heavy hot clicks.
    graph.add_click("spammer", "h", 20)
    graph.add_click("spammer", "t1", 15)
    return graph


@pytest.fixture()
def attack_group():
    return SuspiciousGroup(
        users={"w1", "w2", "organic", "spammer"},
        items={"h", "t1", "t2", "camo"},
    )


def sp(**overrides):
    defaults = dict(min_users=2, min_items=2)
    defaults.update(overrides)
    return ScreeningParams(**defaults)


class TestUserBehaviorCheck:
    def test_workers_kept(self, attack_graph, attack_group):
        result = user_behavior_check(attack_graph, attack_group, T_HOT, T_CLICK, sp())
        assert {"w1", "w2"} <= result.users

    def test_light_clicker_removed(self, attack_graph, attack_group):
        result = user_behavior_check(attack_graph, attack_group, T_HOT, T_CLICK, sp())
        assert "organic" not in result.users

    def test_hot_spammer_removed(self, attack_graph, attack_group):
        result = user_behavior_check(attack_graph, attack_group, T_HOT, T_CLICK, sp())
        assert "spammer" not in result.users

    def test_items_untouched(self, attack_graph, attack_group):
        """Fig. 5: items are never removed by the user check."""
        result = user_behavior_check(attack_graph, attack_group, T_HOT, T_CLICK, sp())
        assert result.items == attack_group.items

    def test_hot_items_classified(self, attack_graph, attack_group):
        result = user_behavior_check(attack_graph, attack_group, T_HOT, T_CLICK, sp())
        assert result.hot_items == {"h"}

    def test_input_not_mutated(self, attack_graph, attack_group):
        before_users = set(attack_group.users)
        user_behavior_check(attack_graph, attack_group, T_HOT, T_CLICK, sp())
        assert attack_group.users == before_users

    def test_invalid_thresholds(self, attack_graph, attack_group):
        with pytest.raises(ScreeningError):
            user_behavior_check(attack_graph, attack_group, 0, T_CLICK, sp())
        with pytest.raises(ScreeningError):
            user_behavior_check(attack_graph, attack_group, T_HOT, -1, sp())

    def test_missing_nodes_skipped(self, attack_graph):
        group = SuspiciousGroup(users={"ghost"}, items={"phantom"})
        result = user_behavior_check(attack_graph, group, T_HOT, T_CLICK, sp())
        assert result.users == set()


class TestItemBehaviorVerification:
    def test_targets_verified(self, attack_graph):
        group = SuspiciousGroup(users={"w1", "w2"}, items={"h", "t1", "t2", "camo"})
        finals = item_behavior_verification(attack_graph, group, T_HOT, T_CLICK, sp())
        assert len(finals) == 1
        assert finals[0].items == {"t1", "t2"}

    def test_hot_and_camouflage_removed(self, attack_graph):
        group = SuspiciousGroup(users={"w1", "w2"}, items={"h", "t1", "t2", "camo"})
        finals = item_behavior_verification(attack_graph, group, T_HOT, T_CLICK, sp())
        assert "h" not in finals[0].items
        assert "camo" not in finals[0].items
        assert finals[0].hot_items == {"h"}

    def test_users_limited_to_heavy_clickers(self, attack_graph):
        group = SuspiciousGroup(
            users={"w1", "w2", "organic"}, items={"h", "t1", "t2", "camo"}
        )
        finals = item_behavior_verification(attack_graph, group, T_HOT, T_CLICK, sp())
        assert finals[0].users == {"w1", "w2"}

    def test_lone_candidate_dropped(self, attack_graph):
        """A single heavy item with no coinciding partner is not an attack."""
        group = SuspiciousGroup(users={"w1", "w2", "spammer"}, items={"t1"})
        finals = item_behavior_verification(attack_graph, group, T_HOT, T_CLICK, sp())
        assert finals == []

    def test_professional_worker_does_not_merge_attacks(self):
        """Two attacks sharing one professional stay separate groups."""
        graph = BipartiteGraph()
        for worker in ("a1", "a2", "a3", "pro"):
            for target in ("ta1", "ta2"):
                graph.add_click(worker, target, 12)
        for worker in ("b1", "b2", "b3", "pro"):
            for target in ("tb1", "tb2"):
                graph.add_click(worker, target, 12)
        group = SuspiciousGroup(
            users={"a1", "a2", "a3", "b1", "b2", "b3", "pro"},
            items={"ta1", "ta2", "tb1", "tb2"},
        )
        finals = item_behavior_verification(graph, group, T_HOT, T_CLICK, sp())
        assert len(finals) == 2
        item_sets = sorted(tuple(sorted(g.items)) for g in finals)
        assert item_sets == [("ta1", "ta2"), ("tb1", "tb2")]
        # The professional appears in both final groups.
        assert all("pro" in g.users for g in finals)


class TestScreenGroups:
    def test_full_pipeline(self, attack_graph, attack_group):
        finals = screen_groups(
            attack_graph, [attack_group], T_HOT, T_CLICK, sp()
        )
        assert len(finals) == 1
        assert finals[0].users == {"w1", "w2"}
        assert finals[0].items == {"t1", "t2"}

    def test_user_check_only(self, attack_graph, attack_group):
        finals = screen_groups(
            attack_graph,
            [attack_group],
            T_HOT,
            T_CLICK,
            sp(),
            do_item_verification=False,
        )
        assert len(finals) == 1
        assert finals[0].items == attack_group.items  # items kept

    def test_group_below_min_users_dropped(self, attack_graph):
        lone = SuspiciousGroup(users={"w1"}, items={"t1", "t2"})
        finals = screen_groups(attack_graph, [lone], T_HOT, T_CLICK, sp())
        assert finals == []

    def test_empty_input(self, attack_graph):
        assert screen_groups(attack_graph, [], T_HOT, T_CLICK, sp()) == []

    def test_default_params_used_when_none(self, attack_graph, attack_group):
        finals = screen_groups(attack_graph, [attack_group], T_HOT, T_CLICK)
        assert isinstance(finals, list)
