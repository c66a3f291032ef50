"""Metamorphic relations: node ids and record order never move the output.

Three families of relations pin :meth:`RICDDetector.detect`:

1. **Relabeling invariance** — renaming every user/item id with a
   bijection renames the output and changes nothing else.  A result that
   shifts under relabeling would mean some pipeline stage leaks an
   iteration or hash order into its decisions.  Checked property-based
   on random click tables and on every attack-zoo family, static and
   adaptive.
2. **Edge-order invariance** — the click table is a *set* of records;
   shuffling the insertion order must not move a single group member.
3. **Straddling attacks stay whole** — an attack group whose members
   camouflage into two organic communities glued by a shared hot item is
   found intact, even though any node-level split of the graph would
   leave each half below the ``k1`` core floor.

The record strategies mirror ``tests/graph/test_properties.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.datagen import clean_marketplace, family_names, plan_family
from repro.graph import BipartiteGraph, from_click_records

from ..canon import canonical_groups, canonical_result

# ----------------------------------------------------------------------
# Property-based relabeling / edge-order relations
# ----------------------------------------------------------------------
# Click records over a small id universe so collisions (accumulation) and
# shared neighbourhoods actually occur, with click weights reaching the
# T_click floor so screening has something to keep.
records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8).map(lambda n: f"u{n}"),
        st.integers(min_value=0, max_value=8).map(lambda n: f"i{n}"),
        st.integers(min_value=1, max_value=20),
    ),
    max_size=60,
)

permutations = st.permutations(list(range(9)))

PROPERTY_PARAMS = RICDParams(k1=2, k2=2, t_hot=30, t_click=3)


def _detect(graph):
    return RICDDetector(params=PROPERTY_PARAMS, max_group_users=None).detect(graph)


def _relabel_rows(rows, user_perm, item_perm):
    return [
        (f"U{user_perm[int(user[1:])]}", f"I{item_perm[int(item[1:])]}", clicks)
        for user, item, clicks in rows
    ]


def _relabel_result_key(result, user_perm, item_perm):
    """The canonical form of ``result`` pushed through the relabeling."""

    def map_user(user):
        return f"U{user_perm[int(str(user)[1:])]}"

    def map_item(item):
        return f"I{item_perm[int(str(item)[1:])]}"

    return (
        sorted(map_user(u) for u in result.suspicious_users),
        sorted(map_item(i) for i in result.suspicious_items),
        {
            (
                frozenset(map_user(u) for u in group.users),
                frozenset(map_item(i) for i in group.items),
                frozenset(map_item(i) for i in group.hot_items),
            )
            for group in result.groups
        },
        sorted((map_user(u), s) for u, s in result.user_scores.items()),
        sorted((map_item(i), s) for i, s in result.item_scores.items()),
    )


def _identity_key(result):
    return _relabel_result_key(result, list(range(9)), list(range(9)))


def _assert_commutes_with_relabeling(rows, user_perm, item_perm):
    original = _detect(from_click_records(rows))
    relabeled = _detect(from_click_records(_relabel_rows(rows, user_perm, item_perm)))
    assert _identity_key(relabeled) == _relabel_result_key(
        original, user_perm, item_perm
    )


class TestRelabelingInvariance:
    @given(records, permutations, permutations)
    @settings(max_examples=25, deadline=None)
    def test_detection_commutes_with_relabeling(self, rows, user_perm, item_perm):
        _assert_commutes_with_relabeling(rows, user_perm, item_perm)


@pytest.mark.slow
class TestRelabelingInvarianceDeep:
    """The same relation at 8x example depth — nightly-grade fuzzing."""

    @given(records, permutations, permutations)
    @settings(max_examples=200, deadline=None)
    def test_detection_commutes_with_relabeling(self, rows, user_perm, item_perm):
        _assert_commutes_with_relabeling(rows, user_perm, item_perm)


class TestEdgeOrderInvariance:
    @given(records, st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_shuffled_record_order_changes_nothing(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        baseline = _detect(from_click_records(rows))
        reordered = _detect(from_click_records(shuffled))
        assert canonical_result(baseline) == canonical_result(reordered)


# ----------------------------------------------------------------------
# Attack-zoo relabeling grid: every family, static and adaptive
# ----------------------------------------------------------------------
FAMILY_GRID = [
    pytest.param(family, adaptive, id=f"{family}-{'adaptive' if adaptive else 'static'}")
    for family in family_names()
    for adaptive in (False, True)
]
GRID_PARAMS = RICDParams(k1=4, k2=4)
GRID_BUDGET = 500

_ATTACKED: dict = {}
_GRID_REFERENCES: dict = {}


def _attacked_graph(family: str, adaptive: bool) -> BipartiteGraph:
    key = (family, adaptive)
    if key not in _ATTACKED:
        graph = clean_marketplace("tiny", seed=5)
        plan = plan_family(graph, family, budget=GRID_BUDGET, seed=2, adaptive=adaptive)
        plan.apply(graph)
        _ATTACKED[key] = graph
    return _ATTACKED[key]


def _grid_reference(family: str, adaptive: bool):
    key = (family, adaptive)
    if key not in _GRID_REFERENCES:
        _GRID_REFERENCES[key] = RICDDetector(
            params=GRID_PARAMS, max_group_users=None
        ).detect(_attacked_graph(family, adaptive))
    return _GRID_REFERENCES[key]


def _relabel_maps(graph: BipartiteGraph, seed: int):
    """Seeded bijections that scramble the lexicographic node order."""
    rng = np.random.default_rng(seed)
    users = sorted(map(str, graph.users()))
    items = sorted(map(str, graph.items()))
    user_map = {
        user: f"RU{index}" for user, index in zip(users, rng.permutation(len(users)))
    }
    item_map = {
        item: f"RI{index}" for item, index in zip(items, rng.permutation(len(items)))
    }
    return user_map, item_map


def _relabel_graph(graph: BipartiteGraph, user_map, item_map) -> BipartiteGraph:
    out = BipartiteGraph()
    for user in graph.users():
        out.add_user(user_map[str(user)])
    for item in graph.items():
        out.add_item(item_map[str(item)])
    for user in graph.users():
        for item, clicks in graph.user_neighbors(user).items():
            out.add_click(user_map[str(user)], item_map[str(item)], clicks)
    return out


def _mapped_result_key(result, user_map, item_map):
    """``canonical_result`` pushed through the relabeling bijections."""
    return (
        sorted(user_map[str(u)] for u in result.suspicious_users),
        sorted(item_map[str(i)] for i in result.suspicious_items),
        {
            (
                frozenset(user_map[str(u)] for u in group.users),
                frozenset(item_map[str(i)] for i in group.items),
                frozenset(item_map[str(i)] for i in group.hot_items),
            )
            for group in result.groups
        },
        sorted((user_map[str(u)], score) for u, score in result.user_scores.items()),
        sorted((item_map[str(i)], score) for i, score in result.item_scores.items()),
        result.feedback_rounds,
    )


class TestFamilyGridRelabelingInvariance:
    @pytest.mark.parametrize("family, adaptive", FAMILY_GRID)
    def test_detection_commutes_with_relabeling(self, family, adaptive):
        graph = _attacked_graph(family, adaptive)
        user_map, item_map = _relabel_maps(graph, seed=17)
        relabeled = _relabel_graph(graph, user_map, item_map)
        relabeled_result = RICDDetector(
            params=GRID_PARAMS, max_group_users=None
        ).detect(relabeled)
        identity = {
            str(node): str(node)
            for node in list(relabeled.users()) + list(relabeled.items())
        }
        assert _mapped_result_key(relabeled_result, identity, identity) == (
            _mapped_result_key(_grid_reference(family, adaptive), user_map, item_map)
        )

    def test_grid_is_not_vacuous(self):
        """At least the overt paper-style cells actually detect something,
        so the invariance above compares non-empty outputs."""
        flagged_families = [
            family
            for family in family_names()
            if _grid_reference(family, False).groups
        ]
        assert flagged_families, "every static cell detected nothing"


# ----------------------------------------------------------------------
# Straddling attack: one component, found whole
# ----------------------------------------------------------------------
N_ATTACKERS = 6
ATTACK_USERS = frozenset(f"a{a}" for a in range(N_ATTACKERS))
ATTACK_ITEMS = frozenset(f"x{x}" for x in range(4))

# k1 = 4 is the adversarial pivot: the full 6-user group clears it, but
# any half of the group (3 users) cannot.
STRADDLE_PARAMS = RICDParams(k1=4, k2=3, t_hot=40.0, t_click=3.0)


def straddling_attack_graph() -> BipartiteGraph:
    """Two communities, one shared hot item, one straddling attack group.

    * Communities ``ca*`` / ``cb*``: organic users with sparse, sub-
      ``T_click`` browsing plus light traffic on the shared hot item
      ``H`` — the glue that makes everything one connected component.
    * Attack group ``a0..a5`` x ``x0..x3``: a heavy biclique.  Attackers
      ride ``H`` (moderately — hot-item averages stay under the Fig. 5
      cutoff) and camouflage into the communities: ``a0..a2`` click a
      community-A item, ``a3..a5`` a community-B item.
    """
    graph = BipartiteGraph()
    for prefix, size in (("ca", 8), ("cb", 8)):
        for u in range(size):
            graph.add_click(f"{prefix}{u}", "H", 2)
            graph.add_click(f"{prefix}{u}", f"i{prefix}{u % 4}", 1)
            graph.add_click(f"{prefix}{u}", f"i{prefix}{(u + 1) % 4}", 1)
    for a in range(N_ATTACKERS):
        for item in sorted(ATTACK_ITEMS):
            graph.add_click(f"a{a}", item, 5)
        graph.add_click(f"a{a}", "H", 3)
        side = "ca" if a < N_ATTACKERS // 2 else "cb"
        graph.add_click(f"a{a}", f"i{side}{a % 4}", 1)
    return graph


class TestStraddlingAttack:
    def _assert_group_found_intact(self, graph):
        result = RICDDetector(params=STRADDLE_PARAMS, max_group_users=None).detect(
            graph
        )
        assert canonical_groups(result.groups) == {
            (ATTACK_USERS, ATTACK_ITEMS, frozenset({"H"}))
        }

    def test_group_found_intact(self):
        self._assert_group_found_intact(straddling_attack_graph())

    def test_group_found_intact_among_decoys(self):
        graph = straddling_attack_graph()
        for d in range(6):  # independent organic decoy components
            for u in range(3):
                graph.add_click(f"d{d}:u{u}", f"d{d}:i{u}", 1)
                graph.add_click(f"d{d}:u{u}", f"d{d}:i{(u + 1) % 3}", 1)
        self._assert_group_found_intact(graph)
