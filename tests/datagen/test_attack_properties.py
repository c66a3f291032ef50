"""Property suite pinning the attack-zoo invariants (ISSUE 8).

Three families of properties, checked for **every** attack family of the
registry, static and adaptive:

* **Click-budget conservation** — the :class:`ClickBudget` ledger is
  strict: a planned campaign spends its budget exactly, the unit-event
  drip is the same multiset of clicks, and applying the plan raises the
  graph's total click mass by exactly the budget.
* **Label soundness** — every fake-edge user is labelled abnormal, no
  organic user or item is ever labelled, and every fresh target listing
  is labelled.  :meth:`AttackPlan.apply` returns the same labels the
  plan carries.
* **Seed determinism** — the same (graph, family, budget, seed,
  adaptivity) plans byte-identical campaigns; planning never mutates
  the marketplace it observes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import clean_marketplace, family_names, plan_family

FAMILIES = family_names()
GRID = [
    pytest.param(family, adaptive, id=f"{family}-{'adaptive' if adaptive else 'static'}")
    for family in FAMILIES
    for adaptive in (False, True)
]

# One shared pre-attack marketplace: planning is read-only (pinned by
# test_planning_never_mutates_the_marketplace below), so every example
# can observe the same snapshot.
_BASE = clean_marketplace("tiny", seed=11)

budgets = st.integers(min_value=120, max_value=1_500)
seeds = st.integers(min_value=0, max_value=2**16)


def _total_clicks(graph) -> int:
    return sum(graph.user_total_clicks(user) for user in graph.users())


class TestBudgetConservation:
    @pytest.mark.parametrize("family, adaptive", GRID)
    @given(budget=budgets, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_budget_is_spent_exactly(self, family, adaptive, budget, seed):
        plan = plan_family(_BASE, family, budget=budget, seed=seed, adaptive=adaptive)
        # The ledger view, the edge view, and the drip view all agree.
        assert plan.clicks_spent == budget
        assert sum(clicks for _u, _i, clicks in plan.fake_edges) == budget
        events = plan.unit_events()
        assert len(events) == budget
        assert all(clicks == 1 for _u, _i, clicks in events)

    @pytest.mark.parametrize("family, adaptive", GRID)
    @given(budget=budgets, seed=seeds)
    @settings(max_examples=4, deadline=None)
    def test_apply_adds_exactly_budget_clicks(self, family, adaptive, budget, seed):
        plan = plan_family(_BASE, family, budget=budget, seed=seed, adaptive=adaptive)
        attacked = _BASE.copy()
        before = _total_clicks(attacked)
        plan.apply(attacked)
        assert _total_clicks(attacked) - before == budget

    @pytest.mark.parametrize("family, adaptive", GRID)
    @given(budget=budgets, seed=seeds, n_batches=st.integers(min_value=1, max_value=9))
    @settings(max_examples=4, deadline=None)
    def test_schedule_partitions_the_drip(self, family, adaptive, budget, seed, n_batches):
        plan = plan_family(_BASE, family, budget=budget, seed=seed, adaptive=adaptive)
        batches = plan.schedule(n_batches)
        assert len(batches) <= n_batches
        records = [record for batch in batches for record in batch]
        assert records == plan.unit_events()


class TestLabelSoundness:
    @pytest.mark.parametrize("family, adaptive", GRID)
    @given(budget=budgets, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_labels_cover_workers_and_never_organics(self, family, adaptive, budget, seed):
        plan = plan_family(_BASE, family, budget=budget, seed=seed, adaptive=adaptive)
        truth = plan.truth()
        # Every user that placed a fake click is labelled...
        fake_edge_users = {user for user, _item, _clicks in plan.fake_edges}
        assert fake_edge_users <= truth.abnormal_users
        # ...no organic user or item ever is (the zoo's planners only use
        # fresh worker accounts and fresh target listings; uplift victims
        # and ridden hot items stay unlabelled)...
        assert truth.abnormal_users <= plan.fresh_users
        assert truth.abnormal_items <= plan.fresh_items
        # ...and every fresh target listing is labelled, even when the
        # budget clipped its incoming edges.
        for group in plan.groups:
            assert set(group.target_items) <= truth.abnormal_items
            assert set(group.workers) <= truth.abnormal_users

    @pytest.mark.parametrize("family, adaptive", GRID)
    @given(budget=budgets, seed=seeds)
    @settings(max_examples=4, deadline=None)
    def test_apply_returns_the_plan_labels(self, family, adaptive, budget, seed):
        plan = plan_family(_BASE, family, budget=budget, seed=seed, adaptive=adaptive)
        attacked = _BASE.copy()
        applied = plan.apply(attacked)
        planned = plan.truth()
        assert applied.abnormal_users == planned.abnormal_users
        assert applied.abnormal_items == planned.abnormal_items
        # Every labelled node actually exists on the attacked graph.
        assert applied.abnormal_users <= set(attacked.users())
        assert applied.abnormal_items <= set(attacked.items())


class TestSeedDeterminism:
    @pytest.mark.parametrize("family, adaptive", GRID)
    @given(budget=budgets, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_same_seed_same_plan(self, family, adaptive, budget, seed):
        first = plan_family(_BASE, family, budget=budget, seed=seed, adaptive=adaptive)
        second = plan_family(_BASE, family, budget=budget, seed=seed, adaptive=adaptive)
        assert first.fake_edges == second.fake_edges
        assert first.fresh_users == second.fresh_users
        assert first.fresh_items == second.fresh_items
        assert (first.family, first.adaptive) == (second.family, second.adaptive)

    @pytest.mark.parametrize("family, adaptive", GRID)
    def test_plan_is_stable_across_marketplace_rebuilds(self, family, adaptive):
        rebuilt = clean_marketplace("tiny", seed=11)
        on_cached = plan_family(_BASE, family, budget=500, seed=3, adaptive=adaptive)
        on_rebuilt = plan_family(rebuilt, family, budget=500, seed=3, adaptive=adaptive)
        assert on_cached.fake_edges == on_rebuilt.fake_edges

    def test_planning_never_mutates_the_marketplace(self):
        pristine = clean_marketplace("tiny", seed=11)
        before = _total_clicks(_BASE)
        for family in FAMILIES:
            for adaptive in (False, True):
                plan_family(_BASE, family, budget=400, seed=1, adaptive=adaptive)
        assert _total_clicks(_BASE) == before
        assert set(_BASE.users()) == set(pristine.users())
        assert set(_BASE.items()) == set(pristine.items())

    def test_different_seeds_can_differ(self):
        # Not a hard guarantee per family (tiny budgets can coincide),
        # but across the zoo at a real budget the RNG must actually bite.
        differing = [
            family
            for family in FAMILIES
            if plan_family(_BASE, family, budget=800, seed=0).fake_edges
            != plan_family(_BASE, family, budget=800, seed=99).fake_edges
        ]
        assert differing, "no family's plan depends on its seed"
