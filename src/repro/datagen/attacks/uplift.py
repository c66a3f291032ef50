"""Uplift-based target-user attacks (after Wang et al., PAPERS.md).

The coattails seller wants its targets in *any* I2I list; the uplift
attacker wants them in front of a chosen **audience** — the users whose
conversion uplift is worth buying.  Wang et al. select the target users
first and optimise the injection toward exactly them.  Translated to the
Eq. 1 co-click model:

1. **Victim selection.**  The planner picks the ``n_victims`` most
   active organic users (high-degree profiles: the marketplace's heavy
   browsers, the audience with the most recommendation slots to win).
   Victims are *never labelled* — they are organic users the attack is
   aimed at, a property the label-soundness tests rely on.
2. **Anchor mining.**  From the victims' click histories the planner
   mines *anchor items*: the ordinary (non-hot) items the victims click
   most.  An I2I list conditioned on an anchor is precisely what the
   victims are shown.
3. **Injection.**  Workers click a few anchors lightly — mimicking the
   audience's taste and establishing the co-click link — and the fresh
   targets heavily, wiring the targets into the anchors' I2I lists.
   Optionally a hot ride is kept (anchored campaigns still benefit from
   mass-traffic slots).

Because anchors are *ordinary* items, the resulting structure is exactly
the near-biclique RICD extracts; what changes is the camouflage surface:
worker profiles overlap the victims' organic profiles, so behavioural
screens keyed on "clicks nothing organic" miss them.  The adaptive
variant additionally caps target depths under the observed ``T_click``,
pads its (single) hot ride past the screening band, and spreads anchors
across more of the audience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from ...core.thresholds import pareto_hot_threshold
from ...errors import DataGenError
from ...graph.bipartite import BipartiteGraph
from .adaptive import ObservedDefense
from .base import AttackGroup, AttackPlan, ClickBudget

__all__ = ["UpliftAttackConfig", "plan_uplift"]

Node = Hashable


@dataclass(frozen=True)
class UpliftAttackConfig:
    """Configuration of the uplift-attack planner.

    Parameters
    ----------
    click_budget:
        Exact fake clicks to place.
    n_victims:
        Audience size: most-active organic users targeted.
    n_targets:
        Fresh target listings per group.
    workers_per_group:
        Accounts per seller before a new group opens.
    target_clicks:
        Per (worker, target) clicks (capped when adaptive).
    anchors_per_worker:
        Anchor items each worker mimics (doubled when adaptive: a wider
        anchor spread makes the audience overlap look organic).
    hot_rides:
        Hot items ridden per group (0 disables the coattail entirely —
        a pure audience-targeted campaign).
    adaptive:
        Observe resolved thresholds and shape under them.
    seed:
        RNG seed.
    """

    click_budget: int = 2_000
    n_victims: int = 50
    n_targets: int = 10
    workers_per_group: int = 12
    target_clicks: int = 15
    anchors_per_worker: int = 3
    hot_rides: int = 1
    adaptive: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.click_budget < 1:
            raise DataGenError("click_budget must be >= 1")
        if min(self.n_victims, self.n_targets, self.workers_per_group) < 1:
            raise DataGenError("n_victims/n_targets/workers_per_group must be >= 1")
        if self.target_clicks < 1:
            raise DataGenError("target_clicks must be >= 1")
        if self.anchors_per_worker < 0 or self.hot_rides < 0:
            raise DataGenError("anchors_per_worker and hot_rides must be >= 0")


def _mine_anchors(
    graph: BipartiteGraph, victims: list[Node], hot: set[Node], limit: int
) -> list[Node]:
    """The victims' favourite ordinary items, by audience click mass."""
    mass: dict[Node, int] = {}
    for victim in victims:
        for item, clicks in graph.user_neighbors(victim).items():
            if item not in hot:
                mass[item] = mass.get(item, 0) + clicks
    return sorted(mass, key=lambda item: (-mass[item], str(item)))[:limit]


def plan_uplift(graph: BipartiteGraph, config: UpliftAttackConfig) -> AttackPlan:
    """Plan a budget-exact uplift campaign against ``graph``."""
    rng = np.random.default_rng(config.seed)
    budget = ClickBudget(config.click_budget)
    plan = AttackPlan(family="uplift", adaptive=config.adaptive, budget=budget.total)
    defense = ObservedDefense.observe(graph) if config.adaptive else None

    hot_boundary = pareto_hot_threshold(graph)
    hot_pool = [
        item for item in graph.items() if graph.item_total_clicks(item) >= hot_boundary
    ]
    if not hot_pool:
        raise DataGenError("cannot inject attacks: graph has no hot items")

    victims = sorted(
        graph.users(), key=lambda user: (-graph.user_total_clicks(user), str(user))
    )[: config.n_victims]
    anchors_per_worker = config.anchors_per_worker * (2 if defense else 1)
    anchor_pool = _mine_anchors(
        graph, victims, set(hot_pool), limit=max(10, 4 * anchors_per_worker)
    )

    per_edge = (
        defense.capped(config.target_clicks) if defense else config.target_clicks
    )
    hot_clicks = defense.hot_pad if defense else 1

    group_index = 0
    while not budget.exhausted:
        group = AttackGroup(group_id=group_index)
        if config.hot_rides and hot_pool:
            chosen_hot = rng.choice(
                len(hot_pool), size=min(config.hot_rides, len(hot_pool)), replace=False
            )
            group.hot_items = [
                hot_pool[int(index)] for index in np.atleast_1d(chosen_hot)
            ]
        for target_index in range(config.n_targets):
            target = f"up{group_index}_t{target_index}"
            group.target_items.append(target)
            plan.fresh_items.add(target)

        for worker_index in range(config.workers_per_group):
            if budget.exhausted:
                break
            worker = f"up{group_index}_w{worker_index}"
            group.workers.append(worker)
            plan.fresh_users.add(worker)
            for hot in group.hot_items:
                grant = budget.take(hot_clicks)
                if grant:
                    group.fake_edges.append((worker, hot, grant))
            if anchor_pool and anchors_per_worker:
                chosen = rng.choice(
                    len(anchor_pool),
                    size=min(anchors_per_worker, len(anchor_pool)),
                    replace=False,
                )
                for index in np.atleast_1d(chosen):
                    grant = budget.take(int(rng.integers(1, 3)))
                    if grant:
                        group.fake_edges.append((worker, anchor_pool[int(index)], grant))
            for target in group.target_items:
                grant = budget.take(per_edge)
                if grant:
                    group.fake_edges.append((worker, target, grant))
        plan.groups.append(group)
        group_index += 1
    return plan
