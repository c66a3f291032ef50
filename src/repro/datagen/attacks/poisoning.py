"""Influence-style data poisoning (after Fang et al., PAPERS.md).

Fang et al. pick each fake user's filler items by *influence*: how much
a single injected interaction shifts the recommender's output across the
whole user base.  For the Eq. 1 co-click I2I model, an injected click on
filler item ``j`` matters in proportion to how many organic users it
co-occurs with (reach) and how little competing mass dilutes it — so
this family scores every ordinary item by

.. math:: \\text{influence}(j) = \\frac{\\text{reach}(j)}{1 + \\text{clicks}(j) / \\text{reach}(j)}

(reach = distinct clickers; the denominator discounts items whose I2I
lists are already saturated by heavy per-user click mass) and builds
worker profiles from the top of that ranking.  Workers click their
targets heavily and their influence fillers lightly: the filler edges
wire the workers into the *centre* of the organic co-click graph, which
simultaneously (a) spreads the targets into many items' I2I lists and
(b) acts as functional camouflage — unlike the coattails camouflage,
these edges are chosen to do promotional work, not merely to "confuse
the risk control system".

The adaptive variant caps target depths under the observed ``T_click``,
pads hot rides past the screening band, and straddles organic
communities with its lowest-value filler edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from ...core.thresholds import pareto_hot_threshold
from ...errors import DataGenError
from ...graph.bipartite import BipartiteGraph
from .adaptive import ObservedDefense, straddle_anchors
from .base import AttackGroup, AttackPlan, ClickBudget

__all__ = ["InfluencePoisoningConfig", "plan_poisoning"]

Node = Hashable


@dataclass(frozen=True)
class InfluencePoisoningConfig:
    """Configuration of the influence-poisoning planner.

    Parameters
    ----------
    click_budget:
        Exact fake clicks to place.
    n_targets:
        Fresh target listings per group.
    workers_per_group:
        Accounts per seller before a new group opens.
    target_clicks:
        Per (worker, target) clicks (capped under ``T_click`` when
        adaptive).
    fillers_per_worker:
        Influence-ranked filler edges per worker.
    filler_pool_size:
        Size of the top-influence candidate pool workers sample from
        (sampling ∝ influence keeps profiles diverse enough that the
        worker set is not a perfect biclique on the filler side).
    hot_rides:
        Hot items ridden per group.
    adaptive:
        Observe resolved thresholds and shape under them.
    seed:
        RNG seed.
    """

    click_budget: int = 2_000
    n_targets: int = 10
    workers_per_group: int = 12
    target_clicks: int = 15
    fillers_per_worker: int = 5
    filler_pool_size: int = 40
    hot_rides: int = 1
    adaptive: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.click_budget < 1:
            raise DataGenError("click_budget must be >= 1")
        if min(self.n_targets, self.workers_per_group, self.target_clicks) < 1:
            raise DataGenError("group shape values must be >= 1")
        if self.fillers_per_worker < 0 or self.hot_rides < 0:
            raise DataGenError("fillers_per_worker and hot_rides must be >= 0")
        if self.filler_pool_size < 1:
            raise DataGenError("filler_pool_size must be >= 1")


def influence_scores(
    graph: BipartiteGraph, exclude: set[Node] | frozenset[Node] = frozenset()
) -> dict[Node, float]:
    """Influence score of every ordinary item (see module docstring)."""
    scores: dict[Node, float] = {}
    for item in graph.items():
        if item in exclude:
            continue
        reach = graph.item_degree(item)
        if reach == 0:
            continue
        saturation = graph.item_total_clicks(item) / reach
        scores[item] = reach / (1.0 + saturation)
    return scores


def plan_poisoning(
    graph: BipartiteGraph, config: InfluencePoisoningConfig
) -> AttackPlan:
    """Plan a budget-exact influence-poisoning campaign against ``graph``."""
    rng = np.random.default_rng(config.seed)
    budget = ClickBudget(config.click_budget)
    plan = AttackPlan(family="poisoning", adaptive=config.adaptive, budget=budget.total)
    defense = ObservedDefense.observe(graph) if config.adaptive else None

    hot_boundary = pareto_hot_threshold(graph)
    hot_pool = [
        item for item in graph.items() if graph.item_total_clicks(item) >= hot_boundary
    ]
    if not hot_pool:
        raise DataGenError("cannot inject attacks: graph has no hot items")

    scores = influence_scores(graph, exclude=set(hot_pool))
    ranked = sorted(scores, key=lambda item: (-scores[item], str(item)))
    pool = ranked[: config.filler_pool_size]
    weights = np.array([scores[item] for item in pool], dtype=float)
    weights = weights / weights.sum() if weights.size and weights.sum() > 0 else None

    per_edge = (
        defense.capped(config.target_clicks) if defense else config.target_clicks
    )
    hot_clicks = defense.hot_pad if defense else 1

    group_index = 0
    while not budget.exhausted:
        group = AttackGroup(group_id=group_index)
        chosen_hot = rng.choice(
            len(hot_pool), size=min(config.hot_rides, len(hot_pool)), replace=False
        )
        group.hot_items = [hot_pool[int(index)] for index in np.atleast_1d(chosen_hot)]
        for target_index in range(config.n_targets):
            target = f"ip{group_index}_t{target_index}"
            group.target_items.append(target)
            plan.fresh_items.add(target)

        for worker_index in range(config.workers_per_group):
            if budget.exhausted:
                break
            worker = f"ip{group_index}_w{worker_index}"
            group.workers.append(worker)
            plan.fresh_users.add(worker)
            for hot in group.hot_items:
                grant = budget.take(hot_clicks)
                if grant:
                    group.fake_edges.append((worker, hot, grant))
            for target in group.target_items:
                grant = budget.take(per_edge)
                if grant:
                    group.fake_edges.append((worker, target, grant))
            fillers: list[Node] = []
            if pool:
                chosen = rng.choice(
                    len(pool),
                    size=min(config.fillers_per_worker, len(pool)),
                    replace=False,
                    p=weights,
                )
                fillers.extend(pool[int(index)] for index in np.atleast_1d(chosen))
            if defense:
                fillers.extend(
                    straddle_anchors(graph, rng, n_anchors=2, exclude=set(hot_pool))
                )
            for item in fillers:
                grant = budget.take(1)
                if grant:
                    group.fake_edges.append((worker, item, grant))
        plan.groups.append(group)
        group_index += 1
    return plan
