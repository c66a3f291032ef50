"""Profile-obfuscation attacks (after Yang et al., PAPERS.md).

The hardest camouflage in the paper's own challenge list is the worker
who *looks like an organic user* — hijacked accounts arrive with real
histories, and professional workers groom their accounts before selling
them.  This family models the grooming directly: every worker spends a
configurable **obfuscation fraction** of its click budget building an
organic-mimicking profile *before* (in graph terms: alongside) the
campaign:

* obfuscation items are sampled from the marketplace's popularity
  distribution (``item_total_clicks`` as weights), so the fake history
  has the same heavy-tailed shape as real browsing;
* obfuscation click counts are small (1-3), matching the Table II
  per-record marginals;
* the remaining budget executes a compact coattails-style core at
  reduced intensity.

Against a click-weight-blind extractor the core still surfaces; what the
obfuscation buys is *screening* pressure — the worker's abnormal-click
fraction drops, its hot-item behaviour blends into the organic band —
exactly the axis the paper's RICD / RICD-UI gap measures.  The adaptive
variant raises the obfuscation fraction, caps target depths under the
observed ``T_click``, rides hot items at the screening band, and
straddles organic communities with part of its obfuscation spend.
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

__all__ = ["ProfileObfuscationConfig", "plan_obfuscation"]

Node = Hashable


@dataclass(frozen=True)
class ProfileObfuscationConfig:
    """Configuration of the profile-obfuscation planner.

    Parameters
    ----------
    click_budget:
        Exact fake clicks to place (campaign + obfuscation combined —
        grooming is not free, which is what makes the trade-off real).
    obfuscation_fraction:
        Share of each worker's spend that goes to the organic-mimicking
        profile (raised by half, capped at 0.75, when adaptive).
    n_targets:
        Fresh target listings per group.
    workers_per_group:
        Accounts per seller before a new group opens.
    target_clicks:
        Per (worker, target) clicks (capped when adaptive).
    hot_rides:
        Hot items ridden per group.
    adaptive:
        Observe resolved thresholds and shape under them.
    seed:
        RNG seed.
    """

    click_budget: int = 2_000
    obfuscation_fraction: float = 0.35
    n_targets: int = 10
    workers_per_group: int = 12
    target_clicks: int = 15
    hot_rides: int = 1
    adaptive: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.click_budget < 1:
            raise DataGenError("click_budget must be >= 1")
        if not 0.0 <= self.obfuscation_fraction < 1.0:
            raise DataGenError("obfuscation_fraction must lie in [0, 1)")
        if min(self.n_targets, self.workers_per_group, self.target_clicks) < 1:
            raise DataGenError("group shape values must be >= 1")
        if self.hot_rides < 0:
            raise DataGenError("hot_rides must be >= 0")


def plan_obfuscation(
    graph: BipartiteGraph, config: ProfileObfuscationConfig
) -> AttackPlan:
    """Plan a budget-exact profile-obfuscation campaign against ``graph``."""
    rng = np.random.default_rng(config.seed)
    budget = ClickBudget(config.click_budget)
    plan = AttackPlan(
        family="obfuscation", adaptive=config.adaptive, budget=budget.total
    )
    defense = ObservedDefense.observe(graph) if config.adaptive else None

    hot_boundary = pareto_hot_threshold(graph)
    hot_pool = [
        item for item in graph.items() if graph.item_total_clicks(item) >= hot_boundary
    ]
    if not hot_pool:
        raise DataGenError("cannot inject attacks: graph has no hot items")

    # Popularity-weighted obfuscation pool (ordinary items only; clicking
    # hot items is handled separately because screening treats it apart).
    pool = [item for item in graph.items() if item not in hot_pool]
    if not pool:
        pool = list(graph.items())
    popularity = np.array(
        [graph.item_total_clicks(item) for item in pool], dtype=float
    )
    popularity = np.maximum(popularity, 1.0)
    popularity /= popularity.sum()

    fraction = config.obfuscation_fraction
    if defense:
        fraction = min(0.75, fraction * 1.5)
    per_edge = (
        defense.capped(config.target_clicks) if defense else config.target_clicks
    )
    hot_clicks = defense.hot_pad if defense else 1
    # Per-worker campaign spend implied by the group shape; the grooming
    # budget is sized against it through the obfuscation fraction.
    campaign_spend = (
        config.n_targets * per_edge + config.hot_rides * hot_clicks
    )
    groom_spend = int(round(campaign_spend * fraction / max(1e-9, 1.0 - fraction)))

    group_index = 0
    while not budget.exhausted:
        group = AttackGroup(group_id=group_index)
        if config.hot_rides:
            chosen_hot = rng.choice(
                len(hot_pool), size=min(config.hot_rides, len(hot_pool)), replace=False
            )
            group.hot_items = [
                hot_pool[int(index)] for index in np.atleast_1d(chosen_hot)
            ]
        for target_index in range(config.n_targets):
            target = f"ob{group_index}_t{target_index}"
            group.target_items.append(target)
            plan.fresh_items.add(target)

        for worker_index in range(config.workers_per_group):
            if budget.exhausted:
                break
            worker = f"ob{group_index}_w{worker_index}"
            group.workers.append(worker)
            plan.fresh_users.add(worker)

            # --- grooming: an organic-looking history, popularity-shaped
            groomed: dict[Node, int] = {}
            remaining_groom = groom_spend
            if defense:
                for anchor in straddle_anchors(
                    graph, rng, n_anchors=2, exclude=set(hot_pool)
                ):
                    grant = budget.take(1)
                    if grant:
                        groomed[anchor] = groomed.get(anchor, 0) + grant
                        remaining_groom -= 1
            while remaining_groom > 0 and not budget.exhausted:
                item = pool[int(rng.choice(len(pool), p=popularity))]
                desired = min(int(rng.integers(1, 4)), remaining_groom)
                grant = budget.take(desired)
                if not grant:
                    break
                groomed[item] = groomed.get(item, 0) + grant
                remaining_groom -= grant
            for item, clicks in groomed.items():
                group.fake_edges.append((worker, item, clicks))

            # --- campaign: the compact core the grooming pays cover for
            for hot in group.hot_items:
                grant = budget.take(hot_clicks)
                if grant:
                    group.fake_edges.append((worker, hot, grant))
            for target in group.target_items:
                grant = budget.take(per_edge)
                if grant:
                    group.fake_edges.append((worker, target, grant))
        plan.groups.append(group)
        group_index += 1
    return plan
