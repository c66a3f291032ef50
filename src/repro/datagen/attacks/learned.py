"""Adversarially *learned* injection (after Tang et al., PAPERS.md).

Where the coattails injector executes the paper's fixed Eq. 3 recipe,
this family *optimises* its campaign against a white-box surrogate of
the recommender — the repository's own Eq. 1/2 I2I model
(:mod:`repro.core.i2i`) — before spending a single click:

1. **Hot-item choice is learned.**  Eq. 2 says the marginal I2I gain of
   a target click shrinks with the hot item's existing co-click mass, so
   the planner measures that mass for every hot candidate and rides the
   *least-contested* hot items, not random ones.
2. **Click depth is learned.**  Instead of the fixed "click the target
   13 times", the planner scans per-edge depths ``d`` and maximises the
   surrogate utility rate — Eq. 2 lift per click spent, amortising the
   hot-link cost a new worker pays before its target clicks count —
   picking the depth a gradient attacker would converge to.  The
   *adaptive* variant adds the detectability penalty: depths at or above
   the observed ``T_click`` are charged ``detect_penalty``, which pushes
   the optimum under the threshold (and pads hot rides past the
   screening band, where the static optimum is the Eq. 3 single click).
3. **Filler profiles.**  Each worker carries a small learned filler set
   (popular-but-ordinary items) so its profile resembles the organic
   users the surrogate was fitted on — Tang et al.'s generator
   regularisation, reduced to its behavioural effect.

The result is still an exact-ground-truth campaign: every worker and
fresh target is labelled, every placed click is drawn from the
:class:`~repro.datagen.attacks.base.ClickBudget` ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from ...core.i2i import co_click_counts
from ...core.thresholds import pareto_hot_threshold
from ...errors import DataGenError
from ...graph.bipartite import BipartiteGraph
from .adaptive import ObservedDefense, straddle_anchors
from .base import AttackGroup, AttackPlan, ClickBudget

__all__ = ["LearnedInjectionConfig", "plan_learned"]

Node = Hashable


@dataclass(frozen=True)
class LearnedInjectionConfig:
    """Configuration of the learned-injection planner.

    Parameters
    ----------
    click_budget:
        Exact fake clicks to place.
    n_targets:
        Fresh target listings per group.
    workers_per_group:
        Accounts per seller before a new group opens (the attacker knows
        about the detector's group-size cap — white-box assumption).
    hot_rides:
        Hot items ridden per group (chosen by surrogate, see module doc).
    fillers_per_worker:
        Learned filler items per worker profile.
    max_depth:
        Upper end of the per-edge click-depth scan.
    detect_penalty:
        Surrogate penalty (in Eq. 2 lift units) charged to depths at or
        above the observed ``T_click``; only active when ``adaptive``.
    adaptive:
        Observe the resolved thresholds and shape under them.
    seed:
        RNG seed.
    """

    click_budget: int = 2_000
    n_targets: int = 10
    workers_per_group: int = 10
    hot_rides: int = 1
    fillers_per_worker: int = 3
    max_depth: int = 30
    detect_penalty: float = 0.5
    adaptive: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.click_budget < 1:
            raise DataGenError("click_budget must be >= 1")
        if min(self.n_targets, self.workers_per_group, self.max_depth) < 1:
            raise DataGenError("n_targets/workers_per_group/max_depth must be >= 1")
        if self.hot_rides < 0 or self.fillers_per_worker < 0:
            raise DataGenError("hot_rides and fillers_per_worker must be >= 0")
        if self.detect_penalty < 0:
            raise DataGenError("detect_penalty must be >= 0")


def _contested_mass(graph: BipartiteGraph, hot_item: Node) -> int:
    """Existing co-click mass competing for ``hot_item``'s I2I list (Eq. 1 denominator)."""
    return sum(co_click_counts(graph, hot_item).values())


def _learned_depth(
    baseline_mass: float,
    hot_cost: int,
    n_targets: int,
    max_depth: int,
    defense: ObservedDefense | None,
    penalty: float,
) -> int:
    """The per-edge click depth the surrogate optimiser converges to.

    Utility rate of depth ``d``: the Eq. 2 lift a worker's ``n_targets``
    edges of depth ``d`` buy, minus the detectability penalty, per click
    spent (including the worker's amortised hot-link cost).  The scan is
    the closed-form stand-in for Tang et al.'s gradient loop — the
    surrogate is concave in ``d``, so the argmax is exact.
    """
    per_target_baseline = max(1.0, baseline_mass / max(1, n_targets))
    best_depth, best_rate = 1, -np.inf
    for depth in range(1, max_depth + 1):
        lift = depth / (per_target_baseline + depth)
        penalised = penalty if (defense is not None and depth >= defense.t_click) else 0.0
        rate = (n_targets * lift - penalised) / (n_targets * depth + hot_cost)
        if rate > best_rate:
            best_depth, best_rate = depth, rate
    if defense is not None:
        # Never converge above the observed threshold: the penalty makes
        # it sub-optimal for sane settings, the clamp makes it certain.
        best_depth = min(best_depth, defense.sub_threshold_clicks)
    return best_depth


def plan_learned(graph: BipartiteGraph, config: LearnedInjectionConfig) -> AttackPlan:
    """Plan a budget-exact learned-injection campaign against ``graph``."""
    rng = np.random.default_rng(config.seed)
    budget = ClickBudget(config.click_budget)
    plan = AttackPlan(family="learned", adaptive=config.adaptive, budget=budget.total)
    defense = ObservedDefense.observe(graph) if config.adaptive else None

    hot_boundary = pareto_hot_threshold(graph)
    hot_pool = [
        item for item in graph.items() if graph.item_total_clicks(item) >= hot_boundary
    ]
    if not hot_pool:
        raise DataGenError("cannot inject attacks: graph has no hot items")
    # Learned hot-item choice: least-contested first (ties by id for
    # determinism).  Each group rides the next-cheapest hot items.
    ranked_hot = sorted(hot_pool, key=lambda item: (_contested_mass(graph, item), str(item)))

    # Learned filler pool: popular-but-ordinary items, by reach.
    filler_pool = sorted(
        (item for item in graph.items() if item not in hot_pool),
        key=lambda item: (-graph.item_degree(item), str(item)),
    )[: max(20, 4 * config.fillers_per_worker)]

    hot_clicks = defense.hot_pad if defense else 1
    group_index = 0
    while not budget.exhausted:
        group = AttackGroup(group_id=group_index)
        offset = (group_index * config.hot_rides) % max(1, len(ranked_hot))
        group.hot_items = [
            ranked_hot[(offset + ride) % len(ranked_hot)]
            for ride in range(min(config.hot_rides, len(ranked_hot)))
        ]
        for target_index in range(config.n_targets):
            target = f"lr{group_index}_t{target_index}"
            group.target_items.append(target)
            plan.fresh_items.add(target)

        baseline = sum(_contested_mass(graph, hot) for hot in group.hot_items)
        depth = _learned_depth(
            baseline_mass=float(baseline),
            hot_cost=hot_clicks * max(1, len(group.hot_items)),
            n_targets=config.n_targets,
            max_depth=config.max_depth,
            defense=defense,
            penalty=config.detect_penalty,
        )

        for worker_index in range(config.workers_per_group):
            if budget.exhausted:
                break
            worker = f"lr{group_index}_w{worker_index}"
            group.workers.append(worker)
            plan.fresh_users.add(worker)
            for hot in group.hot_items:
                grant = budget.take(hot_clicks)
                if grant:
                    group.fake_edges.append((worker, hot, grant))
            for target in group.target_items:
                grant = budget.take(depth)
                if grant:
                    group.fake_edges.append((worker, target, grant))
            fillers: list[Node] = []
            if defense:
                fillers.extend(
                    straddle_anchors(graph, rng, n_anchors=2, exclude=set(hot_pool))
                )
            if config.fillers_per_worker and filler_pool:
                chosen = rng.choice(
                    len(filler_pool),
                    size=min(config.fillers_per_worker, len(filler_pool)),
                    replace=False,
                )
                fillers.extend(filler_pool[int(index)] for index in chosen)
            for item in fillers:
                grant = budget.take(1)
                if grant:
                    group.fake_edges.append((worker, item, grant))
        plan.groups.append(group)
        group_index += 1
    return plan
