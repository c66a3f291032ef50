"""Adversarial attack zoo: fake-click campaign planners with exact labels.

This package grew out of the single-module injector that reproduced the
paper's own attack model (now :mod:`repro.datagen.attacks.coattails`).
It keeps that module's public API verbatim — ``AttackConfig`` /
``inject_attacks`` and the private helpers :mod:`repro.datagen.evasion`
leans on — and adds:

* :mod:`~repro.datagen.attacks.base` — the shared campaign machinery:
  :class:`ClickBudget` (exact-spend ledger), :class:`AttackPlan`
  (plan → apply/schedule → exact :class:`~repro.datagen.labels.GroundTruth`).
* :mod:`~repro.datagen.attacks.adaptive` — :class:`ObservedDefense`,
  the attacker-side view of the deployed thresholds.
* four literature-derived families (``learned``, ``poisoning``,
  ``uplift``, ``obfuscation``) plus the budgeted ``coattails`` planner.
* :mod:`~repro.datagen.attacks.registry` — the uniform
  ``plan_family(graph, name, budget, seed, adaptive)`` door the
  red-team harness and the test grids iterate over.
"""

from __future__ import annotations

from .adaptive import ObservedDefense, straddle_anchors
from .base import (
    AttackGroup,
    AttackPlan,
    ClickBudget,
    pick_hot_items,
    target_id,
    uniform_int,
    worker_id,
)
from .coattails import (
    AttackConfig,
    CoattailsCampaignConfig,
    inject_attacks,
    plan_coattails,
)
from .learned import LearnedInjectionConfig, plan_learned
from .obfuscation import ProfileObfuscationConfig, plan_obfuscation
from .poisoning import InfluencePoisoningConfig, influence_scores, plan_poisoning
from .registry import ATTACK_FAMILIES, FamilySpec, family_names, plan_family
from .uplift import UpliftAttackConfig, plan_uplift

# Back-compat aliases: these started life as module-private helpers of the
# original ``repro.datagen.attacks`` module and are imported by name from
# ``repro.datagen.evasion``.
_uniform_int = uniform_int
_pick_hot_items = pick_hot_items

__all__ = [
    # paper attack model (original module API)
    "AttackConfig",
    "AttackGroup",
    "inject_attacks",
    "worker_id",
    "target_id",
    # shared machinery
    "AttackPlan",
    "ClickBudget",
    "ObservedDefense",
    "straddle_anchors",
    "uniform_int",
    "pick_hot_items",
    # families
    "CoattailsCampaignConfig",
    "plan_coattails",
    "LearnedInjectionConfig",
    "plan_learned",
    "InfluencePoisoningConfig",
    "influence_scores",
    "plan_poisoning",
    "UpliftAttackConfig",
    "plan_uplift",
    "ProfileObfuscationConfig",
    "plan_obfuscation",
    # registry
    "FamilySpec",
    "ATTACK_FAMILIES",
    "family_names",
    "plan_family",
]
