"""The attack-family registry: one uniform door into the zoo.

Every family exposes the same planning signature through a
:class:`FamilySpec`, so the red-team harness
(:func:`repro.eval.robustness.red_team`), the ``ricd redteam`` CLI and
the property/metamorphic test grids can iterate over *all* families
without knowing their individual config dataclasses:

>>> from repro.datagen.marketplace import MarketplaceConfig, generate_marketplace
>>> graph = generate_marketplace(MarketplaceConfig(n_users=800, n_items=200, seed=3))
>>> plan = plan_family(graph, "coattails", budget=500, seed=0)
>>> plan.clicks_spent
500

Families (all emit exact ground truth; budgets are spent exactly):

``coattails``
    The paper's own attack model, budget-parameterised — the baseline
    every other family's detectability is compared against.
``learned``
    Adversarially learned injection (Tang et al.): hot items, click
    depths and filler profiles optimised against the Eq. 1/2 surrogate.
``poisoning``
    Influence-function poisoning (Fang et al.): filler edges chosen by
    marketplace-wide influence scores.
``uplift``
    Uplift-based target-user attacks (Wang et al.): campaigns aimed at
    a mined audience through its anchor items.
``obfuscation``
    Profile obfuscation (Yang et al.): workers groom organic-looking
    histories that dilute every behavioural screen.

Each family also has an **adaptive** variant (``adaptive=True``): the
planner observes the resolved ``T_hot``/``T_click`` of the deployed
detector on the pre-attack marketplace and shapes its clicks to sit
under the thresholds (see :mod:`repro.datagen.attacks.adaptive`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ...errors import DataGenError
from ...graph.bipartite import BipartiteGraph
from .base import AttackPlan
from .coattails import CoattailsCampaignConfig, plan_coattails
from .learned import LearnedInjectionConfig, plan_learned
from .obfuscation import ProfileObfuscationConfig, plan_obfuscation
from .poisoning import InfluencePoisoningConfig, plan_poisoning
from .uplift import UpliftAttackConfig, plan_uplift

__all__ = ["FamilySpec", "ATTACK_FAMILIES", "family_names", "plan_family"]


@dataclass(frozen=True)
class FamilySpec:
    """One attack family's uniform planning interface.

    Attributes
    ----------
    name:
        Registry key (also ``AttackPlan.family``).
    citation:
        The PAPERS.md lineage of the model.
    plan:
        ``(graph, budget, seed, adaptive) -> AttackPlan``.
    """

    name: str
    citation: str
    plan: Callable[[BipartiteGraph, int, int, bool], AttackPlan]


def _spec(name: str, citation: str, config_type, planner) -> FamilySpec:
    def plan(graph: BipartiteGraph, budget: int, seed: int, adaptive: bool) -> AttackPlan:
        config = config_type(click_budget=budget, seed=seed, adaptive=adaptive)
        return planner(graph, config)

    return FamilySpec(name=name, citation=citation, plan=plan)


#: Registry of every attack family, in canonical reporting order.
ATTACK_FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        _spec(
            "coattails",
            "Ride Item's Coattails (the source paper, Section III-A)",
            CoattailsCampaignConfig,
            plan_coattails,
        ),
        _spec(
            "learned",
            "adversarially learned injection (Tang et al.)",
            LearnedInjectionConfig,
            plan_learned,
        ),
        _spec(
            "poisoning",
            "influence-function data poisoning (Fang et al.)",
            InfluencePoisoningConfig,
            plan_poisoning,
        ),
        _spec(
            "uplift",
            "uplift-based target-user attacks (Wang et al.)",
            UpliftAttackConfig,
            plan_uplift,
        ),
        _spec(
            "obfuscation",
            "profile-obfuscation attacks (Yang et al.)",
            ProfileObfuscationConfig,
            plan_obfuscation,
        ),
    )
}


def family_names() -> list[str]:
    """Registry keys in canonical reporting order."""
    return list(ATTACK_FAMILIES)


def plan_family(
    graph: BipartiteGraph,
    family: str,
    budget: int,
    seed: int = 0,
    adaptive: bool = False,
) -> AttackPlan:
    """Plan ``family``'s campaign at ``budget`` clicks against ``graph``."""
    try:
        spec = ATTACK_FAMILIES[family]
    except KeyError:
        known = ", ".join(family_names())
        raise DataGenError(f"unknown attack family {family!r} (known: {known})") from None
    return spec.plan(graph, budget, seed, adaptive)
