"""Synthetic marketplace and attack-injection substrate.

The paper's evaluation runs on a proprietary Taobao click table (20M users,
4M items, 90M click records).  This subpackage is the documented
substitution (see DESIGN.md §2): a generator that reproduces the published
*marginals* of that table — heavy-tailed (Pareto 80/20) item popularity,
the Table II per-user and per-item click statistics — at a configurable
scale, plus an attack injector that implements the paper's own attack
model (Section III-A, Assumptions 1-3, the Eq. 2-3 optimal click strategy
and camouflage behaviour).

Because attacks are injected, ground truth is exact by construction, which
is *stronger* than the paper's expert-sampled labels; the labelling bias of
the paper is reproduced separately in :mod:`repro.eval.groundtruth`.
"""

from .attacks import (
    ATTACK_FAMILIES,
    AttackConfig,
    AttackGroup,
    AttackPlan,
    ClickBudget,
    ObservedDefense,
    family_names,
    inject_attacks,
    plan_family,
)
from .evasion import EvasionConfig, inject_evasive_campaign
from .distributions import (
    pareto_share,
    sample_heavy_tail_counts,
    zipf_weights,
)
from .labels import GroundTruth
from .marketplace import MarketplaceConfig, generate_marketplace
from .streams import ReplayResult, StreamConfig, replay, scenario_to_stream
from .scenario import (
    Scenario,
    clean_marketplace,
    generate_scenario,
    marketplace_preset,
    paper_scenario,
    small_scenario,
    tiny_scenario,
)

__all__ = [
    "AttackConfig",
    "AttackGroup",
    "AttackPlan",
    "ClickBudget",
    "ObservedDefense",
    "ATTACK_FAMILIES",
    "family_names",
    "plan_family",
    "inject_attacks",
    "EvasionConfig",
    "inject_evasive_campaign",
    "GroundTruth",
    "MarketplaceConfig",
    "generate_marketplace",
    "Scenario",
    "clean_marketplace",
    "marketplace_preset",
    "generate_scenario",
    "paper_scenario",
    "small_scenario",
    "tiny_scenario",
    "StreamConfig",
    "scenario_to_stream",
    "replay",
    "ReplayResult",
    "zipf_weights",
    "pareto_share",
    "sample_heavy_tail_counts",
]
