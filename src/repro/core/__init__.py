"""The paper's contribution: thresholds, I2I model, Algorithm 1, Algorithm 3,
screening, identification and the assembled RICD framework."""

from .camouflage import (
    contains_biclique,
    kovari_sos_turan_bound,
    undetected_campaign_bound,
    zarankiewicz_upper_bound,
)
from .extraction import core_pruning, extract_groups, prune_to_fixpoint, square_pruning
from .framework import (
    VARIANT_FULL,
    VARIANT_NO_ITEM,
    VARIANT_NO_SCREEN,
    RICDDetector,
)
from .groups import DetectionResult, SuspiciousGroup
from .i2i import (
    attack_score_gain,
    attacked_i2i_score,
    co_click_counts,
    i2i_scores,
    optimal_attack_allocation,
)
from .incremental import IncrementalRICD
from .identification import adjust_parameters, assemble_result, output_size, score_groups
from .naive import NaiveParams, naive_detect
from .screening import item_behavior_verification, screen_groups, user_behavior_check
from .thresholds import (
    classify_items,
    hot_items,
    pareto_hot_threshold,
    t_click_from_graph,
    t_click_threshold,
)

__all__ = [
    "RICDDetector",
    "VARIANT_FULL",
    "VARIANT_NO_ITEM",
    "VARIANT_NO_SCREEN",
    "DetectionResult",
    "SuspiciousGroup",
    "core_pruning",
    "square_pruning",
    "prune_to_fixpoint",
    "extract_groups",
    "IncrementalRICD",
    "zarankiewicz_upper_bound",
    "kovari_sos_turan_bound",
    "undetected_campaign_bound",
    "contains_biclique",
    "screen_groups",
    "user_behavior_check",
    "item_behavior_verification",
    "score_groups",
    "assemble_result",
    "adjust_parameters",
    "output_size",
    "naive_detect",
    "NaiveParams",
    "pareto_hot_threshold",
    "t_click_threshold",
    "t_click_from_graph",
    "classify_items",
    "hot_items",
    "i2i_scores",
    "co_click_counts",
    "attacked_i2i_score",
    "attack_score_gain",
    "optimal_attack_allocation",
]
