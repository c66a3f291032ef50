"""Attack-impact measurement on the recommender.

Quantifies what the "Ride Item's Coattails" attack buys the seller —
target items' I2I scores and recommendation ranks against the ridden hot
items — before the attack, after it, and after cleanup (fake-click
removal).  This is the machinery behind the repository's end-to-end
demonstration and the Fig. 10 case-study reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from ..datagen.attacks import AttackGroup
from ..graph.bipartite import BipartiteGraph
from .engine import I2IRecommender

__all__ = [
    "AttackImpact",
    "attack_impact",
    "exposure_rank",
    "remove_fake_clicks",
    "remove_detected_clicks",
]

Node = Hashable


@dataclass(frozen=True)
class AttackImpact:
    """Impact of one attack group on the recommender.

    Attributes
    ----------
    mean_score_before, mean_score_after:
        Target items' mean I2I score against the group's hot items, on the
        clean and attacked graphs.
    mean_rank_before, mean_rank_after:
        Mean recommendation rank of the targets against the hot items
        (``None`` components are treated as "unranked" and excluded; the
        counts below say how many ranked).
    targets_in_top_k_before, targets_in_top_k_after:
        How many (hot item, target) pairs land in the top-k list.
    k:
        The list depth used for the top-k counts.
    """

    mean_score_before: float
    mean_score_after: float
    mean_rank_before: float | None
    mean_rank_after: float | None
    targets_in_top_k_before: int
    targets_in_top_k_after: int
    k: int

    @property
    def score_lift(self) -> float:
        """Multiplicative I2I-score lift (``inf`` when starting from zero)."""
        if self.mean_score_before == 0.0:
            return float("inf") if self.mean_score_after > 0 else 1.0
        return self.mean_score_after / self.mean_score_before


def exposure_rank(
    graph: BipartiteGraph, hot_item: Node, target: Node
) -> int | None:
    """Rank of ``target`` in ``hot_item``'s recommendation ranking, or ``None``."""
    return I2IRecommender(graph).rank_of(hot_item, target)


def remove_fake_clicks(
    graph: BipartiteGraph, groups: Iterable[AttackGroup]
) -> BipartiteGraph:
    """Return a copy of ``graph`` with the groups' fake clicks subtracted.

    This is the "system cleaned the false click information" step of the
    case study.  Edge weights are decremented by the injected amount;
    edges that reach zero disappear.  Worker accounts that end up with no
    edges remain as isolated users (the platform bans accounts separately
    from cleaning click logs).
    """
    cleaned = graph.copy()
    cleaned.subtract_clicks(edge for group in groups for edge in group.fake_edges)
    return cleaned


def remove_detected_clicks(
    graph: BipartiteGraph,
    result,
    t_click: float,
    disguise_params=None,
) -> BipartiteGraph:
    """Ground-truth-free cleanup: delete what the *detector* attributed.

    Unlike :func:`remove_fake_clicks` (which consumes the injector's exact
    fake-edge records and exists only because this is a simulation), this
    variant works from a :class:`~repro.core.groups.DetectionResult` alone
    — the situation a real platform is in.  Each detected group's boost,
    hot-ride and disguise edges (per
    :func:`repro.core.screening.collect_fake_edges`) are removed entirely.

    Parameters
    ----------
    graph:
        The attacked click graph (not modified).
    result:
        A detector's output (groups required).
    t_click:
        The abnormal-click threshold used at detection time.
    disguise_params:
        Optional :class:`~repro.config.ScreeningParams` for the disguise
        ratio; defaults used when omitted.
    """
    from ..core.screening import collect_fake_edges

    cleaned = graph.copy()
    for group in result.groups:
        # Each group's edges carry their full counts in the graph cleaned
        # so far, so subtracting them removes the edges.
        cleaned.subtract_clicks(collect_fake_edges(cleaned, group, t_click, disguise_params))
    return cleaned


def _pair_metrics(
    recommender: I2IRecommender, hot_items: Iterable[Node], targets: Iterable[Node], k: int
) -> tuple[float, float | None, int]:
    scores: list[float] = []
    ranks: list[int] = []
    in_top_k = 0
    for hot in hot_items:
        if not recommender.graph.has_item(hot):
            continue
        for target in targets:
            scores.append(recommender.score_of(hot, target))
            rank = recommender.rank_of(hot, target)
            if rank is not None:
                ranks.append(rank)
                if rank <= k:
                    in_top_k += 1
    mean_score = sum(scores) / len(scores) if scores else 0.0
    mean_rank = sum(ranks) / len(ranks) if ranks else None
    return mean_score, mean_rank, in_top_k


def attack_impact(
    clean_graph: BipartiteGraph,
    attacked_graph: BipartiteGraph,
    group: AttackGroup,
    k: int = 10,
) -> AttackImpact:
    """Measure one group's effect on its targets' exposure.

    Parameters
    ----------
    clean_graph:
        The marketplace before (or after cleaning) the attack.
    attacked_graph:
        The marketplace with the fake clicks present.
    group:
        The attack group whose hot items / targets are measured.
    k:
        Recommendation list depth for the top-k exposure count.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    before = I2IRecommender(clean_graph)
    after = I2IRecommender(attacked_graph)
    score_before, rank_before, top_before = _pair_metrics(
        before, group.hot_items, group.target_items, k
    )
    score_after, rank_after, top_after = _pair_metrics(
        after, group.hot_items, group.target_items, k
    )
    return AttackImpact(
        mean_score_before=score_before,
        mean_score_after=score_after,
        mean_rank_before=rank_before,
        mean_rank_after=rank_after,
        targets_in_top_k_before=top_before,
        targets_in_top_k_after=top_after,
        k=k,
    )
