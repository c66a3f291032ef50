"""Algorithm 1 — the naive detector.

The intuition (Section V-A): "if most of the users who click an ordinary
item have clicked a large number of hot items, it is very likely that this
ordinary item is a target item and the users are suspicious users."

Mechanics, exactly as the pseudocode:

1. split items into *hot* (``total_click >= T_hot``) and *new* (potential
   targets);
2. per user, ``Alpha`` = total clicks the user spent on hot items
   (``GETALPHA``);
3. per item, ``RiskScore`` = sum of the Alphas of its adjacent users; items
   above ``T_risk`` form the abnormal item set ``S``;
4. a second, symmetric pass ("in the same way", per the paper's text)
   scores users by their adjacency to ``S`` and thresholds them.

``T_risk`` balances precision against recall and is "hard to set in
advance" — one of the two stated flaws of the algorithm.  When not given
explicitly we default it to a high percentile of the non-zero item risk
scores, which is how a practitioner without labels would bootstrap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .._util import stopwatch
from ..graph.bipartite import BipartiteGraph
from .groups import DetectionResult, SuspiciousGroup
from .thresholds import pareto_hot_threshold

__all__ = ["NaiveParams", "naive_detect", "user_alpha", "item_risk_scores"]

Node = Hashable


@dataclass(frozen=True)
class NaiveParams:
    """Parameters of Algorithm 1.

    Parameters
    ----------
    t_hot:
        Hot-item threshold; ``None`` derives it with the Pareto rule.
    t_risk:
        Item risk threshold; ``None`` sets it to the ``risk_percentile``
        of non-zero item risk scores.
    t_risk_user:
        User risk threshold for the second pass; ``None`` sets it to the
        same percentile of non-zero user risk scores.
    risk_percentile:
        Percentile (0-100) used for auto thresholds.
    """

    t_hot: float | None = None
    t_risk: float | None = None
    t_risk_user: float | None = None
    risk_percentile: float = 97.0

    def __post_init__(self) -> None:
        if not 0.0 < self.risk_percentile < 100.0:
            raise ValueError("risk_percentile must lie in (0, 100)")


def user_alpha(graph: BipartiteGraph, user: Node, hot: set[Node]) -> int:
    """``GETALPHA``: the user's total clicks on hot items.

    The per-user form of the sum :func:`naive_detect` takes for every user
    at once from the snapshot's edge arrays.
    """
    return sum(
        clicks
        for item, clicks in graph.user_neighbors(user).items()
        if item in hot
    )


def item_risk_scores(
    graph: BipartiteGraph, alphas: dict[Node, int], candidates: set[Node]
) -> dict[Node, int]:
    """Per-item risk: the sum of adjacent users' Alpha values (Algorithm 1 line 10).

    The per-item form of the sum :func:`naive_detect` takes for every item
    at once from the snapshot's edge arrays.
    """
    return {
        item: sum(alphas[user] for user in graph.item_neighbors(item))
        for item in candidates
    }


def _percentile(values: list[float], percentile: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(len(ordered) * percentile / 100.0)))
    return ordered[rank]


def naive_detect(
    graph: BipartiteGraph, params: NaiveParams | None = None
) -> DetectionResult:
    """Run Algorithm 1 and its symmetric user pass.

    Returns a single-group :class:`DetectionResult` (the naive algorithm
    judges nodes independently, so there is no group structure), with risk
    scores filled in for ranking.
    """
    params = params or NaiveParams()
    result = DetectionResult()
    with stopwatch() as timer:
        t_hot = params.t_hot if params.t_hot is not None else pareto_hot_threshold(graph)

        # Every sum below is one bincount over the snapshot's edge arrays;
        # the sums are integers, exact in float64 below 2**53.
        snapshot = graph.indexed()
        user_idx, item_idx, clicks = snapshot.user_idx, snapshot.item_idx, snapshot.clicks
        hot = snapshot.item_total_clicks() >= t_hot
        # GETALPHA per user, then line 10's risk per item.
        alphas = np.bincount(
            user_idx, weights=clicks * hot[item_idx], minlength=snapshot.num_users
        )
        risks = np.bincount(item_idx, weights=alphas[user_idx], minlength=snapshot.num_items)

        new_risks = risks[~hot]
        positive_risks = new_risks[new_risks > 0].tolist()
        if params.t_risk is not None:
            t_risk = params.t_risk
        elif positive_risks:
            t_risk = _percentile(positive_risks, params.risk_percentile)
        else:
            t_risk = float("inf")
        abnormal = ~hot & (risks > t_risk)

        # Second pass, "in the same way": users scored by their clicks on
        # the abnormal item set, thresholded at the same percentile.
        user_risks = np.bincount(
            user_idx, weights=clicks * abnormal[item_idx], minlength=snapshot.num_users
        )
        positive_user_risks = user_risks[user_risks > 0].tolist()
        if params.t_risk_user is not None:
            t_risk_user = params.t_risk_user
        elif positive_user_risks:
            t_risk_user = _percentile(positive_user_risks, params.risk_percentile)
        else:
            t_risk_user = float("inf")
        flagged = user_risks > t_risk_user

        result.item_scores = {
            snapshot.items[column]: float(risks[column])
            for column in np.flatnonzero(abnormal).tolist()
        }
        result.user_scores = {
            snapshot.users[row]: float(user_risks[row])
            for row in np.flatnonzero(flagged).tolist()
        }
        result.suspicious_items = set(result.item_scores)
        result.suspicious_users = set(result.user_scores)
        result.groups = [
            SuspiciousGroup(users=set(result.user_scores), items=set(result.item_scores))
        ]
    result.timings["detection"] = timer[0]
    return result
