"""The suspicious-group identification module (Section V-B(3), Fig. 7).

Converts screened groups into the business-facing output table:

* **Risk-score ranking.**  A user's risk score is the number of suspicious
  items they clicked; an item's risk score is the average risk of its
  (suspicious) clickers.  Business experts punish the top-k of each list.

* **Feedback parameter adjustment.**  When the output is smaller than the
  end-user expectation ``T``, parameters are relaxed — the paper names
  "decrease ``T_click``" as the canonical move; we also lower ``alpha``
  toward its floor and (optionally) the group-size floors — and the first
  two modules re-run.  :func:`adjust_parameters` produces the relaxed
  parameter pair for one round; the loop itself lives in
  :class:`repro.pipeline.feedback.FeedbackDriver` because it must
  re-invoke detection.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .. import obs
from ..config import FeedbackPolicy, RICDParams, ScreeningParams
from ..graph.bipartite import BipartiteGraph
from .groups import DetectionResult, SuspiciousGroup

__all__ = ["score_groups", "assemble_result", "adjust_parameters", "output_size"]

Node = Hashable


def score_groups(
    graph: BipartiteGraph, groups: Iterable[SuspiciousGroup]
) -> tuple[dict[Node, float], dict[Node, float]]:
    """Risk scores per the ranking strategy of Section V-B(3).

    Returns ``(user_scores, item_scores)``:

    * ``user_scores[u]`` — number of suspicious items ``u`` clicked (across
      all groups);
    * ``item_scores[i]`` — mean risk score of the suspicious users who
      clicked ``i``.

    Both come from the suspicious users' rows alone, in O(sum of their
    degrees): no item's clicker column is read.  The risk sums add
    integer-valued floats, so they are exact in any order.
    """
    suspicious_items: set[Node] = set()
    suspicious_users: set[Node] = set()
    for group in groups:
        suspicious_items |= group.items
        suspicious_users |= group.users

    user_scores: dict[Node, float] = {}
    risk_sums: dict[Node, float] = {}
    risk_counts: dict[Node, int] = {}
    for user in suspicious_users:
        if not graph.has_user(user):
            user_scores[user] = 0.0
            continue
        clicked = [item for item in graph.user_neighbors(user) if item in suspicious_items]
        score = user_scores[user] = float(len(clicked))
        for item in clicked:
            risk_sums[item] = risk_sums.get(item, 0.0) + score
            risk_counts[item] = risk_counts.get(item, 0) + 1

    item_scores: dict[Node, float] = {}
    for item in suspicious_items:
        clickers = risk_counts.get(item)
        item_scores[item] = risk_sums[item] / clickers if clickers else 0.0
    return user_scores, item_scores


def assemble_result(
    graph: BipartiteGraph, groups: list[SuspiciousGroup]
) -> DetectionResult:
    """Build a scored :class:`DetectionResult` from final groups."""
    result = DetectionResult.from_groups(groups)
    with obs.span("scoring"):
        result.user_scores, result.item_scores = score_groups(graph, groups)
    obs.count("identify.groups", len(result.groups))
    obs.count("identify.users", len(result.suspicious_users))
    obs.count("identify.items", len(result.suspicious_items))
    return result


def output_size(groups: Iterable[SuspiciousGroup]) -> int:
    """Total distinct suspicious users + items across groups (the Fig. 7 check)."""
    users: set[Node] = set()
    items: set[Node] = set()
    for group in groups:
        users |= group.users
        items |= group.items
    return len(users) + len(items)


def adjust_parameters(
    params: RICDParams,
    screening: ScreeningParams,
    policy: FeedbackPolicy,
) -> tuple[RICDParams, ScreeningParams]:
    """One round of the Fig. 7 relaxation.

    Lowers ``t_click`` by ``policy.t_click_step`` (floor 2), ``alpha`` by
    ``policy.alpha_step`` (floor ``policy.alpha_floor``), and — when
    ``policy.shrink_k`` — ``k1``/``k2`` by one (floor 2).  ``t_click``
    must already be resolved to a number (the framework resolves data-
    derived thresholds before looping).

    When ``policy.hot_cap_step`` is positive the screening module's
    ``hot_click_cap`` is *raised* by that step (capped at
    ``policy.hot_cap_ceiling``): the cap is the one screening parameter
    an adaptive attacker can hide directly under — hot-pad workers click
    hot items exactly often enough to look organic — so a feedback loop
    that never moves it can relax ``t_click``/``alpha`` forever without
    recovering them.

    Returns the relaxed ``(params, screening)`` pair; inputs are untouched.
    """
    changes: dict[str, object] = {}
    if params.t_click is not None and policy.t_click_step > 0:
        changes["t_click"] = max(2.0, params.t_click - policy.t_click_step)
    if policy.alpha_step > 0:
        changes["alpha"] = max(policy.alpha_floor, round(params.alpha - policy.alpha_step, 9))
    if policy.shrink_k:
        changes["k1"] = max(2, params.k1 - 1)
        changes["k2"] = max(2, params.k2 - 1)
    if policy.hot_cap_step > 0 and screening.hot_click_cap < policy.hot_cap_ceiling:
        screening = screening.replace(
            hot_click_cap=min(
                policy.hot_cap_ceiling, screening.hot_click_cap + policy.hot_cap_step
            )
        )
    return params.replace(**changes), screening
