"""Canonical result forms shared by the equivalence suites.

The region, metamorphic, pipeline and differential tests compare
detection outputs through the same canonical, order-free forms, so
"identical" always means the same thing: same group decomposition
(users, items, hot items), same suspicious sets, same risk scores, same
metrics.
"""

from __future__ import annotations

from repro.eval.metrics import node_metrics


def canonical_groups(groups):
    """Order-free canonical form of a group list (hot items included)."""
    return {
        (
            frozenset(map(str, group.users)),
            frozenset(map(str, group.items)),
            frozenset(map(str, group.hot_items)),
        )
        for group in groups
    }


def canonical_result(result):
    """Everything observable about a result except wall-clock timings."""
    return (
        sorted(map(str, result.suspicious_users)),
        sorted(map(str, result.suspicious_items)),
        canonical_groups(result.groups),
        sorted((str(node), score) for node, score in result.user_scores.items()),
        sorted((str(node), score) for node, score in result.item_scores.items()),
        result.feedback_rounds,
    )


def scenario_metrics(result, scenario):
    """The evaluation-harness metrics of ``result`` on ``scenario``'s truth."""
    return node_metrics(
        result.suspicious_users,
        result.suspicious_items,
        scenario.truth.abnormal_users,
        scenario.truth.abnormal_items,
    )
