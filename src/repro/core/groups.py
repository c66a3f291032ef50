"""Shared result types for detectors.

Both the RICD framework and every baseline emit the same shapes:

* :class:`SuspiciousGroup` — one candidate attack group, the unit that
  flows between the detection, screening and identification modules;
* :class:`DetectionResult` — the final answer of the problem definition
  (Section III-B): the suspicious user set ``U_sus`` and suspicious target
  item set ``V_sus``, the per-group decomposition, risk scores, and the
  per-phase wall-clock timings used by the Fig. 8b comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

__all__ = ["SuspiciousGroup", "DetectionResult"]

Node = Hashable


@dataclass
class SuspiciousGroup:
    """A candidate "Ride Item's Coattails" attack group.

    Attributes
    ----------
    users:
        Candidate crowd-worker accounts.
    items:
        Candidate items.  Before screening this may mix hot items and
        targets; after screening it holds suspicious target items only.
    hot_items:
        Hot items associated with the group (populated by screening, which
        separates ridden hot items from boosted targets).
    """

    users: set[Node] = field(default_factory=set)
    items: set[Node] = field(default_factory=set)
    hot_items: set[Node] = field(default_factory=set)

    @property
    def size(self) -> int:
        """Total suspicious node count (users + items, hot items excluded)."""
        return len(self.users) + len(self.items)

    def copy(self) -> "SuspiciousGroup":
        """Independent copy (screening mutates groups destructively)."""
        return SuspiciousGroup(
            users=set(self.users),
            items=set(self.items),
            hot_items=set(self.hot_items),
        )

    def __repr__(self) -> str:
        return (
            f"SuspiciousGroup(users={len(self.users)}, items={len(self.items)}, "
            f"hot={len(self.hot_items)})"
        )


@dataclass
class DetectionResult:
    """The output of a detector run.

    Attributes
    ----------
    suspicious_users:
        ``U_sus`` — union of group user sets.
    suspicious_items:
        ``V_sus`` — union of group (target) item sets.
    groups:
        Per-group decomposition, largest first.
    user_scores, item_scores:
        Risk scores from the identification module (empty for detectors
        that do not score).  Higher means more suspicious.
    timings:
        Wall-clock seconds per phase, e.g. ``{"detection": ..., "screening":
        ..., "identification": ...}``.
    feedback_rounds:
        Number of parameter-relaxation rounds the Fig. 7 loop performed
        (0 when the first run met the expectation or no loop was used).
    degraded:
        ``True`` when the run absorbed a graceful-degradation event (a
        deadline or a failed round truncated the feedback loop, which
        then returned the best output seen so far); wall-clocks of
        degraded runs are not benchmark-comparable.
    degradations:
        Per-event provenance, e.g. ``("feedback.round1",)`` — exactly
        which step was cut short.
    stale:
        Set by :class:`~repro.core.incremental.IncrementalRICD` when a
        recheck failed and this (previous, still valid) result was kept;
        the dirty region is retained and re-covered by the next recheck.
    """

    suspicious_users: set[Node] = field(default_factory=set)
    suspicious_items: set[Node] = field(default_factory=set)
    groups: list[SuspiciousGroup] = field(default_factory=list)
    user_scores: dict[Node, float] = field(default_factory=dict)
    item_scores: dict[Node, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    feedback_rounds: int = 0
    degraded: bool = False
    degradations: tuple[str, ...] = ()
    stale: bool = False

    @property
    def suspicious_nodes(self) -> set[Node]:
        """Union of suspicious users and items."""
        return self.suspicious_users | self.suspicious_items

    @property
    def elapsed(self) -> float:
        """Total recorded wall-clock time across phases, in seconds."""
        return sum(self.timings.values())

    def top_users(self, k: int) -> list[tuple[Node, float]]:
        """The ``k`` highest-risk users, score-descending (ties by id)."""
        ranked = sorted(
            self.user_scores.items(), key=lambda pair: (-pair[1], str(pair[0]))
        )
        return ranked[:k]

    def top_items(self, k: int) -> list[tuple[Node, float]]:
        """The ``k`` highest-risk items, score-descending (ties by id)."""
        ranked = sorted(
            self.item_scores.items(), key=lambda pair: (-pair[1], str(pair[0]))
        )
        return ranked[:k]

    @staticmethod
    def from_groups(groups: list[SuspiciousGroup]) -> "DetectionResult":
        """Assemble a result from groups (no scores, no timings)."""
        result = DetectionResult(groups=list(groups))
        for group in groups:
            result.suspicious_users |= group.users
            result.suspicious_items |= group.items
        return result

    def __repr__(self) -> str:
        return (
            f"DetectionResult(users={len(self.suspicious_users)}, "
            f"items={len(self.suspicious_items)}, groups={len(self.groups)}, "
            f"elapsed={self.elapsed:.3f}s)"
        )
