"""Shared substrate of the attack zoo.

Every attack family in this package — the paper's own "Ride Item's
Coattails" model and the stronger families from the literature — builds
on the same three primitives:

* :class:`AttackGroup`, the per-campaign record of workers, targets and
  fake edges (unchanged from the original single-module injector, so the
  exact-ground-truth contract of :mod:`repro.eval.groundtruth` holds for
  every family);
* :class:`ClickBudget`, the spend ledger that makes campaigns comparable
  across families: a planner may only place clicks it ``take``s from the
  ledger, so "family X at budget B" means *exactly* B fake clicks hit the
  graph — the invariant the property suite pins;
* :class:`AttackPlan`, a campaign planned against a snapshot of the
  marketplace but not yet applied.  Plans support three consumption
  modes: one-shot :meth:`~AttackPlan.apply` (batch experiments),
  :meth:`~AttackPlan.schedule` (slow-drip lists of click records for the
  streaming service), and plain inspection (tests).

Planning and application are split because the *adaptive* variants need
to observe the deployed defense (resolved ``T_hot``/``T_click``) on the
pre-attack graph and because the slow-drip replay must emit the very same
edges the batch experiments see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from ...errors import DataGenError
from ...graph.bipartite import BipartiteGraph
from ..labels import GroundTruth

__all__ = [
    "AttackGroup",
    "AttackPlan",
    "ClickBudget",
    "worker_id",
    "target_id",
]

Node = Hashable


def worker_id(group_index: int, worker_index: int) -> str:
    """Canonical crowd-worker account id."""
    return f"w{group_index}_{worker_index}"


def target_id(group_index: int, target_index: int) -> str:
    """Canonical target-item id."""
    return f"t{group_index}_{target_index}"


@dataclass
class AttackGroup:
    """One injected attack group (any family).

    Attributes
    ----------
    group_id:
        Sequential index of the group.
    workers:
        Crowd-worker account ids (fresh and hijacked).
    hot_items:
        Existing hot items the group rides.
    target_items:
        Low-quality items being boosted.
    fake_edges:
        The injected ``(user, item, clicks)`` records, including hot and
        camouflage clicks — everything attributable to the attack.
    """

    group_id: int
    workers: list[Node] = field(default_factory=list)
    hot_items: list[Node] = field(default_factory=list)
    target_items: list[Node] = field(default_factory=list)
    fake_edges: list[tuple[Node, Node, int]] = field(default_factory=list)

    @property
    def fake_click_volume(self) -> int:
        """Total fake clicks injected by this group."""
        return sum(clicks for _user, _item, clicks in self.fake_edges)

    def __repr__(self) -> str:
        return (
            f"AttackGroup(id={self.group_id}, workers={len(self.workers)}, "
            f"hot={len(self.hot_items)}, targets={len(self.target_items)}, "
            f"fake_clicks={self.fake_click_volume})"
        )


class ClickBudget:
    """A strict fake-click spend ledger.

    Planners request clicks through :meth:`take`; the grant never exceeds
    what remains, so a finished plan's total spend can be compared to the
    configured budget exactly.  Families are written so that, for any
    budget at or above their documented minimum, they drain the ledger to
    zero — "budget 5000" then means 5000 clicks on the graph, no more, no
    less, regardless of family or adaptivity.
    """

    def __init__(self, total: int):
        if total < 1:
            raise DataGenError(f"click budget must be >= 1, got {total}")
        self.total = int(total)
        self.spent = 0

    @property
    def remaining(self) -> int:
        """Clicks still available to spend."""
        return self.total - self.spent

    @property
    def exhausted(self) -> bool:
        """Whether the ledger is drained."""
        return self.remaining <= 0

    def take(self, clicks: int) -> int:
        """Grant at most ``clicks`` from the remainder; returns the grant."""
        grant = max(0, min(int(clicks), self.remaining))
        self.spent += grant
        return grant

    def __repr__(self) -> str:
        return f"ClickBudget(spent={self.spent}/{self.total})"


@dataclass
class AttackPlan:
    """A fully planned, not-yet-applied campaign.

    Attributes
    ----------
    family:
        Registry name of the family that planned it.
    adaptive:
        Whether the plan was shaped against observed thresholds.
    budget:
        The click budget the planner drew from.
    groups:
        Planned groups; their ``fake_edges`` are the complete campaign.
    fresh_users, fresh_items:
        Nodes the campaign introduces (worker registrations, fresh target
        listings).  Hijacked accounts and ridden hot items are *not*
        listed here — they already exist in the marketplace.
    """

    family: str
    adaptive: bool
    budget: int
    groups: list[AttackGroup] = field(default_factory=list)
    fresh_users: set[Node] = field(default_factory=set)
    fresh_items: set[Node] = field(default_factory=set)

    @property
    def clicks_spent(self) -> int:
        """Total planned fake clicks across every group."""
        return sum(group.fake_click_volume for group in self.groups)

    @property
    def fake_edges(self) -> list[tuple[Node, Node, int]]:
        """Every planned ``(user, item, clicks)`` record, in plan order."""
        return [edge for group in self.groups for edge in group.fake_edges]

    def truth(self) -> GroundTruth:
        """Exact labels of the planned campaign."""
        truth = GroundTruth()
        for group in self.groups:
            truth.abnormal_users.update(group.workers)
            truth.abnormal_items.update(group.target_items)
            truth.groups.append(group)
        return truth

    def apply(self, graph: BipartiteGraph) -> GroundTruth:
        """Apply the whole campaign to ``graph`` in place; returns labels.

        Fresh nodes are registered first so even a worker whose edges were
        clipped by the budget still exists (and stays labelled — label
        soundness is a per-node property, not a per-edge one).
        """
        for user in sorted(self.fresh_users, key=str):
            graph.add_user(user)
        for item in sorted(self.fresh_items, key=str):
            graph.add_item(item)
        for user, item, clicks in self.fake_edges:
            graph.add_click(user, item, clicks)
        return self.truth()

    def unit_events(self) -> list[tuple[Node, Node, int]]:
        """The campaign as minimal click increments, in drip order.

        A planned 13-click edge becomes 13 unit events: the slow-drip
        shape, where no single batch moves any record past a threshold.
        Interleaved round-robin across edges so every batch touches many
        edges a little rather than one edge a lot.
        """
        remaining = [[user, item, clicks] for user, item, clicks in self.fake_edges]
        events: list[tuple[Node, Node, int]] = []
        while remaining:
            still = []
            for edge in remaining:
                user, item, clicks = edge
                events.append((user, item, 1))
                edge[2] = clicks - 1
                if edge[2] > 0:
                    still.append(edge)
            remaining = still
        return events

    def schedule(self, n_batches: int) -> list[list[tuple[Node, Node, int]]]:
        """Split the campaign into ``n_batches`` slow-drip lists of click records.

        Replaying every batch (in any order — clicks are additive)
        produces exactly the same final table as :meth:`apply`, which is
        the invariant the serve-parity difftest pins.
        """
        if n_batches < 1:
            raise DataGenError(f"n_batches must be >= 1, got {n_batches}")
        events = self.unit_events()
        size = max(1, -(-len(events) // n_batches))  # ceil division
        return [events[start : start + size] for start in range(0, len(events), size)]

    def __repr__(self) -> str:
        return (
            f"AttackPlan(family={self.family!r}, adaptive={self.adaptive}, "
            f"groups={len(self.groups)}, spent={self.clicks_spent}/{self.budget})"
        )


def uniform_int(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    """One uniform draw from an inclusive ``(low, high)`` range."""
    low, high = bounds
    return int(rng.integers(low, high + 1))


def pick_hot_items(
    graph: BipartiteGraph,
    count: int,
    rng: np.random.Generator,
    hot_pool: Sequence[Node],
) -> list[Node]:
    """Sample ``count`` items from a precomputed hot pool."""
    if not hot_pool:
        raise DataGenError("cannot inject attacks: graph has no hot items")
    indices = rng.choice(len(hot_pool), size=min(count, len(hot_pool)), replace=False)
    return [hot_pool[int(index)] for index in indices]
