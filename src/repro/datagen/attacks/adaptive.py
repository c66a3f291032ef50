"""Adaptive shaping: attacks that observe the deployed defense.

The paper assumes attackers "have complete knowledge of how the
recommendation system works and the attack detection mechanisms"
(Section III-A).  The static families in this package ignore that power;
the *adaptive* variants use it.  Concretely an adaptive planner:

1. **observes** the thresholds the detector would resolve on the current
   marketplace — the Pareto ``T_hot`` and the Eq. 4 ``T_click`` — via
   :class:`ObservedDefense` (the same derivations
   :class:`~repro.pipeline.stages.ResolveThresholds` runs, so the
   observation is exact, not an estimate);
2. **shapes** its click placement to sit *under* those thresholds:
   per-edge target clicks capped at ``T_click - 1``
   (:meth:`ObservedDefense.capped`), hot rides padded up to the
   screening module's organic-looking band
   (:meth:`ObservedDefense.hot_pad`), camouflage volume increased;
3. optionally **straddles** organic communities
   (:func:`straddle_anchors`) so naive partitioners would tear the
   group, and **slow-drips** the campaign over the stream clock
   (:meth:`~repro.datagen.attacks.base.AttackPlan.schedule`) so no
   single micro-batch moves a record past a threshold.

Shaping never changes a campaign's *budget*, only its geometry: the same
clicks spread over more edges, more workers, and more time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from ...core.thresholds import pareto_hot_threshold, t_click_from_graph
from ...graph.bipartite import BipartiteGraph

__all__ = ["ObservedDefense", "straddle_anchors"]

Node = Hashable


@dataclass(frozen=True)
class ObservedDefense:
    """What a fully informed attacker reads off the deployed detector.

    Attributes
    ----------
    t_hot:
        The resolved hot-item threshold (total clicks).
    t_click:
        The resolved abnormal-click threshold (Eq. 4).
    hot_click_cap:
        The screening module's organic-looking band for mean hot-item
        clicks (users at or above it are cleared by the user behaviour
        check — Section IV-A's "< 4" observation turned into a defense).
    """

    t_hot: float
    t_click: float
    hot_click_cap: float = 4.0

    @classmethod
    def observe(
        cls, graph: BipartiteGraph, hot_click_cap: float = 4.0
    ) -> "ObservedDefense":
        """Resolve the thresholds exactly as the detector would.

        Uses the same Section IV derivations the framework's
        ``ResolveThresholds`` stage runs on the pre-attack marketplace —
        the white-box observation the paper's threat model grants.
        """
        return cls(
            t_hot=float(pareto_hot_threshold(graph)),
            t_click=float(t_click_from_graph(graph)),
            hot_click_cap=hot_click_cap,
        )

    @property
    def sub_threshold_clicks(self) -> int:
        """The largest per-edge click count that is *not* abnormal."""
        return max(1, int(self.t_click) - 1)

    def capped(self, desired: int) -> int:
        """``desired`` clicks, clipped under the abnormal-click threshold."""
        return max(1, min(int(desired), self.sub_threshold_clicks))

    @property
    def hot_pad(self) -> int:
        """Hot-item clicks per ride that make a worker look organic.

        The user behaviour check clears users whose *mean* hot-item
        clicks reach ``hot_click_cap``; an adaptive worker therefore
        rides each hot item exactly that often instead of the Eq. 3
        optimum of once.
        """
        return max(1, int(np.ceil(self.hot_click_cap)))


def straddle_anchors(
    graph: BipartiteGraph,
    rng: np.random.Generator,
    n_anchors: int = 2,
    exclude: frozenset[Node] | set[Node] = frozenset(),
) -> list[Node]:
    """Low-degree items from ``n_anchors`` distinct users' neighbourhoods.

    Component-straddling camouflage: each returned item anchors the
    campaign into a different organic user's community, so a node-level
    (hash/range) partition of the graph would scatter the attack group
    across workers, leaving each a fragment below the core floors.
    Anchor users are sampled without replacement; from each, the
    least-clicked neighbouring item is chosen (cheap to ride, unlikely to
    be hot).
    """
    users = [user for user in graph.users() if graph.user_degree(user) > 0]
    if not users or n_anchors < 1:
        return []
    chosen = rng.choice(len(users), size=min(n_anchors, len(users)), replace=False)
    anchors: list[Node] = []
    for index in np.atleast_1d(chosen):
        user = users[int(index)]
        neighbours = [
            item for item in graph.user_neighbors(user) if item not in exclude
        ]
        if not neighbours:
            continue
        anchor = min(neighbours, key=lambda item: (graph.item_total_clicks(item), str(item)))
        if anchor not in anchors:
            anchors.append(anchor)
    return anchors
