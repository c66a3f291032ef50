"""The shared state every pipeline stage reads and writes.

A :class:`PipelineContext` is one detection run's blackboard: the input
graph and the part of it extraction runs on, the current —
possibly feedback-relaxed — parameter pair, the stopwatch that produces
``DetectionResult.timings``, and the group list flowing from extraction
through screening into identification.  Stages communicate exclusively
through it, which is what lets the same :class:`~repro.pipeline.stages`
instances serve the detector, incremental and baseline ("+UI")
orchestrations without knowing which one is running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from .. import obs
from .._util import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..config import RICDParams, ScreeningParams
    from ..core.groups import DetectionResult, SuspiciousGroup
    from ..graph.bipartite import BipartiteGraph
    from ..resilience import Deadline

__all__ = ["PipelineContext"]

Node = Hashable


@dataclass
class PipelineContext:
    """Mutable per-run state threaded through every stage.

    Attributes
    ----------
    graph:
        The full input click graph.  Thresholds, screening, the size caps
        and identification always read this — ``T_hot``/``T_click`` are
        marketplace statistics, items split hot from ordinary by their
        marketplace totals, and risk scores rank against full-graph
        neighbourhoods — even when extraction runs on a part of it.
    working:
        The graph extraction runs on: the seed-expanded neighbourhood
        when business seeds were given, the dirty region's copy during a
        reference-engine incremental recheck, or ``graph`` itself
        (``None`` also means ``graph``).
    region:
        ``(user_mask, item_mask)`` over ``graph.indexed()``'s rows and
        columns, or ``None``.  Set by a bitset incremental recheck:
        extraction then runs on ``graph`` as if on the subgraph the masks
        induce, which is never built.  Apart from the item totals behind
        the hot/ordinary split, the later stages read only group
        members' rows, and members lie inside the region, so masked and
        copied rechecks agree.
    params, screening:
        The current parameter pair.  The feedback driver replaces these
        with relaxed copies between rounds; stages must read them from
        the context, never cache them.
    timer:
        Accumulates the phase timings (``detection`` / ``screening`` /
        ``identification``) that become ``DetectionResult.timings``.
    seed_users, seed_items:
        Known abnormal nodes from the business department (Algorithm 2).
    groups:
        The group list in flight: extraction writes it, screening and the
        size caps rewrite it, identification consumes it.
    result:
        The assembled :class:`~repro.core.groups.DetectionResult`, set by
        the identification stage.
    feedback_rounds:
        Rounds the Fig. 7 driver performed (0 when no loop ran).
    deadline:
        The run's soft wall-clock budget, or ``None``.  The feedback
        driver stops relaxing once it expires; the run always finishes
        (possibly degraded).
    degradations:
        Provenance of every graceful-degradation event this run absorbed
        (``"feedback.round1"``, ``"feedback.deadline"``).  Non-empty
        marks the assembled result ``degraded``.
    """

    graph: "BipartiteGraph"
    params: "RICDParams"
    screening: "ScreeningParams"
    timer: Stopwatch = field(default_factory=Stopwatch)
    seed_users: tuple[Node, ...] = ()
    seed_items: tuple[Node, ...] = ()
    working: "BipartiteGraph | None" = None
    region: "tuple[np.ndarray, np.ndarray] | None" = None
    groups: "list[SuspiciousGroup]" = field(default_factory=list)
    result: "DetectionResult | None" = None
    feedback_rounds: int = 0
    deadline: "Deadline | None" = None
    degradations: list[str] = field(default_factory=list)

    def record_degradation(self, what: str) -> None:
        """Note one graceful-degradation event (counted as a fallback)."""
        self.degradations.append(what)
        obs.count("resilience.fallbacks")
