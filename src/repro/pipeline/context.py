"""The shared state every pipeline stage reads and writes.

A :class:`PipelineContext` is one detection run's blackboard: the input
graph and its (possibly seed-pruned) working subgraph, the current —
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
        The full input click graph.  Thresholds and identification always
        read this — ``T_hot``/``T_click`` are marketplace statistics and
        risk scores rank against full-graph neighbourhoods — even when
        modules run on a pruned ``working`` graph.
    working:
        The graph modules 1 + 2 actually run on: the seed-expanded
        neighbourhood when business seeds were given, the dirty region
        during an incremental recheck, or ``graph`` itself.
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
    groups: "list[SuspiciousGroup]" = field(default_factory=list)
    result: "DetectionResult | None" = None
    feedback_rounds: int = 0
    deadline: "Deadline | None" = None
    degradations: list[str] = field(default_factory=list)

    def working_graph(self) -> "BipartiteGraph":
        """The graph modules run on (defaults to the full graph)."""
        return self.working if self.working is not None else self.graph

    def record_degradation(self, what: str) -> None:
        """Note one graceful-degradation event (counted as a fallback)."""
        self.degradations.append(what)
        obs.count("resilience.fallbacks")
