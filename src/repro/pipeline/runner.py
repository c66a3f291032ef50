"""The detection pipeline runner: one orchestration for every path.

:class:`DetectionPipeline` wires the stage instances together in the
Fig. 4 order — threshold resolution, seed expansion, modules 1 + 2 over
the working graph (optionally re-driven by the Fig. 7 feedback loop),
then identification — and produces a fully populated
:class:`~repro.core.groups.DetectionResult`.  The detector's ``detect``
builds a plan and hands it here; nothing else re-implements sequencing,
timing, or the feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .. import obs
from .._util import Stopwatch
from ..resilience import Deadline
from .context import PipelineContext
from .feedback import FeedbackDriver
from .stages import Identification, ResolveThresholds, SeedExpansion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import RICDParams, ScreeningParams
    from ..core.framework import RICDDetector
    from ..core.groups import DetectionResult, SuspiciousGroup
    from ..graph.bipartite import BipartiteGraph

__all__ = ["DetectionPipeline"]


@dataclass
class DetectionPipeline:
    """A fully assembled detection plan, ready to run against a graph.

    Parameters
    ----------
    thresholds, seed, identify:
        The shared head and tail stages.  ``thresholds`` is typically the
        owning detector's memoized resolver so repeated runs reuse the
        derived marketplace statistics.
    modules:
        The detector whose ``_run_modules`` (extraction → screening →
        size caps) each round runs, so subclass overrides apply.
    feedback:
        The Fig. 7 driver, or ``None`` when the detector runs without a
        feedback policy.  Either way ``detect.feedback_rounds`` is
        emitted (0 without a loop), so traces from feedback-enabled and
        feedback-disabled runs line up.
    deadline_seconds:
        Soft wall-clock budget for the whole detection, or ``None``.
        The clock starts when :meth:`run` is entered; expiry stops new
        feedback rounds — the run always completes, possibly marked
        degraded, never truncated silently.
    """

    thresholds: ResolveThresholds
    seed: SeedExpansion
    modules: "RICDDetector"
    identify: Identification
    feedback: "FeedbackDriver | None" = None
    deadline_seconds: "float | None" = None

    def run_round(self, ctx: PipelineContext) -> "list[SuspiciousGroup]":
        """Modules 1 + 2 over the working graph under the context's parameters."""
        return self.modules._run_modules(
            ctx.working_graph(), ctx.params, ctx.screening, ctx.timer
        )

    def run(
        self,
        graph: "BipartiteGraph",
        params: "RICDParams",
        screening: "ScreeningParams",
        seed_users: "tuple" = (),
        seed_items: "tuple" = (),
    ) -> "DetectionResult":
        """Execute the plan and return the assembled result."""
        ctx = PipelineContext(
            graph=graph,
            params=params,
            screening=screening,
            timer=Stopwatch(),
            seed_users=tuple(seed_users),
            seed_items=tuple(seed_items),
            deadline=Deadline.start(self.deadline_seconds),
        )
        self.thresholds.run(ctx)
        self.seed.run(ctx)
        screened = self.run_round(ctx)
        if self.feedback is not None:
            screened = self.feedback.drive(ctx, screened, self.run_round)
        obs.count("detect.feedback_rounds", ctx.feedback_rounds)
        ctx.groups = screened
        self.identify.run(ctx)
        result = ctx.result
        result.timings = dict(ctx.timer.durations)
        result.feedback_rounds = ctx.feedback_rounds
        if ctx.degradations:
            result.degraded = True
            result.degradations = tuple(ctx.degradations)
            obs.gauge("detect.degraded", True)
        return result
