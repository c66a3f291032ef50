"""The Fig. 7 feedback parameter-adjustment loop, implemented once.

:class:`FeedbackDriver` relaxes the context's parameter pair with
:func:`repro.core.identification.adjust_parameters` and re-invokes a
round-runner — the detector's modules 1 + 2
(:meth:`~repro.core.framework.RICDDetector._run_modules`) over the same
context — until the output meets the end-user expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .. import obs
from ..core.identification import adjust_parameters, output_size
from ..errors import FeedbackExhaustedError, TransientWorkerError
from ..resilience.faults import inject
from .context import PipelineContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import FeedbackPolicy
    from ..core.groups import SuspiciousGroup

__all__ = ["FeedbackDriver"]

#: A round-runner: modules 1 + 2 under the context's *current* parameters.
RoundRunner = Callable[[PipelineContext], "list[SuspiciousGroup]"]


@dataclass(frozen=True)
class FeedbackDriver:
    """Drives the relaxation loop until the output meets the expectation.

    Parameters
    ----------
    policy:
        The Fig. 7 policy (expectation, max rounds, relaxation steps).
    strict:
        When the loop exhausts its rounds below the expectation: raise
        :class:`~repro.errors.FeedbackExhaustedError` if ``True``,
        otherwise return the best (largest) output seen across rounds.
    """

    policy: "FeedbackPolicy"
    strict: bool = False

    def drive(
        self,
        ctx: PipelineContext,
        screened: "list[SuspiciousGroup]",
        run_round: RoundRunner,
    ) -> "list[SuspiciousGroup]":
        """Relax ``ctx``'s parameters and re-run until the output suffices.

        ``screened`` is round zero's output (already computed by the
        caller).  Each relaxation round rewrites ``ctx.params`` /
        ``ctx.screening``, which ``run_round`` reads from the context.
        Records the round count on ``ctx.feedback_rounds``.

        Resilience: the loop honours ``ctx.deadline`` — no new
        relaxation round starts once the detection budget is spent — and
        a round that dies with a :class:`TransientWorkerError` ends the
        loop instead of losing the detection.  Either truncation returns
        the best output seen so far, records ``feedback.*`` degradation
        provenance on the context (the result is explicitly marked
        degraded) and suppresses the ``strict`` raise: an exhausted
        budget is not an exhausted policy.
        """
        policy = self.policy
        rounds = 0
        best = screened
        truncated = False
        while (
            output_size(screened) < policy.expectation and rounds < policy.max_rounds
        ):
            if ctx.deadline is not None and ctx.deadline.expired:
                obs.count("resilience.deadline_hits")
                ctx.record_degradation("feedback.deadline")
                truncated = True
                break
            ctx.params, ctx.screening = adjust_parameters(
                ctx.params, ctx.screening, policy
            )
            rounds += 1
            try:
                inject("feedback")
                screened = run_round(ctx)
            except TransientWorkerError:
                ctx.record_degradation(f"feedback.round{rounds}")
                truncated = True
                break
            if output_size(screened) > output_size(best):
                best = screened
        if output_size(screened) < policy.expectation:
            if self.strict and not truncated:
                raise FeedbackExhaustedError(
                    rounds, output_size(screened), policy.expectation
                )
            screened = best
        ctx.feedback_rounds = rounds
        return screened
