"""Unit tests for the single Fig. 7 feedback-loop implementation."""

import pytest

from repro.config import FeedbackPolicy, RICDParams, ScreeningParams
from repro.core.groups import SuspiciousGroup
from repro.errors import FeedbackExhaustedError
from repro.graph import BipartiteGraph
from repro.pipeline import FeedbackDriver, PipelineContext


def make_ctx(t_click=22.0):
    return PipelineContext(
        graph=BipartiteGraph(),
        params=RICDParams(k1=4, k2=4, t_hot=50.0, t_click=t_click),
        screening=ScreeningParams(),
    )


def group_of(n):
    """A group with ``n`` users and ``n`` items (output size ``2 n``)."""
    return SuspiciousGroup(
        users={f"u{i}" for i in range(n)}, items={f"i{j}" for j in range(n)}
    )


class TestFeedbackDriver:
    def test_relaxes_until_expectation_met(self):
        # t_click walks 22 -> 16 -> 10; the round runner "finds" a group
        # once the threshold is low enough, like a real relaxation would.
        policy = FeedbackPolicy(
            expectation=6, max_rounds=5, t_click_step=6.0, alpha_step=0.0
        )
        ctx = make_ctx(t_click=22.0)

        def run_round(context):
            return [group_of(3)] if context.params.t_click <= 10.0 else []

        screened = FeedbackDriver(policy).drive(ctx, [], run_round)
        assert ctx.feedback_rounds == 2
        assert ctx.params.t_click == 10.0
        assert [len(group.users) for group in screened] == [3]

    def test_zero_rounds_when_round_zero_suffices(self):
        policy = FeedbackPolicy(
            expectation=4, max_rounds=5, t_click_step=6.0, alpha_step=0.0
        )
        ctx = make_ctx()
        initial = [group_of(2)]

        def run_round(context):  # pragma: no cover - must never run
            raise AssertionError("round runner called despite met expectation")

        screened = FeedbackDriver(policy).drive(ctx, initial, run_round)
        assert screened is initial
        assert ctx.feedback_rounds == 0

    def test_strict_exhaustion_raises(self):
        policy = FeedbackPolicy(
            expectation=10_000, max_rounds=2, t_click_step=1.0, alpha_step=0.0
        )
        ctx = make_ctx()
        with pytest.raises(FeedbackExhaustedError):
            FeedbackDriver(policy, strict=True).drive(ctx, [], lambda context: [])

    def test_lenient_exhaustion_returns_best_round(self):
        # Rounds produce shrinking outputs; the driver must hand back the
        # largest output seen, not the last.
        policy = FeedbackPolicy(
            expectation=10_000, max_rounds=3, t_click_step=1.0, alpha_step=0.0
        )
        ctx = make_ctx()
        sizes = iter([4, 2, 1])

        def run_round(context):
            return [group_of(next(sizes))]

        screened = FeedbackDriver(policy).drive(ctx, [], run_round)
        assert ctx.feedback_rounds == 3
        assert [len(group.users) for group in screened] == [4]

    def test_relaxed_parameters_land_on_the_context(self):
        # Every round rewrites ctx.params/ctx.screening, which is where
        # the pipeline's run_round reads the relaxed values from.
        policy = FeedbackPolicy(
            expectation=10_000, max_rounds=2, t_click_step=5.0, alpha_step=0.0
        )
        ctx = make_ctx(t_click=20.0)
        seen = []

        def run_round(context):
            seen.append(context.params.t_click)
            return []

        FeedbackDriver(policy).drive(ctx, [], run_round)
        assert seen == [15.0, 10.0]
        assert ctx.params.t_click == 10.0
