"""The fault matrix: every instrumented site × every fault flavour.

The contract under test is the degradation ladder's one invariant:
**no silent output loss**.  Whatever is injected, a detection either

* produces the canonically identical result (the fault only delayed it), or
* produces the canonically identical result *and* carries explicit
  ``degraded`` provenance naming what was cut short, or
* raises the typed :class:`~repro.errors.InjectedFaultError`, or
* (incremental recheck only) keeps the previous result, explicitly
  marked ``stale``.

A run that dropped groups without saying so would pass none of these;
the ``reference`` fixture asserts the planted groups are found, so the
comparisons are never between empty results.
"""

import pytest

from repro import obs
from repro.config import FeedbackPolicy, RICDParams, ScreeningParams
from repro.core.incremental import IncrementalRICD
from repro.errors import InjectedFaultError
from repro.resilience import FaultInjector, injecting

from .conftest import canonical, make_detector


@pytest.fixture(scope="module")
def reference(federation):
    """The fault-free detection everything is compared against."""
    result = make_detector().detect(federation)
    assert len(result.groups) == 3  # one planted group per region
    return result


class TestModuleSiteFaults:
    """Faults inside modules 1 + 2."""

    @pytest.mark.parametrize("site", ["extraction", "screening"])
    def test_error_propagates_typed(self, federation, site):
        # No fallback exists for a one-pass detection: the fault surfaces
        # as the typed, retryable error instead of an empty result.
        with injecting(FaultInjector(error=1.0, sites=(site,), max_faults=1)):
            with pytest.raises(InjectedFaultError) as excinfo:
                make_detector().detect(federation)
        assert excinfo.value.site == site

    @pytest.mark.parametrize("site", ["extraction", "screening"])
    def test_hang_only_delays(self, federation, reference, site):
        with injecting(
            FaultInjector(hang=1.0, hang_seconds=0.01, sites=(site,), max_faults=2)
        ):
            result = make_detector().detect(federation)
        assert canonical(result) == canonical(reference)
        assert not result.degraded


class TestFeedbackFaults:
    def _policy(self):
        # An unreachable expectation forces relaxation rounds.
        return FeedbackPolicy(expectation=10**6, max_rounds=3)

    def test_faulted_round_truncates_with_provenance(self, federation, reference):
        with injecting(FaultInjector(error=1.0, sites=("feedback",), max_faults=1)):
            result = make_detector(feedback=self._policy()).detect(federation)
        # Round zero's output survives; the loop stopped at round one.
        assert canonical(result) == canonical(reference)
        assert result.degraded
        assert result.degradations == ("feedback.round1",)
        assert result.feedback_rounds == 1

    def test_strict_raise_suppressed_on_truncation(self, federation):
        with injecting(FaultInjector(error=1.0, sites=("feedback",), max_faults=1)):
            result = make_detector(
                feedback=self._policy(), strict_feedback=True
            ).detect(federation)
        assert result.degraded  # no FeedbackExhaustedError: budget != policy

    def test_deadline_stops_new_rounds(self, federation, reference):
        recorder = obs.Recorder()
        with obs.recording(recorder):
            result = make_detector(
                feedback=self._policy(), deadline=1e-6
            ).detect(federation)
        assert canonical(result) == canonical(reference)
        assert result.degraded
        assert "feedback.deadline" in result.degradations
        assert result.feedback_rounds == 0
        assert recorder.counters["resilience.deadline_hits"] >= 1


class TestRecheckFaults:
    def _online(self, federation):
        return IncrementalRICD(
            federation,
            params=RICDParams(k1=4, k2=3),
            screening=ScreeningParams(min_users=2, min_items=2),
        )

    def test_failed_recheck_keeps_previous_result_as_stale(self, federation):
        online = self._online(federation)
        bootstrap = canonical(online.current_result)
        recorder = obs.Recorder()
        with obs.recording(recorder):
            with injecting(FaultInjector(error=1.0, sites=("recheck",), max_faults=1)):
                online.ingest([("fresh", "r0:i0", 3)])
                result = online.recheck()
        assert result.stale
        assert canonical(result) == bootstrap  # previous result, kept valid
        assert online.dirty_size == 2  # region retained for the next pass
        assert recorder.counters["resilience.stale_rechecks"] == 1

    def test_next_recheck_recovers_the_retained_region(self, federation):
        online = self._online(federation)
        with injecting(FaultInjector(error=1.0, sites=("recheck",), max_faults=1)):
            online.ingest([("fresh", "r0:i0", 3)])
            online.recheck()
            result = online.recheck()  # budget spent: this one succeeds
        assert not result.stale
        assert online.dirty_size == 0
        # The recovered state equals a recheck that never failed.
        witness = self._online(federation)
        witness.ingest([("fresh", "r0:i0", 3)])
        witness.recheck()
        assert canonical(result) == canonical(witness.current_result)


class TestNoiseFloor:
    def test_disabled_injection_changes_nothing(self, federation, reference):
        recorder = obs.Recorder()
        with obs.recording(recorder):
            result = make_detector(deadline=3600.0).detect(federation)
        assert canonical(result) == canonical(reference)
        assert not result.degraded
        assert "resilience.retries" not in recorder.counters
        assert "resilience.fallbacks" not in recorder.counters
        assert not any(k.startswith("resilience.injected") for k in recorder.counters)
