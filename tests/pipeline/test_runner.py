"""The detector's one Fig. 4 sequence, for ``detect`` and every recheck."""

from repro import obs
from repro.config import FeedbackPolicy, RICDParams
from repro.core.framework import RICDDetector
from repro.core.incremental import IncrementalRICD


def detector(**overrides):
    defaults = dict(params=RICDParams(k1=5, k2=5))
    defaults.update(overrides)
    return RICDDetector(**defaults)


class TestDetectionPipeline:
    def test_rounds_run_the_detector_modules(self, small, monkeypatch):
        calls = []

        class Counting(RICDDetector):
            def _run_modules(self, ctx):
                calls.append(ctx.region)
                return super()._run_modules(ctx)

        Counting(params=RICDParams(k1=5, k2=5)).detect(small.graph)
        assert calls == [None]

        # A regional recheck runs the same sequence method, once.
        runs = []
        sequence = RICDDetector._run

        def counting_run(self, ctx, kept=()):
            runs.append(ctx.region is not None)
            return sequence(self, ctx, kept)

        monkeypatch.setattr(RICDDetector, "_run", counting_run)
        online = IncrementalRICD(small.graph, params=RICDParams(k1=5, k2=5))
        assert runs == [False]  # the bootstrap detect
        for user in ("fresh_user", "other_user"):
            online.ingest([(user, "i1", 1)])
            online.recheck()
        assert runs == [False, True, True]


class TestFeedbackRoundsCounter:
    """``detect.feedback_rounds`` is emitted unconditionally (satellite)."""

    def test_zero_counter_without_feedback_policy(self, small):
        with obs.recording(obs.Recorder()) as recorder:
            result = detector(feedback=None).detect(small.graph)
        assert result.feedback_rounds == 0
        assert recorder.counters["detect.feedback_rounds"] == 0

    def test_counter_matches_rounds_with_feedback(self, small):
        params = RICDParams(k1=5, k2=5, t_click=40.0)
        policy = FeedbackPolicy(
            expectation=5, max_rounds=8, t_click_step=6.0, alpha_step=0.0
        )
        with obs.recording(obs.Recorder()) as recorder:
            result = detector(params=params, feedback=policy).detect(small.graph)
        assert result.feedback_rounds >= 1
        assert recorder.counters["detect.feedback_rounds"] == result.feedback_rounds


class TestTraceShape:
    def test_span_names_unchanged_by_the_refactor(self, small):
        """The pre-pipeline trace contract: same span names, same nesting."""
        with obs.recording(obs.Recorder()) as recorder:
            detector().detect(small.graph)
        report = recorder.report().to_dict()
        spans = set(report["spans"])
        for expected in (
            "detector.RICD",
            "detector.RICD.thresholds",
            "detector.RICD.extraction",
            "detector.RICD.screening",
            "detector.RICD.identification",
        ):
            assert expected in spans, f"missing span {expected}"

    def test_timings_keys_unchanged(self, small):
        result = detector().detect(small.graph)
        assert set(result.timings) == {"detection", "screening", "identification"}
