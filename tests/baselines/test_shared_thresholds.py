"""The "+UI" wrapper and RICD share one memo of resolved thresholds.

:class:`WithScreening` resolves through the same
:class:`~repro.pipeline.stages.ResolveThresholds` stage as
:class:`~repro.core.framework.RICDDetector`, and the stage memoizes in
the graph snapshot's ``derived`` cache.  A Fig. 8 suite therefore derives
``pareto_hot_threshold`` / ``t_click_from_graph`` once per graph version,
not once per method.
"""

from dataclasses import dataclass

import repro.pipeline.stages as stages_module
from repro import obs
from repro.baselines import WithScreening
from repro.core.framework import RICDDetector
from repro.core.groups import DetectionResult


@dataclass
class _NullInner:
    """A grouped detector that finds nothing (threshold use is the test)."""

    name: str = "Null"

    def detect(self, graph):
        return DetectionResult()


class TestSharedThresholdResolution:
    def test_suite_of_wrappers_derives_once_per_graph_state(self, small, monkeypatch):
        calls = {"t_hot": 0, "t_click": 0}
        real_hot = stages_module.pareto_hot_threshold
        real_click = stages_module.t_click_from_graph

        def counting_hot(graph):
            calls["t_hot"] += 1
            return real_hot(graph)

        def counting_click(graph):
            calls["t_click"] += 1
            return real_click(graph)

        monkeypatch.setattr(stages_module, "pareto_hot_threshold", counting_hot)
        monkeypatch.setattr(stages_module, "t_click_from_graph", counting_click)

        # A fresh copy guarantees a cold memo regardless of test order.
        graph = small.graph.copy()
        WithScreening(_NullInner()).detect(graph)
        WithScreening(_NullInner(name="Null2")).detect(graph)
        assert calls == {"t_hot": 1, "t_click": 1}

    def test_ricd_and_a_wrapper_share_one_derivation(self, small):
        graph = small.graph.copy()
        with obs.recording(obs.Recorder()) as recorder:
            RICDDetector().detect(graph)
            WithScreening(_NullInner()).detect(graph)
        assert recorder.counters.get("detect.threshold_cache_misses", 0) == 1
        assert recorder.counters.get("detect.threshold_cache_hits", 0) == 1

    def test_mutation_triggers_rederivation(self, small, monkeypatch):
        calls = {"n": 0}
        real_hot = stages_module.pareto_hot_threshold

        def counting_hot(graph):
            calls["n"] += 1
            return real_hot(graph)

        monkeypatch.setattr(stages_module, "pareto_hot_threshold", counting_hot)
        graph = small.graph.copy()
        WithScreening(_NullInner()).detect(graph)
        graph.add_click("fresh_user", "fresh_item", 3)
        WithScreening(_NullInner()).detect(graph)
        assert calls["n"] == 2

    def test_explicit_thresholds_skip_derivation(self, small, monkeypatch):
        def forbidden(graph):  # pragma: no cover - must never run
            raise AssertionError("explicit thresholds must not derive")

        monkeypatch.setattr(stages_module, "pareto_hot_threshold", forbidden)
        monkeypatch.setattr(stages_module, "t_click_from_graph", forbidden)
        wrapper = WithScreening(_NullInner(), t_hot=60.0, t_click=12.0)
        result = wrapper.detect(small.graph.copy())
        assert result.suspicious_users == set()
