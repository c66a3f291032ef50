"""Tests for the assembled RICD framework."""

import pytest

from repro.config import FeedbackPolicy, RICDParams, ScreeningParams
from repro.core.framework import (
    VARIANT_FULL,
    VARIANT_NO_ITEM,
    VARIANT_NO_SCREEN,
    RICDDetector,
)
from repro.errors import FeedbackExhaustedError

from ..conftest import make_biclique


def detector(**overrides):
    defaults = dict(params=RICDParams(k1=5, k2=5))
    defaults.update(overrides)
    return RICDDetector(**defaults)


class TestBasics:
    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            RICDDetector(variant="nonsense")

    def test_names(self):
        assert RICDDetector().name == "RICD"
        assert RICDDetector(variant=VARIANT_NO_ITEM).name == "RICD-I"
        assert RICDDetector(variant=VARIANT_NO_SCREEN).name == "RICD-UI"

    def test_input_graph_untouched(self, small):
        before = small.graph.copy()
        detector().detect(small.graph)
        assert small.graph == before

    def test_timings_recorded(self, small):
        result = detector().detect(small.graph)
        assert set(result.timings) >= {"detection", "screening", "identification"}

    def test_threshold_resolution(self, small):
        resolved = detector().resolve_thresholds(small.graph)
        assert resolved.t_hot is not None
        assert resolved.t_click is not None

    def test_explicit_thresholds_respected(self, small):
        params = RICDParams(k1=5, k2=5, t_hot=123.0, t_click=9.0)
        resolved = RICDDetector(params=params).resolve_thresholds(small.graph)
        assert resolved.t_hot == 123.0
        assert resolved.t_click == 9.0


class TestDetectionQuality:
    def test_catches_planted_workers(self, small):
        result = detector().detect(small.graph)
        caught = result.suspicious_users & small.truth.abnormal_users
        assert len(caught) >= 0.4 * len(small.truth.abnormal_users)

    def test_exact_precision_is_high(self, small):
        result = detector().detect(small.graph)
        truth_nodes = small.truth.abnormal_nodes
        output = result.suspicious_nodes
        assert output, "detector found nothing"
        precision = len(output & truth_nodes) / len(output)
        assert precision >= 0.7

    def test_variant_precision_ordering(self, small):
        """Table VI: precision rises RICD-UI -> RICD-I -> RICD."""
        precisions = {}
        for variant in (VARIANT_NO_SCREEN, VARIANT_NO_ITEM, VARIANT_FULL):
            result = detector(variant=variant).detect(small.graph)
            output = result.suspicious_nodes
            hits = len(output & small.truth.abnormal_nodes)
            precisions[variant] = hits / len(output) if output else 0.0
        assert precisions[VARIANT_NO_SCREEN] <= precisions[VARIANT_NO_ITEM]
        assert precisions[VARIANT_NO_ITEM] <= precisions[VARIANT_FULL]

    def test_scores_cover_output(self, small):
        result = detector().detect(small.graph)
        assert set(result.user_scores) == result.suspicious_users
        assert set(result.item_scores) == result.suspicious_items


class TestSeedExpansionPath:
    def test_seeded_detection_finds_seeded_group(self, small):
        group = small.truth.groups[0]
        seed = group.workers[0]
        result = detector().detect(small.graph, seed_users=[seed])
        # Detection restricted to the seed neighbourhood still finds the
        # seeded group's members (if that group is detectable at all).
        full = detector().detect(small.graph)
        if set(group.workers) & full.suspicious_users:
            assert set(group.workers) & result.suspicious_users

    def test_seeded_output_is_subset_of_full(self, small):
        seed = small.truth.groups[0].workers[0]
        seeded = detector().detect(small.graph, seed_users=[seed])
        full = detector().detect(small.graph)
        assert seeded.suspicious_users <= full.suspicious_users

    def test_unknown_seed_yields_empty(self, small):
        result = detector().detect(small.graph, seed_users=["no_such_user"])
        assert not result.suspicious_users


class TestGroupSizeCap:
    def test_cap_drops_oversized_groups(self):
        from repro.graph import BipartiteGraph

        graph = BipartiteGraph()
        # A "swarm": 12 users x 6 items, heavy clicks (attack-like).
        make_biclique(graph, 12, 6, clicks=15, user_prefix="sw", item_prefix="si")
        # Organic volume so the swarm items stay below t_hot.
        for index in range(400):
            graph.add_click(f"bg{index}", "popular", 3)
        capped = RICDDetector(
            params=RICDParams(k1=5, k2=5, t_hot=500.0, t_click=10.0),
            screening=ScreeningParams(min_users=2, min_items=2),
            max_group_users=8,
        )
        assert capped.detect(graph).suspicious_users == set()
        uncapped = RICDDetector(
            params=RICDParams(k1=5, k2=5, t_hot=500.0, t_click=10.0),
            screening=ScreeningParams(min_users=2, min_items=2),
            max_group_users=None,
        )
        assert len(uncapped.detect(graph).suspicious_users) == 12


class TestFeedbackLoop:
    def test_no_feedback_zero_rounds(self, small):
        result = detector().detect(small.graph)
        assert result.feedback_rounds == 0

    def test_feedback_relaxes_until_expectation(self, small):
        # Force an initially-empty output with an absurd t_click, then let
        # the loop walk it down.
        params = RICDParams(k1=5, k2=5, t_click=40.0)
        policy = FeedbackPolicy(expectation=5, max_rounds=8, t_click_step=6.0, alpha_step=0.0)
        strict = RICDDetector(params=params, feedback=None).detect(small.graph)
        looped = RICDDetector(params=params, feedback=policy).detect(small.graph)
        assert len(looped.suspicious_nodes) >= len(strict.suspicious_nodes)
        assert looped.feedback_rounds >= 1

    def test_strict_feedback_raises_when_exhausted(self, small):
        params = RICDParams(k1=5, k2=5, t_click=500.0, t_hot=1.0)
        policy = FeedbackPolicy(
            expectation=10_000, max_rounds=1, t_click_step=1.0, alpha_step=0.0
        )
        strict = RICDDetector(
            params=params, feedback=policy, strict_feedback=True
        )
        with pytest.raises(FeedbackExhaustedError):
            strict.detect(small.graph)

    def test_lenient_feedback_returns_best(self, small):
        params = RICDParams(k1=5, k2=5, t_click=500.0, t_hot=1.0)
        policy = FeedbackPolicy(
            expectation=10_000, max_rounds=1, t_click_step=1.0, alpha_step=0.0
        )
        result = RICDDetector(params=params, feedback=policy).detect(small.graph)
        assert result.feedback_rounds == 1  # tried, gave up, returned best


class TestEngines:
    def test_invalid_engine_rejected(self):
        for engine in ("gpu", "sparse"):
            with pytest.raises(ValueError):
                RICDDetector(engine=engine)

    @pytest.mark.parametrize("engine", ["bitset", "auto"])
    def test_engines_agree_with_reference(self, small, engine):
        reference = detector(engine="reference").detect(small.graph)
        other = detector(engine=engine).detect(small.graph)
        assert other.suspicious_users == reference.suspicious_users
        assert other.suspicious_items == reference.suspicious_items

    def test_default_engine_is_bitset(self):
        assert RICDDetector().engine == "bitset"

    def test_auto_spelling_maps_to_bitset(self):
        assert RICDDetector(engine="auto").engine == "bitset"


class TestThresholdCache:
    def test_resolution_memoized_per_version(self, small):
        d = detector()
        first = d.resolve_thresholds(small.graph)
        assert d.resolve_thresholds(small.graph) is first

    def test_mutation_invalidates_resolution(self, small):
        d = detector()
        graph = small.graph.copy()
        first = d.resolve_thresholds(graph)
        # A new heavy item moves the Pareto mass, so the cache must miss.
        for n in range(40):
            graph.add_click(f"cache_u{n}", "cache_hot", 500)
        second = d.resolve_thresholds(graph)
        assert second is not first

    def test_detector_with_cache_still_pickles(self, small):
        import pickle

        d = detector()
        d.resolve_thresholds(small.graph)
        clone = pickle.loads(pickle.dumps(d))
        assert clone.params == d.params
        assert clone.resolve_thresholds(small.graph).t_hot is not None


def test_detect_on_a_built_graph_rebuilds_no_index(small):
    """A graph built with ``add_clicks`` is its own index: ``detect``
    merges its tail and never rebuilds a snapshot from scratch."""
    from repro import obs
    from repro.graph import BipartiteGraph

    graph = BipartiteGraph()
    graph.add_clicks(list(small.graph.edges()))
    with obs.recording(obs.Recorder()) as recorder:
        RICDDetector().detect(graph)
    assert recorder.counters.get("graph.indexed.builds", 0) == 0
    assert recorder.counters.get("graph.indexed.delta_builds", 0) == 1
