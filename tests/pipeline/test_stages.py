"""Unit tests for the pipeline stage objects."""

import numpy as np
import pytest

from repro import obs
from repro.config import RICDParams, ScreeningParams
from repro.core.framework import RICDDetector
from repro.core.incremental import IncrementalRICD
from repro.core.thresholds import pareto_hot_threshold, t_click_from_graph
from repro.pipeline import (
    Extraction,
    Identification,
    PipelineContext,
    ResolveThresholds,
    Screening,
    SeedExpansion,
    SizeCaps,
)

#: Explicit thresholds used wherever derivation is not the thing under test.
FIXED = RICDParams(k1=5, k2=5, t_hot=60.0, t_click=12.0)


def ctx_for(graph, **overrides):
    params = overrides.pop("params", FIXED)
    screening = overrides.pop("screening", ScreeningParams(min_users=2, min_items=2))
    return PipelineContext(graph=graph, params=params, screening=screening, **overrides)


def user_sets(groups):
    return {frozenset(map(str, group.users)) for group in groups}


def group_set(groups):
    return {(frozenset(group.users), frozenset(group.items)) for group in groups}


class TestStageProtocol:
    def test_stage_names_match_their_spans(self):
        names = [
            ResolveThresholds.name,
            SeedExpansion.name,
            Extraction.name,
            Screening.name,
            SizeCaps.name,
            Identification.name,
        ]
        assert names == [
            "thresholds",
            "seed_expansion",
            "extraction",
            "screening",
            "size_caps",
            "identification",
        ]


class TestResolveThresholds:
    def test_derives_missing_thresholds(self, small):
        resolved = ResolveThresholds().resolve(small.graph, RICDParams())
        assert resolved.t_hot == pytest.approx(pareto_hot_threshold(small.graph))
        assert resolved.t_click == pytest.approx(t_click_from_graph(small.graph))

    def test_explicit_thresholds_short_circuit(self, small):
        params = RICDParams(t_hot=9.0, t_click=3.0)
        assert ResolveThresholds().resolve(small.graph, params) is params

    def test_memoized_identity_and_counters(self, small):
        stage = ResolveThresholds()
        # A copy starts with a cold memo; the session graph's snapshot
        # keeps the entries earlier tests resolved.
        graph = small.graph.copy()
        with obs.recording(obs.Recorder()) as recorder:
            first = stage.resolve(graph, RICDParams())
            second = stage.resolve(graph, RICDParams())
        assert second is first
        assert recorder.counters["detect.threshold_cache_misses"] == 1
        assert recorder.counters["detect.threshold_cache_hits"] == 1

    def test_mutation_invalidates_memo(self, small):
        stage = ResolveThresholds()
        graph = small.graph.copy()
        first = stage.resolve(graph, RICDParams())
        for n in range(40):
            graph.add_click(f"stage_u{n}", "stage_hot", 500)
        assert stage.resolve(graph, RICDParams()) is not first

    def test_run_writes_resolved_params_to_context(self, small):
        ctx = ctx_for(small.graph, params=RICDParams(k1=5, k2=5))
        ResolveThresholds().run(ctx)
        assert ctx.params.t_hot is not None
        assert ctx.params.t_click is not None


class TestSeedExpansion:
    def test_no_seeds_installs_full_graph(self, small):
        ctx = ctx_for(small.graph)
        SeedExpansion().run(ctx)
        assert ctx.region is None

    def test_seeds_set_the_region_masks(self, small):
        seed = sorted(map(str, small.graph.users()))[0]
        ctx = ctx_for(small.graph, seed_users=(seed,))
        SeedExpansion().run(ctx)
        user_mask = ctx.region[0]
        assert user_mask[small.graph.indexed().user_index[seed]]
        assert user_mask.sum() < small.graph.num_users
        assert "detection" in ctx.timer.durations

    def test_detect_and_regional_rechecks_build_every_region_here(self, small, monkeypatch):
        import repro.pipeline.stages as stages

        calls = []
        masks = stages.seed_expansion_masks

        def counting(*args, **kwargs):
            calls.append(args)
            return masks(*args, **kwargs)

        monkeypatch.setattr(stages, "seed_expansion_masks", counting)
        params = RICDParams(k1=5, k2=5)
        seed = small.truth.groups[0].workers[0]
        RICDDetector(params).detect(small.graph, seed_users=[seed])
        assert len(calls) == 1
        online = IncrementalRICD(small.graph, params=params)
        online.ingest([("fresh_user", "i1", 1)])
        online.recheck()
        assert len(calls) == 2
        online.ingest([("other_user", "i1", 1)])
        online.recheck_full()
        assert len(calls) == 2


class TestExtraction:
    def test_reference_engine_matches_extract_groups(self, small):
        from repro.core.extraction import extract_groups

        ctx = ctx_for(small.graph)
        Extraction().run(ctx)
        assert user_sets(ctx.groups) == user_sets(extract_groups(small.graph, FIXED))
        assert "detection" in ctx.timer.durations

    def test_engine_choice_recorded_as_gauge(self, small):
        with obs.recording(obs.Recorder()) as recorder:
            Extraction().extract(small.graph, FIXED)
        assert recorder.gauges["detect.engine"] == "bitset"

    def test_reference_engine_extracts_the_masked_region(self, small):
        snapshot = small.graph.indexed()
        region = (
            np.random.default_rng(0).random(snapshot.num_users) < 0.9,
            np.ones(snapshot.num_items, dtype=bool),
        )
        reference = Extraction(engine="reference").extract(small.graph, FIXED, region)
        assert reference  # non-vacuous
        assert group_set(reference) == group_set(
            Extraction(engine="bitset").extract(small.graph, FIXED, region)
        )
        assert group_set(reference) != group_set(Extraction().extract(small.graph, FIXED))


class TestScreeningStage:
    def _extracted(self, small):
        ctx = ctx_for(small.graph)
        ResolveThresholds().run(ctx)
        Extraction().run(ctx)
        return ctx

    def test_disabled_screening_passes_groups_through(self, small):
        ctx = self._extracted(small)
        before = list(ctx.groups)
        Screening(enabled=False).run(ctx)
        assert ctx.groups == before
        # The span/timing still fires so variant traces stay comparable.
        assert "screening" in ctx.timer.durations

    def test_enabled_screening_matches_screen_groups(self, small):
        from repro.core.screening import screen_groups

        ctx = self._extracted(small)
        expected = screen_groups(
            small.graph,
            [group.copy() for group in ctx.groups],
            t_hot=ctx.params.t_hot,
            t_click=ctx.params.t_click,
            params=ctx.screening,
        )
        Screening().run(ctx)
        assert user_sets(ctx.groups) == user_sets(expected)


class TestSizeCaps:
    def test_caps_drop_oversized_groups(self, small):
        ctx = ctx_for(small.graph)
        ResolveThresholds().run(ctx)
        Extraction().run(ctx)
        assert ctx.groups  # non-vacuous
        SizeCaps(max_users=0).run(ctx)
        assert ctx.groups == []

    def test_disabled_caps_are_a_noop(self, small):
        ctx = ctx_for(small.graph)
        Extraction().run(ctx)
        before = list(ctx.groups)
        SizeCaps(max_users=0, enabled=False).run(ctx)
        assert ctx.groups == before

    def test_unset_caps_are_a_noop(self, small):
        ctx = ctx_for(small.graph)
        Extraction().run(ctx)
        before = list(ctx.groups)
        SizeCaps().run(ctx)
        assert ctx.groups == before


class TestIdentification:
    def test_assembles_scored_result(self, small):
        ctx = ctx_for(small.graph)
        ResolveThresholds().run(ctx)
        Extraction().run(ctx)
        Screening().run(ctx)
        Identification().run(ctx)
        assert ctx.result is not None
        assert set(ctx.result.user_scores) == ctx.result.suspicious_users
        assert set(ctx.result.item_scores) == ctx.result.suspicious_items
        assert "identification" in ctx.timer.durations
