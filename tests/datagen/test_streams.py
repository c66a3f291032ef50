"""Tests for scenario-to-stream conversion and online replay."""

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.incremental import IncrementalRICD
from repro.datagen.streams import ReplayResult, StreamConfig, replay, scenario_to_stream
from repro.errors import DataGenError
from repro.graph import BipartiteGraph


class TestStreamConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"days": 0},
            {"campaign_start": 0},
            {"campaign_start": 9, "campaign_end": 5},
            {"campaign_end": 20, "days": 10},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DataGenError):
            StreamConfig(**kwargs)


class TestScenarioToStream:
    def test_batch_count_matches_days(self, tiny):
        batches = scenario_to_stream(tiny, StreamConfig(days=7, campaign_end=6))
        assert len(batches) == 7

    def test_stream_replays_full_graph(self, tiny):
        """Summing every batch reproduces the scenario graph exactly."""
        batches = scenario_to_stream(tiny, StreamConfig(days=6, campaign_end=5))
        rebuilt = BipartiteGraph()
        for batch in batches:
            for user, item, clicks in batch:
                rebuilt.add_click(user, item, clicks)
        for user, item, clicks in tiny.graph.edges():
            assert rebuilt.get_click(user, item) == clicks
        assert rebuilt.total_clicks == tiny.graph.total_clicks

    def test_fake_edges_confined_to_campaign_window(self, tiny):
        config = StreamConfig(days=10, campaign_start=4, campaign_end=7)
        batches = scenario_to_stream(tiny, config)
        fake_pairs = {
            (user, item)
            for group in tiny.truth.groups
            for user, item, _clicks in group.fake_edges
        }
        for day_index, batch in enumerate(batches, start=1):
            for user, item, _clicks in batch:
                if (user, item) in fake_pairs:
                    assert config.campaign_start <= day_index <= config.campaign_end

    def test_deterministic(self, tiny):
        first = scenario_to_stream(tiny, StreamConfig(seed=4))
        second = scenario_to_stream(tiny, StreamConfig(seed=4))
        assert first == second


class TestReplay:
    def test_replay_detects_during_or_after_campaign(self, tiny):
        online = IncrementalRICD(
            BipartiteGraph(),
            params=RICDParams(k1=4, k2=4),
            screening=ScreeningParams(min_users=2, min_items=2),
        )
        config = StreamConfig(days=8, campaign_start=3, campaign_end=6)
        outcome = replay(tiny, online, config)
        assert isinstance(outcome, ReplayResult)
        group_id = tiny.truth.groups[0].group_id
        assert group_id in outcome.detection_day
        assert outcome.detection_day[group_id] >= config.campaign_start

    def test_invalid_detection_bar(self, tiny):
        online = IncrementalRICD(BipartiteGraph(), params=RICDParams(k1=4, k2=4))
        with pytest.raises(DataGenError):
            replay(tiny, online, detection_bar=0.0)
