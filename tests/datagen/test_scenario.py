"""Tests for scenario presets."""

from repro.core.thresholds import pareto_hot_threshold, t_click_from_graph
from repro.datagen import generate_scenario, tiny_scenario
from repro.datagen import AttackConfig, MarketplaceConfig


class TestPresets:
    def test_tiny_shape(self, tiny):
        assert 700 <= tiny.graph.num_users <= 900
        assert len(tiny.truth.groups) == 1

    def test_small_shape(self, small):
        assert 2_900 <= small.graph.num_users <= 3_200
        assert len(small.truth.groups) == 4

    def test_small_coherence(self, small):
        """Most injected targets must classify as ordinary items."""
        threshold = pareto_hot_threshold(small.graph)
        t_click = t_click_from_graph(small.graph)
        assert t_click >= 8
        ordinary = sum(
            1
            for item in small.truth.abnormal_items
            if small.graph.item_total_clicks(item) < threshold
        )
        assert ordinary >= 0.7 * len(small.truth.abnormal_items)

    def test_abnormal_fractions(self, small):
        assert 0.0 < small.abnormal_fraction_users < 0.1
        assert 0.0 < small.abnormal_fraction_items < 0.2

    def test_deterministic(self):
        assert tiny_scenario(seed=3).graph == tiny_scenario(seed=3).graph

    def test_seeds_differ(self):
        assert tiny_scenario(seed=1).graph != tiny_scenario(seed=2).graph

    def test_custom_generation(self):
        scenario = generate_scenario(
            MarketplaceConfig(
                n_users=300, n_items=80, n_cohorts=0, n_superfans=0, n_swarms=0, seed=0
            ),
            AttackConfig(
                n_groups=1,
                workers_per_group=(4, 4),
                targets_per_group=(3, 3),
                seed=1,
            ),
        )
        assert len(scenario.truth.groups) == 1
        assert len(scenario.truth.groups[0].workers) == 4

    def test_empty_graph_fractions(self):
        from repro.datagen.labels import GroundTruth
        from repro.datagen.scenario import Scenario
        from repro.graph import BipartiteGraph

        scenario = Scenario(
            graph=BipartiteGraph(),
            truth=GroundTruth(),
            marketplace_config=MarketplaceConfig(),
            attack_config=AttackConfig(),
        )
        assert scenario.abnormal_fraction_users == 0.0
        assert scenario.abnormal_fraction_items == 0.0
