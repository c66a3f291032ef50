"""Tests for Algorithm 1 (the naive detector)."""

import pytest

from repro.core.naive import NaiveParams, item_risk_scores, naive_detect, user_alpha
from repro.graph import BipartiteGraph


@pytest.fixture()
def alpha_graph():
    """hot1/hot2 are hot; target is clicked by hot-history users."""
    graph = BipartiteGraph()
    for index in range(20):
        graph.add_click(f"bg{index}", "hot1", 3)
        graph.add_click(f"bg{index}", "hot2", 3)
    graph.add_click("rider1", "hot1", 5)
    graph.add_click("rider1", "hot2", 5)
    graph.add_click("rider1", "target", 10)
    graph.add_click("rider2", "hot1", 4)
    graph.add_click("rider2", "target", 10)
    graph.add_click("plain", "quiet", 2)
    return graph


class TestBuildingBlocks:
    def test_user_alpha_counts_hot_clicks(self, alpha_graph):
        assert user_alpha(alpha_graph, "rider1", {"hot1", "hot2"}) == 10
        assert user_alpha(alpha_graph, "plain", {"hot1", "hot2"}) == 0

    def test_item_risk_sums_neighbor_alphas(self, alpha_graph):
        alphas = {
            user: user_alpha(alpha_graph, user, {"hot1", "hot2"})
            for user in alpha_graph.users()
        }
        risks = item_risk_scores(alpha_graph, alphas, {"target", "quiet"})
        assert risks["target"] == 10 + 4
        assert risks["quiet"] == 0


class TestNaiveDetect:
    def test_explicit_thresholds_flag_target(self, alpha_graph):
        params = NaiveParams(t_hot=60, t_risk=5, t_risk_user=5)
        result = naive_detect(alpha_graph, params)
        assert "target" in result.suspicious_items
        assert "quiet" not in result.suspicious_items
        assert {"rider1", "rider2"} <= result.suspicious_users

    def test_scores_populated(self, alpha_graph):
        params = NaiveParams(t_hot=60, t_risk=5, t_risk_user=5)
        result = naive_detect(alpha_graph, params)
        assert result.item_scores["target"] == 14.0
        assert result.user_scores["rider1"] == 10.0

    def test_high_risk_threshold_outputs_nothing(self, alpha_graph):
        params = NaiveParams(t_hot=60, t_risk=1e9, t_risk_user=1e9)
        result = naive_detect(alpha_graph, params)
        assert not result.suspicious_items
        assert not result.suspicious_users

    def test_auto_thresholds_run(self, small):
        result = naive_detect(small.graph)
        assert result.timings["detection"] > 0
        assert len(result.groups) == 1

    def test_empty_graph(self, empty_graph):
        result = naive_detect(empty_graph)
        assert not result.suspicious_items
        assert not result.suspicious_users

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            NaiveParams(risk_percentile=0.0)
        with pytest.raises(ValueError):
            NaiveParams(risk_percentile=100.0)

    def test_timing_recorded(self, alpha_graph):
        result = naive_detect(alpha_graph)
        assert "detection" in result.timings


def test_detect_sums_equal_the_per_node_steps(small):
    """The bincount sums of ``naive_detect`` equal Algorithm 1's per-node steps."""
    from repro.core.thresholds import pareto_hot_threshold

    graph = small.graph
    t_hot = pareto_hot_threshold(graph)
    hot = {item for item in graph.items() if graph.item_total_clicks(item) >= t_hot}
    alphas = {user: user_alpha(graph, user, hot) for user in graph.users()}
    risks = item_risk_scores(graph, alphas, set(graph.items()) - hot)
    result = naive_detect(graph, NaiveParams(t_risk=0.0, t_risk_user=0.0))
    assert result.item_scores == {item: float(risk) for item, risk in risks.items() if risk > 0}
    abnormal = set(result.item_scores)
    expected_users = {
        user: float(sum(c for i, c in graph.user_neighbors(user).items() if i in abnormal))
        for user in graph.users()
    }
    assert result.user_scores == {user: risk for user, risk in expected_users.items() if risk > 0}
