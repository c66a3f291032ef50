"""Tests for T_hot (Pareto rule) and T_click (Eq. 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.thresholds import (
    classify_items,
    hot_items,
    pareto_hot_threshold,
    t_click_from_graph,
    t_click_threshold,
)
from repro.graph import BipartiteGraph, from_click_records, side_stats


@pytest.fixture()
def skewed_graph():
    """One dominant item (80 clicks) plus a tail (20 clicks total)."""
    graph = BipartiteGraph()
    graph.add_click("a", "head", 80)
    graph.add_click("a", "mid", 12)
    graph.add_click("b", "tail1", 5)
    graph.add_click("b", "tail2", 3)
    return graph


class TestParetoHotThreshold:
    def test_dominant_item_is_boundary(self, skewed_graph):
        assert pareto_hot_threshold(skewed_graph, 0.8) == 80

    def test_larger_mass_reaches_deeper(self, skewed_graph):
        assert pareto_hot_threshold(skewed_graph, 0.95) == 5

    def test_empty_graph_returns_one(self, empty_graph):
        assert pareto_hot_threshold(empty_graph) == 1

    def test_clickless_items(self):
        graph = BipartiteGraph()
        graph.add_item("ghost")
        assert pareto_hot_threshold(graph) == 1

    def test_invalid_fraction(self, skewed_graph):
        with pytest.raises(ValueError):
            pareto_hot_threshold(skewed_graph, 0.0)
        with pytest.raises(ValueError):
            pareto_hot_threshold(skewed_graph, 1.1)

    def test_mass_accounting(self, skewed_graph):
        """Items at/above the threshold must hold >= the mass fraction."""
        threshold = pareto_hot_threshold(skewed_graph, 0.8)
        hot_mass = sum(
            skewed_graph.item_total_clicks(i)
            for i in skewed_graph.items()
            if skewed_graph.item_total_clicks(i) >= threshold
        )
        assert hot_mass >= 0.8 * skewed_graph.total_clicks


class TestTClick:
    def test_paper_inputs(self):
        # (11.35 * 0.8) / (4.32 * 0.2) = 10.5 -> ceil 11 (paper rounds to 12).
        assert t_click_threshold(11.35, 4.32) == 11

    def test_floor_of_two(self):
        assert t_click_threshold(1.0, 100.0) == 2

    def test_monotone_in_avg_clk(self):
        assert t_click_threshold(20.0, 4.0) > t_click_threshold(10.0, 4.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            t_click_threshold(0.0, 4.0)
        with pytest.raises(ValueError):
            t_click_threshold(10.0, -1.0)
        with pytest.raises(ValueError):
            t_click_threshold(10.0, 4.0, heavy_share=1.0)

    def test_from_graph(self, small):
        value = t_click_from_graph(small.graph)
        assert isinstance(value, int)
        assert value >= 2

    def test_from_empty_graph(self, empty_graph):
        assert t_click_from_graph(empty_graph) == 2


class TestClassifyItems:
    def test_partition(self, skewed_graph):
        hot, ordinary = classify_items(skewed_graph, 50)
        assert hot == {"head"}
        assert ordinary == {"mid", "tail1", "tail2"}
        assert hot | ordinary == set(skewed_graph.items())

    def test_hot_items_helper_agrees(self, skewed_graph):
        hot, _ordinary = classify_items(skewed_graph, 10)
        assert hot == hot_items(skewed_graph, 10)

    def test_boundary_inclusive(self, skewed_graph):
        hot, _ = classify_items(skewed_graph, 80)
        assert "head" in hot


class TestDegenerateInputs:
    def test_heavy_share_one_raises_typed_error(self):
        from repro.errors import DegenerateGraphError

        with pytest.raises(DegenerateGraphError):
            t_click_threshold(10.0, 4.0, heavy_share=1.0)

    def test_non_positive_statistics_raise_typed_error(self):
        from repro.errors import DegenerateGraphError

        with pytest.raises(DegenerateGraphError):
            t_click_threshold(0.0, 4.0)
        with pytest.raises(DegenerateGraphError):
            t_click_threshold(10.0, -1.0)

    def test_typed_error_is_still_a_value_error(self):
        from repro.errors import DegenerateGraphError, DetectionError

        assert issubclass(DegenerateGraphError, ValueError)
        assert issubclass(DegenerateGraphError, DetectionError)

    def test_out_of_range_share_stays_plain(self):
        from repro.errors import DegenerateGraphError

        with pytest.raises(ValueError) as excinfo:
            t_click_threshold(10.0, 4.0, heavy_share=1.5)
        assert not isinstance(excinfo.value, DegenerateGraphError)

    def test_resolve_stage_falls_back_to_floor_thresholds(self, empty_graph):
        from repro import obs
        from repro.config import RICDParams
        from repro.errors import DegenerateGraphError
        from repro.pipeline.stages import ResolveThresholds

        def degenerate(graph):
            raise DegenerateGraphError("single-point Pareto front")

        stage = ResolveThresholds(derive_t_hot=degenerate, derive_t_click=degenerate)
        recorder = obs.Recorder()
        with obs.recording(recorder):
            resolved = stage.resolve(empty_graph, RICDParams(k1=4, k2=4))
        assert resolved.t_hot == 1.0
        assert resolved.t_click == 2.0
        assert recorder.counters["detect.degenerate_thresholds"] == 2

    def test_detection_survives_degenerate_derivation(self, empty_graph):
        from repro.config import RICDParams
        from repro.core.framework import RICDDetector

        result = RICDDetector(params=RICDParams(k1=4, k2=4)).detect(empty_graph)
        assert result.groups == []


click_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9).map(lambda n: f"u{n}"),
        st.integers(min_value=0, max_value=9).map(lambda n: f"i{n}"),
        # Small weights make cumulative sums land exactly on the Pareto
        # mass target, the boundary the derivation must resolve inclusively.
        st.integers(min_value=1, max_value=5),
    ),
    max_size=40,
)


def _expected_thresholds(graph, mass_fraction, t_hot):
    """``(T_hot, T_click, hot, ordinary)`` recomputed from the edge table."""
    totals = dict.fromkeys(graph.items(), 0)
    for _user, item, clicks in graph.edges():
        totals[item] += clicks
    grand = sum(totals.values())
    expected_t_hot = 1
    cumulative = 0
    for total in sorted(totals.values(), reverse=True):
        cumulative += total
        if grand and cumulative >= mass_fraction * grand:
            expected_t_hot = max(total, 1)
            break
    stats = side_stats(graph, "user")
    if stats.avg_clk <= 0 or stats.avg_cnt <= 0:
        expected_t_click = 2
    else:
        expected_t_click = t_click_threshold(stats.avg_clk, stats.avg_cnt)
    hot = {item for item, total in totals.items() if total >= t_hot}
    return expected_t_hot, expected_t_click, hot, set(totals) - hot


def _assert_thresholds_match(graph, mass_fraction, t_hot):
    expected_t_hot, expected_t_click, hot, ordinary = _expected_thresholds(
        graph, mass_fraction, t_hot
    )
    assert pareto_hot_threshold(graph, mass_fraction) == expected_t_hot
    assert t_click_from_graph(graph) == expected_t_click
    assert hot_items(graph, t_hot) == hot
    assert classify_items(graph, t_hot) == (hot, ordinary)


class TestThresholdsMatchEdgeTable:
    """The array-backed derivations against values computed from ``edges()``."""

    @given(
        click_rows,
        click_rows,
        st.sampled_from([0.3, 0.5, 0.8, 0.95, 1.0]),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_fresh_and_delta_merged_snapshots(self, first, appended, mass_fraction, t_hot):
        graph = BipartiteGraph.from_indexed(from_click_records(first).indexed())
        _assert_thresholds_match(graph, mass_fraction, t_hot)
        for user, item, clicks in appended:
            graph.add_click(user, item, clicks)
        with obs.recording(obs.Recorder()) as recorder:
            _assert_thresholds_match(graph, mass_fraction, t_hot)
        # The second pass read the delta-merged snapshot, not a rebuild.
        assert recorder.counters.get("graph.indexed.builds", 0) == 0
        if appended:
            assert recorder.counters["graph.indexed.delta_builds"] == 1
