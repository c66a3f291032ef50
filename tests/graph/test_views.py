"""Tests for structural views: connected components."""

from repro.graph import BipartiteGraph, connected_components


class TestConnectedComponents:
    def test_single_component(self, simple_graph):
        components = connected_components(simple_graph)
        assert len(components) == 1
        users, items = components[0]
        assert users == {"u1", "u2", "u3"}
        assert items == {"i1", "i2", "i3"}

    def test_two_components_sorted_largest_first(self):
        graph = BipartiteGraph()
        graph.add_click("a", "x", 1)
        graph.add_click("b", "y", 1)
        graph.add_click("c", "y", 1)
        components = connected_components(graph)
        assert len(components) == 2
        assert len(components[0][0]) == 2  # the {b, c} x {y} component first

    def test_isolated_nodes_form_components(self):
        graph = BipartiteGraph()
        graph.add_user("lonely_user")
        graph.add_item("lonely_item")
        components = connected_components(graph)
        assert len(components) == 2

    def test_empty(self, empty_graph):
        assert connected_components(empty_graph) == []

    def test_deterministic_order(self, small):
        first = connected_components(small.graph)
        second = connected_components(small.graph)
        assert first == second

