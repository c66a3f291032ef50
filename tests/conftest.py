"""Shared fixtures: cached scenarios and hand-built graphs.

Scenario generation is deterministic, so session-scoped caching is safe;
tests must not mutate the fixture graphs (take ``.copy()`` first).
"""

from __future__ import annotations

import pytest

from repro.datagen import small_scenario, tiny_scenario
from repro.graph import BipartiteGraph


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/experiments/goldens/*.json from the current outputs",
    )


@pytest.fixture()
def update_goldens(request: pytest.FixtureRequest) -> bool:
    """Whether golden snapshot files should be rewritten instead of compared."""
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session")
def tiny():
    """A few-hundred-node scenario with one injected group."""
    return tiny_scenario()


@pytest.fixture(scope="session")
def small():
    """A 2k-user scenario with four injected groups."""
    return small_scenario()


@pytest.fixture()
def empty_graph() -> BipartiteGraph:
    """A fresh empty graph."""
    return BipartiteGraph()


@pytest.fixture()
def simple_graph() -> BipartiteGraph:
    """A small hand-built graph used across unit tests.

    Layout::

        u1 -3-> i1      u1 -1-> i2
        u2 -2-> i1      u2 -5-> i3
        u3 -1-> i2      u3 -1-> i3
    """
    graph = BipartiteGraph()
    graph.add_click("u1", "i1", 3)
    graph.add_click("u1", "i2", 1)
    graph.add_click("u2", "i1", 2)
    graph.add_click("u2", "i3", 5)
    graph.add_click("u3", "i2", 1)
    graph.add_click("u3", "i3", 1)
    return graph


def make_biclique(
    graph: BipartiteGraph,
    n_users: int,
    n_items: int,
    clicks: int = 1,
    user_prefix: str = "bu",
    item_prefix: str = "bi",
) -> tuple[list[str], list[str]]:
    """Add a complete ``n_users x n_items`` biclique to ``graph``.

    Returns the created (user ids, item ids).  Used by extraction and
    property tests to plant known dense structures.
    """
    users = [f"{user_prefix}{index}" for index in range(n_users)]
    items = [f"{item_prefix}{index}" for index in range(n_items)]
    for user in users:
        for item in items:
            graph.add_click(user, item, clicks)
    return users, items
