"""Shared fixtures for the resilience suite.

Fault injection is process-global state (module globals + the
``RICD_FAULTS`` environment variable), so every test runs inside an
autouse guard that restores a clean, disabled injector afterwards —
a leaked injector would make unrelated tests flaky in the worst way.
"""

from __future__ import annotations

import os

import pytest

from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.datagen import tiny_scenario
from repro.graph import BipartiteGraph
from repro.resilience import faults


@pytest.fixture(autouse=True)
def _clean_injector():
    """Guarantee injection is disabled before and after every test."""
    faults.reset()
    prior = os.environ.pop(faults.ENV_VAR, None)
    yield
    faults.reset()
    if prior is None:
        os.environ.pop(faults.ENV_VAR, None)
    else:
        os.environ[faults.ENV_VAR] = prior


def federated_graph(regions: int = 3) -> BipartiteGraph:
    """Independent attacked tiny marketplaces merged under ``r<i>:`` ids.

    Each region plants one crowd-worker group that the fixture detector
    finds, so every "output unchanged" check in the suite compares
    non-empty results.
    """
    graph = BipartiteGraph()
    for region in range(regions):
        for user, item, clicks in tiny_scenario(seed=region).graph.edges():
            graph.add_click(f"r{region}:{user}", f"r{region}:{item}", clicks)
    return graph


@pytest.fixture(scope="module")
def federation() -> BipartiteGraph:
    return federated_graph()


def make_detector(**overrides) -> RICDDetector:
    """A detector sized for the federation fixture."""
    defaults = dict(params=RICDParams(k1=4, k2=3))
    defaults.update(overrides)
    return RICDDetector(**defaults)


def canonical(result):
    """Everything observable about a result except wall-clock and provenance."""
    return (
        sorted(map(str, result.suspicious_users)),
        sorted(map(str, result.suspicious_items)),
        sorted(
            (
                sorted(map(str, group.users)),
                sorted(map(str, group.items)),
                sorted(map(str, group.hot_items)),
            )
            for group in result.groups
        ),
        sorted((str(node), score) for node, score in result.user_scores.items()),
        sorted((str(node), score) for node, score in result.item_scores.items()),
    )
