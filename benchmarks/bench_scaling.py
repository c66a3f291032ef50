"""Scalability: detection cost as the marketplace grows.

Section V-D bounds Algorithm 3 at ``O((|U|+|V|)(|V||U| + 1) + |E|)`` worst
case; on realistic graphs the pruning cascade removes most vertices before
the quadratic term can bite.  This bench records the trend over 0.5x /
1x / 2x marketplaces for the reference and bitset engines.
"""

import pytest

from repro.config import RICDParams
from repro.core.extraction import extract_groups
from repro.core.extraction_bitset import extract_groups_bitset
from repro.datagen import AttackConfig, MarketplaceConfig, generate_scenario

PARAMS = RICDParams(k1=10, k2=10, alpha=1.0)

SCALES = {
    "0.5x": (10_000, 2_000, 6, 175),
    "1x": (20_000, 4_000, 12, 350),
    "2x": (40_000, 8_000, 24, 700),
}


def _scenario(scale: str):
    n_users, n_items, n_cohorts, n_superfans = SCALES[scale]
    marketplace = MarketplaceConfig(
        n_users=n_users,
        n_items=n_items,
        n_cohorts=n_cohorts,
        n_superfans=n_superfans,
        n_swarms=max(1, n_cohorts // 2),
        seed=31,
    )
    attacks = AttackConfig(n_groups=max(2, n_cohorts // 2), seed=32)
    return generate_scenario(marketplace, attacks)


@pytest.fixture(scope="module")
def scaled_scenarios():
    return {scale: _scenario(scale) for scale in SCALES}


def _rounds(scale: str) -> int:
    """Repeats per measurement: >= 3 so the recorded trend is not single-run
    noise; the 2x reference run stays at 1 round to bound wall-clock."""
    return 1 if scale == "2x" else 3


@pytest.mark.parametrize("scale", list(SCALES))
def test_scaling_reference_engine(benchmark, scaled_scenarios, scale):
    graph = scaled_scenarios[scale].graph
    benchmark.pedantic(
        extract_groups, args=(graph, PARAMS), rounds=_rounds(scale), iterations=1
    )


def _bitset_uncached(graph):
    """Bitset extraction on a fresh snapshot (no memoized fixpoint)."""
    graph._indexed = None
    return extract_groups_bitset(graph, PARAMS)


@pytest.mark.parametrize("scale", list(SCALES))
def test_scaling_bitset_engine(benchmark, scaled_scenarios, scale):
    graph = scaled_scenarios[scale].graph
    benchmark.pedantic(_bitset_uncached, args=(graph,), rounds=3, iterations=1)


def test_scaling_report(benchmark, scaled_scenarios, emit_report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    import time

    def min_elapsed(fn, graph, rounds):
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn(graph)
            samples.append(time.perf_counter() - start)
        return min(samples)

    lines = [
        "Scaling — extraction wall-clock by marketplace size, reference vs "
        "bitset (uncached snapshot, min of repeats):"
    ]
    for scale, scenario in scaled_scenarios.items():
        graph = scenario.graph
        reference = min_elapsed(
            lambda g: extract_groups(g, PARAMS), graph, _rounds(scale)
        )
        bitset = min_elapsed(_bitset_uncached, graph, 3)
        lines.append(
            f"  {scale:>4}: {graph.num_users:,} users / {graph.num_edges:,} edges "
            f"-> reference {reference * 1000:.0f} ms, bitset {bitset * 1000:.0f} ms "
            f"({reference / max(bitset, 1e-9):.0f}x)"
        )
    emit_report("\n".join(lines))
