"""Indexed-graph fast path: what the cached snapshot buys.

Three questions, at the 0.5x / 1x / 2x marketplace scales of
``bench_scaling.py``:

1. **Snapshot build cost** — the one-time dict→array conversion an
   :class:`~repro.graph.indexed.IndexedGraph` pays (the price of entry).
2. **Cached vs uncached extraction** — the bitset engine with a warm
   memoized snapshot (CSR/CSC arrays + pruning-fixpoint memo) against
   the rebuild-every-call behaviour (cache invalidated before each run).
   This is the suite / ablation / benchmark steady state the fast path
   targets: same graph, same floors, extraction repeated.
3. **Parallel vs serial suite** — ``run_suite(jobs=4)`` against the
   serial path on the Fig. 8 line-up (default COPYCATCH deadline, as the
   experiment runs it).  Fan-out wins with real cores, and wins even on a
   single-CPU host because COPYCATCH's wall-clock deadline overlaps the
   other detectors' compute instead of serialising in front of it.
"""

import time

import pytest

from repro.config import RICDParams
from repro.core.extraction_bitset import extract_groups_bitset
from repro.datagen import AttackConfig, MarketplaceConfig, generate_scenario
from repro.eval import default_detector_suite, run_suite
from repro.graph.indexed import IndexedGraph

PARAMS = RICDParams(k1=10, k2=10, alpha=1.0)

SCALES = {
    "0.5x": (10_000, 2_000, 6, 175),
    "1x": (20_000, 4_000, 12, 350),
    "2x": (40_000, 8_000, 24, 700),
}

SUITE_JOBS = 4


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


def _invalidate(graph) -> None:
    """Drop the memoized snapshot, forcing the next call to rebuild."""
    graph._indexed = None


def _uncached_extract(graph):
    _invalidate(graph)
    return extract_groups_bitset(graph, PARAMS)


@pytest.mark.parametrize("scale", list(SCALES))
def test_snapshot_build(benchmark, scaled_scenarios, scale):
    graph = scaled_scenarios[scale].graph
    benchmark.pedantic(
        IndexedGraph.from_graph, args=(graph,), rounds=3, iterations=1
    )


@pytest.mark.parametrize("scale", list(SCALES))
def test_extraction_uncached(benchmark, scaled_scenarios, scale):
    graph = scaled_scenarios[scale].graph
    benchmark.pedantic(_uncached_extract, args=(graph,), rounds=3, iterations=1)


@pytest.mark.parametrize("scale", list(SCALES))
def test_extraction_cached(benchmark, scaled_scenarios, scale):
    graph = scaled_scenarios[scale].graph
    extract_groups_bitset(graph, PARAMS)  # warm the snapshot + fixpoint memo
    benchmark.pedantic(
        extract_groups_bitset, args=(graph, PARAMS), rounds=3, iterations=1
    )


def _min_elapsed(fn, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def test_indexed_path_report(benchmark, scaled_scenarios, emit_report, emit_json):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    lines = [
        "Indexed fast path — snapshot build / uncached vs cached bitset extraction "
        "(min of 3):"
    ]
    json_scales = {}
    for scale, scenario in scaled_scenarios.items():
        graph = scenario.graph
        build = _min_elapsed(lambda: IndexedGraph.from_graph(graph), 3)
        uncached = _min_elapsed(lambda: _uncached_extract(graph), 3)
        extract_groups_bitset(graph, PARAMS)  # warm the snapshot + fixpoint memo
        cached = _min_elapsed(lambda: extract_groups_bitset(graph, PARAMS), 3)
        speedup = uncached / cached if cached > 0 else float("inf")
        json_scales[scale] = {
            "edges": graph.num_edges,
            "snapshot_build_s": build,
            "extract_uncached_s": uncached,
            "extract_cached_s": cached,
        }
        lines.append(
            f"  {scale:>4}: {graph.num_edges:,} edges | build {build * 1000:.0f} ms | "
            f"extract uncached {uncached * 1000:.0f} ms vs cached {cached * 1000:.0f} ms "
            f"({speedup:.1f}x)"
        )
    emit_json(
        "indexed_path",
        {
            "config": {
                "params": {"k1": PARAMS.k1, "k2": PARAMS.k2, "alpha": PARAMS.alpha},
                "scales": {
                    name: dict(
                        zip(("n_users", "n_items", "n_cohorts", "n_superfans"), spec)
                    )
                    for name, spec in SCALES.items()
                },
                "rounds": 3,
            },
            "scales": json_scales,
        },
    )

    # Parallel vs serial Fig. 8 suite on the 1x marketplace.  One round:
    # the suite is the expensive part, and the comparison is qualitative
    # (does fan-out pay on this host's core count?).
    scenario = scaled_scenarios["1x"]
    suite = default_detector_suite()
    serial = _min_elapsed(lambda: run_suite(suite, scenario), 1)
    parallel = _min_elapsed(lambda: run_suite(suite, scenario, jobs=SUITE_JOBS), 1)
    lines.append(
        f"  Fig. 8 suite (1x, {len(suite)} detectors): serial {serial:.1f} s vs "
        f"jobs={SUITE_JOBS} {parallel:.1f} s"
    )
    emit_report("\n".join(lines))
