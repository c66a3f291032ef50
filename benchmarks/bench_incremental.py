"""Future-work extension: incremental (online) detection cost.

Compares the per-batch cost of the dirty-region incremental detector
against re-running the whole batch framework after every click batch —
the speedup that makes online deployment plausible (Section VIII).
"""

from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.core.incremental import IncrementalRICD


def _noise_batches(count: int, size: int = 20):
    """Organic-looking click batches landing on existing nodes.

    Items are drawn from the long tail (ranks 500+): a realistic batch is
    dominated by tail traffic, and tail-anchored dirty regions are small —
    hot-item batches would pull in their entire co-click neighbourhood and
    erase the incremental advantage (which is itself a useful property to
    know: re-check cost scales with the dirty region's density).
    """
    batches = []
    for batch_index in range(count):
        records = [
            (
                f"u{(batch_index * size + offset) % 5000}",
                f"i{500 + (batch_index * size + offset) % 3500}",
                1,
            )
            for offset in range(size)
        ]
        batches.append(records)
    return batches


def test_incremental_ingest(benchmark, scenario):
    online = IncrementalRICD(scenario.graph, params=RICDParams())
    batches = iter(_noise_batches(200))

    def ingest_and_recheck():
        online.ingest(next(batches))
        return online.recheck()

    benchmark.pedantic(ingest_and_recheck, rounds=20, iterations=1)


def test_batch_rerun_equivalent(benchmark, scenario):
    """The cost the incremental module avoids: full re-detection per batch."""
    detector = RICDDetector(params=RICDParams())
    graph = scenario.graph.copy()
    batches = iter(_noise_batches(50))

    def rerun():
        for user, item, clicks in next(batches):
            graph.add_click(user, item, clicks)
        return detector.detect(graph)

    benchmark.pedantic(rerun, rounds=3, iterations=1)


def test_incremental_vs_batch_report(benchmark, scenario, emit_report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    import time

    online = IncrementalRICD(scenario.graph, params=RICDParams())
    batches = _noise_batches(10)
    start = time.perf_counter()
    for batch in batches:
        online.ingest(batch)
        online.recheck()
    online_cost = (time.perf_counter() - start) / len(batches)

    detector = RICDDetector(params=RICDParams())
    graph = scenario.graph.copy()
    start = time.perf_counter()
    for batch in batches[:2]:
        for user, item, clicks in batch:
            graph.add_click(user, item, clicks)
        detector.detect(graph)
    batch_cost = (time.perf_counter() - start) / 2

    emit_report(
        "Extension — incremental vs full re-run per 20-click batch: "
        f"incremental {online_cost * 1000:.1f} ms, full re-run {batch_cost * 1000:.1f} ms "
        f"({batch_cost / max(online_cost, 1e-9):.1f}x)"
    )
    assert online_cost < batch_cost
