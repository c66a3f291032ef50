"""Warm-start: cold rebuild vs. store resume at paper proportions.

A restart of the detection service can either *cold-start* — replay the
click table into a fresh graph, rebuild the index, re-resolve
thresholds, and re-run detection — or *warm-start* from a
:class:`~repro.store.DetectionStore` checkpoint, where the array
snapshot installs as an already-hot index, thresholds rehydrate into
the memo, and the persisted verdict is served without detecting at
all.  This bench times both restart paths on ``datagen.atscale``
marketplaces at 1/100 and 1/10 of the paper's Taobao proportions and
asserts — by counter, not by clock — that the warm path never rebuilds
the snapshot (zero ``graph.indexed.builds``).

``RICD_WARMSTART_SCALES`` overrides the scale list for quick local or
CI runs (comma-separated fractions of paper scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_store_warmstart.py \
        -q -s --json-out benchmarks
"""

import os
import time

from repro import obs
from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.core.incremental import IncrementalRICD
from repro.datagen.atscale import AtScaleConfig, generate_at_scale
from repro.eval.reporting import render_table
from repro.graph import BipartiteGraph
from repro.serve.service import DetectionService
from repro.store import DetectionStore, memos_to_json

#: Scales at (or above) this fraction of paper proportions must warm-start
#: at least this many times faster than the cold rebuild — the lazy
#: ``from_indexed`` acceptance bar (ISSUE 10).
SPEEDUP_FLOOR_SCALE = 0.1
SPEEDUP_FLOOR = 10.0

SCALES = tuple(
    float(token)
    for token in os.environ.get("RICD_WARMSTART_SCALES", "0.01,0.1").split(",")
)

#: Same explicit thresholds as bench_serve_throughput: atscale targets
#: (~150 clicks) stay ordinary while 8-12 clicks/edge clear T_click.
PARAMS = RICDParams(k1=10, k2=10, t_hot=500.0, t_click=5.0)


def canonical(result):
    return (
        sorted(map(str, result.suspicious_users)),
        sorted(map(str, result.suspicious_items)),
        {
            (
                frozenset(map(str, group.users)),
                frozenset(map(str, group.items)),
                frozenset(map(str, group.hot_items)),
            )
            for group in result.groups
        },
    )


def click_records(scale):
    arrays = generate_at_scale(
        AtScaleConfig(scale=scale, seed=0, target_clicks=(8, 12))
    )
    return list(
        zip(
            [f"u{row}" for row in arrays.user_idx.tolist()],
            [f"i{column}" for column in arrays.item_idx.tolist()],
            arrays.clicks.tolist(),
        )
    )


def cold_start(records):
    """Replay the table, rebuild every cache, detect from scratch."""
    graph = BipartiteGraph()
    for user, item, clicks in records:
        graph.add_click(user, item, clicks)
    detector = RICDDetector(params=PARAMS, engine="bitset")
    return graph, detector, detector.detect(graph)


def persist(root, graph, detector, result):
    """One fully-derived store version (setup for the warm path, untimed)."""
    store = DetectionStore.create(root)
    store.begin_version()
    snapshot = graph.indexed()
    store.put_snapshot(snapshot)
    store.put_thresholds(
        detector.params,
        detector.resolve_thresholds(graph),
        detector.screening,
        memos=memos_to_json(snapshot.derived),
    )
    store.put_result(result)
    store.commit()


def test_store_warmstart(benchmark, tmp_path, emit_report, emit_json):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows, payload_scales = [], []
    for scale in SCALES:
        records = click_records(scale)

        started = time.perf_counter()
        graph, detector, cold_result = cold_start(records)
        cold_seconds = time.perf_counter() - started

        root = tmp_path / f"store-{scale}"
        persist(root, graph, detector, cold_result)

        recorder = obs.Recorder()
        started = time.perf_counter()
        with obs.recording(recorder):
            resumed = IncrementalRICD.from_store(DetectionStore.open(root))
            warm_result = resumed.current_result
            resumed.graph.indexed()
        warm_seconds = time.perf_counter() - started

        # The headline contract, asserted by counter rather than clock:
        # a warm resume never rebuilds the array snapshot.
        builds = recorder.counters.get("graph.indexed.builds", 0)
        assert builds == 0, f"warm resume rebuilt the snapshot {builds}x"
        assert recorder.counters.get("graph.indexed.hits", 0) >= 1
        assert canonical(warm_result) == canonical(cold_result)

        # The full service resume (graph + thresholds + verdict, ready to
        # ingest) — the restart path a deployment actually takes.
        service_recorder = obs.Recorder()
        started = time.perf_counter()
        with obs.recording(service_recorder):
            service = DetectionService.from_store(DetectionStore.open(root))
            service_result = service.online.current_result
            service.online.graph.indexed()
        service_seconds = time.perf_counter() - started
        service_builds = service_recorder.counters.get("graph.indexed.builds", 0)
        assert service_builds == 0, f"service resume rebuilt the snapshot {service_builds}x"
        assert canonical(service_result) == canonical(cold_result)

        speedup = cold_seconds / max(warm_seconds, 1e-9)
        service_speedup = cold_seconds / max(service_seconds, 1e-9)
        if scale >= SPEEDUP_FLOOR_SCALE:
            assert service_speedup >= SPEEDUP_FLOOR, (
                f"warm DetectionService.from_store at scale {scale} is only "
                f"{service_speedup:.1f}x faster than cold (floor {SPEEDUP_FLOOR}x)"
            )

        rows.append(
            [
                f"1/{round(1 / scale)}",
                f"{graph.num_users:,}",
                f"{graph.num_edges:,}",
                f"{cold_seconds:.2f}",
                f"{warm_seconds:.2f}",
                f"{service_seconds:.2f}",
                f"{service_speedup:.1f}x",
            ]
        )
        payload_scales.append(
            {
                "scale": scale,
                "users": graph.num_users,
                "items": graph.num_items,
                "edges": int(graph.num_edges),
                "cold_seconds": round(cold_seconds, 3),
                "warm_seconds": round(warm_seconds, 3),
                "service_warm_seconds": round(service_seconds, 3),
                "speedup": round(speedup, 1),
                "service_speedup": round(service_speedup, 1),
                # The key the committed baseline and its checker read.
                "indexed_misses": builds,
                "suspicious_users": len(warm_result.suspicious_users),
            }
        )

    emit_report(
        render_table(
            ["scale", "users", "edges", "cold s", "warm s", "svc warm s", "speedup"],
            rows,
            title="Store warm-start — restart-to-verdict latency, cold vs warm",
        )
    )
    emit_json("store_warmstart", {"scales": payload_scales})
