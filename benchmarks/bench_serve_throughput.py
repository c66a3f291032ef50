"""Throughput of the streaming service on a paper-proportioned replay.

Replays a >= 1M-event click stream (``datagen.atscale`` at 1/80 of the
paper's Taobao proportions) through :class:`repro.serve.DetectionService`
on a simulated clock, with periodic *checkpoints*: at each one the
served state is asserted canonically equal to a one-shot batch
:meth:`~repro.core.framework.RICDDetector.detect` over the same prefix
graph — the service's exactness contract, validated at scale, not just
on the difftest miniatures.  Between checkpoints the bounded-staleness
scheduler drives regional rechecks, whose lag distribution (simulated
seconds between a dirty mark and the recheck that covers it) is the
serving-freshness headline: events/s plus p50/p99 recheck lag.

``RICD_SERVE_SCALE`` shrinks the replay for quick local runs (default
``0.0125`` — ~1.09M click records); the event-count floor is only
asserted at the default scale::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py \
        -q -s --json-out benchmarks
"""

import os
import time

import numpy as np

from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.datagen.atscale import AtScaleConfig, generate_at_scale
from repro.eval.reporting import render_table
from repro.graph import BipartiteGraph
from repro.serve import (
    ClickEvent,
    DetectionService,
    ServeConfig,
    SimulatedClock,
    StalenessPolicy,
)

SCALE = float(os.environ.get("RICD_SERVE_SCALE", "0.0125"))
EVENT_FLOOR = 1_000_000  # asserted at the default scale only

#: Explicit thresholds sized to the atscale marketplace: targets (~150
#: clicks) stay *ordinary* (T_hot above them — workers must hit ordinary
#: items hard, Fig. 5) while the 8-12 clicks per worker-target edge clear
#: T_click.  The Pareto-derived defaults would classify every target as
#: hot and screen the whole block away.
PARAMS = RICDParams(k1=10, k2=10, t_hot=500.0, t_click=5.0)

RATE = 50_000.0  # replayed events per simulated second
CHECKPOINTS = 4


def canonical(result):
    """Order-free canonical form (mirrors tests/shard/canon.py locally)."""
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
        sorted((str(node), score) for node, score in result.user_scores.items()),
        sorted((str(node), score) for node, score in result.item_scores.items()),
    )


def percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def build_events():
    """The atscale marketplace as one shuffled, timestamped event stream."""
    arrays = generate_at_scale(
        AtScaleConfig(scale=SCALE, seed=0, target_clicks=(8, 12))
    )
    order = np.random.default_rng(1).permutation(arrays.n_edges)
    users = arrays.user_idx[order].tolist()
    items = arrays.item_idx[order].tolist()
    clicks = arrays.clicks[order].tolist()
    return [
        ClickEvent(f"u{user}", f"i{item}", count, timestamp=index / RATE)
        for index, (user, item, count) in enumerate(zip(users, items, clicks), start=1)
    ]


def test_serve_throughput(benchmark, emit_report, emit_json):
    events = build_events()
    if SCALE >= 0.0125:
        assert len(events) >= EVENT_FLOOR
    clock = SimulatedClock()
    service = DetectionService.over_graph(
        BipartiteGraph(),
        params=PARAMS,
        engine="bitset",
        config=ServeConfig(
            queue_capacity=max(200_000, len(events) // 5),
            max_batch=10_000,
            staleness=StalenessPolicy(max_dirty=None, max_batches=25, max_age=30.0),
        ),
        clock=clock,
    )
    batch_detector = RICDDetector(params=PARAMS, engine="bitset")
    # Checkpoint marks aligned up to pump-chunk boundaries, since the
    # replay loop only observes event counts at chunk ends.
    chunk = service.config.max_batch
    marks = {
        min(len(events), -(-round(len(events) * step / CHECKPOINTS) // chunk) * chunk)
        for step in range(1, CHECKPOINTS + 1)
    }
    checkpoint_rows = []

    def run():
        started = time.perf_counter()
        for start in range(0, len(events), chunk):
            window = events[start : start + chunk]
            clock.advance_to(window[-1].timestamp)
            service.submit_events(window)
            service.pump()
            mark = start + len(window)
            if mark in marks:
                sync_started = time.perf_counter()
                streamed = service.checkpoint()
                expected = batch_detector.detect(service.online.graph)
                assert canonical(streamed) == canonical(expected), (
                    f"checkpoint at {mark} events diverged from batch detection"
                )
                checkpoint_rows.append(
                    [
                        mark,
                        len(streamed.suspicious_users),
                        len(streamed.suspicious_items),
                        f"{time.perf_counter() - sync_started:.2f}",
                    ]
                )
        return time.perf_counter() - started

    wall = benchmark.pedantic(run, rounds=1, iterations=1)
    snapshot = service.snapshot()
    lags = service.recheck_lags
    events_per_s = snapshot.applied / wall

    assert snapshot.queue.shed == 0  # capacity sized so the replay is lossless
    assert snapshot.applied == len(events)
    assert snapshot.result.suspicious_users  # the planted blocks are caught

    emit_report(
        render_table(
            ["events", "suspicious users", "suspicious items", "sync seconds"],
            checkpoint_rows,
            title=(
                f"Serve throughput — {len(events)} events, "
                f"{events_per_s:,.0f} events/s wall, "
                f"{snapshot.rechecks} rechecks, recheck lag "
                f"p50 {percentile(lags, 0.5):.2f}s / "
                f"p99 {percentile(lags, 0.99):.2f}s simulated"
            ),
        )
    )
    emit_json(
        "serve_throughput",
        {
            "scale": SCALE,
            "events": len(events),
            "rate_events_per_sim_s": RATE,
            "checkpoints": CHECKPOINTS,
            "wall_seconds": round(wall, 3),
            "events_per_s": round(events_per_s, 1),
            "rechecks": snapshot.rechecks,
            "recheck_lag_p50_s": round(percentile(lags, 0.5), 3),
            "recheck_lag_p99_s": round(percentile(lags, 0.99), 3),
            "suspicious_users": len(snapshot.result.suspicious_users),
            "suspicious_items": len(snapshot.result.suspicious_items),
            "shed": snapshot.queue.shed,
        },
    )
