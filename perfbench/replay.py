"""``replay``: a store-backed service backfills a shuffled click table.

Closed loop, one thread, pump mode.  Set-up writes the 1/200-scale
``datagen.atscale`` marketplace (~432 k click records, planted worker
blocks included) as a click table in an order shuffled by the seed.  A
backfill reads the table with ``iter_click_table`` and submits it in
10 k-event micro-batches to a service that starts from
``DetectionService.from_store`` on an empty store.  The staleness bound
never fires, so the only rechecks are the four evenly spaced
``checkpoint()`` calls: table reading, ingest, delta persistence and
checkpoint compaction do the work; seed expansion, HTTP and threshold
derivation never run.  Each run backfills the table twice, into two
fresh stores, and reports over both.
"""

from __future__ import annotations

import csv
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import repro.graph.io as graph_io
from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.datagen.atscale import AtScaleConfig, generate_at_scale
from repro.graph import BipartiteGraph
from repro.serve import (
    ClickEvent,
    DetectionAPI,
    DetectionService,
    ServeConfig,
    StalenessPolicy,
    VerdictRequest,
)

from perfbench.measure import (
    Report,
    canonical,
    expand,
    match_freshness,
    median,
    percentile,
    planted_misses,
    repeat,
    size_mb,
    tally,
)
from perfbench.probes import paused

SCALE = 0.005
BATCH = 10_000
CHECKPOINTS = 4
#: Identical backfills per run, each into its own store: one backfill's
#: four checkpoints are too few windows to time steadily.
PASSES = 2
#: Seconds of back-to-back resumes after each pass; ``resume_s`` is the
#: median over all of them.
RESUME_WINDOW_S = 2.5
#: The thresholds bench_serve_throughput.py uses for at-scale data: the
#: ~150-click targets stay ordinary while 8-12 clicks per worker edge
#: clear T_click.
PARAMS = RICDParams(k1=10, k2=10, t_hot=500.0, t_click=5.0)
#: No bound fires before the table ends: every recheck is a checkpoint.
CONFIG = ServeConfig(
    max_batch=BATCH,
    staleness=StalenessPolicy(max_dirty=None, max_batches=10**9, max_age=None),
)


def resume_window(store, user: str, window: float, problems: list, config=CONFIG) -> list:
    """Seconds per ``from_store`` + first verdict, resumed back to back.

    Every resumed service must serve the verdict the store's head result
    holds for ``user``, at the head version.
    """

    def resume():
        return DetectionService.from_store(store, params=PARAMS, engine="auto", config=config)

    head = resume()
    expected = (user in {str(node) for node in head.result.suspicious_users}, head.store_version)
    request = VerdictRequest("user", user)
    seconds, verdicts = repeat(lambda: DetectionAPI(resume()).verdict(request), window)
    if any((verdict.suspicious, verdict.store_version) != expected for verdict in verdicts):
        problems.append("a resumed service serves a different verdict")
    return seconds


def planted_campaigns(arrays) -> list:
    """``(workers, targets)`` name sets of each planted campaign."""
    return [
        ({f"u{row}" for row in rows.tolist()}, {f"i{column}" for column in columns.tolist()})
        for rows, columns in zip(arrays.worker_rows, arrays.target_columns)
    ]


def check_planted(campaigns, result, problems) -> list:
    """Require the planted workers :func:`planted_misses` requires.

    Returns the rows a run prints about them: the share of all planted
    workers ``result`` flags and, when campaigns share a target, how many
    of their workers went unflagged.
    """
    flagged = {str(user) for user in result.suspicious_users}
    missed, shared, shared_missed = planted_misses(campaigns, flagged)
    if missed:
        problems.append(f"{len(missed)} planted workers not flagged")
    planted = set().union(*(workers for workers, _ in campaigns))
    rows = [("planted_recall", len(planted & flagged) / len(planted), "fraction", len(planted))]
    if shared:
        rows.append(("planted_shared_target_unflagged", shared_missed, "workers", shared))
    return rows


def prepare(seed: int, workdir: Path) -> SimpleNamespace:
    """Write the shuffled table and bootstrap one empty store per pass."""
    arrays = generate_at_scale(AtScaleConfig(scale=SCALE, seed=seed, target_clicks=(8, 12)))
    order = np.random.default_rng(seed).permutation(arrays.n_edges)
    workdir.mkdir(parents=True, exist_ok=True)
    table = workdir / "clicks.csv"
    with table.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["User_ID", "Item_ID", "Click"])
        writer.writerows(
            zip(
                [f"u{user}" for user in arrays.user_idx[order].tolist()],
                [f"i{item}" for item in arrays.item_idx[order].tolist()],
                arrays.clicks[order].tolist(),
            )
        )
    stores = [workdir / f"store-{index}" for index in range(PASSES)]
    return SimpleNamespace(
        table=table,
        campaigns=planted_campaigns(arrays),
        stores=stores,
        services=[
            DetectionService.from_store(store, params=PARAMS, engine="auto", config=CONFIG)
            for store in stores
        ],
    )


def measure(prepared: SimpleNamespace, seconds: float, log, tracer) -> Report:
    """Read and backfill the whole table once per pass; ``seconds`` does not change the work."""
    problems = []
    sends = []
    checkpoint_s = []
    expected = {}  # checkpoint mark -> canonical batch result
    parity_graph = BipartiteGraph()
    parity_from = 0
    excluded = 0.0
    resume_s = []
    probe = min(min(workers) for workers, _ in prepared.campaigns)
    started = perf_counter()
    for store, service in zip(prepared.stores, prepared.services):
        events = [ClickEvent(*record) for record in graph_io.iter_click_table(prepared.table)]
        total = len(events)
        marks = {
            min(total, -(-round(total * step / CHECKPOINTS) // BATCH) * BATCH)
            for step in range(1, CHECKPOINTS + 1)
        }
        for start in range(0, total, BATCH):
            batch = events[start : start + BATCH]
            sends.append((perf_counter(), len(batch)))
            service.submit_events(batch)
            service.pump()
            end = start + len(batch)
            if end not in marks:
                continue
            began = perf_counter()
            streamed = service.checkpoint()
            checkpoint_s.append(perf_counter() - began)
            # Parity against a one-shot detection of an independently built
            # graph of the same clicks, computed on the first pass; not part
            # of the backfill's time.
            began = perf_counter()
            with paused(tracer):
                if end not in expected:
                    for event in events[parity_from:end]:
                        parity_graph.add_click(event.user, event.item, event.clicks)
                    parity_from = end
                    expected[end] = canonical(
                        RICDDetector(params=PARAMS, engine="auto").detect(parity_graph)
                    )
                if canonical(streamed) != expected[end]:
                    problems.append(f"checkpoint at {end} events differs from batch detection")
            excluded += perf_counter() - began
        began = perf_counter()
        resume_s += resume_window(store, probe, RESUME_WINDOW_S, problems)
        excluded += perf_counter() - began
    wall = perf_counter() - started - excluded

    shed = sum(service.queue.stats().shed for service in prepared.services)
    if shed:
        problems.append(f"{shed} events shed")
    planted = [
        check_planted(prepared.campaigns, service.result, problems)
        for service in prepared.services
    ][-1]

    segments = match_freshness(sends, log.applied, log.rechecks)
    if any(value is None for value, _ in segments):
        problems.append("clicks never covered by a recheck")
    freshness = expand(segments)
    fresh_p50, fresh_p90 = percentile(freshness, 0.5), percentile(freshness, 0.9)
    store_mb = size_mb(prepared.stores[-1])

    applied = PASSES * total
    attempted, failed = tally(
        events=applied, shed=shed, recheck_ok=[ok for _, _, ok in log.rechecks]
    )
    events_per_s = applied / wall
    return Report(
        gated={
            "events_per_s": events_per_s,
            "freshness_p50_s": fresh_p50,
            "freshness_p90_s": fresh_p90,
            "store_mb": store_mb,
        },
        named=[
            ("events_per_s", events_per_s, "events/s", applied),
            ("checkpoint_s", median(checkpoint_s), "s", len(checkpoint_s)),
            ("resume_s", median(resume_s), "s", len(resume_s)),
            ("store_mb", store_mb, "MB", 1),
            ("freshness_p50_s", fresh_p50, "s", len(freshness)),
            ("freshness_p90_s", fresh_p90, "s", len(freshness)),
            *planted,
        ],
        main=1 / events_per_s,
        attempted=attempted,
        failed=failed,
        problems=problems,
        shed=shed,
        roots=("io.read", "service.submit_events", "service.pump", "service.checkpoint"),
    )
