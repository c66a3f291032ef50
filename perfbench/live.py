"""``live``: open-loop HTTP traffic against a resumed ``ricd server``.

One process: the service resumes from a store holding half of the
organic 1/500-scale ``datagen.atscale`` marketplace and starts exactly as
``ricd server`` starts it (``DetectionService.from_store``, ``serve_api``,
``service.start()``, the CLI's staleness defaults).  Two client threads,
one keep-alive connection each, send on a fixed schedule: one POSTs
100-record ``/v1/clicks`` batches of the held-out organic clicks (the
planted campaigns mixed into the opening stretch), the other GETs
``/v1/verdict/user/<id>`` for seeded user ids.  Every request is timed
from its scheduled send time, so a stall delays later requests' clocks.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from repro.core.framework import RICDDetector
from repro.datagen.atscale import AtScaleConfig, generate_at_scale
from repro.graph import from_click_records
from repro.serve import DetectionService, ServeConfig, StalenessPolicy, serve_api

from perfbench.measure import (
    Report,
    applied_time,
    canonical,
    expand,
    match_freshness,
    median,
    percentile,
    size_mb,
    tally,
)
from perfbench.probes import late_p90_ms, paused
from perfbench.replay import PARAMS, check_planted, planted_campaigns, resume_window

SCALE = 0.002
#: `ricd server`'s defaults: --max-batch 1000 --max-dirty 5000
#: --max-batches 10 --max-age 60.
CONFIG = ServeConfig(
    max_batch=1_000,
    staleness=StalenessPolicy(max_dirty=5_000, max_batches=10, max_age=60.0),
)
#: About half of what the service sustains on a 2-core machine: at
#: 1,000 clicks/s verdict reads fall seconds behind.
CLICK_RATE = 500.0
POST_RECORDS = 100
READ_RATE = 10.0
#: Clicks keep flowing this long after the window, so the window's last
#: clicks are covered by scheduled rechecks rather than by shutdown.
TAIL_S = 3.0
#: The planted campaigns' clicks land among the stream's first clicks.
CAMPAIGN_SPAN = 2_000
GATE_READS = 20
#: Seconds of back-to-back resumes before and after the traffic;
#: ``resume_s`` is the median over both.
RESUME_WINDOW_S = 2.5


def _records(arrays, index):
    return list(
        zip(
            [f"u{user}" for user in arrays.user_idx[index].tolist()],
            [f"i{item}" for item in arrays.item_idx[index].tolist()],
            arrays.clicks[index].tolist(),
        )
    )


def prepare(seed: int, workdir: Path) -> SimpleNamespace:
    """Split the marketplace and bootstrap the store with its first half."""
    arrays = generate_at_scale(AtScaleConfig(scale=SCALE, seed=seed, target_clicks=(8, 12)))
    first_worker = min(int(rows[0]) for rows in arrays.worker_rows)
    rng = np.random.default_rng(seed)
    organic = rng.permutation(np.flatnonzero(arrays.user_idx < first_worker))
    campaign = rng.permutation(np.flatnonzero(arrays.user_idx >= first_worker))
    half = len(organic) // 2
    base = _records(arrays, organic[:half])
    stream = _records(arrays, organic[half:])
    slots = np.sort(rng.choice(CAMPAIGN_SPAN, size=len(campaign), replace=False))
    for offset, (slot, record) in enumerate(zip(slots.tolist(), _records(arrays, campaign))):
        stream.insert(slot + offset, record)
    store = workdir / "store"
    DetectionService.from_store(
        store, initial_graph=from_click_records(base), params=PARAMS, engine="auto"
    )
    return SimpleNamespace(
        seed=seed,
        store=store,
        base=base,
        stream=stream,
        campaign_end=CAMPAIGN_SPAN + len(campaign),
        n_users=arrays.n_users,
        campaigns=planted_campaigns(arrays),
    )


class _Client:
    """One keep-alive connection sending on a fixed schedule."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.log = []  # (due, sent, done, status)

    def request(self, due: float, method: str, path: str, body=None):
        delay = due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = perf_counter()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            payload, status = b"", 0
        self.log.append((due, sent, perf_counter(), status))
        return status, payload


def measure(prepared: SimpleNamespace, seconds: float, log, tracer) -> Report:
    """``seconds`` of scheduled traffic, plus a short tail of clicks."""
    problems = []
    probe = min(min(workers) for workers, _ in prepared.campaigns)
    resume_s = resume_window(prepared.store, probe, RESUME_WINDOW_S, problems, CONFIG)
    service = DetectionService.from_store(
        prepared.store, params=PARAMS, engine="auto", config=CONFIG
    )
    server, server_thread = serve_api(service, port=0)
    if tracer is not None:
        tracer.install_http(server)
    service.start()
    port = server.server_address[1]
    rng = np.random.default_rng(prepared.seed + 1)

    # Restart contract: the first verdicts match the persisted head.
    gate = _Client(port)
    with paused(tracer):
        head_version = service.store_version
        flagged_at_head = {str(user) for user in service.store.load_result().suspicious_users}
        flagged = sorted(flagged_at_head)[: GATE_READS // 2]
        probes = flagged + [
            f"u{user}" for user in rng.integers(0, prepared.n_users, GATE_READS - len(flagged))
        ]
        for user in probes:
            status, payload = gate.request(perf_counter(), "GET", f"/v1/verdict/user/{user}")
            verdict = json.loads(payload) if status == 200 else {}
            if (verdict.get("suspicious"), verdict.get("store_version")) != (
                user in flagged_at_head,
                head_version,
            ):
                problems.append(f"verdict for {user} after resume differs from the head result")
    gate.conn.close()

    stream = prepared.stream
    window_posts = int(seconds * CLICK_RATE / POST_RECORDS)
    campaign_posts = -(-prepared.campaign_end // POST_RECORDS)
    posts = min(
        max(window_posts, campaign_posts) + int(TAIL_S * CLICK_RATE / POST_RECORDS),
        len(stream) // POST_RECORDS,
    )
    reads = int(seconds * READ_RATE)
    read_users = [f"u{user}" for user in rng.integers(0, prepared.n_users, reads)]
    clicker, reader = _Client(port), _Client(port)
    start = perf_counter() + 0.1
    window_end = start + seconds

    def send_clicks():
        for post in range(posts):
            body = json.dumps({"records": stream[post * POST_RECORDS : (post + 1) * POST_RECORDS]})
            clicker.request(start + post * POST_RECORDS / CLICK_RATE, "POST", "/v1/clicks", body)

    def send_reads():
        for index, user in enumerate(read_users):
            reader.request(start + index / READ_RATE, "GET", f"/v1/verdict/user/{user}")

    clients = [threading.Thread(target=send_clicks), threading.Thread(target=send_reads)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    clicker.conn.close()
    reader.conn.close()
    server.shutdown()
    server.server_close()
    server_thread.join(timeout=30)
    service.stop(drain=False)

    final = service.checkpoint()  # what `ricd server` does on shutdown
    store_mb = size_mb(prepared.store)

    statuses = [status for *_, status in gate.log + clicker.log + reader.log]
    if any(not 200 <= status < 300 for status in statuses):
        problems.append("non-2xx responses")
    accepted = [
        post for post, (*_, status) in enumerate(clicker.log) if 200 <= status < 300
    ]
    with paused(tracer):
        applied = prepared.base + [
            record
            for post in accepted
            for record in stream[post * POST_RECORDS : (post + 1) * POST_RECORDS]
        ]
        expected = RICDDetector(params=PARAMS, engine="auto").detect(from_click_records(applied))
        if canonical(final) != canonical(expected):
            problems.append("final checkpoint differs from batch detection")
    planted = check_planted(prepared.campaigns, final, problems)

    window_sends = [
        (due, POST_RECORDS) for due, _, _, status in clicker.log
        if due < window_end and 200 <= status < 300
    ]
    segments = match_freshness(window_sends, log.applied, log.rechecks)
    if any(value is None for value, _ in segments):
        problems.append("clicks never covered by a recheck")
    freshness = expand(segments)
    in_window = [entry for entry in clicker.log + reader.log if entry[0] < window_end]
    submit = [done - due for due, _, done, _ in clicker.log if due < window_end]
    verdict = [done - due for due, _, done, _ in reader.log]
    window_clicks = sum(count for _, count in window_sends)
    absorbed = applied_time(log.applied, window_clicks)

    resume_s += resume_window(prepared.store, probe, RESUME_WINDOW_S, problems, CONFIG)

    shed = service.queue.stats().shed
    attempted, failed = tally(
        events=len(clicker.log) * POST_RECORDS,
        shed=shed,
        statuses=statuses,
        recheck_ok=[ok for _, _, ok in log.rechecks],
        degraded=[final.degraded],
    )
    events_per_s = window_clicks / (absorbed - start)
    fresh_p50, fresh_p90 = percentile(freshness, 0.5), percentile(freshness, 0.9)

    def ms(value):
        return None if value is None else value * 1e3

    return Report(
        gated={
            "events_per_s": events_per_s,
            "freshness_p50_s": fresh_p50,
            "freshness_p90_s": fresh_p90,
            "store_mb": store_mb,
        },
        named=[
            ("events_per_s", events_per_s, "events/s", window_clicks),
            ("freshness_p50_s", fresh_p50, "s", len(freshness)),
            ("freshness_p90_s", fresh_p90, "s", len(freshness)),
            ("verdict_p50_ms", ms(percentile(verdict, 0.5)), "ms", len(verdict)),
            ("verdict_p90_ms", ms(percentile(verdict, 0.9)), "ms", len(verdict)),
            ("submit_p50_ms", ms(percentile(submit, 0.5)), "ms", len(submit)),
            ("submit_p90_ms", ms(percentile(submit, 0.9)), "ms", len(submit)),
            ("resume_s", median(resume_s), "s", len(resume_s)),
            ("store_mb", store_mb, "MB", 1),
            *planted,
        ],
        main=fresh_p50,
        attempted=attempted,
        failed=failed,
        problems=problems,
        shed=shed,
        loadgen={
            "loadgen.late_p90_ms": late_p90_ms([sent - due for due, sent, _, _ in in_window]),
            "loadgen.sent_clicks": len(clicker.log) * POST_RECORDS,
            "loadgen.sent_reads": len(reader.log),
        },
        roots=("service.pump",),
    )
