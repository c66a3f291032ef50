"""Bounded soak: 30 simulated seconds of traffic under ingest faults.

The CI ``servetest`` entry re-runs this module with ``RICD_FAULTS``
exported (``sites=ingest``), so the ambient-environment injection path is
exercised too; standalone runs install their own injector.  Either way
the soak is wall-clock free — the 30 seconds are simulated — and the
exit criteria are conservation (no click lost to a fault) and full
recovery to a batch-equal state once injection stops.
"""

import contextlib
import os
import random

import pytest

from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.graph import BipartiteGraph
from repro.resilience import faults
from repro.serve import DetectionService, ServeConfig, SimulatedClock, StalenessPolicy

from ..canon import canonical_result

pytestmark = pytest.mark.servetest

PARAMS = RICDParams(k1=4, k2=4)

STEP_SECONDS = 0.05
SOAK_SECONDS = 30.0
EVENTS_PER_STEP = 2


def test_soak_under_ingest_faults_conserves_and_recovers():
    ambient = os.environ.get("RICD_FAULTS")
    scope = (
        contextlib.nullcontext()
        if ambient
        else faults.injecting("error=0.25,sites=ingest,seed=11")
    )
    clock = SimulatedClock()
    service = DetectionService.over_graph(
        BipartiteGraph(),
        params=PARAMS,
        engine="reference",
        config=ServeConfig(
            queue_capacity=200,
            max_batch=25,
            staleness=StalenessPolicy(max_dirty=None, max_batches=20, max_age=5.0),
        ),
        clock=clock,
    )
    rng = random.Random(2026)
    steps = int(SOAK_SECONDS / STEP_SECONDS)
    faulted_pumps = 0
    with scope:
        for step in range(steps):
            clock.advance(STEP_SECONDS)
            for _ in range(EVENTS_PER_STEP):
                service.submit(
                    f"u{rng.randrange(60)}", f"i{rng.randrange(24)}", rng.randint(1, 3)
                )
            report = service.pump()
            faulted_pumps += int(report.ingest_fault)
            stats = service.queue.stats()
            assert stats.balanced
            assert stats.depth <= service.config.queue_capacity
        assert clock.now() >= SOAK_SECONDS

    # Injection over (the ambient env injector is silenced too): the
    # backlog a total-failure spec may have pinned in the queue drains.
    faults.install(None)
    try:
        final = service.checkpoint()
    finally:
        faults.reset()

    snapshot = service.snapshot()
    submitted = steps * EVENTS_PER_STEP
    assert snapshot.queue.submitted == submitted
    assert snapshot.queue.depth == 0
    # Conservation through every fault: ingested + shed == submitted.
    assert snapshot.applied + snapshot.queue.shed == submitted
    assert snapshot.rechecks >= 1
    if not ambient:
        assert faulted_pumps > 0  # the soak actually soaked

    # Recovery: the post-fault state is batch-equal on the live graph.
    expected = RICDDetector(params=PARAMS, engine="reference").detect(service.online.graph)
    assert canonical_result(final) == canonical_result(expected)
