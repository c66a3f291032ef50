"""The detection service end to end: pump, recheck cadence, ladder, faults.

Every test drives the service in pump mode (or thread mode) on a
:class:`SimulatedClock` — no test here ever sleeps on the wall clock.
"""

import pytest

from repro import obs
from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.errors import ConfigError
from repro.graph import BipartiteGraph
from repro.resilience.faults import injecting
from repro.serve import (
    DetectionService,
    ServeConfig,
    SimulatedClock,
    StalenessPolicy,
)

from ..canon import canonical_result

pytestmark = pytest.mark.servetest

PARAMS = RICDParams(k1=4, k2=4)


class TickingClock(SimulatedClock):
    """A simulated clock that advances ``step`` on every ``now()`` read.

    Lets a test make a recheck "take" simulated time (each internal clock
    read moves the clock), so clock-anchored budgets can expire without
    any wall-clock involvement.
    """

    def __init__(self, step: float):
        super().__init__()
        self.step = step

    def now(self) -> float:
        value = super().now()
        self.advance(self.step)
        return value


def make_service(clock=None, **config_kwargs):
    config_kwargs.setdefault("staleness", StalenessPolicy(max_batches=10**9))
    return DetectionService.over_graph(
        BipartiteGraph(),
        params=PARAMS,
        engine="reference",
        config=ServeConfig(**config_kwargs),
        clock=clock or SimulatedClock(),
    )


def submit_burst(service, n, clicks=1, prefix="u"):
    for i in range(n):
        service.submit(f"{prefix}{i}", f"i{i % 5}", clicks)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_batch": 0},
        {"coarse_factor": 1},
        {"high_watermark": 1.5},
        {"low_watermark": 0.9, "high_watermark": 0.5},
        {"recheck_budget": 0.0},
        {"poll_interval": 0.0},
    ],
)
def test_config_rejects_degenerate_envelopes(kwargs):
    with pytest.raises(ConfigError):
        ServeConfig(**kwargs)


# ----------------------------------------------------------------------
# Pump + recheck cadence
# ----------------------------------------------------------------------
def test_pump_drains_at_most_max_batch():
    service = make_service(max_batch=3)
    submit_burst(service, 7)
    assert service.pump().applied == 3
    assert service.pump().applied == 3
    assert service.pump().applied == 1
    assert service.pump().applied == 0


def test_batch_bound_fires_at_the_exact_pump():
    service = make_service(staleness=StalenessPolicy(max_batches=3), max_batch=1)
    submit_burst(service, 3)
    assert service.pump().recheck_reason is None
    assert service.pump().recheck_reason is None
    report = service.pump()
    assert report.recheck_reason == "batches"
    assert service.online.batches_since_recheck == 0


def test_dirty_bound_fires_when_region_grows_past_it():
    service = make_service(staleness=StalenessPolicy(max_dirty=6, max_batches=None), max_batch=2)
    submit_burst(service, 4)  # 4 users + up to 4 items dirty
    first = service.pump()   # 2 users + <=2 items dirty: below the bound
    assert first.recheck_reason is None
    second = service.pump()  # region now >= 6 nodes
    assert second.recheck_reason == "dirty"
    assert service.online.dirty_size == 0


def test_age_bound_fires_on_an_idle_pump():
    clock = SimulatedClock()
    service = make_service(
        clock=clock, staleness=StalenessPolicy(max_batches=None, max_age=60.0)
    )
    submit_burst(service, 2)
    assert service.pump().recheck_reason is None
    clock.advance(60.0)
    # No new traffic: the idle pump still notices the aged dirty region.
    report = service.pump()
    assert report.applied == 0
    assert report.recheck_reason == "age"
    assert service.recheck_lags[-1] >= 60.0


def test_no_recheck_while_nothing_is_dirty():
    service = make_service(staleness=StalenessPolicy(max_batches=1))
    assert service.pump().recheck_reason is None
    assert service.snapshot().rechecks == 0


# ----------------------------------------------------------------------
# Conservation: no event silently lost
# ----------------------------------------------------------------------
def test_ingested_plus_shed_equals_submitted():
    service = make_service(queue_capacity=10, max_batch=4)
    submit_burst(service, 50)
    service.drain()
    snapshot = service.snapshot()
    assert snapshot.queue.depth == 0
    assert snapshot.applied + snapshot.queue.shed == snapshot.queue.submitted == 50
    assert snapshot.queue.shed == 40  # capacity 10: the window kept the tail


def test_drain_is_idempotent():
    service = make_service(max_batch=5)
    submit_burst(service, 12)
    first = service.drain()
    again = service.drain()
    assert canonical_result(first) == canonical_result(again)
    assert service.snapshot().applied == 12
    assert service.online.dirty_size == 0


def test_stop_without_start_is_a_safe_drain():
    service = make_service()
    submit_burst(service, 3)
    service.stop(drain=True)
    service.stop(drain=True)  # idempotent
    assert service.snapshot().applied == 3


def test_thread_mode_start_stop_is_deterministic_under_simulated_clock():
    clock = SimulatedClock()
    service = make_service(clock=clock, max_batch=2)
    service.start()
    service.start()  # second start is a no-op
    submit_burst(service, 9)
    result = service.stop(drain=True)
    snapshot = service.snapshot()
    assert snapshot.applied + snapshot.queue.shed == snapshot.queue.submitted == 9
    assert snapshot.queue.depth == 0
    assert result is service.online.current_result
    # The idle pump loop parked on clock.sleep: simulated time moved,
    # the wall clock did not (nothing here ever calls time.sleep).
    assert clock.now() >= 0.0


# ----------------------------------------------------------------------
# Checkpoint parity
# ----------------------------------------------------------------------
def test_checkpoint_equals_one_shot_batch_detection():
    from repro.datagen import tiny_scenario

    scenario = tiny_scenario()
    service = make_service(max_batch=500)
    for user, item, clicks in scenario.graph.edges():
        service.submit(user, item, clicks)
    streamed = service.checkpoint()
    expected = RICDDetector(params=PARAMS, engine="reference").detect(service.online.graph)
    assert canonical_result(streamed) == canonical_result(expected)
    assert streamed.suspicious_users  # the planted attack actually trips detection


# ----------------------------------------------------------------------
# Fault injection at the ingest site
# ----------------------------------------------------------------------
def test_ingest_fault_requeues_the_batch_and_retries():
    service = make_service(max_batch=5)
    submit_burst(service, 5)
    with injecting("error=1.0,sites=ingest,max=1"):
        report = service.pump()
        assert report.ingest_fault
        assert report.applied == 0
        # The batch went back to pending: nothing lost, nothing applied.
        assert len(service.queue) == 5
        assert service.snapshot().applied == 0
        retry = service.pump()  # injector exhausted (max=1): retry lands
    assert not retry.ingest_fault
    assert retry.applied == 5
    snapshot = service.snapshot()
    assert snapshot.applied == 5
    assert snapshot.queue.balanced


def test_recheck_fault_serves_previous_result_marked_stale():
    service = make_service(staleness=StalenessPolicy(max_batches=1))
    submit_burst(service, 3)
    with injecting("error=1.0,sites=recheck,max=1"):
        service.pump()
    snapshot = service.snapshot()
    assert snapshot.result.stale
    assert snapshot.degraded
    assert "serve.recheck_failed" in snapshot.provenance
    # The dirty region survived the failed pass; the next recheck covers it.
    assert service.online.dirty_size > 0
    service.drain()
    assert not service.snapshot().result.stale
    assert service.online.dirty_size == 0


def test_a_failed_checkpoint_recheck_ages_into_an_age_recheck():
    """An owed full recheck starts the age clock, so ``max_age`` alone
    reschedules a checkpoint recheck that failed."""
    from repro.datagen import tiny_scenario

    clock = SimulatedClock()
    service = DetectionService.over_graph(
        tiny_scenario().graph,
        params=PARAMS,
        config=ServeConfig(
            staleness=StalenessPolicy(max_dirty=None, max_batches=None, max_age=5)
        ),
        clock=clock,
    )
    assert service.online.dirty_size == 0
    with injecting("error=1.0,sites=recheck,max=1"):
        assert service.checkpoint().stale
    reasons = []
    while not reasons or reasons[-1] is None:
        assert len(reasons) < 3, reasons
        clock.advance(60.0)
        reasons.append(service.pump().recheck_reason)
    assert reasons == ["age"]
    assert not service.result.stale
    assert service.online.dirty_since is None


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
def test_sustained_pressure_walks_the_ladder_one_level_per_pump():
    service = make_service(queue_capacity=10, max_batch=1, staleness=StalenessPolicy(max_batches=10**9))
    submit_burst(service, 10)  # depth 10 >= high watermark (8)
    assert service.pump().level == "coarse"
    submit_burst(service, 2)   # keep depth at the watermark
    assert service.pump().level == "stale"
    snapshot = service.snapshot()
    assert snapshot.degraded
    assert "serve.ladder.coarse" in snapshot.provenance
    assert "serve.ladder.stale" in snapshot.provenance


def test_coarse_level_scales_the_staleness_bounds():
    service = make_service(
        queue_capacity=20,
        max_batch=1,
        coarse_factor=4,
        staleness=StalenessPolicy(max_batches=2),
    )
    # Depth sits at exactly the high watermark (16) after the first drain,
    # then decays one per pump but stays above the low watermark (4): one
    # escalation to coarse, no further movement.
    submit_burst(service, 17)
    assert service.pump().level == "coarse"
    # At scale 4 the batch bound is 8, so pumps 2..7 stay recheck-free...
    reasons = [service.pump().recheck_reason for _ in range(6)]
    assert reasons == [None] * 6
    # ...and the 8th batch since the last recheck trips the scaled bound.
    assert service.pump().recheck_reason == "batches"


def test_stale_level_suppresses_rechecks_with_explicit_provenance():
    service = make_service(
        queue_capacity=10, max_batch=1, staleness=StalenessPolicy(max_batches=1)
    )
    submit_burst(service, 20)  # overflow: 10 shed, depth pinned at capacity
    first = service.pump()
    assert first.recheck_reason == "batches"  # level was still normal
    assert first.level == "coarse"            # escalated after the drain
    second = service.pump()
    assert second.level == "stale"            # depth still at the watermark
    # At level 2 the next due recheck (batch bound 1 * coarse_factor 4) is
    # suppressed: the previous result keeps serving, explicitly marked.
    reports = [service.pump() for _ in range(2)]
    assert all(r.recheck_reason is None and not r.recheck_suppressed for r in reports)
    suppressed = service.pump()
    assert suppressed.recheck_suppressed
    assert suppressed.recheck_reason is None
    snapshot = service.snapshot()
    assert snapshot.degraded
    assert "serve.stale" in snapshot.provenance


def test_ladder_deescalates_after_the_queue_drains():
    service = make_service(queue_capacity=10, max_batch=1, staleness=StalenessPolicy(max_batches=1))
    submit_burst(service, 10)
    service.pump()
    assert service.snapshot().level == "coarse"
    # Drain below the low watermark (2); no shed happened, so each idle
    # pump steps the ladder back down one level.
    while len(service.queue) > 0:
        service.pump()
    assert service.snapshot().level == "normal"
    assert "serve.ladder.normal" in service.snapshot().provenance


def test_shed_traffic_marks_the_snapshot_degraded_until_recheck():
    service = make_service(queue_capacity=2, max_batch=2, staleness=StalenessPolicy(max_batches=10**9))
    submit_burst(service, 5)  # sheds 3
    service.pump()
    snapshot = service.snapshot()
    assert snapshot.degraded
    assert "serve.shed" in snapshot.provenance


# ----------------------------------------------------------------------
# Budget-watched rechecks
# ----------------------------------------------------------------------
def test_recheck_over_clock_budget_escalates():
    clock = TickingClock(step=1.0)
    service = make_service(
        clock=clock,
        queue_capacity=10,
        max_batch=2,
        recheck_budget=0.5,
        staleness=StalenessPolicy(max_batches=1),
    )
    # Leave 4 events queued after the pump (above the low watermark 2),
    # so the over-budget escalation is not immediately walked back.
    submit_burst(service, 6)
    report = service.pump()
    assert report.recheck_reason == "batches"
    snapshot = service.snapshot()
    assert "serve.recheck_over_budget" in snapshot.provenance
    assert snapshot.level == "coarse"


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_gauges_and_counters_land_in_the_recorder():
    clock = SimulatedClock()
    service = make_service(clock=clock, staleness=StalenessPolicy(max_batches=2), queue_capacity=3)
    recorder = obs.Recorder()
    with obs.recording(recorder):
        submit_burst(service, 5)  # sheds 2 through the bounded queue
        service.pump()            # batch 1: marks dirty at t=0, no recheck yet
        clock.advance(2.0)
        submit_burst(service, 2, prefix="late")
        service.pump()            # batch 2: recheck fires, region aged 2s
    assert recorder.counters["serve.shed_events"] == 2
    assert recorder.counters["serve.ingested"] == 5
    assert recorder.counters["serve.rechecks"] == 1
    assert recorder.gauges["serve.queue_depth"] == 0
    assert recorder.gauges["serve.dirty_region"] == 0
    assert recorder.gauges["serve.recheck_lag"] == 2.0
    assert recorder.gauges["serve.ladder_level"] == "normal"
    assert recorder.gauges["serve.events_per_s"] > 0
    assert recorder.gauges["serve.recheck_reason"] == "batches"
    assert "serve.recheck" in recorder.spans
