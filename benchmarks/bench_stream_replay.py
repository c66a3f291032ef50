"""Online replay: detection latency over a day-structured click stream.

Replays an integration-scale scenario through the incremental detector
(Section VIII future work) and reports, per injected group, the day on
which 80% of its accounts were flagged — the "how early" metric the paper
motivates with the Double-11 scenario — plus the stream's operational
profile: per-day ingest-plus-recheck latency percentiles, from the
instrumented :class:`~repro.datagen.streams.ReplayResult`.  Each day is
rechecked the day it arrives.
"""

from repro.config import RICDParams, ScreeningParams
from repro.core.incremental import IncrementalRICD
from repro.datagen import small_scenario
from repro.datagen.streams import StreamConfig, replay
from repro.eval.reporting import render_table
from repro.graph import BipartiteGraph


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def test_stream_replay(benchmark, emit_report, emit_json):
    scenario = small_scenario(seed=2)
    config = StreamConfig(days=10, campaign_start=4, campaign_end=8, seed=5)

    def run():
        online = IncrementalRICD(
            BipartiteGraph(),
            params=RICDParams(k1=5, k2=5),
            screening=ScreeningParams(min_users=2, min_items=2),
        )
        # Bar at 60%: sloppy workers (30% of accounts) are cleared by
        # screening by design, so a 0.8 bar would be unreachable for them.
        return replay(scenario, online, config, detection_bar=0.6)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for group in scenario.truth.groups:
        day = outcome.detection_day.get(group.group_id)
        rows.append(
            [
                group.group_id,
                len(group.workers),
                len(group.target_items),
                day if day is not None else "missed",
            ]
        )
    emit_report(
        render_table(
            ["group", "workers", "targets", "detected on day"],
            rows,
            title=(
                "Online replay — campaign window days "
                f"{config.campaign_start}-{config.campaign_end} of {config.days}; "
                f"ingest p50 {_percentile(outcome.batch_seconds, 0.5) * 1000:.0f}ms / "
                f"p99 {_percentile(outcome.batch_seconds, 0.99) * 1000:.0f}ms per day"
            ),
        )
    )
    detected = [d for d in outcome.detection_day.values()]
    assert detected, "no group was detected during the replay"
    # Detection must land inside (or right at the end of) the campaign —
    # that is the whole point of the online module.
    assert min(detected) <= config.campaign_end
    # The instrumentation is complete: every day was timed.
    assert len(outcome.batch_seconds) == config.days
    emit_json(
        "stream_replay",
        {
            "days": config.days,
            "detected_groups": len(detected),
            "earliest_detection_day": min(detected),
            "ingest_p50_s": round(_percentile(outcome.batch_seconds, 0.5), 4),
            "ingest_p99_s": round(_percentile(outcome.batch_seconds, 0.99), 4),
        },
    )
