"""Self-test of the benchmark's bookkeeping against hand-computed logs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from perfbench.measure import (
    applied_time,
    expand,
    match_freshness,
    percentile,
    planted_misses,
    tally,
)


def test_nearest_rank_percentiles():
    hundred = list(range(100, 0, -1))  # 1..100, unsorted on purpose
    assert percentile(hundred, 0.5) == 50
    assert percentile(hundred, 0.9) == 90  # rank 90, ten samples beyond


def test_percentile_refused_with_fewer_than_ten_beyond():
    assert percentile(range(1, 100), 0.9) is None  # rank 90 of 99: nine beyond
    assert percentile(range(1, 20), 0.5) is None  # rank 10 of 19: nine beyond
    assert percentile(range(1, 21), 0.5) == 10
    assert percentile([], 0.5) is None


def test_fifo_matching_of_clicks_to_covering_rechecks():
    sends = [(0.0, 3), (1.0, 2), (3.0, 1), (4.0, 2)]
    applied = [(0.5, 2), (1.5, 3), (3.5, 1)]
    rechecks = [
        (0.2, 0.4, True),  # began before anything was applied
        (0.6, 0.9, False),  # left the result stale: covers nothing
        (0.7, 1.2, True),  # covers batch one
        (2.0, 2.5, True),  # covers batch two
    ]
    segments = match_freshness(sends, applied, rechecks)
    assert segments == [
        (1.2, 2),  # clicks 0-1: sent 0.0, applied 0.5, covered at 1.2
        (2.5, 1),  # click 2: sent 0.0, applied in batch two, covered at 2.5
        (1.5, 2),  # clicks 3-4: sent 1.0, covered at 2.5
        (None, 1),  # click 5: applied at 3.5, no recheck after it
        (None, 2),  # clicks 6-7: never applied
    ]
    assert expand(segments) == [1.2, 1.2, 2.5, 1.5, 1.5]


def test_applied_time_finds_the_batch_holding_a_click():
    applied = [(0.5, 2), (1.5, 3)]
    assert applied_time(applied, 2) == 0.5
    assert applied_time(applied, 3) == 1.5
    assert applied_time(applied, 6) is None


def test_failure_counting():
    attempted, failed = tally(
        events=100,
        shed=3,
        statuses=[200, 201, 404, 500, 0],
        recheck_ok=[True, False, True],
        degraded=[False, True],
    )
    assert attempted == 100 + 5 + 3 + 2
    assert failed == 3 + 3 + 1 + 1


def test_planted_misses_require_only_campaigns_with_their_own_targets():
    campaigns = [
        ({"w1", "w2"}, {"t1", "t2"}),  # own targets: must be flagged in full
        ({"w3", "w4"}, {"t3", "t4"}),  # shares t4 with the next one
        ({"w5", "w6", "w7"}, {"t4", "t5"}),
    ]
    missed, shared, shared_missed = planted_misses(campaigns, {"w1", "w3", "w4", "x"})
    assert missed == {"w2"}
    assert (shared, shared_missed) == (5, 3)
    assert planted_misses(campaigns, {"w1", "w2"})[0] == set()
