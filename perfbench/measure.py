"""Measurement helpers shared by the workloads.

Everything here is pure bookkeeping over numbers the workloads record:
no repro imports, so the self-test in ``perfbench/tests`` runs without
building any graph.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one outlier decides the value.
MIN_BEYOND = 10


def percentile(values, q: float):
    """Nearest-rank ``q``-quantile of ``values``, or ``None`` if unsupported.

    The rank is ``ceil(q * n)`` (1-based) over the sorted samples.  The
    value is refused (``None``) when fewer than :data:`MIN_BEYOND`
    samples lie beyond that rank, so a p90 needs at least 100 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def median(values) -> float:
    """Plain median of repeated timings (no ten-beyond rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def match_freshness(sends, applied, rechecks):
    """Per-click freshness by first-in-first-out matching.

    ``sends`` lists ``(send_time, count)`` groups in submission order,
    ``applied`` lists ``(applied_time, count)`` micro-batches in the order
    the service applied them, and ``rechecks`` lists ``(began, ended, ok)``
    in the order they ran.  Clicks leave the queue in the order they
    entered it (nothing may be shed), so the ``k``-th click sent is the
    ``k``-th click applied.  A click's freshness is the end of the first
    successful recheck that began at or after its batch was applied,
    minus its send time.

    Returns one ``(freshness, count)`` segment per stretch of clicks that
    share a send group and an applied batch, in send order; ``freshness``
    is ``None`` for clicks no recheck covered (or never applied).
    """
    segments = []
    batch_index = 0
    batch_left = applied[0][1] if applied else 0
    cover_index = 0
    for send_time, count in sends:
        while count > 0:
            while batch_index < len(applied) and batch_left == 0:
                batch_index += 1
                batch_left = applied[batch_index][1] if batch_index < len(applied) else 0
            if batch_index >= len(applied):
                segments.append((None, count))
                break
            take = min(count, batch_left)
            applied_time = applied[batch_index][0]
            while cover_index < len(rechecks) and not (
                rechecks[cover_index][2] and rechecks[cover_index][0] >= applied_time
            ):
                cover_index += 1
            if cover_index < len(rechecks):
                segments.append((rechecks[cover_index][1] - send_time, take))
            else:
                segments.append((None, take))
            count -= take
            batch_left -= take
    return segments


def applied_time(applied, count):
    """When the service had applied its first ``count`` clicks, or ``None``."""
    total = 0
    for when, events in applied:
        total += events
        if total >= count:
            return when
    return None


def expand(segments) -> list:
    """Flatten ``(value, count)`` segments into one sample per click."""
    samples = []
    for value, count in segments:
        if value is not None:
            samples.extend([value] * count)
    return samples


def tally(events=0, shed=0, statuses=(), recheck_ok=(), degraded=()):
    """``(attempted, failed)`` over every operation a run attempted.

    Attempted operations are submitted events, HTTP requests, rechecks
    and batch detections.  Failures are shed events, non-2xx responses,
    rechecks that left the result stale and degraded detections.
    Correctness mismatches are not failures: they fail the run.
    """
    statuses = list(statuses)
    recheck_ok = list(recheck_ok)
    degraded = list(degraded)
    attempted = events + len(statuses) + len(recheck_ok) + len(degraded)
    failed = (
        shed
        + sum(1 for status in statuses if not 200 <= status < 300)
        + sum(1 for ok in recheck_ok if not ok)
        + sum(1 for flag in degraded if flag)
    )
    return attempted, failed


def planted_misses(campaigns, flagged):
    """Planted workers a run left unflagged, split by what the check requires.

    ``campaigns`` lists one ``(workers, targets)`` pair of sets per
    planted campaign; ``flagged`` holds the flagged users.  A campaign
    whose targets no other campaign clicks must be flagged in full.  Two
    campaigns that share a target can leave screening as one group with
    both campaigns' workers, which the detector's group-size cap then
    drops, so their workers are counted but not required.

    Returns ``(missed, shared, shared_missed)``: the unflagged workers of
    campaigns with targets of their own, the number of workers in
    campaigns that share a target, and how many of those are unflagged.
    """
    missed, shared, shared_missed = set(), 0, 0
    for index, (workers, targets) in enumerate(campaigns):
        unflagged = set(workers) - set(flagged)
        if any(targets & other for peer, (_, other) in enumerate(campaigns) if peer != index):
            shared += len(workers)
            shared_missed += len(unflagged)
        else:
            missed |= unflagged
    return missed, shared, shared_missed


def canonical(result):
    """Order-free canonical form of a ``DetectionResult``, scores exact."""

    def names(nodes):
        return sorted(map(str, nodes))

    return (
        names(result.suspicious_users),
        names(result.suspicious_items),
        sorted(
            (names(group.users), names(group.items), names(group.hot_items))
            for group in result.groups
        ),
        sorted((str(node), value) for node, value in result.user_scores.items()),
        sorted((str(node), value) for node, value in result.item_scores.items()),
    )


def repeat(call, window: float, at_least: int = 25):
    """Time ``call()`` back to back for ``window`` seconds.

    Stops once the window has passed and at least ``at_least`` calls ran.
    A median over a window of several seconds is steadier than one over a
    burst of short calls, which a few seconds of contention can shift.
    Returns ``(seconds per call, results)``.
    """
    seconds, results = [], []
    started = perf_counter()
    while len(seconds) < at_least or perf_counter() - started < window:
        began = perf_counter()
        results.append(call())
        seconds.append(perf_counter() - began)
    return seconds, results


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def size_mb(path) -> float:
    """Bytes under a file or directory, in MB."""
    path = Path(path)
    if path.is_file():
        return path.stat().st_size / 1e6
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total / 1e6


@dataclass
class Report:
    """What one workload's timed phase measured.

    ``gated`` holds the end-to-end metrics every workload reports (all
    but ``setup_s`` and ``peak_rss_mb``, which the runner adds);
    ``named`` holds this workload's metrics under the names the
    benchmark's README defines, as ``(name, value, unit, samples)``.
    ``main`` is the timing ``trace.overhead_ratio`` compares, and
    ``roots`` names the spans that block the workload's result.
    """

    gated: dict
    named: list
    main: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    loadgen: dict = field(default_factory=dict)
    shed: int = 0
    roots: tuple = ()
