"""Producers racing a drainer on the bulk queue (run under ``python -X dev``).

Four producer threads call ``submit_many`` against a capacity most of
their batches overflow on their own, so events are shed, while one
thread drains.  A switch interval of a microsecond makes the interpreter
swap threads as often as it can, so a queue call that is not atomic
under the lock (a shed computed in one lock hold and applied in the
next, say) breaks the conservation identity or the per-producer order
the assertions check.  Rounds repeat for ``STRESS_S`` seconds: one round
catches such a split lock hold about half the time on a 2-vCPU host.
"""

import sys
import threading
from time import perf_counter

import pytest

from repro.serve import BoundedEventQueue, ClickEvent

pytestmark = pytest.mark.servetest

PRODUCERS = 4
CALLS = 2000
CAPACITY = 8
STRESS_S = 2.0
JOIN_TIMEOUT_S = 60


def producer_batches(producer: int) -> list:
    """``CALLS`` batches of 1 to 40 events, numbered in submission order."""
    batches, sequence = [], 0
    for call in range(CALLS):
        size = 1 + (call * 7 + producer * 3) % 40
        batches.append(
            [ClickEvent(f"p{producer}", f"i{n}", 1, float(n)) for n in range(sequence, sequence + size)]
        )
        sequence += size
    return batches


def race(work: list) -> None:
    """One round: every producer submits its batches while one thread drains."""
    queue = BoundedEventQueue(capacity=CAPACITY)
    drained = []
    producing = threading.Event()
    producing.set()
    start = threading.Barrier(PRODUCERS + 1)

    def produce(batches):
        start.wait()
        for batch in batches:
            queue.submit_many(batch)

    def drain():
        start.wait()
        while producing.is_set():
            drained.extend(queue.drain(8))

    producers = [threading.Thread(target=produce, args=(batches,)) for batches in work]
    drainer = threading.Thread(target=drain)
    try:
        drainer.start()
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join(timeout=JOIN_TIMEOUT_S)
    finally:
        producing.clear()
        drainer.join(timeout=JOIN_TIMEOUT_S)
    assert not any(thread.is_alive() for thread in producers + [drainer])

    stats = queue.stats()
    submitted = sum(len(batch) for batches in work for batch in batches)
    assert stats.submitted == submitted
    assert stats.drained == len(drained)
    assert submitted == len(drained) + stats.shed + stats.depth
    assert stats.shed > 0
    drained += queue.drain()
    # Events are unique by (producer, sequence): none was drained twice,
    # and each producer's survivors arrive in submission order.
    keys = [(event.user, event.timestamp) for event in drained]
    assert len(set(keys)) == len(keys) == submitted - stats.shed
    for producer in range(PRODUCERS):
        sequence = [event.timestamp for event in drained if event.user == f"p{producer}"]
        assert sequence == sorted(sequence)


def test_bulk_submits_race_a_drainer():
    # Built up front, so the producers spend their time inside the queue.
    work = [producer_batches(producer) for producer in range(PRODUCERS)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = perf_counter() + STRESS_S
        race(work)
        while perf_counter() < deadline:
            race(work)
    finally:
        sys.setswitchinterval(previous)
