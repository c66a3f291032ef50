"""The bounded click-event queue between producers and the pump loop.

The queue is the service's backpressure boundary: producers always return
immediately (an always-on ingest path must never block live traffic on
the detector), and when the queue is full admission of a new event sheds
the *oldest* queued event — under sustained overload the freshest clicks
are the ones a staleness-bounded detector should spend its budget on,
and oldest-first shedding keeps the queue a sliding window over the most
recent traffic.

Accounting is conservation-exact and test-pinned: every submitted event
is eventually either drained or shed, never silently lost —
``submitted == drained + shed + depth`` holds at every quiescent point.
Shedding is counted through the ``serve.shed_events`` obs counter and the
queue's own :class:`QueueStats`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple

from .. import obs
from ..errors import ConfigError

__all__ = ["ClickEvent", "QueueStats", "BoundedEventQueue"]

Node = Hashable


class ClickEvent(NamedTuple):
    """One timestamped click record flowing through the service.

    ``timestamp`` is event time in clock seconds (whatever epoch the
    service's :class:`~repro.serve.clock.Clock` uses); the replay harness
    synthesises it, production stamps it at submission.  A named tuple,
    so it is immutable and cheap to build, and a drained batch goes to
    :meth:`~repro.core.incremental.IncrementalRICD.ingest` as it is:
    ingest transposes the events into user, item and click columns and
    does not read the timestamp.
    """

    user: Node
    item: Node
    clicks: int = 1
    timestamp: float = 0.0


@dataclass(frozen=True)
class QueueStats:
    """A consistent snapshot of the queue's conservation counters."""

    submitted: int
    drained: int
    shed: int
    depth: int

    @property
    def balanced(self) -> bool:
        """Whether the conservation identity holds (it always must)."""
        return self.submitted == self.drained + self.shed + self.depth


class BoundedEventQueue:
    """Thread-safe bounded FIFO of :class:`ClickEvent` with oldest-first shed.

    Examples
    --------
    >>> queue = BoundedEventQueue(capacity=2)
    >>> for n in range(3):
    ...     _ = queue.submit(ClickEvent("u", f"i{n}"))
    >>> [event.item for event in queue.drain()]   # i0 was shed
    ['i1', 'i2']
    >>> queue.stats().shed
    1
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}", "capacity")
        self.capacity = capacity
        # A full bounded deque drops from the left as it appends on the
        # right: oldest-first shedding without a Python loop.
        self._events: deque[ClickEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._submitted = 0
        self._drained = 0
        self._shed = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def submit(self, event: ClickEvent) -> int:
        """Enqueue ``event``; returns how many old events were shed (0/1).

        The new event is always admitted — under overload the queue slides
        forward over the stream rather than rejecting fresh traffic.
        """
        return self.submit_many((event,))

    def submit_many(self, events: Iterable[ClickEvent]) -> int:
        """Enqueue every event in order; returns the total number shed.

        Equivalent to submitting the events one by one — the same
        survivors, shed count and counters — but the lock is taken once
        and the overflow is shed in bulk, so a batch that overflows the
        capacity sheds the oldest queued events first, then its own
        oldest.
        """
        events = tuple(events)
        with self._lock:
            shed = max(0, len(self._events) + len(events) - self.capacity)
            self._events.extend(events)
            self._submitted += len(events)
            self._shed += shed
        if shed:
            obs.count("serve.shed_events", shed)
        return shed

    def drain(self, max_events: int | None = None) -> list[ClickEvent]:
        """Remove and return up to ``max_events`` events, FIFO order."""
        with self._lock:
            take = len(self._events) if max_events is None else min(max_events, len(self._events))
            batch = [self._events.popleft() for _ in range(take)]
            self._drained += take
        return batch

    def requeue_front(self, events: list[ClickEvent]) -> int:
        """Put drained-but-unapplied events back at the *front* of the queue.

        The ingest-fault recovery path: a pump that failed before applying
        its batch returns the events so no click is lost.  The events go
        back to pending (the drained counter is rolled back), and if fresh
        submissions meanwhile refilled the queue past capacity the excess
        is shed oldest-first — which is exactly the requeued events, the
        oldest traffic present.
        """
        with self._lock:
            # Shed before requeueing: a full deque would drop from the
            # right, the freshest traffic.
            shed = max(0, len(self._events) + len(events) - self.capacity)
            self._events.extendleft(reversed(events[shed:]))
            self._drained -= len(events)
            self._shed += shed
        if shed:
            obs.count("serve.shed_events", shed)
        return shed

    def stats(self) -> QueueStats:
        """Conservation counters as one atomic snapshot."""
        with self._lock:
            return QueueStats(
                submitted=self._submitted,
                drained=self._drained,
                shed=self._shed,
                depth=len(self._events),
            )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"BoundedEventQueue(depth={stats.depth}/{self.capacity}, "
            f"submitted={stats.submitted}, shed={stats.shed})"
        )
