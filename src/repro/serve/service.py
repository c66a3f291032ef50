"""The always-on micro-batch detection service.

:class:`DetectionService` closes the loop ROADMAP item 1 asked for: click
events stream into a :class:`~repro.serve.queue.BoundedEventQueue`, the
pump drains them in micro-batches into an
:class:`~repro.core.incremental.IncrementalRICD`, and a
:class:`~repro.serve.scheduler.RecheckScheduler` triggers dirty-region
rechecks under a bounded-staleness policy.  Two driving modes share one
code path:

* **pump mode** (tests, replay harnesses) — the caller invokes
  :meth:`pump` explicitly, so with a
  :class:`~repro.serve.clock.SimulatedClock` the whole service is
  deterministic and wall-clock free;
* **thread mode** (production, ``ricd serve``) — :meth:`start` spawns a
  daemon pump loop that parks on ``clock.sleep`` when idle and
  :meth:`stop` drains and joins it, idempotently.

**Degradation ladder.**  Overload never makes the service fall over or
lie; it makes it *coarser*, explicitly:

1. **shed** — the bounded queue always admits fresh traffic by shedding
   the oldest queued events (counted, conservation-exact);
2. **coarse cadence** — sustained high queue depth or a recheck that
   blows its clock budget (a :class:`~repro.resilience.Deadline` anchored
   to the service clock) multiplies every staleness bound by
   :data:`COARSE_FACTOR`, trading freshness for ingest throughput;
3. **stale serving** — if overload persists, scheduled rechecks are
   suppressed entirely and the last good result is served, marked with
   explicit ``serve.stale`` provenance, until pressure drops.

A queue filled to :data:`HIGH_WATERMARK` of its capacity escalates the
ladder, and it de-escalates one level at a time once the queue drains
below :data:`LOW_WATERMARK`.  Every transition lands in the service's
provenance log and the ``serve.*`` obs gauges, so a degraded answer is
always distinguishable from a fresh one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Iterable

from .. import obs
from ..core.groups import DetectionResult
from ..core.incremental import IncrementalRICD
from ..errors import ConfigError, TransientWorkerError
from ..resilience.faults import inject
from ..resilience.policy import Deadline
from .clock import Clock, MonotonicClock
from .queue import BoundedEventQueue, ClickEvent, QueueStats
from .scheduler import RecheckScheduler, StalenessPolicy

__all__ = ["ServeConfig", "DetectionService", "ServiceSnapshot", "PumpReport"]

Node = Hashable

#: Ladder levels, index == severity.
_LEVELS = ("normal", "coarse", "stale")

#: Idle sleep of the threaded pump loop, in clock seconds.
POLL_INTERVAL = 0.05
#: Staleness-bound multiplier at ladder level >= 1.
COARSE_FACTOR = 4
#: Queue-depth fractions of capacity that escalate / allow de-escalation.
HIGH_WATERMARK, LOW_WATERMARK = 0.8, 0.2


@dataclass(frozen=True)
class ServeConfig:
    """Operating envelope of one :class:`DetectionService`.

    Parameters
    ----------
    queue_capacity:
        Bounded ingest queue size; overflow sheds oldest-first.
    max_batch:
        Events drained per pump into one :meth:`IncrementalRICD.ingest`.
    staleness:
        Recheck bounds (size OR batches OR age, whichever first).
    recheck_budget:
        Soft clock-seconds budget per recheck; a recheck exceeding it
        escalates the degradation ladder.  ``None`` disables the check.
    """

    queue_capacity: int = 100_000
    max_batch: int = 1_000
    staleness: StalenessPolicy = field(default_factory=StalenessPolicy)
    recheck_budget: float | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}", "queue_capacity"
            )
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}", "max_batch")
        if self.recheck_budget is not None and self.recheck_budget <= 0:
            raise ConfigError(
                f"recheck_budget must be > 0, got {self.recheck_budget}", "recheck_budget"
            )


@dataclass(frozen=True)
class PumpReport:
    """What one :meth:`DetectionService.pump` call did."""

    applied: int
    recheck_reason: str | None
    recheck_suppressed: bool
    ingest_fault: bool
    level: str
    queue_depth: int


@dataclass(frozen=True)
class ServiceSnapshot:
    """The served answer plus the provenance to trust it with.

    ``degraded`` is true whenever the answer is anything but a fresh,
    fault-free detection state: the ladder sits above normal, events were
    shed since the last recheck, or the underlying result is stale
    (recheck failure) / carries its own degradation provenance.

    ``store_version`` is the store head (``None`` storeless), read in the
    same locked call as ``result``.  The pump thread commits the next
    version as soon as the lock is free, so a route stamps its answer
    with this field, never with a later read of the store.
    """

    result: DetectionResult
    degraded: bool
    provenance: tuple[str, ...]
    level: str
    queue: QueueStats
    applied: int
    rechecks: int
    store_version: int | None


class DetectionService:
    """Continuous micro-batch ingest + bounded-staleness rechecks.

    Parameters
    ----------
    online:
        The incremental detector to drive.  It ingests, and rechecks only
        when asked: the service owns the cadence.  The service keeps the
        two scheduling inputs that are not the dirty size (the batches
        ingested since the last recheck and the clock time the dirty
        region started to grow) and asks the
        :class:`~repro.serve.scheduler.RecheckScheduler` after every pump.
    config:
        The operating envelope; defaults are production-ish.
    clock:
        Injectable time source; defaults to the monotonic wall clock.

    Examples
    --------
    >>> from repro.serve import SimulatedClock, ServeConfig, StalenessPolicy
    >>> from repro.graph import BipartiteGraph
    >>> clock = SimulatedClock()
    >>> service = DetectionService.over_graph(
    ...     BipartiteGraph(),
    ...     config=ServeConfig(staleness=StalenessPolicy(max_batches=1)),
    ...     clock=clock,
    ... )
    >>> service.submit("u1", "i1", 2)
    >>> report = service.pump()
    >>> (report.applied, report.recheck_reason)
    (1, 'batches')
    """

    def __init__(
        self,
        online: IncrementalRICD,
        config: ServeConfig | None = None,
        clock: Clock | None = None,
    ):
        self.online = online
        self.config = config or ServeConfig()
        self.clock = clock if clock is not None else MonotonicClock()
        self.queue = BoundedEventQueue(self.config.queue_capacity)
        self.scheduler = RecheckScheduler(self.config.staleness)
        self._lock = threading.RLock()
        self._level = 0
        self._provenance: list[str] = []
        self._applied = 0
        self._rechecks = 0
        self._shed_at_last_recheck = 0
        self._last_recheck_lag = 0.0
        self._recheck_lags: list[float] = []
        self._batches_since_recheck = 0
        #: Clock time the dirty region started to grow; ``None`` while clean.
        self._dirty_since: float | None = None
        self._started_at = self.clock.now()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @classmethod
    def over_graph(
        cls,
        initial_graph,
        params=None,
        screening=None,
        engine: str = "bitset",
        config: ServeConfig | None = None,
        clock: Clock | None = None,
    ) -> "DetectionService":
        """A service over a fresh incremental detector.

        Rechecks run the ``engine`` extraction: ``"bitset"`` by default,
        ``"reference"`` for the pure-Python oracle.
        """
        online = IncrementalRICD(
            initial_graph, params=params, screening=screening, engine=engine
        )
        return cls(online, config=config, clock=clock)

    @classmethod
    def from_store(
        cls,
        store,
        initial_graph=None,
        params=None,
        screening=None,
        engine: str = "bitset",
        config: ServeConfig | None = None,
        clock: Clock | None = None,
    ) -> "DetectionService":
        """A service persisted to (and resumable from) a detection store.

        ``store`` is an open :class:`~repro.store.DetectionStore` or a
        path.  An *empty* store bootstraps: the service detects over
        ``initial_graph`` (default: an empty graph) and commits version 1
        as a full snapshot before serving.  A *populated* store resumes
        in O(1) graph work: the head snapshot is the base of the live
        array-backed graph (no edge-by-edge rebuild; ingest appends to
        its tail), the persisted result — provenance flags intact —
        serves immediately, and rechecks keep committing new versions.  Restarting a process on the same store therefore
        serves the same verdicts at the same store version, the contract
        the API round-trip test pins.  ``engine`` is as in
        :meth:`over_graph`.
        """
        if isinstance(store, (str, Path)):
            from ..store import DetectionStore

            store = DetectionStore.open_or_create(store)
        if store.head is None:
            from ..graph.bipartite import BipartiteGraph

            service = cls.over_graph(
                initial_graph if initial_graph is not None else BipartiteGraph(),
                params=params,
                screening=screening,
                engine=engine,
                config=config,
                clock=clock,
            )
            service.online.attach_store(store)
            service.online.persist_checkpoint()
            return service
        online = IncrementalRICD.from_store(
            store, params=params, screening=screening, engine=engine
        )
        return cls(online, config=config, clock=clock)

    @property
    def store(self):
        """The attached :class:`~repro.store.DetectionStore`, or ``None``."""
        return self.online.store

    @property
    def store_version(self) -> int | None:
        """The store head this service last persisted (``None`` storeless)."""
        store = self.online.store
        return None if store is None else store.head

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, user: Node, item: Node, clicks: int = 1, timestamp: float | None = None) -> None:
        """Enqueue one click event (never blocks; may shed the oldest)."""
        stamp = self.clock.now() if timestamp is None else timestamp
        self.queue.submit(ClickEvent(user, item, clicks, stamp))

    def submit_events(self, events: Iterable[ClickEvent]) -> None:
        """Enqueue pre-built events (replay harness path)."""
        self.queue.submit_many(events)

    # ------------------------------------------------------------------
    # Pump loop
    # ------------------------------------------------------------------
    def pump(self) -> PumpReport:
        """Drain one micro-batch, ingest it, recheck if the policy says so."""
        with self._lock:
            return self._pump_locked()

    def _pump_locked(self) -> PumpReport:
        events = self.queue.drain(self.config.max_batch)
        fault = False
        if events:
            try:
                inject("ingest")
            except TransientWorkerError:
                # The batch was never applied: push it back to pending so
                # no click is lost, and let the next pump retry it.
                self.queue.requeue_front(events)
                obs.count("serve.ingest_faults")
                fault = True
            else:
                # Unsliced: ingest reads each event's first three fields itself.
                self.online.ingest(events)
                self._applied += len(events)
                self._batches_since_recheck += 1
                obs.count("serve.ingested", len(events))
        self._track_dirty()
        applied = 0 if fault else len(events)

        reason = None
        suppressed = False
        if not fault:
            reason = self.scheduler.due(
                dirty_size=self.online.dirty_size,
                batches_since=self._batches_since_recheck,
                dirty_age=self._dirty_age(),
                scale=self._scale(),
            )
            if reason is not None and self._level >= 2:
                # Stale serving: overload persists, so scheduled rechecks
                # are suppressed and the previous result keeps serving.
                suppressed = True
                reason = None
                self._note("serve.stale")
                obs.count("serve.stale_served")
            if reason is not None:
                self._recheck(reason)
        self._adjust_ladder()
        depth = self.queue.stats().depth
        self._emit_gauges(depth)
        return PumpReport(
            applied=applied,
            recheck_reason=reason,
            recheck_suppressed=suppressed,
            ingest_fault=fault,
            level=_LEVELS[self._level],
            queue_depth=depth,
        )

    def pump_until_idle(self, max_pumps: int | None = None) -> int:
        """Pump until the queue is empty; returns the number of pumps."""
        pumps = 0
        while len(self.queue) > 0 and (max_pumps is None or pumps < max_pumps):
            self.pump()
            pumps += 1
        return pumps

    def _scale(self) -> int:
        return COARSE_FACTOR if self._level >= 1 else 1

    def _track_dirty(self) -> None:
        """Start the dirty region's age clock when it grows, stop it when clean.

        A failed recheck leaves the region (or an owed full recheck)
        dirty, so its age keeps growing and ``max_age`` reschedules it.
        """
        if self.online.dirty_size == 0:
            self._dirty_since = None
        elif self._dirty_since is None:
            self._dirty_since = self.clock.now()

    def _dirty_age(self) -> float:
        """Clock-seconds the oldest un-rechecked mark has waited (0 if clean)."""
        if self._dirty_since is None:
            return 0.0
        return max(0.0, self.clock.now() - self._dirty_since)

    def _rechecked(self, lag: float) -> None:
        """Bookkeeping after every recheck attempt, scheduled or checkpoint."""
        self._rechecks += 1
        self._last_recheck_lag = lag
        self._recheck_lags.append(lag)
        self._shed_at_last_recheck = self.queue.stats().shed
        self._batches_since_recheck = 0
        self._track_dirty()
        obs.count("serve.rechecks")

    def _recheck(self, reason: str) -> None:
        """One scheduled recheck, budget-watched through the service clock."""
        lag = self._dirty_age()
        budget = Deadline.start(self.config.recheck_budget, clock=self.clock.now)
        with obs.span("serve.recheck"):
            result = self.online.recheck()
        self._rechecked(lag)
        obs.gauge("serve.recheck_reason", reason)
        if result.stale:
            # The recheck itself failed (fault injection, framework
            # error); IncrementalRICD kept the previous result and the
            # dirty region, so the next due recheck re-covers it.
            self._note("serve.recheck_failed")
        if budget is not None and budget.expired:
            self._note("serve.recheck_over_budget")
            self._escalate()

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------
    def _adjust_ladder(self) -> None:
        stats = self.queue.stats()
        high = HIGH_WATERMARK * self.config.queue_capacity
        low = LOW_WATERMARK * self.config.queue_capacity
        shed_since_recheck = stats.shed > self._shed_at_last_recheck
        if shed_since_recheck:
            self._note("serve.shed")
        if stats.depth >= high:
            # One level per pump: sustained pressure walks shed -> coarse
            # -> stale; a single spike only coarsens the cadence.
            self._escalate()
        elif stats.depth <= low and not shed_since_recheck and self._level > 0:
            self._level -= 1
            self._note(f"serve.ladder.{_LEVELS[self._level]}")

    def _escalate(self) -> None:
        if self._level < len(_LEVELS) - 1:
            self._level += 1
            self._note(f"serve.ladder.{_LEVELS[self._level]}")

    def _note(self, event: str) -> None:
        """Append provenance, collapsing immediate repeats."""
        if not self._provenance or self._provenance[-1] != event:
            self._provenance.append(event)

    # ------------------------------------------------------------------
    # Synchronization points
    # ------------------------------------------------------------------
    def drain(self) -> DetectionResult:
        """Pump the queue dry, then recheck whatever is still dirty.

        Idempotent: draining an already-drained service pumps nothing and
        the recheck of an empty dirty region returns the current result
        unchanged.
        """
        with self._lock:
            while len(self.queue) > 0:
                self._pump_locked()
            if self.online.dirty_size:
                self._recheck("drain")
            return self.online.current_result

    def checkpoint(self) -> DetectionResult:
        """Drain, then force an exact full recheck (batch-equal sync point).

        The returned state equals a one-shot batch
        :meth:`~repro.core.framework.RICDDetector.detect` over the live
        graph — the contract the checkpointed parity suite and the
        throughput benchmark assert at every checkpoint.
        """
        with self._lock:
            while len(self.queue) > 0:
                self._pump_locked()
            lag = self._dirty_age()
            with obs.span("serve.checkpoint"):
                result = self.online.recheck_full()
            # A checkpoint is also the store's snapshot point: the full
            # recheck committed the synced live index as a snapshot, so
            # later resumes load it directly instead of replaying deltas;
            # this makes sure of it (committing anything a store fault
            # left pending) and sweeps unreferenced files.
            self.online.persist_checkpoint()
            self._rechecked(lag)
            self._emit_gauges(0)
            return result

    def checkpoint_snapshot(self) -> ServiceSnapshot:
        """:meth:`checkpoint`, then :meth:`snapshot` in the same lock hold.

        The pump thread commits its next version as soon as the lock is
        free, so the checkpoint's store version must be read before the
        lock is released; the checkpoint route stamps its answer with it.
        """
        with self._lock:
            self.checkpoint()
            return self.snapshot()

    # ------------------------------------------------------------------
    # Thread mode
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the daemon pump loop (no-op if already running)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="ricd-serve-pump", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            report = self.pump()
            if report.applied == 0 and report.recheck_reason is None:
                self.clock.sleep(POLL_INTERVAL)

    def stop(self, drain: bool = True) -> DetectionResult:
        """Stop the pump loop (if any) and optionally drain.  Idempotent."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=30.0)
            self._thread = None
        if drain:
            return self.drain()
        return self.online.current_result

    # ------------------------------------------------------------------
    # Served state
    # ------------------------------------------------------------------
    @property
    def result(self) -> DetectionResult:
        """The current (possibly stale) detection state."""
        return self.online.current_result

    @property
    def recheck_lags(self) -> list[float]:
        """Dirty-region age (clock seconds) at each recheck, in order."""
        return list(self._recheck_lags)

    def snapshot(self) -> ServiceSnapshot:
        """The served result plus explicit provenance and live stats."""
        with self._lock:
            stats = self.queue.stats()
            result = self.online.current_result
            degraded = (
                self._level > 0
                or result.stale
                or result.degraded
                or stats.shed > self._shed_at_last_recheck
            )
            return ServiceSnapshot(
                result=result,
                degraded=degraded,
                provenance=tuple(self._provenance),
                level=_LEVELS[self._level],
                queue=stats,
                applied=self._applied,
                rechecks=self._rechecks,
                store_version=self.store_version,
            )

    def vitals(self) -> "tuple[ServiceSnapshot, tuple[int, ...], tuple[int, int, int]]":
        """``(snapshot, store_versions, (users, items, edges))`` in one read.

        The status route's view: the pump thread grows the live graph and
        the store catalog, so both are read here under the service lock.
        None of the three counts merges an array-backed live graph's
        tail: the node counts read its id tables, and ``num_edges`` looks
        the tail's distinct pairs up in the last merged snapshot, O(tail
        log) while the lock is held; a cleanup keeps the live graph
        array-backed.  :meth:`snapshot` leaves the counts out, since every
        verdict calls it.
        """
        with self._lock:
            store = self.online.store
            graph = self.online.graph
            return (
                self.snapshot(),
                () if store is None else tuple(store.versions()),
                (graph.num_users, graph.num_items, graph.num_edges),
            )

    def _emit_gauges(self, depth: int) -> None:
        obs.gauge("serve.queue_depth", depth)
        obs.gauge("serve.dirty_region", self.online.dirty_size)
        obs.gauge("serve.recheck_lag", self._last_recheck_lag)
        obs.gauge("serve.ladder_level", _LEVELS[self._level])
        elapsed = self.clock.now() - self._started_at
        if elapsed > 0:
            obs.gauge("serve.events_per_s", round(self._applied / elapsed, 3))

    def __repr__(self) -> str:
        stats = self.queue.stats()
        return (
            f"DetectionService(level={_LEVELS[self._level]}, "
            f"applied={self._applied}, rechecks={self._rechecks}, "
            f"queue={stats.depth}/{self.config.queue_capacity})"
        )
