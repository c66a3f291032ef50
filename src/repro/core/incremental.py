"""Incremental (online) detection — the paper's stated future work.

Section VIII: "it is important to study how to add an incremental data
processing module to this framework so that it can be applied online to
perform the detection in dynamic graphs ... the earlier these attacks are
detected in real time, the more losses can be reduced."

:class:`IncrementalRICD` implements that module with a *dirty-region*
strategy:

1. click batches are applied to a live copy of the graph;
2. every user/item touched by a batch is marked dirty;
3. on demand (or automatically every ``recheck_batches`` batches), the
   detector re-runs — not on the whole graph, but on the two-hop
   neighbourhood of the dirty region (the same seed-expansion primitive
   Algorithm 2 uses for business-department seeds), since an
   ``(alpha, k1, k2)``-extension biclique gaining an edge must contain a
   dirty node, and every node of a group containing a dirty node lies
   within two hops of it;
4. newly found groups are merged into the running result; groups whose
   nodes were untouched since the last full pass stay valid.

Thresholds (``T_hot``/``T_click``) are global statistics, so they are
re-derived from the *full* live graph at every recheck, exactly as the
batch framework does.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable

from .. import obs
from .._util import Stopwatch
from ..config import RICDParams, ScreeningParams
from ..errors import ReproError
from ..graph.bipartite import BipartiteGraph
from ..graph.builders import seed_expansion
from ..pipeline import Identification, PipelineContext
from ..resilience.faults import inject
from .framework import RICDDetector
from .groups import DetectionResult, SuspiciousGroup

__all__ = ["ClickBatch", "IncrementalRICD"]

Node = Hashable


@dataclass(frozen=True)
class ClickBatch:
    """One batch of new click records ``(user, item, clicks)``."""

    records: tuple[tuple[Node, Node, int], ...]

    @staticmethod
    def of(records: Iterable[tuple[Node, Node, int]]) -> "ClickBatch":
        """Build a batch from any iterable of records."""
        return ClickBatch(records=tuple(records))

    def __len__(self) -> int:
        return len(self.records)


class IncrementalRICD:
    """Online RICD over a stream of click batches.

    Examples
    --------
    >>> from repro.datagen import tiny_scenario
    >>> from repro.config import RICDParams
    >>> scenario = tiny_scenario()
    >>> online = IncrementalRICD(
    ...     scenario.graph, params=RICDParams(k1=4, k2=4), recheck_batches=1
    ... )
    >>> batch = ClickBatch.of([("fresh_user", "i0", 2)])
    >>> result = online.ingest(batch)
    >>> isinstance(result, type(online.current_result))
    True
    """

    def __init__(
        self,
        initial_graph: BipartiteGraph,
        params: RICDParams | None = None,
        screening: ScreeningParams | None = None,
        recheck_batches: int | None = 10,
        max_group_users: int | None = 18,
        engine: str = "bitset",
        time_source: Callable[[], float] | None = None,
        *,
        adopt_graph: bool = False,
        initial_result: DetectionResult | None = None,
    ):
        """The dirty-region expansion does not traverse *through* nodes
        above :attr:`traverse_degree_cap` (hub items would otherwise drag
        their whole clicker set into every recheck; attack cores survive
        because co-workers always share low-degree target items).  The
        cap is re-derived from the *live* graph at every recheck — a
        long-lived stream can grow an order of magnitude past its
        bootstrap, and a cap frozen at ``t=0`` would silently shrink the
        dirty region relative to the marketplace.

        ``engine`` selects the extraction engine of the bootstrap pass
        and every recheck: ``"bitset"`` by default, ``"reference"`` for
        the pure-Python oracle.

        ``recheck_batches=None`` disables the built-in every-N-batches
        cadence entirely: rechecks then happen only when a caller invokes
        :meth:`recheck` — the mode the streaming service uses, where a
        bounded-staleness scheduler owns the cadence decision.

        ``time_source`` (a ``() -> float`` clock read, e.g. the serving
        layer's :meth:`~repro.serve.clock.Clock.now`) lets the detector
        stamp when its dirty region *started* accumulating, exposed as
        :attr:`dirty_since` / :meth:`dirty_age` — the signal behind the
        scheduler's ``max_age`` staleness bound.  Without one, ages read
        as zero and only size/batch bounds can fire.

        ``adopt_graph`` takes ownership of ``initial_graph`` instead of
        copying it — the warm-start path, where the graph arrived from a
        store with its memoized array snapshot installed and a defensive
        copy would throw that warmth away.  ``initial_result`` skips the
        bootstrap full pass by installing a (persisted) result as the
        starting state; the caller asserts it matches the graph."""
        if recheck_batches is not None and recheck_batches < 1:
            raise ValueError(f"recheck_batches must be >= 1, got {recheck_batches}")
        self._traverse_degree_cap = self._derive_traverse_cap(initial_graph)
        self._graph = initial_graph if adopt_graph else initial_graph.copy()
        self._detector = RICDDetector(
            params=params or RICDParams(),
            screening=screening or ScreeningParams(),
            max_group_users=max_group_users,
            engine=engine,
        )
        self._recheck_batches = recheck_batches
        self._time_source = time_source
        self._dirty_since: float | None = None
        self._dirty_users: set[Node] = set()
        self._dirty_items: set[Node] = set()
        self._batches_since_recheck = 0
        self._store = None
        self._pending_records: list[tuple[Node, Node, int]] = []
        self._snapshot_owed = False
        if initial_result is not None:
            self._result = initial_result
        else:
            # Bootstrap with one full pass so `current_result` is
            # meaningful from the start.
            self._result = self._detector.detect(self._graph)

    @classmethod
    def from_store(
        cls,
        store,
        params: RICDParams | None = None,
        screening: ScreeningParams | None = None,
        recheck_batches: int | None = None,
        max_group_users: int | None = 18,
        engine: str = "bitset",
        time_source: Callable[[], float] | None = None,
    ) -> "IncrementalRICD":
        """Resume from the latest checkpoint of a detection store.

        ``store`` is an open :class:`~repro.store.DetectionStore` (or a
        path to one).  The head graph loads warm *and lazy*: the array
        snapshot installs as the mutable graph's backing truth in O(1) —
        no per-edge rebuild loop — and per-vertex adjacency materializes
        only where the stream actually writes (ingested clicks hydrate
        their two endpoints; destructive cleanup hydrates per edge it
        deletes), so resume latency is independent of graph size.  The
        snapshot doubles as the memoized array view, so the first
        ``indexed()`` access is a cache hit.  The
        persisted result becomes the starting state — degraded/stale
        provenance intact, no bootstrap pass — and persisted thresholds
        are rehydrated into the detector's memo so the first resolution
        is a ``detect.threshold_cache_hits``.  Parameters default to the
        values persisted with the head version, so a resumed stream keeps
        detecting with the configuration it was persisted under.  The
        extraction engine is not persisted; ``engine`` defaults to
        ``"bitset"`` as in the constructor.
        """
        if isinstance(store, (str, Path)):
            from ..store import DetectionStore

            store = DetectionStore.open(store)
        stored = store.load_thresholds()
        stored_input = stored_resolved = stored_screening = None
        if stored is not None:
            stored_input, stored_resolved, stored_screening = stored
        if params is None:
            params = stored_input
        if screening is None:
            screening = stored_screening
        graph = store.load_graph()
        online = cls(
            graph,
            params=params,
            screening=screening,
            recheck_batches=recheck_batches,
            max_group_users=max_group_users,
            engine=engine,
            time_source=time_source,
            adopt_graph=True,
            initial_result=store.load_result(),
        )
        if stored_resolved is not None and online._detector.params == stored_input:
            online._detector._thresholds().rehydrate(graph, stored_input, stored_resolved)
        online.attach_store(store)
        return online

    def attach_store(self, store) -> None:
        """Persist every subsequent recheck's state into ``store``.

        Successful and stale rechecks alike commit a new store version —
        a delta of the records ingested since the last persist, or a full
        snapshot when one is owed: after :meth:`recheck_full` (whose full
        pass has just built the live index, so the snapshot is written
        from it without a rebuild) and after destructive cleanup (which
        deltas cannot express) — plus the resolved thresholds, fixpoint
        memos and the result with its provenance flags.  A store write
        that fails (fault injection, disk trouble) is absorbed: the
        version is aborted, the catalog stays on the previous version, and
        the records (and any owed snapshot) stay pending for the next
        recheck — the stream never dies to its own persistence.
        """
        self._store = store
        self._pending_records = []
        self._snapshot_owed = False

    @property
    def store(self):
        """The attached :class:`~repro.store.DetectionStore`, or ``None``."""
        return self._store

    def persist_checkpoint(self) -> int | None:
        """Make the store head a full-snapshot point.

        The service calls this at checkpoints, right after
        :meth:`recheck_full`, which usually has committed the synced state
        as a snapshot already; :meth:`~repro.store.DetectionStore.compact`
        then only sweeps unreferenced files.  Pending records or an owed
        snapshot (a write the store absorbed) commit a fresh snapshot
        version instead, and a head delta chain (no full recheck since)
        is folded into a base snapshot in place.  Either way later
        resumes load the checkpoint directly, without delta replay.
        Returns the snapshot's version, or ``None`` when no store is
        attached or the write was absorbed.
        """
        if self._store is None:
            return None
        if self._store.head is None or self._pending_records or self._snapshot_owed:
            return self._persist(snapshot=True)
        try:
            with obs.span("store_persist"):
                return self._store.compact()
        except ReproError:
            obs.count("store.persist_failures")
            return None

    def _persist(self, snapshot: bool = False) -> int | None:
        if self._store is None:
            return None
        store = self._store
        version = store.begin_version()
        try:
            with obs.span("store_persist"):
                if snapshot or store.head is None or self._snapshot_owed:
                    store.put_snapshot(self._graph)
                else:
                    store.put_delta(
                        [
                            (str(user), str(item), clicks)
                            for user, item, clicks in self._pending_records
                        ]
                    )
                resolved = self._detector.resolve_thresholds(self._graph)
                from ..store import memos_to_json

                store.put_thresholds(
                    self._detector.params,
                    resolved,
                    self._detector.screening,
                    memos=memos_to_json(self._graph.indexed().derived),
                )
                store.put_result(self._result)
                store.commit()
        except ReproError:
            store.abort()
            obs.count("store.persist_failures")
            return None
        self._pending_records = []
        self._snapshot_owed = False
        return version

    @staticmethod
    def _derive_traverse_cap(graph: BipartiteGraph) -> int:
        """10x the mean item degree of ``graph``, floored at 50."""
        n_items = max(1, graph.num_items)
        mean_degree = graph.num_edges / n_items
        return max(50, int(10 * mean_degree))

    @property
    def graph(self) -> BipartiteGraph:
        """The live graph (treat as read-only)."""
        return self._graph

    @property
    def traverse_degree_cap(self) -> int:
        """The dirty-region BFS cap: 10x the live mean item degree, floored at 50."""
        return self._traverse_degree_cap

    @property
    def current_result(self) -> DetectionResult:
        """The most recent detection state."""
        return self._result

    @property
    def dirty_size(self) -> int:
        """Number of nodes awaiting a recheck."""
        return len(self._dirty_users) + len(self._dirty_items)

    @property
    def batches_since_recheck(self) -> int:
        """Batches ingested since the last (attempted) recheck."""
        return self._batches_since_recheck

    @property
    def dirty_since(self) -> float | None:
        """Clock time the dirty region started accumulating, or ``None``.

        Stamped from ``time_source`` when the dirty region transitions
        from empty to non-empty; cleared when a recheck covers it.  Always
        ``None`` without a time source.
        """
        return self._dirty_since

    def dirty_age(self, now: float) -> float:
        """Clock-seconds the oldest un-rechecked mark has waited (0 if clean)."""
        if self._dirty_since is None:
            return 0.0
        return max(0.0, now - self._dirty_since)

    def _mark_dirty(self, user: Node, item: Node) -> None:
        """Mark both endpoints dirty, stamping the region's birth time."""
        if (
            self._dirty_since is None
            and self._time_source is not None
            and not self._dirty_users
            and not self._dirty_items
        ):
            self._dirty_since = self._time_source()
        self._dirty_users.add(user)
        self._dirty_items.add(item)

    def ingest(self, batch: ClickBatch) -> DetectionResult:
        """Apply one batch; recheck the dirty region when due.

        Returns the (possibly refreshed) current result.
        """
        for user, item, clicks in batch.records:
            self._graph.add_click(user, item, clicks)
            self._mark_dirty(user, item)
        if self._store is not None:
            self._pending_records.extend(batch.records)
        self._batches_since_recheck += 1
        if (
            self._recheck_batches is not None
            and self._batches_since_recheck >= self._recheck_batches
        ):
            self.recheck()
        return self._result

    def apply_cleanup(
        self, edges: Iterable[tuple[Node, Node, int]]
    ) -> DetectionResult:
        """Remove (or reduce) click records and recheck the touched region.

        The post-detection half of the online loop: once the platform
        confirms a group, its attributed fake edges (see
        :func:`repro.core.screening.collect_fake_edges`) are subtracted
        from the live graph.  Counts are clamped at zero; the touched
        nodes are marked dirty and a recheck runs immediately, so cleaned
        groups leave the current result right away.
        """
        for user, item, clicks in edges:
            current = self._graph.get_click(user, item)
            if current:
                remaining = current - clicks
                if remaining > 0:
                    self._graph.set_click(user, item, remaining)
                else:
                    # A fully cleaned edge must *leave* the adjacency, not
                    # linger at weight zero: zombie edges inflate Avg_cnt
                    # (Eq. 4's denominator) and item degrees, skewing the
                    # re-derived thresholds away from a freshly built
                    # graph's.  The parity test pins this.
                    self._graph.remove_edge(user, item)
            self._mark_dirty(user, item)
        if self._store is not None:
            # Deltas are append-only click records; removals force the
            # next persisted version to be a full snapshot.
            self._snapshot_owed = True
        return self.recheck()

    def recheck(self) -> DetectionResult:
        """Re-run detection on the dirty region and merge into the state.

        Groups from the previous state whose members are all clean are
        kept verbatim; groups intersecting the dirty region are replaced
        by whatever the fresh regional pass finds.

        Resilience: a recheck that dies with a framework error keeps the
        *previous* result — marked ``stale`` so callers know it predates
        the dirty batches — and retains the dirty sets, so the next
        recheck (or the next due batch) re-covers the same region.  A
        stream never loses its detection state to one failed pass.
        """
        if not self._dirty_users and not self._dirty_items:
            self._batches_since_recheck = 0
            if self._pending_records or self._snapshot_owed:
                # A previous persist was absorbed (store fault): the
                # detection state is current but the store is behind.
                # Retry so the backlog lands as soon as pressure is off.
                self._persist()
            return self._result

        try:
            inject("recheck")
            result = self._recheck_dirty_region()
        except ReproError:
            obs.count("resilience.stale_rechecks")
            self._result.stale = True
            # Dirty sets are retained: the failed pass covered nothing.
            self._batches_since_recheck = 0
            # The stale state still persists (graph advanced, result kept
            # with its stale flag), so a resume reproduces exactly what
            # this process would keep serving.
            self._persist()
            return self._result
        self._result = result
        self._result.stale = False
        self._dirty_users.clear()
        self._dirty_items.clear()
        self._dirty_since = None
        self._batches_since_recheck = 0
        self._persist()
        return self._result

    def recheck_full(self) -> DetectionResult:
        """Mark *everything* dirty and recheck — an exact synchronization.

        With the whole graph dirty no previous group is kept and the
        regional pass runs over the full live graph, so the refreshed
        state equals a one-shot batch :meth:`RICDDetector.detect` on the
        same graph (the property the checkpointed parity suite pins).
        The streaming service calls this at checkpoints/drain; between
        them the cheaper dirty-region rechecks serve the live result.

        With a store attached, the recheck commits its version as a full
        snapshot of the live index the pass has just built, not as a
        delta: the checkpoint needs no compaction reload afterwards.  A
        graph with nothing to recheck commits nothing.
        """
        self._dirty_users.update(self._graph.users())
        self._dirty_items.update(self._graph.items())
        if self._store is not None and (self._dirty_users or self._dirty_items):
            self._snapshot_owed = True
        return self.recheck()

    def _recheck_dirty_region(self) -> DetectionResult:
        """The recheck body: regional pass + merge, no state mutation."""
        # The marketplace grows under the stream; the cap must track the
        # live mean degree or the dirty region quietly shrinks relative
        # to it.
        self._traverse_degree_cap = self._derive_traverse_cap(self._graph)
        all_dirty = (
            len(self._dirty_users) >= self._graph.num_users
            and len(self._dirty_items) >= self._graph.num_items
            # Length alone can lie when cleanup removed nodes that are
            # still in the dirty sets; the O(U+V) membership sweep is
            # negligible next to the O(E) expansion it avoids.
            and all(user in self._dirty_users for user in self._graph.users())
            and all(item in self._dirty_items for item in self._graph.items())
        )
        if all_dirty:
            # Everything is dirty (bootstrap replays, checkpoint syncs):
            # the region IS the graph, so skip the O(E) expansion copy.
            # The detector never mutates its input, so sharing is safe.
            region = self._graph
        else:
            region = seed_expansion(
                self._graph,
                seed_users=sorted(self._dirty_users, key=str),
                seed_items=sorted(self._dirty_items, key=str),
                hops=2,
                max_traverse_degree=self._traverse_degree_cap,
            )
        # Thresholds are global: resolve against the full live graph, then
        # run the detector's shared module stages on the region only —
        # the same extraction/screening/size-caps chain every other
        # execution path composes, so regional and batch rechecks cannot
        # drift apart.
        timer = Stopwatch()
        resolved = self._detector.resolve_thresholds(self._graph)
        regional = self._detector._run_modules(
            region, resolved, self._detector.screening, timer
        )

        kept: list[SuspiciousGroup] = [
            group
            for group in self._result.groups
            if not (group.users & self._dirty_users)
            and not (group.items & self._dirty_items)
        ]
        ctx = PipelineContext(
            graph=self._graph,
            params=resolved,
            screening=self._detector.screening,
            timer=timer,
            groups=kept + [group.copy() for group in regional],
        )
        # Identification ranks against the full live graph, like the
        # batch pipeline's final stage.
        Identification().run(ctx)
        result = ctx.result
        result.timings = dict(timer.durations)
        return result

