"""Incremental (online) detection — the paper's stated future work.

Section VIII: "it is important to study how to add an incremental data
processing module to this framework so that it can be applied online to
perform the detection in dynamic graphs ... the earlier these attacks are
detected in real time, the more losses can be reduced."

:class:`IncrementalRICD` implements that module with a *dirty-region*
strategy:

1. click batches are applied to a live, array-backed graph: the initial
   graph's index plus a tail of interned ``(row, column, clicks)``
   columns (see :mod:`repro.graph.bipartite`), so ingest interns each
   batch's ids once and writes no adjacency dict;
2. every user/item touched by a batch is marked dirty;
3. when the caller asks (:meth:`IncrementalRICD.recheck`; the streaming
   service decides when), the detector re-runs as a seeded ``detect``
   (Algorithm 2) with the dirty nodes as seeds: an
   ``(alpha, k1, k2)``-extension biclique gaining an edge must contain a
   dirty node, and every node of a group containing a dirty node lies
   within two hops of it.  The recheck first folds the
   tail into the live index with one numpy merge; then the steps
   ``detect`` takes — threshold resolution,
   :class:`~repro.pipeline.stages.SeedExpansion` (the two-hop region as
   boolean masks over that index, no subgraph copy) and the detector's
   own Fig. 4 sequence (:meth:`~repro.core.framework.RICDDetector._run`).
   Only extraction sees the region; screening and identification read
   the full live graph — the marketplace item totals for the
   hot/ordinary split, otherwise only the group members' rows;
4. that sequence ranks the newly found groups together with the previous
   groups that hold no dirty node, which stay valid.  A kept group the
   regional pass found again (same users and items, e.g. after a click on
   one of its ridden hot items) gives way to the fresh copy, so no group
   is served twice.

Thresholds (``T_hot``/``T_click``) are global statistics, so they are
re-derived from the *full* live graph at every recheck, exactly as the
batch framework does, and screening compares ``T_hot`` with the same
full-graph item totals.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from .. import obs
from ..config import RICDParams, ScreeningParams
from ..errors import ReproError
from ..graph.bipartite import BipartiteGraph
from ..graph.indexed import record_columns
# Not called here: perfbench wraps this name (tests/test_perfbench_hooks.py).
from ..graph.builders import seed_expansion  # noqa: F401
from ..pipeline import PipelineContext, ResolveThresholds, SeedExpansion
from ..resilience.faults import inject
from .framework import RICDDetector
from .groups import DetectionResult, SuspiciousGroup

__all__ = ["IncrementalRICD"]

Node = Hashable


class IncrementalRICD:
    """Online RICD over a stream of click batches.

    Examples
    --------
    >>> from repro.datagen import tiny_scenario
    >>> from repro.config import RICDParams
    >>> scenario = tiny_scenario()
    >>> online = IncrementalRICD(scenario.graph, params=RICDParams(k1=4, k2=4))
    >>> online.ingest([("fresh_user", "i0", 2)])
    >>> online.dirty_size
    2
    >>> result = online.recheck()
    >>> online.dirty_size
    0
    """

    def __init__(
        self,
        initial_graph: BipartiteGraph,
        params: RICDParams | None = None,
        screening: ScreeningParams | None = None,
        engine: str = "bitset",
        *,
        initial_result: DetectionResult | None = None,
    ):
        """The dirty-region expansion does not traverse *through* nodes
        above :attr:`traverse_degree_cap` (hub items would otherwise drag
        their whole clicker set into every recheck; attack cores survive
        because co-workers always share low-degree target items).  The
        cap is computed from the *live* graph whenever it is read — a
        long-lived stream can grow an order of magnitude past its
        bootstrap, and a cap frozen at ``t=0`` would silently shrink the
        dirty region relative to the marketplace.

        ``engine`` selects the extraction engine of the bootstrap pass
        and every recheck: ``"bitset"`` by default, ``"reference"`` for
        the pure-Python oracle.

        The live graph is ``initial_graph.indexed()`` wrapped by
        :meth:`~repro.graph.bipartite.BipartiteGraph.from_indexed`: array
        backed from the start, and a different object from
        ``initial_graph``, which is never mutated.  ``initial_result``
        skips the bootstrap full pass by installing a (persisted) result
        as the starting state; the caller asserts it matches the graph."""
        self._graph = BipartiteGraph.from_indexed(initial_graph.indexed())
        self._detector = RICDDetector(
            params=params or RICDParams(),
            screening=screening or ScreeningParams(),
            engine=engine,
        )
        self._dirty_users: set[Node] = set()
        self._dirty_items: set[Node] = set()
        #: Set by :meth:`recheck_full` until a recheck succeeds: the whole
        #: graph is dirty, without copying every node into the sets.
        self._full_owed = False
        self._store = None
        #: The ``(users, items, clicks)`` columns ingested since the last
        #: persist, one entry per batch.
        self._pending: list[tuple[Sequence, Sequence, Sequence]] = []
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
        engine: str = "bitset",
    ) -> "IncrementalRICD":
        """Resume from the latest checkpoint of a detection store.

        ``store`` is an open :class:`~repro.store.DetectionStore` (or a
        path to one).  The head snapshot becomes the base of the live
        array-backed graph in O(1) — no per-edge rebuild loop, so resume
        latency is independent of graph size — and the first
        ``indexed()`` access is a cache hit.  The persisted result
        becomes the starting state — degraded/stale provenance intact, no
        bootstrap pass.  Parameters default to the values persisted with
        the head version, so a resumed stream keeps detecting with the
        configuration it was persisted under.  The store load installs
        the persisted thresholds in the snapshot's ``derived`` memo under
        those input parameters, so the first resolution with them is a
        ``detect.threshold_cache_hits``; other parameters miss and
        derive.  The extraction engine is not persisted; ``engine``
        defaults to ``"bitset"`` as in the constructor.
        """
        if isinstance(store, (str, Path)):
            from ..store import DetectionStore

            store = DetectionStore.open(store)
        stored = store.load_thresholds()
        stored_input = stored_screening = None
        if stored is not None:
            stored_input, _, stored_screening = stored
        if params is None:
            params = stored_input
        if screening is None:
            screening = stored_screening
        online = cls(
            store.load_graph(),
            params=params,
            screening=screening,
            engine=engine,
            initial_result=store.load_result(),
        )
        online.attach_store(store)
        return online

    def attach_store(self, store) -> None:
        """Persist every subsequent recheck's state into ``store``.

        Successful and stale rechecks alike commit a new store version —
        a delta of the records ingested since the last persist, or a full
        snapshot when one is owed: after :meth:`recheck_full` (whose full
        pass has just built the live index, so the snapshot is written
        from it without a rebuild) and after a cleanup that lowered a count
        (which deltas cannot express) — plus the resolved thresholds, fixpoint
        memos and the result with its provenance flags.  A store write
        that fails (fault injection, disk trouble) is absorbed: the
        version is aborted, the catalog stays on the previous version, and
        the records (and any owed snapshot) stay pending for the next
        recheck — the stream never dies to its own persistence.
        """
        self._store = store
        self._pending = []
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
        if self._store.head is None or self._pending or self._snapshot_owed:
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
                        chain.from_iterable(zip(*batch) for batch in self._pending)
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
        self._pending = []
        self._snapshot_owed = False
        return version

    @property
    def graph(self) -> BipartiteGraph:
        """The live graph (treat as read-only)."""
        return self._graph

    @property
    def traverse_degree_cap(self) -> int:
        """The dirty-region expansion cap: 10x the live mean item degree, floored at 50."""
        graph = self._graph
        return max(50, int(10 * graph.num_edges / max(1, graph.num_items)))

    @property
    def current_result(self) -> DetectionResult:
        """The most recent detection state."""
        return self._result

    @property
    def dirty_size(self) -> int:
        """Number of nodes awaiting a recheck: every node while a full one is owed."""
        if self._full_owed:
            return self._graph.num_users + self._graph.num_items
        return len(self._dirty_users) + len(self._dirty_items)

    def _clean(self) -> bool:
        """Whether nothing awaits a recheck."""
        return not (self._full_owed or self._dirty_users or self._dirty_items)

    def _mark_dirty(self, users: Iterable[Node], items: Iterable[Node]) -> None:
        """Mark the given users and items dirty."""
        self._dirty_users.update(users)
        self._dirty_items.update(items)

    def ingest(self, records: Iterable[Sequence]) -> None:
        """Apply a batch of ``(user, item, clicks)`` records and mark them dirty.

        A record may carry a fourth field, which is not read: the service
        pump hands over its drained :class:`~repro.serve.queue.ClickEvent`
        batch as it is.  The batch is transposed once into columns, which one
        :meth:`~BipartiteGraph.add_click_columns` call applies, the dirty
        sets take, and the store's pending records keep.  A record with a
        non-positive count raises :class:`ValueError` before any record is
        applied or marked dirty, as does a batch whose records do not all
        have three fields, or all four.  Nothing is rechecked; call
        :meth:`recheck` when the result should catch up.
        """
        columns = record_columns(records, widths=(3, 4))
        if not columns:
            return
        users, items, clicks = columns
        self._graph.add_click_columns(users, items, clicks)
        self._mark_dirty(users, items)
        if self._store is not None:
            self._pending.append((users, items, clicks))

    def apply_cleanup(
        self, edges: Iterable[tuple[Node, Node, int]]
    ) -> DetectionResult:
        """Remove (or reduce) click records and recheck the touched region.

        The post-detection half of the online loop: once the platform
        confirms a group, its attributed fake edges (see
        :func:`repro.core.screening.collect_fake_edges`) are subtracted
        from the live graph with one
        :meth:`~repro.graph.bipartite.BipartiteGraph.subtract_clicks`,
        which keeps it array-backed.  Counts are clamped at zero, and a
        fully cleaned edge leaves the graph.  The endpoints of the edges
        that lost clicks are marked dirty and a recheck runs immediately,
        so cleaned groups leave the current result right away.  A record
        with a non-positive count raises :class:`ValueError` before
        anything is applied, marked dirty or persisted.
        """
        lowered = self._graph.subtract_clicks(edges)
        if lowered:
            self._mark_dirty(*zip(*lowered))
        if lowered and self._store is not None:
            # Deltas are append-only click records; lowered counts force
            # the next persisted version to be a full snapshot.
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
        recheck re-covers the same region.  A stream never loses its
        detection state to one failed pass.
        """
        if self._clean():
            if self._pending or self._snapshot_owed:
                # A previous persist was absorbed (store fault): the
                # detection state is current but the store is behind.
                # Retry so the backlog lands as soon as pressure is off.
                self._persist()
            return self._result

        full = self._full_owed
        try:
            inject("recheck")
            result = self._recheck_dirty_region()
        except ReproError:
            obs.count("resilience.stale_rechecks")
            self._result.stale = True
            # Dirty sets (and an owed full recheck) are retained: the
            # failed pass covered nothing.  The stale state still persists
            # (graph advanced, result kept with its stale flag), so a
            # resume reproduces exactly what this process would keep
            # serving.
            self._persist()
            return self._result
        self._result = result
        self._result.stale = False
        self._dirty_users.clear()
        self._dirty_items.clear()
        self._full_owed = False
        # A full pass has just built the live index: commit it as a
        # snapshot, also when a failed attempt already persisted one.
        self._persist(snapshot=full)
        return self._result

    def recheck_full(self) -> DetectionResult:
        """Recheck the whole graph — an exact synchronization.

        The recheck is owed until one succeeds: no previous group is kept
        and the pass runs unmasked over the full live graph, so the
        refreshed state equals a one-shot batch
        :meth:`RICDDetector.detect` on the same graph (the property the
        checkpointed parity suite pins).  A failed pass leaves it owed,
        so the next :meth:`recheck` is full too.  The streaming service
        calls this at checkpoints/drain; between them the cheaper
        dirty-region rechecks serve the live result.

        With a store attached, the recheck commits its version as a full
        snapshot of the live index the pass has just built, not as a
        delta: the checkpoint needs no compaction reload afterwards.  A
        graph with nothing to recheck commits nothing.
        """
        if len(self._graph) or not self._clean():
            self._full_owed = True
            if self._store is not None:
                self._snapshot_owed = True
        return self.recheck()

    def _recheck_dirty_region(self) -> DetectionResult:
        """The recheck body: a seeded pass + merge, no state mutation."""
        # One merge folds the tail in, so the counts below are O(1).
        live = self._graph.indexed()
        # The dirty sets hold only graph nodes (ingest and cleanup mark
        # nodes the graph has, and nothing removes one), so lengths alone
        # tell whether everything is dirty.
        all_dirty = self._full_owed or (
            len(self._dirty_users) == self._graph.num_users
            and len(self._dirty_items) == self._graph.num_items
        )
        # Everything dirty (bootstrap replays, checkpoint syncs): no seeds,
        # so the pass runs on the live graph unmasked.  The detector never
        # mutates its input, so sharing is safe.
        detector = self._detector
        ctx = PipelineContext(
            graph=self._graph,
            params=detector.params,
            screening=detector.screening,
            seed_users=() if all_dirty else tuple(self._dirty_users),
            seed_items=() if all_dirty else tuple(self._dirty_items),
        )
        # A seeded ``detect``'s steps: thresholds against the full live
        # graph, the dirty nodes' region under the live traverse cap, then
        # the Fig. 4 sequence, which extracts from the region, screens
        # against the full live graph and ranks the kept groups with the
        # region's.
        ResolveThresholds().run(ctx)
        SeedExpansion(max_traverse_degree=self.traverse_degree_cap).run(ctx)
        if ctx.region is not None and obs.current() is not None:
            # Two full-edge gathers: paid only when a recorder reads them.
            user_mask, item_mask = ctx.region
            region_edges = int((user_mask[live.user_idx] & item_mask[live.item_idx]).sum())
            obs.gauge("incremental.region_share", region_edges / max(1, live.num_edges))
        kept: list[SuspiciousGroup] = [
            group
            for group in self._result.groups
            if not self._full_owed
            and not (group.users & self._dirty_users)
            and not (group.items & self._dirty_items)
        ]
        return detector._run(ctx, kept)
