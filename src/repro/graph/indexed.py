"""Frozen indexed-array snapshot of a :class:`BipartiteGraph`.

Every vectorized consumer — the bitset extraction engine, the threshold
derivations, the screening module's aggregate scans — wants the same
things: contiguous integer ids per partition, flat edge arrays, and
CSR/CSC index arrays.  A :class:`BipartiteGraph` *is* such a snapshot
plus a tail of appends, so they read its arrays directly; only the
algorithms that delete vertices copy the edges into dicts
(:class:`~repro.graph.views.Adjacency`).

:class:`IndexedGraph` interns users and items into contiguous int ids
(ids interned by :class:`InternedDelta` take the next free ids in
first-seen order; :meth:`from_graph` sorts them by ``str``), stores the
edge list as three parallel numpy arrays in **canonical order** — sorted
by ``(row, column)`` with no duplicate pairs — and lazily caches the
derived aggregates (degrees, total clicks, CSR/CSC index arrays).
Snapshots are *frozen*: they never observe later graph mutation.
:meth:`BipartiteGraph.indexed` returns the snapshot merged up to the
graph's mutation version, so the common build-once/detect-many workloads
(feedback rounds, suites, sweeps, benchmarks) share its cached aggregates.

Appends never force a from-scratch rebuild.  :class:`InternedDelta` is the
one interning step: it turns ``(user, item, clicks)`` records into row,
column and click columns plus the ids they add.  An array-backed graph
interns each write into its tail as it arrives; a store's delta records
are interned when merged.  :meth:`IndexedGraph.apply_delta` then merges
the columns into a fresh snapshot with numpy only — one coalescing sort
(:func:`coalesce`, the sort-and-coalesce step every canonicalizing build
shares), one ``searchsorted`` against the base keys, count changes on a
copy and ``np.insert`` for new edges — so chains of merges stay
canonical and never degrade lookups.  A negative count lowers an edge the
base holds, and an edge it takes to zero is dropped.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import is_, itemgetter
from typing import TYPE_CHECKING, Hashable, Iterable

import numpy as np

from .. import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .bipartite import BipartiteGraph

__all__ = ["IndexedGraph", "InternedDelta", "coalesce"]

Node = Hashable

_USER, _ITEM, _CLICKS = itemgetter(0), itemgetter(1), itemgetter(2)


def coalesce(keys, clicks):
    """Sort edge ``keys`` and sum the ``clicks`` of equal keys.

    Returns ``(unique_keys, summed_clicks)`` with the keys ascending, for
    edge keys ``row * n_columns + column``.  The one
    sort-and-coalesce step of the package: snapshot builds, delta merges,
    a tail's edge count and the at-scale generator share it.  After one
    argsort, a neighbour mask over the sorted keys marks where each run of
    equal keys starts; ``np.unique`` would sort them again.  Integer sums
    do not depend on the order within a run, so the sort need not be
    stable.
    """
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.add.reduceat(clicks[order], starts)


class IndexedGraph:
    """A frozen array view of one :class:`BipartiteGraph` version.

    Attributes
    ----------
    users, items:
        Node ids in row/column order (sorted by ``str`` for snapshots
        built by :meth:`from_graph`).
    user_index, item_index:
        Interning tables mapping node id → contiguous int id.
    user_idx, item_idx, clicks:
        Parallel per-edge arrays: edge ``e`` is
        ``users[user_idx[e]] → items[item_idx[e]]`` with weight
        ``clicks[e]``.  Edges are grouped by user row, columns ascending.
    version:
        The graph mutation version this snapshot was built from.
    """

    __slots__ = (
        "users",
        "items",
        "user_index",
        "item_index",
        "user_idx",
        "item_idx",
        "clicks",
        "version",
        "_csr_arrays",
        "_csc_arrays",
        "_csc_clicks",
        "_user_degrees",
        "_item_degrees",
        "_user_clicks",
        "_item_clicks",
        "derived",
    )

    def __init__(
        self,
        users: list[Node],
        items: list[Node],
        user_idx,
        item_idx,
        clicks,
        version: int = 0,
        *,
        user_index: "dict[Node, int] | None" = None,
        item_index: "dict[Node, int] | None" = None,
    ) -> None:
        self.users = users
        self.items = items
        self.user_index: dict[Node, int] = (
            {user: i for i, user in enumerate(users)} if user_index is None else user_index
        )
        self.item_index: dict[Node, int] = (
            {item: i for i, item in enumerate(items)} if item_index is None else item_index
        )
        self.user_idx = user_idx
        self.item_idx = item_idx
        self.clicks = clicks
        self.version = version
        self._csr_arrays = None
        self._csc_arrays = None
        self._csc_clicks = None
        self._user_degrees = None
        self._item_degrees = None
        self._user_clicks = None
        self._item_clicks = None
        #: Scratch cache for consumer-derived results (the bitset engine's
        #: pruning fixpoints, keyed by parameter floors, and the resolved
        #: thresholds, keyed by the input parameters).  Entries
        #: must be pure functions of this snapshot plus their key; the
        #: whole cache dies with the snapshot on graph mutation, so
        #: invalidation is structural rather than per-consumer.
        self.derived: dict = {}

    @staticmethod
    def _canonicalize(user_idx, item_idx, clicks, n_items: int):
        """Sort edges by ``(row, column)`` and coalesce duplicate pairs.

        Duplicate ``(user, item)`` pairs sum their clicks — the
        :meth:`~repro.graph.bipartite.BipartiteGraph.add_click`
        accumulation semantics — which is what chunked ingestion needs
        when one edge's records straddle a chunk boundary.  The
        from-scratch build :meth:`from_graph` and :meth:`from_arrays`
        share, counted as ``graph.indexed.builds``.
        """
        obs.count("graph.indexed.builds")
        mult = max(n_items, 1)
        keys, clicks = coalesce(user_idx.astype(np.int64) * mult + item_idx, clicks)
        user_idx, item_idx = np.divmod(keys, mult)
        return user_idx, item_idx, clicks

    @classmethod
    def from_graph(cls, graph: "BipartiteGraph") -> "IndexedGraph":
        """Rebuild ``graph``'s current state from its neighbour maps, ids sorted by ``str``.

        No library path calls it: a graph's own snapshot is
        :meth:`BipartiteGraph.indexed`.  Tests compare merged snapshots
        against this from-scratch rebuild.
        """
        users = sorted(graph.users(), key=str)
        items = sorted(graph.items(), key=str)
        item_index = {item: column for column, item in enumerate(items)}
        n_edges = graph.num_edges
        user_idx = np.empty(n_edges, dtype=np.int64)
        item_idx = np.empty(n_edges, dtype=np.int64)
        clicks = np.empty(n_edges, dtype=np.int64)
        cursor = 0
        for row, user in enumerate(users):
            for item, count in graph.user_neighbors(user).items():
                user_idx[cursor] = row
                item_idx[cursor] = item_index[item]
                clicks[cursor] = count
                cursor += 1
        # Rows arrive ascending (users are iterated in order) but columns
        # follow dict insertion order; one lexsort establishes the
        # canonical (row, column) edge order every array consumer — the
        # CSR/CSC accessors, the delta merge — relies on.
        user_idx, item_idx, clicks = cls._canonicalize(
            user_idx, item_idx, clicks, len(items)
        )
        return cls(
            users, items, user_idx, item_idx, clicks, graph.version, item_index=item_index
        )

    @classmethod
    def from_arrays(
        cls,
        users: list[Node],
        items: list[Node],
        user_idx,
        item_idx,
        clicks,
        version: int = 0,
    ) -> "IndexedGraph":
        """Build a snapshot directly from parallel edge arrays.

        The out-of-core entry point: chunked ingestion and the memmap
        loaders assemble integer edge arrays without ever holding a
        Python record per edge.
        Edges are canonicalized (sorted by ``(row, column)``, duplicate
        pairs coalesced by summing clicks); the id lists are taken as
        given — element ``i`` names row/column ``i``.
        """
        user_idx = np.asarray(user_idx, dtype=np.int64)
        item_idx = np.asarray(item_idx, dtype=np.int64)
        clicks = np.asarray(clicks, dtype=np.int64)
        if not (len(user_idx) == len(item_idx) == len(clicks)):
            raise ValueError("edge arrays must have identical lengths")
        if len(user_idx):
            if int(user_idx.max()) >= len(users) or int(user_idx.min()) < 0:
                raise ValueError("user_idx out of range for the id list")
            if int(item_idx.max()) >= len(items) or int(item_idx.min()) < 0:
                raise ValueError("item_idx out of range for the id list")
        user_idx, item_idx, clicks = cls._canonicalize(
            user_idx, item_idx, clicks, len(items)
        )
        return cls(list(users), list(items), user_idx, item_idx, clicks, version)

    # ------------------------------------------------------------------
    # Incremental maintenance (append-mostly mutation)
    # ------------------------------------------------------------------
    def apply_delta(
        self, delta: "InternedDelta | Iterable[tuple]", version: int
    ) -> "IndexedGraph":
        """A new snapshot with a batch of click records merged in.

        ``delta`` is either an :class:`InternedDelta` built on this
        snapshot (an array-backed graph's tail) or plain ``(user, item,
        clicks)`` records, the form the store persists, which are interned
        here first.  Records on the same edge sum their counts; one
        ``searchsorted`` against the base keys then splits the edges the
        snapshot already holds (their counts change on a copy) from the
        new ones (inserted in canonical position), so no record can
        duplicate an edge.  A negative count lowers an edge the snapshot
        holds, and an edge whose count reaches zero is dropped; that pass
        runs only when some edge's records sum to zero or less, so
        append-only merges do no extra O(edges) work.  A count taken
        below zero raises :class:`ValueError`.

        The result is a fresh, canonical, independently cached snapshot
        that takes over the delta's id tables.  The original is untouched
        (frozen-snapshot contract), and chained merges stay O(edges) each
        because every merge compacts the delta into sorted-unique form.
        """
        if not isinstance(delta, InternedDelta):
            records = delta
            delta = InternedDelta(self)
            delta.add(records)
        elif delta.base is not self:
            raise ValueError("the delta was interned against another snapshot")
        user_idx, item_idx, clicks = self.user_idx, self.item_idx, self.clicks
        if delta.rows:
            mult, group_keys, group_weights = delta.coalesced()
            base_keys = user_idx * mult + item_idx
            positions = np.searchsorted(base_keys, group_keys)
            present = np.zeros(len(group_keys), dtype=bool)
            inside = positions < len(base_keys)
            present[inside] = base_keys[positions[inside]] == group_keys[inside]
            if present.any():
                clicks = clicks.copy()
                clicks[positions[present]] += group_weights[present]
            inserted = ~present
            if inserted.any():
                insert_keys = group_keys[inserted]
                at = positions[inserted]
                user_idx = np.insert(user_idx, at, insert_keys // mult)
                item_idx = np.insert(item_idx, at, insert_keys % mult)
                clicks = np.insert(clicks, at, group_weights[inserted])
            if (group_weights <= 0).any():
                if (clicks < 0).any():
                    raise ValueError("a delta lowered an edge below zero clicks")
                kept = clicks > 0
                user_idx, item_idx, clicks = user_idx[kept], item_idx[kept], clicks[kept]
        return IndexedGraph(
            delta.users,
            delta.items,
            user_idx,
            item_idx,
            clicks,
            version,
            user_index=delta.user_index,
            item_index=delta.item_index,
        )

    # ------------------------------------------------------------------
    # Scale
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return len(self.users)

    @property
    def num_items(self) -> int:
        """Number of item nodes."""
        return len(self.items)

    @property
    def num_edges(self) -> int:
        """Number of (user, item) click records."""
        return len(self.user_idx)

    @property
    def total_clicks(self) -> int:
        """Sum of all click counts."""
        return int(self.clicks.sum())

    # ------------------------------------------------------------------
    # Cached per-node aggregates
    # ------------------------------------------------------------------
    def user_degrees(self):
        """``int64[num_users]`` — distinct items clicked per user."""
        if self._user_degrees is None:
            self._user_degrees = np.bincount(
                self.user_idx, minlength=self.num_users
            ).astype(np.int64)
        return self._user_degrees

    def item_degrees(self):
        """``int64[num_items]`` — distinct users per item."""
        if self._item_degrees is None:
            self._item_degrees = np.bincount(
                self.item_idx, minlength=self.num_items
            ).astype(np.int64)
        return self._item_degrees

    def user_total_clicks(self):
        """``int64[num_users]`` — total clicks per user (exact)."""
        if self._user_clicks is None:
            # float64 bincount weights are exact for click sums < 2^53.
            self._user_clicks = np.bincount(
                self.user_idx, weights=self.clicks, minlength=self.num_users
            ).astype(np.int64)
        return self._user_clicks

    def item_total_clicks(self):
        """``int64[num_items]`` — total clicks per item (Table III's *Total_click*)."""
        if self._item_clicks is None:
            self._item_clicks = np.bincount(
                self.item_idx, weights=self.clicks, minlength=self.num_items
            ).astype(np.int64)
        return self._item_clicks

    # ------------------------------------------------------------------
    # CSR / CSC index arrays
    # ------------------------------------------------------------------
    def csr_arrays(self):
        """``(indptr, item_idx)`` — user-major CSR adjacency, cached.

        Because the edge arrays are canonical (sorted by ``(row, column)``,
        unique), the column index array is ``item_idx`` itself; only the
        ``int64[num_users + 1]`` row pointer is derived.  Row ``u``'s
        distinct items are ``item_idx[indptr[u]:indptr[u + 1]]``, columns
        ascending.  This is the bitset engine's and the memmap writer's
        view of the graph.
        """
        if self._csr_arrays is None:
            indptr = np.zeros(self.num_users + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.user_idx, minlength=self.num_users),
                out=indptr[1:],
            )
            self._csr_arrays = (indptr, self.item_idx)
        return self._csr_arrays

    def csc_arrays(self):
        """``(indptr, user_idx_by_column)`` — item-major CSC adjacency, cached.

        Column ``i``'s distinct users are
        ``user_idx_by_column[indptr[i]:indptr[i + 1]]``, rows ascending.
        The build is a stable argsort of every edge, counted as
        ``graph.indexed.csc_builds``.  Its one reader is
        :meth:`column_slice`, behind
        :meth:`~repro.graph.bipartite.BipartiteGraph.item_neighbors`: some
        baselines and tests read item columns that way.  Detection never
        does (screening and identification invert the group members'
        rows, connected components read the edge arrays), and item
        degrees and totals come from :meth:`item_degrees` and
        :meth:`item_total_clicks`.
        """
        if self._csc_arrays is None:
            obs.count("graph.indexed.csc_builds")
            order = np.argsort(self.item_idx, kind="stable")
            indptr = np.zeros(self.num_items + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.item_idx, minlength=self.num_items),
                out=indptr[1:],
            )
            self._csc_arrays = (indptr, np.asarray(self.user_idx)[order])
            self._csc_clicks = np.asarray(self.clicks)[order]
        return self._csc_arrays

    # ------------------------------------------------------------------
    # Single-vertex slices (the array-backed graph's read primitives)
    # ------------------------------------------------------------------
    def row_slice(self, row: int):
        """``(item_columns, weights)`` for user row ``row``, columns ascending.

        One CSR slice — no copies beyond the views — so an array-backed
        :class:`~repro.graph.bipartite.BipartiteGraph` can serve a single
        user's adjacency without touching the rest of the edge arrays.
        """
        indptr, cols = self.csr_arrays()
        lo, hi = int(indptr[row]), int(indptr[row + 1])
        return cols[lo:hi], self.clicks[lo:hi]

    def column_slice(self, column: int):
        """``(user_rows, weights)`` for item column ``column``, rows ascending.

        The CSC mirror of :meth:`row_slice`; the weight permutation is
        cached alongside the CSC index arrays, so every call after the
        first is two array slices.
        """
        indptr, rows = self.csc_arrays()
        lo, hi = int(indptr[column]), int(indptr[column + 1])
        return rows[lo:hi], self._csc_clicks[lo:hi]

    def edge_weight(self, row: int, column: int) -> int:
        """Click count on edge ``(row, column)``, or 0 when absent.

        A binary search inside the row's canonical (ascending) column
        slice — the O(log degree) point lookup behind an array-backed
        graph's ``get_click``/``has_edge``.
        """
        cols, weights = self.row_slice(row)
        position = int(np.searchsorted(cols, column))
        if position < len(cols) and int(cols[position]) == column:
            return int(weights[position])
        return 0

    def has_edges(self, rows, columns):
        """``bool[k]`` — whether each edge ``(rows[k], columns[k])`` exists.

        The batched presence test of :meth:`edge_weight`: one vectorized
        binary search inside every row's ascending column slice,
        O(k log max-degree) with no pass over the edge arrays.  Ids past
        this snapshot's tables (interned after it) are absent.
        """
        rows = np.asarray(rows, dtype=np.int64)
        columns = np.asarray(columns, dtype=np.int64)
        present = np.zeros(len(rows), dtype=bool)
        known = np.flatnonzero((rows < self.num_users) & (columns < self.num_items))
        if not len(known):
            return present
        indptr, cols = self.csr_arrays()
        rows, columns = rows[known], columns[known]
        lo, end = indptr[rows], indptr[rows + 1]
        hi = end.copy()
        # Bisect every open [lo, hi) to the first column >= the target.
        open_ = np.flatnonzero(lo < hi)
        while len(open_):
            mid = (lo[open_] + hi[open_]) // 2
            right = cols[mid] < columns[open_]
            lo[open_[right]] = mid[right] + 1
            hi[open_[~right]] = mid[~right]
            open_ = open_[lo[open_] < hi[open_]]
        hit = lo < end
        hit[hit] = cols[lo[hit]] == columns[hit]
        present[known] = hit
        return present

    def __repr__(self) -> str:
        return (
            f"IndexedGraph(users={self.num_users}, items={self.num_items}, "
            f"edges={self.num_edges}, version={self.version})"
        )


class InternedDelta:
    """Click records interned against one snapshot's id tables.

    The one interning step of the package: an array-backed graph's tail,
    a store's delta records and the chunked table reader pass through
    :meth:`add` on their way into :meth:`IndexedGraph.apply_delta`, and
    an array-backed graph's idle nodes through :meth:`register`.  A tail
    only ever holds positive counts: an array-backed graph merges a
    lowered count at once
    (:meth:`~repro.graph.bipartite.BipartiteGraph.subtract_clicks`), so
    reads of the tail alone, such as :meth:`merged_num_edges`, stay
    exact.

    Attributes
    ----------
    base:
        The snapshot the ids are numbered against.
    users, items, user_index, item_index:
        ``base``'s id tables extended by the ids the records add, in
        first-seen order.  They are ``base``'s own objects until the first
        unseen id, which copies them once, so ``base`` stays frozen; the
        merged snapshot takes them over.
    rows, columns, clicks:
        The records as parallel id and click columns, in arrival order.
    """

    __slots__ = (
        "base",
        "users",
        "items",
        "user_index",
        "item_index",
        "rows",
        "columns",
        "clicks",
    )

    def __init__(self, base: IndexedGraph) -> None:
        self.base = base
        self.users, self.items = base.users, base.items
        self.user_index, self.item_index = base.user_index, base.item_index
        self.rows: list[int] = []
        self.columns: list[int] = []
        self.clicks: list[int] = []

    def add(self, records: Iterable[tuple]) -> None:
        """Intern ``(user, item, clicks)`` records in order.

        An unseen user or item takes the next free row or column of its
        side in first-seen order, the numbering one record-at-a-time
        replay would give.  Counts are taken as given.  A record without
        exactly three fields raises :class:`ValueError` before anything
        is interned.
        """
        if not isinstance(records, (list, tuple)):
            records = list(records)
        if not records:
            return
        lengths = set(map(len, records))
        if lengths != {3}:
            raise ValueError(f"delta records have 3 fields, got {min(lengths - {3})}")
        # Column-wise C loops allocate no per-record objects, which keeps
        # the garbage collector quiet on large batches.  Both sides are
        # interned before any column grows, so a failure leaves the
        # columns the same length.
        rows = self._ids(list(map(_USER, records)), True)
        columns = self._ids(list(map(_ITEM, records)), False)
        self.rows += rows
        self.columns += columns
        self.clicks += map(_CLICKS, records)

    def register(self, kind: str, node: Node) -> None:
        """Intern one idle ``"user"`` or ``"item"`` id; a known id is a no-op."""
        self._ids([node], kind == "user")

    def coalesced(self):
        """``(mult, keys, clicks)``: the records' edge keys, coalesced.

        A record's key is ``row * mult + column``; :func:`coalesce` sorts
        the keys and sums each edge's counts.
        """
        mult = max(len(self.items), 1)
        keys = np.array(self.rows, dtype=np.int64) * mult
        keys += np.array(self.columns, dtype=np.int64)
        return (mult, *coalesce(keys, np.array(self.clicks, dtype=np.int64)))

    def merged_num_edges(self) -> int:
        """The edge count :meth:`IndexedGraph.apply_delta` would give, without merging.

        ``base.num_edges`` plus the distinct record pairs ``base`` lacks:
        one sort of the records' keys and one
        :meth:`IndexedGraph.has_edges` lookup, O(records · log) with no
        pass over ``base``'s edges.
        """
        base = self.base
        if not self.rows:
            return base.num_edges
        mult, keys, _ = self.coalesced()
        present = base.has_edges(keys // mult, keys % mult)
        return base.num_edges + len(keys) - int(np.count_nonzero(present))

    def _ids(self, nodes: list, users: bool) -> list[int]:
        """The ids of ``nodes`` on one side, registering unseen ones."""
        index = self.user_index if users else self.item_index
        ids = list(map(index.get, nodes))
        if None not in ids:
            return ids
        if self.user_index is self.base.user_index:
            # First unseen id: copy the tables so the base stays frozen.
            self.users, self.items = list(self.users), list(self.items)
            self.user_index, self.item_index = dict(self.user_index), dict(self.item_index)
        index, table = (
            (self.user_index, self.users) if users else (self.item_index, self.items)
        )
        unseen = list(map(is_, ids, repeat(None)))
        fresh = dict(zip(dict.fromkeys(compress(nodes, unseen)), count(len(table))))
        index.update(fresh)
        table.extend(fresh)
        # Only the unseen positions need a second lookup, in the small map.
        fill = map(fresh.__getitem__, compress(nodes, unseen))
        return [next(fill) if row is None else row for row in ids]
