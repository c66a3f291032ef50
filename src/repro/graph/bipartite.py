"""The weighted user-item bipartite click graph.

:class:`BipartiteGraph` stores the paper's ``TaoBao_UI_Clicks`` relation.
Users and items live in separate namespaces: the same identifier may appear
on both sides without clashing, as in the paper's tables where user ids and
item ids are independent integer sequences.

Every graph is **array-backed**.  Its truth is the last merged
:class:`~repro.graph.indexed.IndexedGraph` snapshot plus a tail of interned
``(row, column, clicks)`` columns (an
:class:`~repro.graph.indexed.InternedDelta`); ``BipartiteGraph()`` starts
from an empty snapshot, and :meth:`from_indexed` from a given one:

* appends — :meth:`add_click_columns` (which :meth:`add_clicks` and
  :meth:`add_click` call), idle :meth:`add_user`/:meth:`add_item`, and
  the increment of a :meth:`set_click` that raises a count — intern
  their ids and extend the tail; they never write a dict;
* lowered counts — :meth:`subtract_clicks`, and the :meth:`set_click` and
  :meth:`remove_edge` built on it — merge the tail, then merge the
  decrements at once as negative counts (an edge that reaches zero
  leaves the snapshot), so no decrement waits in the tail;
* ``has_user``/``has_item``, the node counts and ``users()``/``items()``
  read the tail's id tables, and ``num_edges`` counts the tail's record
  pairs the base lacks
  (:meth:`~repro.graph.indexed.InternedDelta.merged_num_edges`), so
  status polls between merges stay O(tail);
* every other read merges the tail into a fresh snapshot first
  (:meth:`~repro.graph.indexed.IndexedGraph.apply_delta`, counted as
  ``graph.indexed.delta_builds``) and serves the snapshot: degrees and
  totals from its cached aggregates, ``get_click`` by a binary search in
  the user's row, ``edges()`` in canonical order (rows in interning
  order, columns ascending), and the neighbour maps from per-vertex dicts
  that are a read cache of the current snapshot, dropped at each merge.

No node is ever removed.  The algorithms that delete vertices (Algorithm
3's pruning, the FRAUDAR and COPYCATCH baselines) prune a
:class:`~repro.graph.views.Adjacency` of their own, and :meth:`subgraph`
masks the snapshot's rows and columns.

Merging and read caching never bump :attr:`version` or change an
observable value, which the suite against a plain dict-of-dicts model
pins under random operation interleavings.
"""

from __future__ import annotations

from itertools import compress
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .. import obs
from ..errors import DuplicateNodeError, NodeNotFoundError
from .indexed import IndexedGraph, InternedDelta, record_columns

__all__ = ["BipartiteGraph"]

Node = Hashable


def _check_counts(clicks: Sequence[int]) -> None:
    """Raise :class:`ValueError`, naming the first offender, unless every count is positive."""
    if clicks and min(clicks) <= 0:
        first = next(count for count in clicks if count <= 0)
        raise ValueError(f"clicks must be positive, got {first}")


def _row(snapshot: IndexedGraph, user: Node) -> int:
    row = snapshot.user_index.get(user)
    if row is None:
        raise NodeNotFoundError(user, "user")
    return row


def _column(snapshot: IndexedGraph, item: Node) -> int:
    column = snapshot.item_index.get(item)
    if column is None:
        raise NodeNotFoundError(item, "item")
    return column


def _kept(index: dict, size: int, nodes: Iterable[Node] | None) -> np.ndarray:
    """``bool[size]``: the ids of ``nodes`` known to ``index`` (all, for ``None``)."""
    if nodes is None:
        return np.ones(size, dtype=bool)
    keep = np.zeros(size, dtype=bool)
    keep[[row for row in map(index.get, nodes) if row is not None]] = True
    return keep


def _edge_map(graph: "BipartiteGraph") -> dict:
    return {(user, item): clicks for user, item, clicks in graph.edges()}


class BipartiteGraph:
    """A mutable weighted bipartite graph of user→item click counts.

    Edges carry a positive integer click count ``p``; adding clicks to an
    existing edge accumulates.  ``user_neighbors``/``item_neighbors`` are
    two views of the same edge set.

    Examples
    --------
    >>> g = BipartiteGraph()
    >>> g.add_click("u1", "i1", 3)
    >>> g.add_click("u1", "i2")
    >>> g.user_degree("u1"), g.user_total_clicks("u1")
    (2, 4)
    >>> g.remove_edge("u1", "i1")
    >>> g.user_degree("u1")
    1
    """

    __slots__ = (
        "_users",
        "_items",
        "_total_clicks",
        "_version",
        "_indexed",
        "_tail",
    )

    def __init__(self) -> None:
        empty = np.zeros(0, dtype=np.int64)
        self._over(IndexedGraph([], [], empty, empty, empty), 0)

    def _over(self, snapshot: IndexedGraph, total_clicks: int) -> None:
        """Make ``snapshot`` (holding ``total_clicks``) the whole state, with an empty tail."""
        #: A read cache of the current snapshot's neighbour maps.
        self._users: dict[Node, dict[Node, int]] = {}
        self._items: dict[Node, dict[Node, int]] = {}
        self._total_clicks = total_clicks
        self._version = snapshot.version
        #: The last merged snapshot, the base of the tail.
        self._indexed = snapshot
        #: The interned appends since ``_indexed``.
        self._tail = InternedDelta(snapshot)

    @classmethod
    def from_indexed(cls, snapshot: IndexedGraph) -> "BipartiteGraph":
        """A mutable graph over a frozen snapshot (warm start).

        The inverse of :meth:`indexed`, in O(1) graph work: the snapshot
        becomes the base of an empty tail (see the module docstring), the
        mutation version is pinned to ``snapshot.version``, and the first
        :meth:`indexed` call returns the snapshot itself as a cache *hit*,
        so the snapshot's ``derived`` memos (resolved thresholds, fixpoint
        memos) serve the restored state.
        """
        graph = cls.__new__(cls)
        graph._over(snapshot, snapshot.total_clicks)
        return graph

    def _current(self) -> IndexedGraph:
        """The snapshot with the tail merged in.

        A merge replaces the base and the tail and drops the neighbour
        read cache; it never bumps the version.
        """
        snapshot = self._indexed
        if snapshot.version != self._version:
            obs.count("graph.indexed.delta_builds")
            with obs.span("indexed_delta"):
                snapshot = self._indexed = snapshot.apply_delta(self._tail, self._version)
            self._tail = InternedDelta(snapshot)
            self._users = {}
            self._items = {}
        return snapshot

    # ------------------------------------------------------------------
    # Snapshot bookkeeping
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter; bumps on every structural change.

        The :meth:`indexed` snapshot compares versions to decide whether
        it is still current; values derived from one version live in that
        snapshot's ``derived`` memo and die with it.
        """
        return self._version

    def indexed(self) -> IndexedGraph:
        """The current :class:`~repro.graph.indexed.IndexedGraph` snapshot.

        The base with the tail merged in — a ``graph.indexed.hits``, plus
        ``graph.indexed.delta_builds`` when the tail was not empty.  The
        snapshot is reused until the next write.
        """
        obs.count("graph.indexed.hits")
        return self._current()

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def _register(self, kind: str, node: Node) -> None:
        """Add an idle node known to be absent (``kind`` is its side)."""
        self._tail.register(kind, node)
        self._version += 1

    def add_user(self, user: Node) -> None:
        """Register ``user`` with no edges.  No-op if already present."""
        if not self.has_user(user):
            self._register("user", user)

    def add_item(self, item: Node) -> None:
        """Register ``item`` with no edges.  No-op if already present."""
        if not self.has_item(item):
            self._register("item", item)

    def add_user_strict(self, user: Node) -> None:
        """Register ``user``; raise :class:`DuplicateNodeError` if present."""
        if self.has_user(user):
            raise DuplicateNodeError(user, "user")
        self._register("user", user)

    def add_item_strict(self, item: Node) -> None:
        """Register ``item``; raise :class:`DuplicateNodeError` if present."""
        if self.has_item(item):
            raise DuplicateNodeError(item, "item")
        self._register("item", item)

    def has_user(self, user: Node) -> bool:
        """Whether ``user`` is in the user partition."""
        return user in self._tail.user_index

    def has_item(self, item: Node) -> bool:
        """Whether ``item`` is in the item partition."""
        return item in self._tail.item_index

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------
    def add_click(self, user: Node, item: Node, clicks: int = 1) -> None:
        """Record that ``user`` clicked ``item`` ``clicks`` more times.

        Creates the endpoints if needed.  ``clicks`` must be positive.
        """
        self.add_click_columns((user,), (item,), (clicks,))

    def add_clicks(self, records: Iterable[tuple[Node, Node, int]]) -> None:
        """Apply ``(user, item, clicks)`` records in order, all or none.

        The same graph and :attr:`version` as one :meth:`add_click` per
        record: the records are transposed once and applied by
        :meth:`add_click_columns`, so a record with a non-positive count
        raises :class:`ValueError` and leaves the graph untouched, as does
        a record without exactly three fields.
        """
        columns = record_columns(records)
        if columns:
            self.add_click_columns(*columns)

    def add_click_columns(
        self, users: Sequence[Node], items: Sequence[Node], clicks: Sequence[int]
    ) -> None:
        """Apply parallel user, item and click columns in order, all or none.

        The one write path of appended clicks: every count is checked
        before the columns are interned into the tail, so a non-positive
        count raises :class:`ValueError` and leaves the graph untouched.
        """
        _check_counts(clicks)
        if not clicks:
            return
        self._tail.add_columns(users, items, clicks)
        self._version += len(clicks)
        self._total_clicks += sum(clicks)

    def subtract_clicks(
        self, records: Iterable[tuple[Node, Node, int]]
    ) -> list[tuple[Node, Node]]:
        """Take ``(user, item, clicks)`` records off their edges, in order.

        The same graph, :attr:`total_clicks` and :attr:`version` as one
        ``set_click(user, item, max(0, get_click(user, item) - clicks))``
        per record: an edge that reaches zero leaves the graph, a record
        on an absent edge (or an unknown id) changes and registers
        nothing, and no node is ever removed.  A non-positive count
        raises :class:`ValueError` before the first write, as in
        :meth:`add_clicks`.  Returns the ``(user, item)`` pairs whose
        count fell, in first-lowered order.

        The counts are read from the merged snapshot, and the decrements
        merge at once with one
        :meth:`~repro.graph.indexed.IndexedGraph.apply_delta` of negative
        counts, so the tail never holds one.
        """
        columns = record_columns(records)
        if not columns:
            return []
        _check_counts(columns[2])
        taken: dict[tuple[Node, Node], int] = {}
        steps = 0
        for user, item, clicks in zip(*columns):
            # No write happens before the loop ends, so get_click reads
            # the count before this call.
            already = taken.get((user, item), 0)
            remaining = self.get_click(user, item) - already
            if remaining > 0:
                taken[user, item] = already + min(clicks, remaining)
                steps += 1
        if not steps:
            return []
        self._total_clicks -= sum(taken.values())
        # get_click merged the tail, so the decrements merge alone.
        self._tail.add([(user, item, -clicks) for (user, item), clicks in taken.items()])
        self._version += steps
        self._current()
        return list(taken)

    def set_click(self, user: Node, item: Node, clicks: int) -> None:
        """Set the edge weight exactly; ``clicks = 0`` deletes the edge.

        A write that leaves the weight unchanged (``clicks`` equal to the
        current count, including setting an absent edge to 0) is a no-op:
        the mutation :attr:`version` does not bump, so threshold caches
        and fixpoint memos keyed to it stay valid.  Consequently a
        zero-weight set never creates endpoints — deleting a non-existent
        edge is nothing happening, not a node registration; use
        :meth:`add_user`/:meth:`add_item` to register idle nodes.  A
        *positive* set on a missing edge creates the endpoints, exactly
        like :meth:`add_click`, and any raise appends the increment.  A
        lower count goes through :meth:`subtract_clicks`, one merge per
        call; batch callers call that directly.
        """
        if clicks < 0:
            raise ValueError(f"clicks must be >= 0, got {clicks}")
        current = self.get_click(user, item)
        # An unchanged weight writes nothing, so memoized snapshots and
        # every version-keyed consumer cache stay valid.
        if clicks > current:
            self.add_clicks(((user, item, clicks - current),))
        elif clicks < current:
            self.subtract_clicks(((user, item, current - clicks),))

    def remove_edge(self, user: Node, item: Node) -> None:
        """Delete the edge between ``user`` and ``item`` if present."""
        self.set_click(user, item, 0)

    def has_edge(self, user: Node, item: Node) -> bool:
        """Whether ``user`` has clicked ``item`` at least once."""
        return self.get_click(user, item) > 0

    def get_click(self, user: Node, item: Node, default: int = 0) -> int:
        """Click count on edge ``(user, item)``, or ``default`` if absent."""
        snapshot = self._current()
        row = snapshot.user_index.get(user)
        column = snapshot.item_index.get(item)
        if row is not None and column is not None:
            weight = snapshot.edge_weight(row, column)
            if weight:
                return weight
        return default

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def users(self) -> Iterator[Node]:
        """Iterate over user ids in row order (first-seen order)."""
        return iter(self._tail.users)

    def items(self) -> Iterator[Node]:
        """Iterate over item ids in column order (first-seen order)."""
        return iter(self._tail.items)

    def edges(self) -> Iterator[tuple[Node, Node, int]]:
        """Iterate over ``(user, item, clicks)`` triples in canonical order.

        Users in row order, each user's items by ascending column.
        """
        snapshot = self._current()
        users, items = snapshot.users, snapshot.items
        for row, column, clicks in zip(
            snapshot.user_idx.tolist(),
            snapshot.item_idx.tolist(),
            snapshot.clicks.tolist(),
        ):
            yield users[row], items[column], clicks

    def user_neighbors(self, user: Node) -> Mapping[Node, int]:
        """Read-only view of ``{item: clicks}`` for ``user``.

        Built from the user's snapshot row on first read and cached until
        the next merge.
        """
        snapshot = self._current()
        adjacency = self._users.get(user)
        if adjacency is not None:
            return adjacency
        columns, weights = snapshot.row_slice(_row(snapshot, user))
        items = snapshot.items
        adjacency = self._users[user] = {
            items[column]: weight
            for column, weight in zip(columns.tolist(), weights.tolist())
        }
        obs.count("graph.lazy.user_hydrations")
        return adjacency

    def item_neighbors(self, item: Node) -> Mapping[Node, int]:
        """Read-only view of ``{user: clicks}`` for ``item``.

        Built from the item's snapshot column on first read (the first
        such read of a snapshot builds its CSC arrays) and cached until
        the next merge.
        """
        snapshot = self._current()
        adjacency = self._items.get(item)
        if adjacency is not None:
            return adjacency
        rows, weights = snapshot.column_slice(_column(snapshot, item))
        users = snapshot.users
        adjacency = self._items[item] = {
            users[row]: weight for row, weight in zip(rows.tolist(), weights.tolist())
        }
        obs.count("graph.lazy.item_hydrations")
        return adjacency

    def user_degree(self, user: Node) -> int:
        """Number of distinct items clicked by ``user``."""
        snapshot = self._current()
        return int(snapshot.user_degrees()[_row(snapshot, user)])

    def item_degree(self, item: Node) -> int:
        """Number of distinct users who clicked ``item``."""
        snapshot = self._current()
        return int(snapshot.item_degrees()[_column(snapshot, item)])

    def user_total_clicks(self, user: Node) -> int:
        """Sum of click counts on all of ``user``'s edges."""
        snapshot = self._current()
        return int(snapshot.user_total_clicks()[_row(snapshot, user)])

    def item_total_clicks(self, item: Node) -> int:
        """Sum of click counts on all of ``item``'s edges (Table III's *Total_click*)."""
        snapshot = self._current()
        return int(snapshot.item_total_clicks()[_column(snapshot, item)])

    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return len(self._tail.users)

    @property
    def num_items(self) -> int:
        """Number of item nodes."""
        return len(self._tail.items)

    @property
    def num_edges(self) -> int:
        """Number of (user, item) click records — *Edge* in Table I.

        Counted without merging the tail.
        """
        return self._tail.merged_num_edges()

    @property
    def total_clicks(self) -> int:
        """Sum of all click counts — *Total_click* in Table I."""
        return self._total_clicks

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "BipartiteGraph":
        """An independent graph with the same nodes, edges and version, in O(1).

        Merges the tail, then wraps a new snapshot object over the same
        immutable arrays and id tables.  The clone is *cold*: it shares no
        cached aggregate and no ``derived`` memo with this graph, so work
        timed on a copy is not served from this graph's caches.
        """
        snapshot = self._current()
        clone = BipartiteGraph.__new__(BipartiteGraph)
        clone._over(
            IndexedGraph(
                snapshot.users,
                snapshot.items,
                snapshot.user_idx,
                snapshot.item_idx,
                snapshot.clicks,
                snapshot.version,
                user_index=snapshot.user_index,
                item_index=snapshot.item_index,
            ),
            self._total_clicks,
        )
        return clone

    def subgraph(
        self, users: Iterable[Node] | None = None, items: Iterable[Node] | None = None
    ) -> "BipartiteGraph":
        """Induced subgraph on the given node subsets.

        ``None`` for either side means "keep that whole side".  Unknown ids
        are ignored, which lets callers pass detector output (which may
        reference nodes already pruned away) without pre-filtering.  Kept
        ids keep this graph's order; the snapshot's rows and columns are
        masked and renumbered monotonically, so the kept edges stay in
        canonical order.
        """
        snapshot = self._current()
        keep_users = _kept(snapshot.user_index, snapshot.num_users, users)
        keep_items = _kept(snapshot.item_index, snapshot.num_items, items)
        keep_edges = keep_users[snapshot.user_idx] & keep_items[snapshot.item_idx]
        rows = np.cumsum(keep_users) - 1
        columns = np.cumsum(keep_items) - 1
        return BipartiteGraph.from_indexed(
            IndexedGraph(
                list(compress(snapshot.users, keep_users.tolist())),
                list(compress(snapshot.items, keep_items.tolist())),
                rows[snapshot.user_idx[keep_edges]],
                columns[snapshot.item_idx[keep_edges]],
                snapshot.clicks[keep_edges],
            )
        )

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the merged snapshot's id lists and edge arrays.

        Workers of the parallel evaluation harness get the snapshot as it
        is, so none of them rebuilds an index; cached aggregates and
        ``derived`` memos stay local.
        """
        snapshot = self._current()
        return {
            "users": snapshot.users,
            "items": snapshot.items,
            "user_idx": snapshot.user_idx,
            "item_idx": snapshot.item_idx,
            "clicks": snapshot.clicks,
            "version": self._version,
            "total_clicks": self._total_clicks,
        }

    def __setstate__(self, state: dict) -> None:
        self._over(
            IndexedGraph(
                state["users"],
                state["items"],
                state["user_idx"],
                state["item_idx"],
                state["clicks"],
                state["version"],
            ),
            state["total_clicks"],
        )

    def __eq__(self, other: object) -> bool:
        """Equal node sets and equal ``{(user, item): clicks}`` maps, in any order."""
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            set(self.users()) == set(other.users())
            and set(self.items()) == set(other.items())
            and _edge_map(self) == _edge_map(other)
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("BipartiteGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(users={self.num_users}, items={self.num_items}, "
            f"edges={self.num_edges}, clicks={self.total_clicks})"
        )

    def __len__(self) -> int:
        """Total node count across both partitions."""
        return self.num_users + self.num_items
