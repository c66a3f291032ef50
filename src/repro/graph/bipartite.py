"""The weighted user-item bipartite click graph.

:class:`BipartiteGraph` stores the paper's ``TaoBao_UI_Clicks`` relation.
A graph built node by node (``BipartiteGraph()`` plus :meth:`add_click`)
is *eager*: two mirrored dict-of-dict adjacency maps, one per partition.
That representation was chosen over a matrix because every detection
algorithm in the paper *mutates* the graph by deleting nodes (CorePruning
and SquarePruning both "remove a vertex and all its adjacent edges"), and
hash maps give O(degree) deletion, O(1) edge lookup and cheap
neighbour-set intersection — the three operations Algorithm 3 is built
from.

Users and items live in separate namespaces: the same identifier may appear
on both sides without clashing, as in the paper's tables where user ids and
item ids are independent integer sequences.

**Array-backed graphs (store loads, the live incremental graph).**  A graph
made by :meth:`from_indexed` keeps no adjacency dicts as its truth.  Its
truth is the last merged :class:`~repro.graph.indexed.IndexedGraph`
snapshot plus a tail of interned ``(row, column, clicks)`` columns (an
:class:`~repro.graph.indexed.InternedDelta`):

* appends — :meth:`add_clicks`, idle :meth:`add_user`/:meth:`add_item`,
  and the increment of a :meth:`set_click` that raises a count — intern
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
  that are a read cache of the current snapshot, dropped at each merge;
* node removal merges and then flattens the snapshot into the eager
  dicts (:meth:`_flatten`); so do pickling and ``==``.  The graph is
  eager from then on.

An eager graph buffers nothing: every write drops its memoized snapshot,
and the next :meth:`indexed` call rebuilds it.

Merging, read caching and flattening never bump :attr:`version` or
change an observable value, which the equivalence suites (against a
plain dict-of-dicts model and an eager twin) pin under random operation
interleavings.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping

from .. import obs
from ..errors import DuplicateNodeError, NodeNotFoundError
from .indexed import IndexedGraph, InternedDelta

__all__ = ["BipartiteGraph"]

Node = Hashable

_CLICKS = itemgetter(2)


def _checked(records: Iterable[tuple[Node, Node, int]]) -> tuple:
    """``records`` as a tuple; raise :class:`ValueError` unless every count is positive.

    A record without exactly three fields raises as well.
    """
    records = tuple(records)
    if records and (set(map(len, records)) != {3} or min(map(_CLICKS, records)) <= 0):
        # Unpacking also rejects a record without exactly three fields.
        for _, _, clicks in records:
            if clicks <= 0:
                raise ValueError(f"clicks must be positive, got {clicks}")
    return records


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


class BipartiteGraph:
    """A mutable weighted bipartite graph of user→item click counts.

    Edges carry a positive integer click count ``p``; adding clicks to an
    existing edge accumulates.  All mutation keeps the two partitions
    consistent, so ``user_neighbors``/``item_neighbors`` are always
    views of the same edge set.

    Examples
    --------
    >>> g = BipartiteGraph()
    >>> g.add_click("u1", "i1", 3)
    >>> g.add_click("u1", "i2")
    >>> g.user_degree("u1"), g.user_total_clicks("u1")
    (2, 4)
    >>> g.remove_item("i1")
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
        "__weakref__",
    )

    def __init__(self) -> None:
        #: Eager graph: the adjacency truth.  Array-backed graph: a read
        #: cache of the current snapshot's neighbour maps.
        self._users: dict[Node, dict[Node, int]] = {}
        self._items: dict[Node, dict[Node, int]] = {}
        self._total_clicks: int = 0
        self._version: int = 0
        #: Eager graph: the memoized snapshot.  Array-backed graph: the
        #: last merged snapshot, the base of the tail.
        self._indexed: IndexedGraph | None = None
        #: Array-backed graph: the interned appends since ``_indexed``;
        #: ``None`` on an eager graph.
        self._tail: InternedDelta | None = None

    @classmethod
    def from_indexed(cls, snapshot: IndexedGraph) -> "BipartiteGraph":
        """An array-backed mutable graph over a frozen snapshot (warm start).

        The inverse of :meth:`indexed`, in O(1) graph work: the snapshot
        becomes the base of an empty tail (see the module docstring), the
        mutation version is pinned to ``snapshot.version``, and the first
        :meth:`indexed` call returns the snapshot itself as a cache *hit*
        (no ``graph.indexed.misses``), keeping every version-keyed
        consumer cache (thresholds, fixpoint memos) attachable to the
        restored state.
        """
        graph = cls()
        graph._version = snapshot.version
        graph._indexed = snapshot
        graph._tail = InternedDelta(snapshot)
        graph._total_clicks = snapshot.total_clicks
        return graph

    # ------------------------------------------------------------------
    # Array backing: merge, read cache, flatten
    # ------------------------------------------------------------------
    def _current(self) -> IndexedGraph | None:
        """An array-backed graph's snapshot with the tail merged in.

        ``None`` on an eager graph.  A merge replaces the base and the
        tail and drops the neighbour read cache; it never bumps the
        version.
        """
        if self._tail is None:
            return None
        snapshot = self._indexed
        if snapshot.version != self._version:
            obs.count("graph.indexed.delta_builds")
            with obs.span("indexed_delta"):
                snapshot = self._indexed = snapshot.apply_delta(self._tail, self._version)
            self._tail = InternedDelta(snapshot)
            self._users = {}
            self._items = {}
        return snapshot

    def _flatten(self) -> None:
        """Turn an array-backed graph into an eager one; a no-op when eager.

        Merges the tail, then fills both adjacency maps from the snapshot
        in canonical order: users in row order with their items by
        ascending column, items in column order with their users by
        ascending row.  A pure representation change — no observable
        value changes, the version does not bump, and the snapshot stays
        memoized.  Node removal, pickling and ``==`` call this.
        """
        snapshot = self._current()
        if snapshot is None:
            return
        obs.count("graph.lazy.materializations")
        users, items = snapshot.users, snapshot.items
        users_map: dict[Node, dict[Node, int]] = {user: {} for user in users}
        items_map: dict[Node, dict[Node, int]] = {item: {} for item in items}
        for row, column, weight in zip(
            snapshot.user_idx.tolist(),
            snapshot.item_idx.tolist(),
            snapshot.clicks.tolist(),
        ):
            user, item = users[row], items[column]
            users_map[user][item] = weight
            items_map[item][user] = weight
        self._users = users_map
        self._items = items_map
        self._tail = None

    # ------------------------------------------------------------------
    # Snapshot bookkeeping
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter; bumps on every structural change.

        Consumers holding derived data (the :meth:`indexed` snapshot, the
        detector's threshold cache) compare versions instead of graphs to
        decide whether their view is still current.
        """
        return self._version

    def _mutated(self, steps: int = 1) -> None:
        """Record an eager graph's write: ``steps`` versions, and drop the memo."""
        self._version += steps
        self._indexed = None

    def indexed(self) -> IndexedGraph:
        """The memoized :class:`~repro.graph.indexed.IndexedGraph` snapshot.

        An array-backed graph returns its base with the tail merged in —
        a cache hit, plus ``graph.indexed.delta_builds`` when the tail was
        not empty.  An eager graph builds the snapshot on first access
        (a ``graph.indexed.misses``) and reuses it until the next write.
        """
        if self._tail is not None:
            obs.count("graph.indexed.hits")
            return self._current()
        snapshot = self._indexed
        if snapshot is not None:
            obs.count("graph.indexed.hits")
            return snapshot
        obs.count("graph.indexed.misses")
        with obs.span("indexed_build"):
            snapshot = self._indexed = IndexedGraph.from_graph(self)
        return snapshot

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def _register(self, kind: str, node: Node) -> None:
        """Add an idle node known to be absent (``kind`` is its side)."""
        if self._tail is not None:
            self._tail.register(kind, node)
            self._version += 1
            return
        (self._users if kind == "user" else self._items)[node] = {}
        self._mutated()

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
        if self._tail is not None:
            return user in self._tail.user_index
        return user in self._users

    def has_item(self, item: Node) -> bool:
        """Whether ``item`` is in the item partition."""
        if self._tail is not None:
            return item in self._tail.item_index
        return item in self._items

    def remove_user(self, user: Node) -> None:
        """Delete ``user`` and all its incident edges."""
        if not self.has_user(user):
            raise NodeNotFoundError(user, "user")
        self._flatten()
        adjacency = self._users.pop(user)
        for item, clicks in adjacency.items():
            del self._items[item][user]
            self._total_clicks -= clicks
        self._mutated()

    def remove_item(self, item: Node) -> None:
        """Delete ``item`` and all its incident edges."""
        if not self.has_item(item):
            raise NodeNotFoundError(item, "item")
        self._flatten()
        adjacency = self._items.pop(item)
        for user, clicks in adjacency.items():
            del self._users[user][item]
            self._total_clicks -= clicks
        self._mutated()

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------
    def add_click(self, user: Node, item: Node, clicks: int = 1) -> None:
        """Record that ``user`` clicked ``item`` ``clicks`` more times.

        Creates the endpoints if needed.  ``clicks`` must be positive.
        """
        self.add_clicks(((user, item, clicks),))

    def add_clicks(self, records: Iterable[tuple[Node, Node, int]]) -> None:
        """Apply ``(user, item, clicks)`` records in order, all or none.

        The same graph and :attr:`version` as one :meth:`add_click` per
        record, in one pass: every count is checked before the first
        write, so a record with a non-positive count raises
        :class:`ValueError` and leaves the graph untouched, as does a
        record without exactly three fields.  An array-backed
        graph interns the batch into its tail; an eager graph writes both
        adjacency maps.
        """
        records = _checked(records)
        if not records:
            return
        total = sum(map(_CLICKS, records))
        if self._tail is not None:
            self._tail.add(records)
            self._version += len(records)
            self._total_clicks += total
            return
        users, items = self._users, self._items
        for user, item, clicks in records:
            user_adj = users.get(user)
            if user_adj is None:
                user_adj = users[user] = {}
            item_adj = items.get(item)
            if item_adj is None:
                item_adj = items[item] = {}
            previous = user_adj.get(item)
            if previous is None:
                user_adj[item] = item_adj[user] = clicks
            else:
                user_adj[item] = item_adj[user] = previous + clicks
        self._total_clicks += total
        self._mutated(len(records))

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

        An eager graph writes its dicts.  An array-backed graph reads the
        counts from its merged snapshot and merges the decrements at once
        with one :meth:`~repro.graph.indexed.IndexedGraph.apply_delta` of
        negative counts, so its tail never holds one.
        """
        records = _checked(records)
        taken: dict[tuple[Node, Node], int] = {}
        steps = 0
        for user, item, clicks in records:
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
        if self._tail is not None:
            # get_click merged the tail, so the decrements merge alone.
            self._tail.add([(user, item, -clicks) for (user, item), clicks in taken.items()])
            self._version += steps
            self._current()
            return list(taken)
        users, items = self._users, self._items
        for (user, item), clicks in taken.items():
            remaining = users[user][item] - clicks
            if remaining:
                users[user][item] = items[item][user] = remaining
            else:
                del users[user][item], items[item][user]
        self._mutated(steps)
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
        call on an array-backed graph; batch callers call that directly.
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
        if snapshot is None:
            adjacency = self._users.get(user)
            return default if adjacency is None else adjacency.get(item, default)
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
        """Iterate over user ids (an array-backed graph: in row order)."""
        if self._tail is not None:
            return iter(self._tail.users)
        return iter(self._users)

    def items(self) -> Iterator[Node]:
        """Iterate over item ids (an array-backed graph: in column order)."""
        if self._tail is not None:
            return iter(self._tail.items)
        return iter(self._items)

    def edges(self) -> Iterator[tuple[Node, Node, int]]:
        """Iterate over ``(user, item, clicks)`` triples.

        An array-backed graph yields them in canonical snapshot order:
        users in row order, each user's items by ascending column.
        """
        snapshot = self._current()
        if snapshot is None:
            for user, adjacency in self._users.items():
                for item, clicks in adjacency.items():
                    yield user, item, clicks
            return
        users, items = snapshot.users, snapshot.items
        for row, column, clicks in zip(
            snapshot.user_idx.tolist(),
            snapshot.item_idx.tolist(),
            snapshot.clicks.tolist(),
        ):
            yield users[row], items[column], clicks

    def user_neighbors(self, user: Node) -> Mapping[Node, int]:
        """Read-only view of ``{item: clicks}`` for ``user``.

        An array-backed graph builds the dict from the user's snapshot
        row on first read and caches it until the next merge.
        """
        snapshot = self._current()
        adjacency = self._users.get(user)
        if adjacency is not None:
            return adjacency
        if snapshot is None:
            raise NodeNotFoundError(user, "user")
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

        An array-backed graph builds the dict from the item's snapshot
        column on first read (the first such read of a snapshot builds
        its CSC arrays) and caches it until the next merge.
        """
        snapshot = self._current()
        adjacency = self._items.get(item)
        if adjacency is not None:
            return adjacency
        if snapshot is None:
            raise NodeNotFoundError(item, "item")
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
        if snapshot is None:
            return len(self.user_neighbors(user))
        return int(snapshot.user_degrees()[_row(snapshot, user)])

    def item_degree(self, item: Node) -> int:
        """Number of distinct users who clicked ``item``."""
        snapshot = self._current()
        if snapshot is None:
            return len(self.item_neighbors(item))
        return int(snapshot.item_degrees()[_column(snapshot, item)])

    def user_total_clicks(self, user: Node) -> int:
        """Sum of click counts on all of ``user``'s edges."""
        snapshot = self._current()
        if snapshot is None:
            return sum(self.user_neighbors(user).values())
        return int(snapshot.user_total_clicks()[_row(snapshot, user)])

    def item_total_clicks(self, item: Node) -> int:
        """Sum of click counts on all of ``item``'s edges (Table III's *Total_click*)."""
        snapshot = self._current()
        if snapshot is None:
            return sum(self.item_neighbors(item).values())
        return int(snapshot.item_total_clicks()[_column(snapshot, item)])

    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        if self._tail is not None:
            return len(self._tail.users)
        return len(self._users)

    @property
    def num_items(self) -> int:
        """Number of item nodes."""
        if self._tail is not None:
            return len(self._tail.items)
        return len(self._items)

    @property
    def num_edges(self) -> int:
        """Number of (user, item) click records — *Edge* in Table I.

        An array-backed graph counts without merging its tail.
        """
        if self._tail is not None:
            return self._tail.merged_num_edges()
        return sum(len(adjacency) for adjacency in self._users.values())

    @property
    def total_clicks(self) -> int:
        """Sum of all click counts — *Total_click* in Table I."""
        return self._total_clicks

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "BipartiteGraph":
        """Deep copy of nodes and edges (node ids are shared, not copied).

        An array-backed graph copies in O(1) after merging its tail: the
        clone is array-backed over the same frozen snapshot (immutable,
        so sharing is safe) with the same version and an empty tail of
        its own, so copying a warm graph does not throw its warmth away.
        Eager graphs copy their dicts (fresh version, no memo).
        """
        clone = BipartiteGraph()
        clone._total_clicks = self._total_clicks
        snapshot = self._current()
        if snapshot is not None:
            clone._version = self._version
            clone._indexed = snapshot
            clone._tail = InternedDelta(snapshot)
            return clone
        clone._users = {user: dict(adj) for user, adj in self._users.items()}
        clone._items = {item: dict(adj) for item, adj in self._items.items()}
        return clone

    def subgraph(
        self, users: Iterable[Node] | None = None, items: Iterable[Node] | None = None
    ) -> "BipartiteGraph":
        """Induced subgraph on the given node subsets.

        ``None`` for either side means "keep that whole side".  Unknown ids
        are ignored, which lets callers pass detector output (which may
        reference nodes already pruned away) without pre-filtering.
        """
        keep_users = (
            list(self.users())
            if users is None
            else {user for user in users if self.has_user(user)}
        )
        keep_items = (
            None if items is None else {item for item in items if self.has_item(item)}
        )
        result = BipartiteGraph()
        for user in keep_users:
            result.add_user(user)
            for item, clicks in self.user_neighbors(user).items():
                if keep_items is None or item in keep_items:
                    result.add_click(user, item, clicks)
        if keep_items is None:
            for item in self.items():
                result.add_item(item)
        else:
            for item in keep_items:
                result.add_item(item)
        return result

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the edge data only; memoized snapshots stay local.

        Workers of the parallel evaluation harness rebuild (and re-memoize)
        their own :meth:`indexed` snapshot on first use, so shipping the
        numpy arrays with every scenario would only inflate the pickle.
        An array-backed graph flattens first — the pickle must carry the
        complete adjacency either way, and flattening through the
        vectorized snapshot is cheaper than rebuilding vertex by vertex on
        the other side.
        """
        self._flatten()
        return {
            "_users": self._users,
            "_items": self._items,
            "_total_clicks": self._total_clicks,
            "_version": self._version,
        }

    def __setstate__(self, state: dict) -> None:
        self._users = state["_users"]
        self._items = state["_items"]
        self._total_clicks = state["_total_clicks"]
        self._version = state.get("_version", 0)
        self._indexed = None
        self._tail = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        self._flatten()
        other._flatten()
        return self._users == other._users and self._items == other._items

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
