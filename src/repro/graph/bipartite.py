"""The weighted user-item bipartite click graph.

:class:`BipartiteGraph` stores the paper's ``TaoBao_UI_Clicks`` relation as
two mirrored dict-of-dict adjacency maps, one per partition.  The
representation was chosen over a matrix because every detection algorithm
in the paper *mutates* the graph by deleting nodes (CorePruning and
SquarePruning both "remove a vertex and all its adjacent edges"), and hash
maps give O(degree) deletion, O(1) edge lookup and cheap neighbour-set
intersection — the three operations Algorithm 3 is built from.

Users and items live in separate namespaces: the same identifier may appear
on both sides without clashing, as in the paper's tables where user ids and
item ids are independent integer sequences.

**Lazy array backing (warm start).**  A graph rebuilt from a frozen
:class:`~repro.graph.indexed.IndexedGraph` snapshot via :meth:`from_indexed`
does *not* loop over the edge arrays: the snapshot installs as the backing
truth, and per-vertex dict adjacency materializes on demand
(copy-on-write per vertex).  The invariant every read path rests on:

    a vertex without a materialized dict has **all** of its incident
    edges exactly as the backing snapshot recorded them,

because every mutation first hydrates the vertices it touches.  Reads on
unmaterialized vertices (``get_click``, degrees, totals, ``edges()``)
are served straight from the snapshot's CSR/CSC slices; ``user_neighbors``
/ ``item_neighbors`` hydrate the one vertex they're asked about.  Node
*removal* — which would otherwise need per-vertex tombstones — flattens
the whole backing first (:meth:`_materialize`), after which the graph is
an ordinary eager dict graph.  Hydration and materialization are pure
cache moves: they never bump :attr:`version` and never change any
observable value, which the lazy-vs-eager equivalence suite pins under
random operation interleavings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

from .. import obs
from ..errors import DuplicateNodeError, NodeNotFoundError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .indexed import IndexedGraph

__all__ = ["BipartiteGraph"]

Node = Hashable


class BipartiteGraph:
    """A mutable weighted bipartite graph of user→item click counts.

    Edges carry a positive integer click count ``p``; adding clicks to an
    existing edge accumulates.  All mutation keeps the two adjacency maps
    mirrored, so ``user_neighbors``/``item_neighbors`` are always
    consistent views of the same edge set.

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
        "_delta",
        "_lazy",
        "_lazy_extra_users",
        "_lazy_extra_items",
        "_lazy_extra_edges",
        "__weakref__",
    )

    #: Delta-buffer backstop: past this many buffered append events the
    #: graph falls back to plain invalidation (full rebuild on next
    #: :meth:`indexed` call) so an unbounded append burst with no snapshot
    #: reader cannot grow the buffer without limit.
    _DELTA_LIMIT = 100_000

    def __init__(self) -> None:
        self._users: dict[Node, dict[Node, int]] = {}
        self._items: dict[Node, dict[Node, int]] = {}
        self._total_clicks: int = 0
        self._version: int = 0
        self._indexed: "IndexedGraph | None" = None
        self._delta: list | None = None
        #: Frozen backing snapshot while in lazy mode; ``None`` means the
        #: dict adjacency is the complete truth (eager mode).
        self._lazy: "IndexedGraph | None" = None
        #: Net node/edge counts added on top of the backing snapshot, so
        #: ``num_users``/``num_edges`` stay O(1) without scanning dicts.
        self._lazy_extra_users: int = 0
        self._lazy_extra_items: int = 0
        self._lazy_extra_edges: int = 0

    @classmethod
    def from_indexed(
        cls, snapshot: "IndexedGraph", lazy: bool = True
    ) -> "BipartiteGraph":
        """Rebuild a mutable graph around a frozen snapshot (warm start).

        The inverse of :meth:`indexed`: the mutation version is pinned to
        ``snapshot.version`` and the snapshot itself is installed as the
        memoized array view — so the first :meth:`indexed` call after a
        store load is a cache *hit* (no ``graph.indexed.misses``), keeping
        every version-keyed consumer cache (thresholds, fixpoint memos)
        attachable to the restored state.

        With ``lazy=True`` (the default) this returns in O(1): the
        snapshot arrays become the backing truth and per-vertex dict
        adjacency materializes copy-on-write as vertices are read through
        the dict API or written (see the module docstring for the
        invariant).  ``lazy=False`` fills both adjacency maps eagerly from
        the edge arrays — the historical behavior, and the twin the
        equivalence suite compares against.
        """
        graph = cls()
        graph._version = snapshot.version
        graph._indexed = snapshot
        if lazy:
            graph._lazy = snapshot
            graph._total_clicks = snapshot.total_clicks
            return graph
        graph._users = {user: {} for user in snapshot.users}
        graph._items = {item: {} for item in snapshot.items}
        users, items = snapshot.users, snapshot.items
        total = 0
        for row, column, weight in zip(
            snapshot.user_idx.tolist(),
            snapshot.item_idx.tolist(),
            snapshot.clicks.tolist(),
        ):
            user, item = users[row], items[column]
            graph._users[user][item] = weight
            graph._items[item][user] = weight
            total += weight
        graph._total_clicks = total
        return graph

    # ------------------------------------------------------------------
    # Lazy backing: hydration and materialization
    # ------------------------------------------------------------------
    def _hydrate_user(self, user: Node, row: int) -> dict[Node, int]:
        """Materialize one user's adjacency dict from the backing arrays."""
        snapshot = self._lazy
        columns, weights = snapshot.row_slice(row)
        items = snapshot.items
        adjacency = {
            items[column]: weight
            for column, weight in zip(columns.tolist(), weights.tolist())
        }
        self._users[user] = adjacency
        obs.count("graph.lazy.user_hydrations")
        return adjacency

    def _hydrate_item(self, item: Node, column: int) -> dict[Node, int]:
        """Materialize one item's adjacency dict from the backing arrays."""
        snapshot = self._lazy
        rows, weights = snapshot.column_slice(column)
        users = snapshot.users
        adjacency = {
            users[row]: weight for row, weight in zip(rows.tolist(), weights.tolist())
        }
        self._items[item] = adjacency
        obs.count("graph.lazy.item_hydrations")
        return adjacency

    def _adj_user(self, user: Node) -> dict[Node, int]:
        """The materialized adjacency dict for ``user``, creating it if new.

        Every write path funnels through here (and :meth:`_adj_item`), so
        any edge whose weight diverges from the backing snapshot has both
        endpoints materialized — the invariant that keeps CSR/CSC reads
        on unmaterialized vertices exact.
        """
        adjacency = self._users.get(user)
        if adjacency is not None:
            return adjacency
        if self._lazy is not None:
            row = self._lazy.user_index.get(user)
            if row is not None:
                return self._hydrate_user(user, row)
            self._lazy_extra_users += 1
        adjacency = self._users[user] = {}
        return adjacency

    def _adj_item(self, item: Node) -> dict[Node, int]:
        """The materialized adjacency dict for ``item``, creating it if new."""
        adjacency = self._items.get(item)
        if adjacency is not None:
            return adjacency
        if self._lazy is not None:
            column = self._lazy.item_index.get(item)
            if column is not None:
                return self._hydrate_item(item, column)
            self._lazy_extra_items += 1
        adjacency = self._items[item] = {}
        return adjacency

    def _materialize(self) -> None:
        """Flatten the lazy backing into complete dict adjacency.

        A pure cache move — no observable value changes, the version does
        not bump — that re-establishes eager mode.  Node removal calls
        this (per-vertex tombstones would tax every subsequent read);
        pickling and equality comparison call it for simplicity.  Dict
        iteration order is rebuilt canonically: snapshot nodes in array
        order first, then nodes appended after the warm start in their
        insertion order — exactly the order an eagerly-built twin has.
        """
        snapshot = self._lazy
        if snapshot is None:
            return
        obs.count("graph.lazy.materializations")
        users_map: dict[Node, dict[Node, int]] = {}
        items_map: dict[Node, dict[Node, int]] = {}
        appended_users = self._users
        appended_items = self._items
        hydrated_users: set[Node] = set()
        hydrated_items: set[Node] = set()
        for user in snapshot.users:
            adjacency = appended_users.pop(user, None)
            if adjacency is None:
                adjacency = {}
            else:
                hydrated_users.add(user)
            users_map[user] = adjacency
        for item in snapshot.items:
            adjacency = appended_items.pop(item, None)
            if adjacency is None:
                adjacency = {}
            else:
                hydrated_items.add(item)
            items_map[item] = adjacency
        users_list, items_list = snapshot.users, snapshot.items
        for row, column, weight in zip(
            snapshot.user_idx.tolist(),
            snapshot.item_idx.tolist(),
            snapshot.clicks.tolist(),
        ):
            user, item = users_list[row], items_list[column]
            # Hydrated dicts are already the truth for their vertex (they
            # may carry newer weights and edges); only fill the rest.
            if user not in hydrated_users:
                users_map[user][item] = weight
            if item not in hydrated_items:
                items_map[item][user] = weight
        users_map.update(appended_users)
        items_map.update(appended_items)
        self._users = users_map
        self._items = items_map
        self._lazy = None
        self._lazy_extra_users = 0
        self._lazy_extra_items = 0
        self._lazy_extra_edges = 0

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

    def _mutated(self) -> None:
        """Record a destructive change, invalidating memoized snapshots."""
        self._version += 1
        self._indexed = None
        self._delta = None

    def _appended(self, *events) -> None:
        """Record one append-only mutation (new nodes / edges, increments).

        Unlike :meth:`_mutated` this keeps the memoized snapshot alive and
        buffers the events, so the next :meth:`indexed` call merges them
        incrementally instead of re-snapshotting from scratch.  Recording
        only starts once a snapshot exists — with nothing to maintain, the
        buffer stays empty and the first access builds as usual.
        """
        self._version += 1
        if self._indexed is None:
            return
        if self._delta is None:
            self._delta = []
        self._delta.extend(events)
        if len(self._delta) > self._DELTA_LIMIT:
            self._indexed = None
            self._delta = None

    def indexed(self) -> "IndexedGraph":
        """The memoized :class:`~repro.graph.indexed.IndexedGraph` snapshot.

        The snapshot is built on first access and reused until the graph
        mutates.  Append-only mutation (new nodes, new edges, click
        increments) is *maintained incrementally*: the buffered events are
        merged into the previous snapshot with numpy array merges —
        counted as a cache hit plus ``graph.indexed.delta_builds``, never
        as a from-scratch miss — so append-mostly workloads (stream
        ingestion, incremental rechecks) keep their array views warm.
        Destructive mutation (removals, click decreases) still invalidates
        and rebuilds.
        """
        from .indexed import IndexedGraph

        snapshot = self._indexed
        if snapshot is not None and snapshot.version == self._version:
            obs.count("graph.indexed.hits")
            return snapshot
        if snapshot is not None and self._delta is not None:
            obs.count("graph.indexed.hits")
            obs.count("graph.indexed.delta_builds")
            with obs.span("indexed_delta"):
                snapshot = snapshot.apply_delta(self._delta, self._version)
            self._indexed = snapshot
            self._delta = None
            return snapshot
        obs.count("graph.indexed.misses")
        with obs.span("indexed_build"):
            snapshot = IndexedGraph.from_graph(self)
        self._indexed = snapshot
        self._delta = None
        return snapshot

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_user(self, user: Node) -> None:
        """Register ``user`` with no edges.  No-op if already present."""
        if not self.has_user(user):
            self._adj_user(user)
            self._appended(("user", user))

    def add_item(self, item: Node) -> None:
        """Register ``item`` with no edges.  No-op if already present."""
        if not self.has_item(item):
            self._adj_item(item)
            self._appended(("item", item))

    def add_user_strict(self, user: Node) -> None:
        """Register ``user``; raise :class:`DuplicateNodeError` if present."""
        if self.has_user(user):
            raise DuplicateNodeError(user, "user")
        self._adj_user(user)
        self._appended(("user", user))

    def add_item_strict(self, item: Node) -> None:
        """Register ``item``; raise :class:`DuplicateNodeError` if present."""
        if self.has_item(item):
            raise DuplicateNodeError(item, "item")
        self._adj_item(item)
        self._appended(("item", item))

    def has_user(self, user: Node) -> bool:
        """Whether ``user`` is in the user partition."""
        if user in self._users:
            return True
        return self._lazy is not None and user in self._lazy.user_index

    def has_item(self, item: Node) -> bool:
        """Whether ``item`` is in the item partition."""
        if item in self._items:
            return True
        return self._lazy is not None and item in self._lazy.item_index

    def remove_user(self, user: Node) -> None:
        """Delete ``user`` and all its incident edges."""
        if not self.has_user(user):
            raise NodeNotFoundError(user, "user")
        self._materialize()
        adjacency = self._users.pop(user)
        for item, clicks in adjacency.items():
            del self._items[item][user]
            self._total_clicks -= clicks
        self._mutated()

    def remove_item(self, item: Node) -> None:
        """Delete ``item`` and all its incident edges."""
        if not self.has_item(item):
            raise NodeNotFoundError(item, "item")
        self._materialize()
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
        if clicks <= 0:
            raise ValueError(f"clicks must be positive, got {clicks}")
        events = []
        if not self.has_user(user):
            events.append(("user", user))
        if not self.has_item(item):
            events.append(("item", item))
        user_adj = self._adj_user(user)
        item_adj = self._adj_item(item)
        previous = user_adj.get(item, 0)
        new_count = previous + clicks
        user_adj[item] = new_count
        item_adj[user] = new_count
        self._total_clicks += clicks
        if previous == 0 and self._lazy is not None:
            self._lazy_extra_edges += 1
        events.append(("edge", user, item, clicks, previous == 0))
        self._appended(*events)

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
        like :meth:`add_click`.
        """
        if clicks < 0:
            raise ValueError(f"clicks must be >= 0, got {clicks}")
        current = self.get_click(user, item)
        if clicks == current:
            # No-op write: nothing changed, so memoized snapshots and
            # every version-keyed consumer cache stay valid.
            return
        if clicks == 0:
            # current > 0 here, so both endpoints exist; hydrate them and
            # drop the edge from both mirrors.
            del self._adj_user(user)[item]
            del self._adj_item(item)[user]
            self._total_clicks -= current
            if self._lazy is not None:
                self._lazy_extra_edges -= 1
            self._mutated()
            return
        events = []
        if not self.has_user(user):
            events.append(("user", user))
        if not self.has_item(item):
            events.append(("item", item))
        user_adj = self._adj_user(user)
        item_adj = self._adj_item(item)
        user_adj[item] = clicks
        item_adj[user] = clicks
        self._total_clicks += clicks - current
        if current == 0 and self._lazy is not None:
            self._lazy_extra_edges += 1
        if clicks > current:
            events.append(("edge", user, item, clicks - current, current == 0))
            self._appended(*events)
        else:
            # Weight decrease is destructive for the array snapshot's
            # append-only delta; fall back to full invalidation.
            self._mutated()

    def remove_edge(self, user: Node, item: Node) -> None:
        """Delete the edge between ``user`` and ``item`` if present."""
        self.set_click(user, item, 0)

    def has_edge(self, user: Node, item: Node) -> bool:
        """Whether ``user`` has clicked ``item`` at least once."""
        adjacency = self._users.get(user)
        if adjacency is not None:
            return item in adjacency
        if self._lazy is not None:
            row = self._lazy.user_index.get(user)
            if row is not None:
                column = self._lazy.item_index.get(item)
                return column is not None and self._lazy.edge_weight(row, column) > 0
        return False

    def get_click(self, user: Node, item: Node, default: int = 0) -> int:
        """Click count on edge ``(user, item)``, or ``default`` if absent."""
        adjacency = self._users.get(user)
        if adjacency is not None:
            return adjacency.get(item, default)
        if self._lazy is not None:
            row = self._lazy.user_index.get(user)
            if row is not None:
                column = self._lazy.item_index.get(item)
                if column is not None:
                    weight = self._lazy.edge_weight(row, column)
                    if weight:
                        return weight
        return default

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def users(self) -> Iterator[Node]:
        """Iterate over user ids."""
        if self._lazy is None:
            return iter(self._users)
        return self._iter_lazy_nodes(self._lazy.users, self._lazy.user_index, self._users)

    def items(self) -> Iterator[Node]:
        """Iterate over item ids."""
        if self._lazy is None:
            return iter(self._items)
        return self._iter_lazy_nodes(self._lazy.items, self._lazy.item_index, self._items)

    @staticmethod
    def _iter_lazy_nodes(base: list, index: dict, materialized: dict) -> Iterator[Node]:
        """Snapshot nodes in array order, then appended nodes in insertion
        order — the same order an eagerly-built twin iterates."""
        yield from base
        # Materialize the appended-node list up front: hydration during
        # consumption grows the dict, which must not invalidate a pure
        # read iterator.
        appended = [node for node in materialized if node not in index]
        yield from appended

    def edges(self) -> Iterator[tuple[Node, Node, int]]:
        """Iterate over ``(user, item, clicks)`` triples."""
        if self._lazy is None:
            for user, adjacency in self._users.items():
                for item, clicks in adjacency.items():
                    yield user, item, clicks
            return
        snapshot = self._lazy
        items = snapshot.items
        for row, user in enumerate(snapshot.users):
            adjacency = self._users.get(user)
            if adjacency is not None:
                for item, clicks in adjacency.items():
                    yield user, item, clicks
            else:
                columns, weights = snapshot.row_slice(row)
                for column, weight in zip(columns.tolist(), weights.tolist()):
                    yield user, items[column], weight
        index = snapshot.user_index
        appended = [user for user in self._users if user not in index]
        for user in appended:
            for item, clicks in self._users[user].items():
                yield user, item, clicks

    def user_neighbors(self, user: Node) -> Mapping[Node, int]:
        """Read-only view of ``{item: clicks}`` for ``user``.

        On a lazily-backed graph this materializes the one requested
        vertex (copy-on-read) so repeated neighbourhood scans pay the
        array→dict conversion once.
        """
        adjacency = self._users.get(user)
        if adjacency is not None:
            return adjacency
        if self._lazy is not None:
            row = self._lazy.user_index.get(user)
            if row is not None:
                return self._hydrate_user(user, row)
        raise NodeNotFoundError(user, "user")

    def item_neighbors(self, item: Node) -> Mapping[Node, int]:
        """Read-only view of ``{user: clicks}`` for ``item``."""
        adjacency = self._items.get(item)
        if adjacency is not None:
            return adjacency
        if self._lazy is not None:
            column = self._lazy.item_index.get(item)
            if column is not None:
                return self._hydrate_item(item, column)
        raise NodeNotFoundError(item, "item")

    def user_degree(self, user: Node) -> int:
        """Number of distinct items clicked by ``user``."""
        adjacency = self._users.get(user)
        if adjacency is not None:
            return len(adjacency)
        if self._lazy is not None:
            row = self._lazy.user_index.get(user)
            if row is not None:
                columns, _ = self._lazy.row_slice(row)
                return len(columns)
        raise NodeNotFoundError(user, "user")

    def item_degree(self, item: Node) -> int:
        """Number of distinct users who clicked ``item``."""
        adjacency = self._items.get(item)
        if adjacency is not None:
            return len(adjacency)
        if self._lazy is not None:
            column = self._lazy.item_index.get(item)
            if column is not None:
                rows, _ = self._lazy.column_slice(column)
                return len(rows)
        raise NodeNotFoundError(item, "item")

    def user_total_clicks(self, user: Node) -> int:
        """Sum of click counts on all of ``user``'s edges."""
        adjacency = self._users.get(user)
        if adjacency is not None:
            return sum(adjacency.values())
        if self._lazy is not None:
            row = self._lazy.user_index.get(user)
            if row is not None:
                _, weights = self._lazy.row_slice(row)
                return int(weights.sum())
        raise NodeNotFoundError(user, "user")

    def item_total_clicks(self, item: Node) -> int:
        """Sum of click counts on all of ``item``'s edges (Table III's *Total_click*)."""
        adjacency = self._items.get(item)
        if adjacency is not None:
            return sum(adjacency.values())
        if self._lazy is not None:
            column = self._lazy.item_index.get(item)
            if column is not None:
                _, weights = self._lazy.column_slice(column)
                return int(weights.sum())
        raise NodeNotFoundError(item, "item")

    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        if self._lazy is not None:
            return self._lazy.num_users + self._lazy_extra_users
        return len(self._users)

    @property
    def num_items(self) -> int:
        """Number of item nodes."""
        if self._lazy is not None:
            return self._lazy.num_items + self._lazy_extra_items
        return len(self._items)

    @property
    def num_edges(self) -> int:
        """Number of (user, item) click records — *Edge* in Table I."""
        if self._lazy is not None:
            return self._lazy.num_edges + self._lazy_extra_edges
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

        A lazily-backed graph copies lazily: the clone shares the frozen
        backing snapshot (it is immutable, so sharing is safe), deep-copies
        only the materialized vertices, and keeps the pinned version plus
        the memoized array view — so copying a warm graph does not throw
        its warmth away.  Eager graphs copy exactly as before (fresh
        version, no memo).
        """
        clone = BipartiteGraph()
        clone._users = {user: dict(adj) for user, adj in self._users.items()}
        clone._items = {item: dict(adj) for item, adj in self._items.items()}
        clone._total_clicks = self._total_clicks
        if self._lazy is not None:
            clone._lazy = self._lazy
            clone._lazy_extra_users = self._lazy_extra_users
            clone._lazy_extra_items = self._lazy_extra_items
            clone._lazy_extra_edges = self._lazy_extra_edges
            clone._version = self._version
            clone._indexed = self._indexed
            clone._delta = None if self._delta is None else list(self._delta)
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
        A lazily-backed graph materializes first — the pickle must carry
        the complete adjacency either way, and flattening through the
        vectorized backing is cheaper than hydrating vertex-by-vertex on
        the other side.
        """
        self._materialize()
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
        self._delta = None
        self._lazy = None
        self._lazy_extra_users = 0
        self._lazy_extra_items = 0
        self._lazy_extra_edges = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        self._materialize()
        other._materialize()
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
