"""Native-speed mask/CSR/Gram implementation of Algorithm 3's pruning.

This is the production extraction engine (``engine="bitset"``; the name
is kept because stores persist its ``prune_fixpoint_bitset`` memo tag).
The reference engine (:mod:`repro.core.extraction`) walks dicts vertex by
vertex.  This module touches the full vertex axes exactly once — a
vectorized CorePruning floor pass straight off the CSR ``indptr``
degrees that mass-kills the casual majority — and then compacts the
survivors into a rank-compressed working subgraph where everything else
happens:

* **membership** is one boolean mask per side, so kills are mask clears,
  membership tests over big gathered index arrays are one fancy-index,
  and degree upkeep is a decrement cascade bounded at O(E) for the whole
  fixpoint;
* **degree/click recomputation** is segment arithmetic over CSR
  ``indptr`` slices (``np.diff`` at each compaction, ``np.add.reduceat``
  in the property-test cross-check, bincount deltas in the cascade);
* **SquarePruning** is a threshold on the rows of the biadjacency Gram
  matrix: each round the re-compacted core becomes a dense float32 0/1
  matrix ``A``, and ``A @ A.T`` / ``A.T @ A`` count every pair's common
  neighbours in row blocks through numpy's BLAS.  The floor cascade has
  already shrunk the graph to its core (thousands of vertices per side
  at paper scale), so the dense matrix stays small, and recomputing both
  products over every alive vertex each round needs no record of which
  rows changed.

The fixpoint is identical to the reference engine's: the pruning
conditions are monotone (a removal never makes another vertex *more*
viable), so any evaluation order converges to the same unique fixpoint;
the differential suite pins the equivalence on the shared scenario grid.
The kernel itself is array-native — :func:`prune_fixpoint_arrays` needs
nothing but CSR/CSC index arrays — which is what lets paper-scale graphs
stream from disk (memory-mapped arrays, see :mod:`repro.graph.io`)
without ever holding a Python object per edge.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from .. import obs
from .._util import ceil_frac, peak_rss_mb
from ..config import RICDParams
from ..graph.bipartite import BipartiteGraph
from .extraction import component_groups
from .groups import SuspiciousGroup

__all__ = [
    "prune_fixpoint_arrays",
    "prune_to_fixpoint_bitset",
    "extract_groups_bitset",
]

Node = Hashable

#: ``IndexedGraph.derived`` key tag of the whole-graph pruning fixpoint
#: memo, keyed with the parameter floors.  Stores persist it.
FIXPOINT_MEMO_TAG = "prune_fixpoint_bitset"

#: Upper bound on the cells of one SquarePruning Gram row block
#: (``block_vertices x alive_vertices``); 4M float32 cells = 16 MiB.
_TARGET_CELLS = 1 << 22


# ----------------------------------------------------------------------
# Frontier-limited CSR helpers
# ----------------------------------------------------------------------
def _gather(vertices, indptr, indices):
    """Concatenated adjacency slices of ``vertices``.

    Returns ``(neighbors, lens, seg_starts)``: the concatenation of
    ``indices[indptr[v]:indptr[v + 1]]`` for each ``v``, the slice length
    per vertex, and each slice's offset into the concatenation.
    """
    lens = indptr[vertices + 1] - indptr[vertices]
    total = int(lens.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, lens, np.zeros(len(vertices), dtype=np.int64)
    seg_ends = np.cumsum(lens)
    seg_starts = seg_ends - lens
    positions = np.arange(total, dtype=np.int64)
    positions += np.repeat(indptr[vertices] - seg_starts, lens)
    return np.asarray(indices)[positions], lens, seg_starts


def _recount_alive_degrees(vertices, indptr, indices, other_alive, deg) -> None:
    """``deg[vertices] = alive-neighbour count``, via ``np.add.reduceat``.

    Full recomputation of a vertex set's alive degrees as segment sums
    over their static CSR slices; ``other_alive`` is the opposite side's
    boolean membership mask.  The fixpoint driver itself maintains
    degrees by decrement (see ``kill`` inside
    :func:`prune_fixpoint_arrays`), so this is the independent
    cross-check used by the property tests, not the hot path.
    """
    if len(vertices) == 0:
        return
    lens = indptr[vertices + 1] - indptr[vertices]
    nonempty = vertices[lens > 0]
    deg[vertices[lens == 0]] = 0
    if len(nonempty) == 0:
        return
    neighbors, _, seg_starts = _gather(nonempty, indptr, indices)
    alive = other_alive[neighbors].astype(np.int64)
    deg[nonempty] = np.add.reduceat(alive, seg_starts)


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
def prune_fixpoint_arrays(
    user_indptr,
    user_items,
    item_indptr,
    item_users,
    params: RICDParams,
    stats: list | None = None,
    region: "tuple[np.ndarray, np.ndarray] | None" = None,
):
    """CorePruning/SquarePruning fixpoint on raw CSR/CSC index arrays.

    Parameters
    ----------
    user_indptr, user_items:
        User-major CSR adjacency (row ``u``'s distinct items are
        ``user_items[user_indptr[u]:user_indptr[u + 1]]``).
    item_indptr, item_users:
        Item-major CSC adjacency, mirrored.  The kernel reads only the
        item degrees ``np.diff(item_indptr)``; ``item_users`` may be
        ``None``.
    params:
        Extraction parameters (``k1``, ``k2``, ``alpha``).
    stats:
        Optional list; when given, one dict per fixpoint round is appended
        (kills, gathered adjacency entries, elapsed seconds) — the
        roofline benchmark's per-round bandwidth accounting.
    region:
        Optional ``(user_mask, item_mask)`` boolean pair: the fixpoint of
        the subgraph the masks induce.  Only masked vertices start alive;
        the floors are monotone, so the first cascade on induced degrees
        reaches the same fixpoint as the kernel run on the induced
        subgraph's own arrays, without building them.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Ascending indices of the surviving users and items.
    """
    import time

    n_users = len(user_indptr) - 1
    n_items = len(item_indptr) - 1
    user_floor = params.user_degree_floor
    item_floor = params.item_degree_floor
    user_common_floor = ceil_frac(params.alpha, params.k2)
    item_common_floor = ceil_frac(params.alpha, params.k1)
    empty = np.empty(0, dtype=np.int64)
    traffic = [0]  # gathered adjacency entries, for the roofline accounting

    def gather(vertices, indptr, indices):
        neighbors, lens, seg_starts = _gather(vertices, indptr, indices)
        traffic[0] += len(neighbors)
        return neighbors, lens, seg_starts

    # ------------------------------------------------------------------
    # Working-space state.  After the initial floor pass the kernel never
    # touches the full vertex axes again: the surviving subgraph is
    # compacted into rank-compressed CSR/CSC arrays and every later
    # cascade and square pass runs in that compact space
    # (re-compacted each round as it shrinks).  ``g_users``/``g_items``
    # map working ids back to the caller's indices; ``live_u``/``live_i``
    # are the boolean membership masks.
    # ------------------------------------------------------------------
    w_user_indptr = w_user_items = w_item_indptr = w_item_users = None
    g_users = g_items = empty
    n_wu = n_wi = 0
    live_u = live_i = None
    deg_u = deg_i = None

    def kill(bad, indptr, indices, live_self, deg_other, n_other, counter):
        """Clear ``bad``'s mask entries and decrement their neighbours' degrees.

        Degrees are maintained by decrement rather than recomputation:
        every killed vertex was alive (so it was counted in each
        neighbour's degree exactly once), which bounds the whole
        cascade's work at O(E) — each vertex dies at most once and its
        adjacency is gathered exactly once.  Returns the touched
        neighbour indices (dead ones included; callers filter by the
        membership mask).
        """
        live_self[bad] = False
        obs.count(counter, len(bad))
        neighbors, _, _ = gather(bad, indptr, indices)
        if len(neighbors) == 0:
            return empty
        delta = np.bincount(neighbors, minlength=n_other)
        deg_other -= delta
        return np.flatnonzero(delta)

    def core_cascade(frontier_u, frontier_i) -> None:
        """Cascade the degree floors from the given frontiers, in place.

        Runs in the current working space (the inner reads pick up the
        variables as rebound by the latest compaction).
        """
        while len(frontier_u) or len(frontier_i):
            if len(frontier_u):
                bad = frontier_u[live_u[frontier_u]]
                bad = bad[deg_u[bad] < user_floor]
                frontier_u = empty
                if len(bad):
                    touched = kill(
                        bad, w_user_indptr, w_user_items, live_u,
                        deg_i, n_wi, "extract.bitset.users_removed",
                    )
                    # union1d, not concatenate: a vertex queued twice
                    # would be killed twice and double-decrement its
                    # neighbours' degrees.
                    frontier_i = (
                        np.union1d(frontier_i, touched)
                        if len(frontier_i)
                        else touched
                    )
            if len(frontier_i):
                bad = frontier_i[live_i[frontier_i]]
                bad = bad[deg_i[bad] < item_floor]
                frontier_i = empty
                if len(bad):
                    frontier_u = kill(
                        bad, w_item_indptr, w_item_users, live_i,
                        deg_u, n_wu, "extract.bitset.items_removed",
                    )

    def compact(live_su, live_si, indptr, indices):
        """The live subgraph of the current space, rank-compressed.

        The input adjacency keeps every edge of the space it was built
        in, so a square pass over it would mostly count dead vertices (a
        hot item retains its millions of pruned casual users).  One
        compaction per round — gathering only the *live users'* rows,
        which are short by the time any square pass runs — sizes the
        dense Gram core by the live vertices alone, the same shrinkage
        the reference engine gets from physically deleting vertices.
        Returns the kept vertices (ids in the *input* space) plus fresh
        CSR + CSC arrays over their ranks.
        """
        alive_su = np.flatnonzero(live_su)
        alive_si = np.flatnonzero(live_si)
        rank_si = np.full(len(live_si), -1, dtype=np.int64)
        rank_si[alive_si] = np.arange(len(alive_si), dtype=np.int64)
        neighbors, lens, _ = gather(alive_su, indptr, indices)
        keep = live_si[neighbors]
        rows = np.repeat(np.arange(len(alive_su), dtype=np.int64), lens)[keep]
        cols = rank_si[neighbors[keep]]
        c_user_indptr = np.zeros(len(alive_su) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(alive_su)), out=c_user_indptr[1:])
        order = np.argsort(cols, kind="stable")
        c_item_indptr = np.zeros(len(alive_si) + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=len(alive_si)), out=c_item_indptr[1:])
        return (
            alive_su, alive_si,
            c_user_indptr, cols, c_item_indptr, rows[order],
        )

    def square_bad(core, common_floor, k_needed):
        """Rows of the dense 0/1 ``core`` failing Lemma 2.

        Row ``v`` of ``core @ core.T`` counts each partner's common
        neighbours with ``v``; its diagonal is ``v``'s own degree, the
        self-included count of Definition 4, so the strong-partner count
        matches the reference engine exactly.  The products run in row
        blocks of at most ``_TARGET_CELLS`` cells.  float32 sums of 0/1
        products are exact while a count stays below 2^24, which any core
        narrower than 2^24 columns guarantees.
        """
        n_rows = core.shape[0]
        block = max(1, _TARGET_CELLS // n_rows)
        bad_chunks = []
        for start in range(0, n_rows, block):
            gram = core[start : start + block] @ core.T
            strong = (gram >= common_floor).sum(axis=1)
            bad_chunks.append(start + np.flatnonzero(strong < k_needed))
        return np.concatenate(bad_chunks)

    # ------------------------------------------------------------------
    # Round 0: one vectorized CorePruning floor pass over the full axes.
    # This is the only work ever done at full graph width — a mass kill
    # of the casual majority straight off the static ``indptr`` degrees,
    # with no per-wave cascade (cascading here would gather the dead
    # majority's edges and bincount over million-wide axes every wave).
    # The floor conditions are monotone, so finishing the cascade later,
    # in compact space, reaches the identical fixpoint.
    # ------------------------------------------------------------------
    setup_start = time.perf_counter()
    mask_u = np.diff(user_indptr) >= user_floor
    mask_i = np.diff(item_indptr) >= item_floor
    if region is not None:
        mask_u &= region[0]
        mask_i &= region[1]
    # The floor pass streams both indptr axes; count it as traffic so the
    # roofline report's round 0 reflects the work actually done.
    traffic[0] += n_users + n_items
    obs.count("extract.bitset.users_removed", int(n_users - mask_u.sum()))
    obs.count("extract.bitset.items_removed", int(n_items - mask_i.sum()))
    if not mask_u.any() or not mask_i.any():
        obs.count("extract.fixpoint_rounds", 1)
        return empty, empty
    g_users, g_items, w_user_indptr, w_user_items, w_item_indptr, w_item_users = (
        compact(mask_u, mask_i, user_indptr, user_items)
    )
    n_wu = len(g_users)
    n_wi = len(g_items)
    live_u = np.ones(n_wu, dtype=bool)
    live_i = np.ones(n_wi, dtype=bool)
    deg_u = np.diff(w_user_indptr)
    deg_i = np.diff(w_item_indptr)
    # Finish the degree cascade in compact space (items that lost their
    # casual majority, then whatever that kills in turn).
    core_cascade(
        np.arange(n_wu, dtype=np.int64), np.arange(n_wi, dtype=np.int64)
    )
    if stats is not None:
        stats.append(
            {
                "round": 0,
                "users_killed": int(n_users - live_u.sum()),
                "items_killed": int(n_items - live_i.sum()),
                "alive_users": int(live_u.sum()),
                "alive_items": int(live_i.sum()),
                "alive_edges": int(w_user_indptr[-1]),
                "gathered_entries": traffic[0],
                "seconds": time.perf_counter() - setup_start,
            }
        )
    # Alternate SquarePruning + CorePruning rounds to the fixpoint, each
    # on a freshly re-compacted alive subgraph.
    rounds = 0
    while live_u.any() and live_i.any():
        rounds += 1
        round_start = time.perf_counter()
        traffic[0] = 0
        sel_u, sel_i, w_user_indptr, w_user_items, w_item_indptr, w_item_users = (
            compact(live_u, live_i, w_user_indptr, w_user_items)
        )
        g_users = g_users[sel_u]
        g_items = g_items[sel_i]
        n_wu = len(sel_u)
        n_wi = len(sel_i)
        live_u = np.ones(n_wu, dtype=bool)
        live_i = np.ones(n_wi, dtype=bool)
        deg_u = np.diff(w_user_indptr)
        deg_i = np.diff(w_item_indptr)
        core = np.zeros((n_wu, n_wi), dtype=np.float32)
        core[np.repeat(np.arange(n_wu), deg_u), w_user_items] = 1
        # Both sides evaluate on the same alive state (simultaneous
        # SquarePruning; the fixpoint is order-independent).
        bad_cu = square_bad(core, user_common_floor, params.k1)
        bad_ci = square_bad(core.T, item_common_floor, params.k2)
        # Both kill sets were computed on the same alive state; killing
        # them now (and decrementing degrees) cannot disturb the other
        # side's already-taken decisions.
        touched_i = (
            kill(
                bad_cu, w_user_indptr, w_user_items, live_u,
                deg_i, n_wi, "extract.bitset.users_removed",
            )
            if len(bad_cu)
            else empty
        )
        touched_u = (
            kill(
                bad_ci, w_item_indptr, w_item_users, live_i,
                deg_u, n_wu, "extract.bitset.items_removed",
            )
            if len(bad_ci)
            else empty
        )
        core_cascade(touched_u, touched_i)
        if stats is not None:
            stats.append(
                {
                    "round": rounds,
                    "users_killed": int(n_wu - live_u.sum()),
                    "items_killed": int(n_wi - live_i.sum()),
                    "alive_users": n_wu,
                    "alive_items": n_wi,
                    "alive_edges": int(w_user_indptr[-1]),
                    "gathered_entries": traffic[0],
                    "seconds": time.perf_counter() - round_start,
                }
            )
        if len(bad_cu) == 0 and len(bad_ci) == 0:
            break
    obs.count("extract.fixpoint_rounds", max(rounds, 1))
    if not live_u.any() or not live_i.any():
        return empty, empty
    return g_users[np.flatnonzero(live_u)], g_items[np.flatnonzero(live_i)]


# ----------------------------------------------------------------------
# Graph-level wrappers (drop-ins for the reference engine's entry points)
# ----------------------------------------------------------------------
def prune_to_fixpoint_bitset(
    graph: BipartiteGraph,
    params: RICDParams,
    region: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> tuple[set[Node], set[Node]]:
    """Bitset fixpoint pruning; returns the surviving (users, items).

    The input graph is not modified.  The result memoizes on the
    snapshot's derived-results cache (keyed by the pruning floors), so
    feedback rounds and suites re-extracting the same graph version pay
    the kernel once.

    ``region`` is a ``(user_mask, item_mask)`` pair over
    ``graph.indexed()``'s rows and columns (see
    :func:`~repro.graph.builders.seed_expansion_masks`); the survivors
    are then those of the subgraph the masks induce.  A masked run
    neither reads nor writes the memo: the memo holds the whole graph's
    fixpoint, which the store persists with the snapshot.
    """
    if graph.num_users == 0 or graph.num_items == 0:
        return set(), set()
    snapshot = graph.indexed()
    cache_key = (FIXPOINT_MEMO_TAG, params.k1, params.k2, round(params.alpha, 9))
    if region is None:
        cached = snapshot.derived.get(cache_key)
        if cached is not None:
            obs.count("extract.bitset.fixpoint_cache_hits")
            return set(cached[0]), set(cached[1])
        obs.count("extract.bitset.fixpoint_cache_misses")
    user_indptr, user_items = snapshot.csr_arrays()
    # The kernel reads only the item degrees, so no CSC sort is needed.
    item_indptr = np.zeros(snapshot.num_items + 1, dtype=np.int64)
    np.cumsum(snapshot.item_degrees(), out=item_indptr[1:])
    with obs.span("prune"):
        alive_users, alive_items = prune_fixpoint_arrays(
            user_indptr, user_items, item_indptr, None, params, region=region
        )
    obs.gauge("extract.peak_rss_mb", round(peak_rss_mb(), 1))
    surviving_users = {snapshot.users[int(index)] for index in alive_users}
    surviving_items = {snapshot.items[int(index)] for index in alive_items}
    if region is None:
        snapshot.derived[cache_key] = (
            frozenset(surviving_users),
            frozenset(surviving_items),
        )
    return surviving_users, surviving_items


def extract_groups_bitset(
    graph: BipartiteGraph,
    params: RICDParams,
    region: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> list[SuspiciousGroup]:
    """Drop-in bitset variant of :func:`repro.core.extraction.extract_groups`.

    ``region`` restricts extraction to the subgraph induced by a
    ``(user_mask, item_mask)`` pair, as in :func:`prune_to_fixpoint_bitset`.
    """
    surviving_users, surviving_items = prune_to_fixpoint_bitset(graph, params, region)
    return component_groups(graph.subgraph(surviving_users, surviving_items), params)
