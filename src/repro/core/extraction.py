"""Algorithm 3 — the ``(alpha, k1, k2)``-extension biclique extraction.

Enumerating maximal bicliques is #P-complete, so the paper inverts the
problem: instead of *finding* dense structures it *prunes away* everything
that provably cannot belong to one, using two necessary conditions:

* **CorePruning** (Lemma 1): inside an ``(alpha, k1, k2)``-extension
  biclique every user has degree >= ``ceil(alpha * k2)`` and every item
  degree >= ``ceil(alpha * k1)``.  Vertices below the floor are removed —
  cascading, because each removal lowers neighbours' degrees.

* **SquarePruning** (Lemma 2): every user ``u`` of such a structure has at
  least ``k1`` users (itself included — Definition 4 does not exclude
  ``u`` from its own ``(alpha, k)``-neighbourhood, and Lemma 2 is only
  satisfiable for an exactly-``k1``-user core if ``u`` counts) whose
  common-item count with ``u`` reaches ``ceil(k2 * alpha)``; mirrored for
  items.  Candidates are visited in non-decreasing order of two-hop
  neighbourhood size (the paper's ``reduce2Hop`` ordering), so cheap
  removals happen first and shrink the later, expensive checks.

Both prunes delete vertices in place, as the paper writes them, from an
:class:`~repro.graph.views.Adjacency` built once from the graph's
snapshot; the graph itself is never modified.  What survives both prunes
is split into connected components; components large enough to host a
``(k1, k2)`` core are the suspicious groups handed to the screening
module.
"""

from __future__ import annotations

from typing import Hashable

from .. import obs
from .._util import ceil_frac, peak_rss_mb
from ..config import RICDParams
from ..graph.bipartite import BipartiteGraph
from ..graph.views import Adjacency, connected_components
from .groups import SuspiciousGroup

__all__ = [
    "core_pruning",
    "square_pruning",
    "prune_to_fixpoint",
    "component_groups",
    "extract_groups",
]

Node = Hashable


def core_pruning(adjacency: Adjacency, params: RICDParams) -> bool:
    """Cascading degree prune (Algorithm 3, ``CorePruning``), in place.

    Removes users with degree below ``ceil(alpha * k2)`` and items with
    degree below ``ceil(alpha * k1)``.  Removals cascade through a
    worklist until every surviving vertex satisfies Lemma 1.

    Returns ``True`` if anything was removed.
    """
    user_floor = params.user_degree_floor
    item_floor = params.item_degree_floor
    users, items = adjacency.users, adjacency.items
    users_removed = 0
    items_removed = 0

    # Seed the worklist with every violating vertex, then cascade.
    user_queue = [user for user, row in users.items() if len(row) < user_floor]
    item_queue = [item for item, column in items.items() if len(column) < item_floor]
    while user_queue or item_queue:
        while user_queue:
            user = user_queue.pop()
            if user not in users:
                continue
            users_removed += 1
            for item in adjacency.remove_user(user):
                if len(items[item]) < item_floor:
                    item_queue.append(item)
        while item_queue:
            item = item_queue.pop()
            if item not in items:
                continue
            items_removed += 1
            for user in adjacency.remove_item(item):
                if len(users[user]) < user_floor:
                    user_queue.append(user)
    if users_removed or items_removed:
        obs.count("extract.core.users_removed", users_removed)
        obs.count("extract.core.items_removed", items_removed)
    return bool(users_removed or items_removed)


def _two_hop_size(near: dict, far: dict, node: Node) -> int:
    """Cheap proxy for a node's two-hop neighbourhood size (with multiplicity)."""
    return sum(len(far[neighbor]) for neighbor in near[node])


def _square_prune_users(
    adjacency: Adjacency, params: RICDParams, ordered: bool = True
) -> bool:
    """One user-side SquarePruning pass; returns True if anything was removed."""
    common_floor = ceil_frac(params.alpha, params.k2)
    users, items = adjacency.users, adjacency.items
    if ordered:
        order = sorted(users, key=lambda u: (_two_hop_size(users, items, u), str(u)))
    else:
        order = sorted(users, key=str)
    removed_count = 0
    for user in order:
        row = users.get(user)
        if row is None:
            continue
        # Count users (self included, per Definition 4 / Lemma 2) whose
        # common-item count with `user` reaches the floor.
        counts: dict[Node, int] = {}
        for item in row:
            for other in items[item]:
                if other != user:
                    counts[other] = counts.get(other, 0) + 1
        num = sum(1 for value in counts.values() if value >= common_floor)
        if len(row) >= common_floor:
            num += 1  # self
        if num < params.k1:
            adjacency.remove_user(user)
            removed_count += 1
    if removed_count:
        obs.count("extract.square.users_removed", removed_count)
    return bool(removed_count)


def _square_prune_items(
    adjacency: Adjacency, params: RICDParams, ordered: bool = True
) -> bool:
    """One item-side SquarePruning pass; returns True if anything was removed."""
    common_floor = ceil_frac(params.alpha, params.k1)
    users, items = adjacency.users, adjacency.items
    if ordered:
        order = sorted(items, key=lambda i: (_two_hop_size(items, users, i), str(i)))
    else:
        order = sorted(items, key=str)
    removed_count = 0
    for item in order:
        column = items.get(item)
        if column is None:
            continue
        counts: dict[Node, int] = {}
        for user in column:
            for other in users[user]:
                if other != item:
                    counts[other] = counts.get(other, 0) + 1
        num = sum(1 for value in counts.values() if value >= common_floor)
        if len(column) >= common_floor:
            num += 1  # self
        if num < params.k2:
            adjacency.remove_item(item)
            removed_count += 1
    if removed_count:
        obs.count("extract.square.items_removed", removed_count)
    return bool(removed_count)


def square_pruning(
    adjacency: Adjacency, params: RICDParams, ordered: bool = True
) -> bool:
    """Algorithm 3's ``SquarePruning`` (one user pass + one item pass), in place.

    ``ordered=False`` disables the paper's non-decreasing two-hop-size
    candidate ordering (visiting in plain id order instead) — the knob the
    ordering ablation benchmark flips; the paper notes the "selection
    order of candidate vertices will affect the number of intermediates".

    Returns ``True`` if anything was removed.
    """
    removed_users = _square_prune_users(adjacency, params, ordered)
    removed_items = _square_prune_items(adjacency, params, ordered)
    return removed_users or removed_items


def prune_to_fixpoint(
    adjacency: Adjacency, params: RICDParams, iterate: bool = True, ordered: bool = True
) -> Adjacency:
    """Alternate CorePruning and SquarePruning until stable, in place.

    Each SquarePruning removal lowers degrees elsewhere, re-exposing
    CorePruning violations, so the passes alternate until neither removes
    anything.  ``iterate=False`` performs exactly one CorePruning and one
    SquarePruning pass (Algorithm 3 as literally written) — kept for the
    fixpoint ablation benchmark.

    Returns the same (now pruned) adjacency for chaining.
    """
    core_pruning(adjacency, params)
    if not iterate:
        square_pruning(adjacency, params, ordered)
        obs.count("extract.fixpoint_rounds", 1)
        obs.gauge("extract.peak_rss_mb", round(peak_rss_mb(), 1))
        return adjacency
    changed = True
    rounds = 0
    while changed:
        rounds += 1
        changed = square_pruning(adjacency, params, ordered)
        if changed:
            core_pruning(adjacency, params)
    obs.count("extract.fixpoint_rounds", rounds)
    obs.gauge("extract.peak_rss_mb", round(peak_rss_mb(), 1))
    return adjacency


def component_groups(survivors: BipartiteGraph, params: RICDParams) -> list[SuspiciousGroup]:
    """Split pruned survivors into groups: components large enough for a ``(k1, k2)`` core.

    Both engines end here, so their groups come out in the same order.
    """
    groups: list[SuspiciousGroup] = []
    dropped = 0
    with obs.span("components"):
        for users, items in connected_components(survivors):
            if len(users) < params.k1 or len(items) < params.k2:
                dropped += 1
                continue
            groups.append(SuspiciousGroup(users=users, items=items))
    obs.count("extract.components_dropped", dropped)
    obs.count("extract.groups", len(groups))
    return groups


def extract_groups(graph: BipartiteGraph, params: RICDParams) -> list[SuspiciousGroup]:
    """Full Algorithm 3: prune, then split survivors into candidate groups.

    The fixpoint is pruned on a private :class:`~repro.graph.views.Adjacency`,
    so ``graph`` is left untouched.  Surviving vertices are grouped by
    connected component of the survivors' induced subgraph, as in the
    bitset engine; components too small to host a ``(k1, k2)`` biclique
    core are dropped.

    Returns
    -------
    list[SuspiciousGroup]
        Candidate groups, largest first.
    """
    adjacency = Adjacency(graph)
    with obs.span("prune"):
        prune_to_fixpoint(adjacency, params)
    return component_groups(graph.subgraph(adjacency.users, adjacency.items), params)
