"""The suspicious-group screening module (Section V-B, Figs. 5-6).

The extraction module hands over *structurally* dense groups; this module
filters them *behaviourally*, in the two steps the paper prescribes:

**User behaviour check** (Fig. 5).  A genuine crowd worker (Section IV-A
conclusions, in order of significance):

1. clicks some ordinary item at least ``T_click`` times (the Eq. 3 optimum
   concentrates the budget on targets);
2. clicks hot items "extremely small" amounts — average below 4.

Group members failing either test — organic heavy users, flash-sale cohort
members, hijacked accounts' pre-existing personas — are removed from the
group.  Items are deliberately *not* removed in this step: the paper's
Fig. 5 walkthrough notes that an item cleared by one user's behaviour may
still be attacked by the remaining users.

**Item behaviour verification** (Fig. 6).  Among the group's ordinary
items, *target candidates* are those heavily clicked (>= ``T_click``) by
enough surviving users.  Candidates are then cross-checked for
*coincidence*: genuine co-targets of one attack share their clicker sets,
so a candidate must overlap (Jaccard) with another candidate's clicker set.
Items failing candidacy are disguise (camouflage edges, ridden hot items)
and leave the group; hot items are remembered in ``group.hot_items`` for
reporting.

After both steps the surviving targets are re-grouped by *coincidence
clustering* (union-find over Jaccard-overlapping heavy-clicker sets):
distinct attacks that were glued into one component by a shared hot item
— or by a professional worker serving several sellers — separate again,
because their clicker sets barely overlap.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .. import obs
from ..config import ScreeningParams
from ..errors import ScreeningError
from ..graph.bipartite import BipartiteGraph
from .groups import SuspiciousGroup

__all__ = [
    "user_behavior_check",
    "item_behavior_verification",
    "screen_groups",
    "collect_fake_edges",
]

Node = Hashable


def _split_items(
    graph: BipartiteGraph, items: Iterable[Node], t_hot: float
) -> tuple[set[Node], set[Node]]:
    """Split ``items`` into (hot, ordinary) by full-graph click volume.

    Screening calls this once per group per feedback round; against the
    memoized :class:`IndexedGraph` snapshot each lookup is one cached-array
    read instead of summing the item's neighbour dict from scratch.
    """
    hot: set[Node] = set()
    ordinary: set[Node] = set()
    snapshot = graph.indexed()
    totals = snapshot.item_total_clicks()
    item_index = snapshot.item_index
    for item in items:
        column = item_index.get(item)
        if column is None:
            continue
        if totals[column] >= t_hot:
            hot.add(item)
        else:
            ordinary.add(item)
    return hot, ordinary


def user_behavior_check(
    graph: BipartiteGraph,
    group: SuspiciousGroup,
    t_hot: float,
    t_click: float,
    params: ScreeningParams,
) -> SuspiciousGroup:
    """Fig. 5: keep only users whose click pattern matches a crowd worker.

    A user survives iff, *within the group's items*:

    * at least one ordinary item received >= ``t_click`` clicks from them, and
    * their average clicks on the group's hot items stay below
      ``params.hot_click_cap`` (vacuously true with no hot clicks).

    Returns a new group (``hot_items`` populated); the input is untouched.
    """
    if t_click <= 0 or t_hot <= 0:
        raise ScreeningError("t_click and t_hot must be positive")
    hot, ordinary = _split_items(graph, group.items, t_hot)
    kept_users: set[Node] = set()
    for user in group.users:
        if not graph.has_user(user):
            continue
        neighbors = graph.user_neighbors(user)
        heavy_ordinary = any(
            neighbors.get(item, 0) >= t_click for item in ordinary
        )
        if not heavy_ordinary:
            continue
        hot_clicks = [neighbors[item] for item in hot if item in neighbors]
        if hot_clicks and sum(hot_clicks) / len(hot_clicks) >= params.hot_click_cap:
            continue
        kept_users.add(user)
    obs.count("screen.user_check.users_in", len(group.users))
    obs.count("screen.user_check.users_kept", len(kept_users))
    return SuspiciousGroup(users=kept_users, items=set(ordinary) | hot, hot_items=hot)


def _jaccard(a: set[Node], b: set[Node]) -> float:
    """Jaccard similarity of two sets; 0.0 when both are empty."""
    if not a and not b:
        return 0.0
    intersection = len(a & b)
    if intersection == 0:
        return 0.0
    return intersection / (len(a) + len(b) - intersection)


def item_behavior_verification(
    graph: BipartiteGraph,
    group: SuspiciousGroup,
    t_hot: float,
    t_click: float,
    params: ScreeningParams,
) -> list[SuspiciousGroup]:
    """Fig. 6: keep items showing the target signature, split into final groups.

    Candidate targets are ordinary items clicked >= ``t_click`` times by at
    least ``params.min_users`` of the group's users; candidates must then
    share at least ``params.min_overlap`` Jaccard of their heavy-clicker
    sets with some other candidate (co-targets of one attack are clicked by
    the same workers).  Everything else — hot items, camouflage items,
    organically co-clicked items — is removed from the group.

    Verified targets are clustered by that same coincidence relation
    (union-find) and each cluster plus its heavy clickers, filtered by the
    group-size floors, becomes one final attack group.
    """
    hot, ordinary = _split_items(graph, group.items, t_hot)

    heavy_clickers: dict[Node, set[Node]] = {}
    for item in ordinary:
        clickers = {
            user
            for user, clicks in graph.item_neighbors(item).items()
            if user in group.users and clicks >= t_click
        }
        if len(clickers) >= params.min_users:
            heavy_clickers[item] = clickers

    # Coincidence clustering (the Fig. 6 "coincidence degree" check):
    # union-find over candidates, joining items whose heavy-clicker sets
    # overlap.  Items with no partner are disguise/organic and drop out.
    # Clustering — rather than raw connectivity — keeps two attacks
    # separate even when a professional worker serves both: cross-attack
    # clicker sets overlap far below ``min_overlap``.
    candidates = sorted(heavy_clickers, key=str)
    parent: dict[Node, Node] = {item: item for item in candidates}

    def find(node: Node) -> Node:
        """Union-find root with path compression."""
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    verified: set[Node] = set()
    for index, item in enumerate(candidates):
        for other in candidates[index + 1 :]:
            if _jaccard(heavy_clickers[item], heavy_clickers[other]) >= params.min_overlap:
                verified.add(item)
                verified.add(other)
                root_a, root_b = find(item), find(other)
                if root_a != root_b:
                    parent[root_b] = root_a

    obs.count("screen.item_verify.candidates", len(candidates))
    obs.count("screen.item_verify.verified", len(verified))
    if not verified:
        return []

    clusters: dict[Node, SuspiciousGroup] = {}
    for item in verified:
        cluster = clusters.setdefault(find(item), SuspiciousGroup())
        cluster.items.add(item)
        cluster.users |= heavy_clickers[item]
    # Attribute to each final group the hot items it *rode*: a ridden hot
    # item is co-clicked by (most of) the whole group, while a member's
    # private organic history touches a hot item only individually.
    for cluster in clusters.values():
        quorum = max(2, len(cluster.users) // 2)
        cluster.hot_items = {
            item
            for item in hot
            if sum(1 for user in graph.item_neighbors(item) if user in cluster.users)
            >= quorum
        }
    groups = [
        cluster
        for cluster in clusters.values()
        if len(cluster.users) >= params.min_users
        and len(cluster.items) >= params.min_items
    ]
    groups.sort(key=lambda g: (-g.size, min((str(u) for u in g.users), default="")))
    return groups


def collect_fake_edges(
    graph: BipartiteGraph,
    group: SuspiciousGroup,
    t_click: float,
    params: ScreeningParams | None = None,
) -> list[tuple[Node, Node, int]]:
    """Attribute a detected group's edges to the attack, camouflage included.

    The cleanup step of the case study ("the system cleaned the false
    click information") needs the *edges* to delete, not just the nodes.
    For a screened group three kinds of edges are attributable:

    * **boost edges** — a group user's >= ``t_click`` clicks on a group
      target (the campaign's payload);
    * **hot rides** — a group user's clicks on the group's ridden hot
      items (small by Eq. 3, but fake);
    * **disguise edges** — a group user's *light* clicks on any other
      item, when the user's heaviest target engagement dominates them by
      at least ``params.disguise_ratio`` (Fig. 6's ``C_3^2 >> C_3^1``
      reading: for an account whose purpose is the attack, incidental
      light clicks are camouflage).

    Returns ``(user, item, clicks)`` triples, deterministically ordered.
    Hijacked accounts' organic history is the known blind spot: their
    pre-attack heavy edges can exceed the ratio test and survive — which
    is correct, since deleting a real customer's history would be worse.
    """
    if t_click <= 0:
        raise ScreeningError("t_click must be positive")
    params = params or ScreeningParams()
    edges: list[tuple[Node, Node, int]] = []
    for user in group.users:
        if not graph.has_user(user):
            continue
        neighbors = graph.user_neighbors(user)
        heaviest_target = max(
            (neighbors[item] for item in group.items if item in neighbors),
            default=0,
        )
        for item, clicks in neighbors.items():
            if item in group.items and clicks >= t_click:
                edges.append((user, item, clicks))
            elif item in group.hot_items:
                edges.append((user, item, clicks))
            elif (
                heaviest_target >= t_click
                and clicks * params.disguise_ratio <= heaviest_target
            ):
                edges.append((user, item, clicks))
    edges.sort(key=lambda edge: (str(edge[0]), str(edge[1])))
    return edges


def screen_groups(
    graph: BipartiteGraph,
    groups: Iterable[SuspiciousGroup],
    t_hot: float,
    t_click: float,
    params: ScreeningParams | None = None,
    do_user_check: bool = True,
    do_item_verification: bool = True,
) -> list[SuspiciousGroup]:
    """Run the screening module over every group.

    ``do_user_check`` / ``do_item_verification`` switch the two steps off
    individually, which is how the paper's ablation variants are built:
    RICD-UI disables both, RICD-I disables only the item step.

    Returns the screened groups, largest first.
    """
    params = params or ScreeningParams()
    screened: list[SuspiciousGroup] = []
    groups_in = 0
    user_check_rejected = 0
    for group in groups:
        groups_in += 1
        current = group.copy()
        if do_user_check:
            with obs.span("user_check"):
                current = user_behavior_check(graph, current, t_hot, t_click, params)
            if len(current.users) < params.min_users:
                user_check_rejected += 1
                continue
        if do_item_verification:
            with obs.span("item_verification"):
                finals = item_behavior_verification(
                    graph, current, t_hot, t_click, params
                )
            screened.extend(finals)
        else:
            screened.append(current)
    screened.sort(key=lambda g: (-g.size, min((str(u) for u in g.users), default="")))
    obs.count("screen.groups_in", groups_in)
    obs.count("screen.user_check.groups_rejected", user_check_rejected)
    obs.count("screen.groups_out", len(screened))
    return screened
