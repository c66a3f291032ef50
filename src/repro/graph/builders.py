"""Constructors that build a :class:`BipartiteGraph` from other shapes.

Mirrors the ``GraphGenerator`` routine of Algorithm 2: a full table can be
turned into a graph (``TableToBiGraph``), or — when the business department
supplies known abnormal *seed* nodes — only the neighbourhood reachable
from those seeds is materialised (``MaxBiGraph``), which is how the paper
prunes the 90M-edge production graph before extraction.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from ..errors import ClickTableError
from .bipartite import BipartiteGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .indexed import IndexedGraph

__all__ = ["from_click_records", "from_edge_list", "seed_expansion", "seed_expansion_masks"]

Node = Hashable


def from_click_records(records: Iterable[tuple[Node, Node, int]]) -> BipartiteGraph:
    """Build a graph from ``(user_id, item_id, click)`` records.

    This is the paper's ``TableToBiGraph``: each record is one row of the
    ``TaoBao_UI_Clicks`` table.  Repeated (user, item) rows accumulate.

    Raises
    ------
    ClickTableError
        If a record has a non-positive click count.
    """
    records = tuple(records)
    graph = BipartiteGraph()
    try:
        graph.add_clicks(records)
    except ValueError:
        for row_number, (user, item, clicks) in enumerate(records, start=1):
            if clicks <= 0:
                raise ClickTableError(
                    f"click count must be positive, got {clicks} for ({user!r}, {item!r})",
                    line_number=row_number,
                ) from None
        raise
    return graph


def from_edge_list(edges: Iterable[tuple[Node, Node]]) -> BipartiteGraph:
    """Build a graph from unweighted ``(user, item)`` pairs (1 click each)."""
    graph = BipartiteGraph()
    graph.add_clicks((user, item, 1) for user, item in edges)
    return graph


def seed_expansion(
    graph: BipartiteGraph,
    seed_users: Sequence[Node] = (),
    seed_items: Sequence[Node] = (),
    hops: int = 2,
    max_traverse_degree: int | None = None,
) -> BipartiteGraph:
    """Induced subgraph reachable within ``hops`` edges of any seed node.

    Implements ``MaxBiGraph(node)`` from Algorithm 2: given known abnormal
    users/items from the business department, keep only their graph
    neighbourhood so the extraction algorithm runs on a small graph.  Two
    hops from a seed user covers the seed's items plus all co-clicking
    users — exactly the candidate pool for an attack group containing the
    seed.

    Unknown seed ids are silently skipped (production seed lists routinely
    reference accounts already purged from the click table).

    Parameters
    ----------
    graph:
        The full click graph.
    seed_users, seed_items:
        Known abnormal node ids.
    hops:
        BFS radius; each user→item or item→user step costs one hop.
    max_traverse_degree:
        When set, the BFS does not expand *through* nodes whose degree
        exceeds the cap (the node itself is still included).  Hub nodes —
        hot items with thousands of clickers — would otherwise pull their
        whole neighbourhood into the region; attack-group connectivity
        survives the cap because co-workers always share several
        *low-degree* target items, never only a hub.

    Returns
    -------
    BipartiteGraph
        Induced subgraph on all nodes within ``hops`` of a seed.  Empty
        when no valid seed was given.
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    # BFS over the node-typed frontier.  Entries are ("user"|"item", node).
    frontier: deque[tuple[str, Node, int]] = deque()
    seen_users: set[Node] = set()
    seen_items: set[Node] = set()
    for user in seed_users:
        if graph.has_user(user) and user not in seen_users:
            seen_users.add(user)
            frontier.append(("user", user, 0))
    for item in seed_items:
        if graph.has_item(item) and item not in seen_items:
            seen_items.add(item)
            frontier.append(("item", item, 0))

    while frontier:
        side, node, depth = frontier.popleft()
        if depth >= hops:
            continue
        if side == "user":
            neighbors = graph.user_neighbors(node)
            if max_traverse_degree is not None and depth > 0 and len(neighbors) > max_traverse_degree:
                continue
            for item in neighbors:
                if item not in seen_items:
                    seen_items.add(item)
                    frontier.append(("item", item, depth + 1))
        else:
            neighbors = graph.item_neighbors(node)
            if max_traverse_degree is not None and depth > 0 and len(neighbors) > max_traverse_degree:
                continue
            for user in neighbors:
                if user not in seen_users:
                    seen_users.add(user)
                    frontier.append(("user", user, depth + 1))

    return graph.subgraph(seen_users, seen_items)


def seed_expansion_masks(
    snapshot: "IndexedGraph",
    seed_users: Iterable[Node] = (),
    seed_items: Iterable[Node] = (),
    hops: int = 2,
    max_traverse_degree: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`seed_expansion`'s node sets as boolean masks over ``snapshot``.

    The same rule — seeds are depth 0 and always expand, a node at depth
    >= 1 expands only if its degree is at most ``max_traverse_degree``,
    unknown seed ids are skipped — run as a level-synchronous frontier
    over the snapshot's edge arrays: each level is one boolean gather per
    side, so the region costs O(hops * edges) array work and copies no
    graph.  An incremental recheck hands the masks to the extraction
    kernel instead of building the region subgraph and its index.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``bool[num_users]`` and ``bool[num_items]``, true on the region's
        rows and columns.
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    user_mask = np.zeros(snapshot.num_users, dtype=bool)
    item_mask = np.zeros(snapshot.num_items, dtype=bool)
    for mask, index, seeds in (
        (user_mask, snapshot.user_index, seed_users),
        (item_mask, snapshot.item_index, seed_items),
    ):
        rows = [index[node] for node in seeds if node in index]
        mask[np.asarray(rows, dtype=np.int64)] = True
    user_idx, item_idx = snapshot.user_idx, snapshot.item_idx
    frontier_u, frontier_i = user_mask.copy(), item_mask.copy()
    for depth in range(hops):
        if depth > 0 and max_traverse_degree is not None:
            frontier_u &= snapshot.user_degrees() <= max_traverse_degree
            frontier_i &= snapshot.item_degrees() <= max_traverse_degree
        reached_i = np.zeros_like(item_mask)
        reached_i[item_idx[frontier_u[user_idx]]] = True
        reached_u = np.zeros_like(user_mask)
        reached_u[user_idx[frontier_i[item_idx]]] = True
        frontier_u = reached_u & ~user_mask
        frontier_i = reached_i & ~item_mask
        if not frontier_u.any() and not frontier_i.any():
            break
        user_mask |= frontier_u
        item_mask |= frontier_i
    return user_mask, item_mask
