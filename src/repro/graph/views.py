"""Structural views: the peelers' adjacency and connected components.

:class:`BipartiteGraph` never removes a node.  The algorithms that delete
vertices — Algorithm 3's CorePruning and SquarePruning ("remove a vertex
and all its adjacent edges") and the COPYCATCH baseline's core prune —
work on an :class:`Adjacency` of their own: two mirrored dict-of-dict maps
built in one pass over a snapshot, which give the three operations
Algorithm 3 is built from, O(degree) deletion, O(1) edge lookup and cheap
neighbour-set intersection.

The group-splitting step of the framework separates pruning survivors
into connected components; :func:`connected_components` labels them from
the snapshot's edge arrays.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable

import numpy as np

from ..errors import NodeNotFoundError
from .bipartite import BipartiteGraph

__all__ = ["Adjacency", "connected_components"]

Node = Hashable


class Adjacency:
    """A shrink-only dict-of-dicts copy of a graph's edges.

    ``users`` maps each user to its ``{item: clicks}`` and ``items`` each
    item to its ``{user: clicks}``, both filled from the graph's snapshot
    in canonical order (users in row order with their items by ascending
    column, items in column order with their users by ascending row).
    Nodes are only ever removed, each with all its edges, and the graph
    it was built from is never touched.
    """

    __slots__ = ("users", "items")

    def __init__(self, graph: BipartiteGraph) -> None:
        snapshot = graph.indexed()
        users, items = snapshot.users, snapshot.items
        self.users: dict[Node, dict[Node, int]] = {user: {} for user in users}
        self.items: dict[Node, dict[Node, int]] = {item: {} for item in items}
        for row, column, weight in zip(
            snapshot.user_idx.tolist(),
            snapshot.item_idx.tolist(),
            snapshot.clicks.tolist(),
        ):
            user, item = users[row], items[column]
            self.users[user][item] = weight
            self.items[item][user] = weight

    def remove_user(self, user: Node) -> dict[Node, int]:
        """Delete ``user`` and its edges; returns its ``{item: clicks}``."""
        adjacency = self.users.pop(user, None)
        if adjacency is None:
            raise NodeNotFoundError(user, "user")
        for item in adjacency:
            del self.items[item][user]
        return adjacency

    def remove_item(self, item: Node) -> dict[Node, int]:
        """Delete ``item`` and its edges; returns its ``{user: clicks}``."""
        adjacency = self.items.pop(item, None)
        if adjacency is None:
            raise NodeNotFoundError(item, "item")
        for user in adjacency:
            del self.users[user][item]
        return adjacency


def connected_components(graph: BipartiteGraph) -> list[tuple[set[Node], set[Node]]]:
    """Connected components as ``(user_set, item_set)`` pairs.

    Labels come from the snapshot's edge arrays: while some edge joins
    two roots, every such edge hooks both roots onto the smaller one, and
    pointer jumping then points every node at its root.  No neighbour map
    and no item-major index is built.  An idle node is a component of its
    own.

    Components are returned largest-first (by total node count) and
    deterministically ordered within ties by their smallest node's string
    form, so downstream reports are stable across runs.
    """
    snapshot = graph.indexed()
    n_users = snapshot.num_users
    parent = np.arange(n_users + snapshot.num_items)
    ends = snapshot.user_idx, snapshot.item_idx + n_users
    while True:
        left, right = parent[ends[0]], parent[ends[1]]
        apart = left != right
        if not apart.any():
            break
        left, right = left[apart], right[apart]
        low = np.minimum(left, right)
        np.minimum.at(parent, left, low)
        np.minimum.at(parent, right, low)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    components: list[tuple[set[Node], set[Node]]] = []
    if not len(parent):
        return components
    nodes = snapshot.users + snapshot.items
    # A stable sort by root keeps each component's node ids ascending:
    # its users first, then its items.
    order = np.argsort(parent, kind="stable")
    starts = np.flatnonzero(np.diff(parent[order], prepend=-1))
    for members in np.split(order, starts[1:]):
        members = members.tolist()
        split = bisect_left(members, n_users)
        components.append(
            ({nodes[node] for node in members[:split]}, {nodes[node] for node in members[split:]})
        )

    def _sort_key(component: tuple[set[Node], set[Node]]) -> tuple[int, str]:
        users_side, items_side = component
        size = len(users_side) + len(items_side)
        smallest = min((str(n) for n in (users_side | items_side)), default="")
        return (-size, smallest)

    components.sort(key=_sort_key)
    return components
