"""Structural views: connected components.

The group-splitting step of the framework separates pruning survivors
into connected components; the primitive lives here so the detector
modules stay focused on the paper's logic.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from .bipartite import BipartiteGraph

__all__ = ["connected_components"]

Node = Hashable


def connected_components(graph: BipartiteGraph) -> list[tuple[set[Node], set[Node]]]:
    """Connected components as ``(user_set, item_set)`` pairs.

    Components are returned largest-first (by total node count) and
    deterministically ordered within ties by their smallest node's string
    form, so downstream reports are stable across runs.
    """
    unseen_users = set(graph.users())
    unseen_items = set(graph.items())
    components: list[tuple[set[Node], set[Node]]] = []
    while unseen_users or unseen_items:
        if unseen_users:
            start: tuple[str, Node] = ("user", next(iter(unseen_users)))
        else:
            start = ("item", next(iter(unseen_items)))
        component_users: set[Node] = set()
        component_items: set[Node] = set()
        queue: deque[tuple[str, Node]] = deque([start])
        if start[0] == "user":
            unseen_users.discard(start[1])
            component_users.add(start[1])
        else:
            unseen_items.discard(start[1])
            component_items.add(start[1])
        while queue:
            side, node = queue.popleft()
            if side == "user":
                for item in graph.user_neighbors(node):
                    if item in unseen_items:
                        unseen_items.discard(item)
                        component_items.add(item)
                        queue.append(("item", item))
            else:
                for user in graph.item_neighbors(node):
                    if user in unseen_users:
                        unseen_users.discard(user)
                        component_users.add(user)
                        queue.append(("user", user))
        components.append((component_users, component_items))

    def _sort_key(component: tuple[set[Node], set[Node]]) -> tuple[int, str]:
        users_side, items_side = component
        size = len(users_side) + len(items_side)
        smallest = min((str(n) for n in (users_side | items_side)), default="")
        return (-size, smallest)

    components.sort(key=_sort_key)
    return components
