"""Connected-component discovery and balanced shard planning.

The partitioner never cuts an edge: a shard is always a union of *whole*
connected components of the bipartite click graph.  That is the invariant
the sharded pipeline's correctness rests on (see
:mod:`repro.shard.runner`), so "smarter" partitioners — hash-by-user,
METIS-style edge cuts — are deliberately out of scope: the adversarial
tests in ``tests/shard/`` construct attack groups that any node-level
split would cut in half.

Component discovery is the dict BFS of
:func:`repro.graph.views.connected_components`, the same pass both
extraction engines use to split their survivors into groups.

Balancing is greedy bin-packing by component *edge count* (the quantity
that tracks extraction cost): components are placed largest-first into
the currently lightest shard.  A **mega component** — one holding at
least the per-shard edge target — can never be balanced without cutting
edges, so the fallback is to keep it whole: it seeds its own shard and
the remaining components pack around it.  The plan therefore degrades
gracefully on a single giant component (one heavy shard, no semantic
drift) instead of silently breaking detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

from .. import obs
from ..graph.bipartite import BipartiteGraph
from ..graph.views import connected_components

__all__ = ["Component", "ShardPlan", "graph_components", "partition_graph"]

Node = Hashable


@dataclass(frozen=True)
class Component:
    """One connected component of the click graph, with its edge weight."""

    users: frozenset
    items: frozenset
    edges: int

    @property
    def nodes(self) -> int:
        """Total node count across both partitions."""
        return len(self.users) + len(self.items)

    def sort_key(self) -> tuple:
        """Canonical largest-first ordering (edges, nodes, smallest id)."""
        smallest = min(
            (str(node) for node in self.users | self.items), default=""
        )
        return (-self.edges, -self.nodes, smallest)


def graph_components(graph: BipartiteGraph) -> list[Component]:
    """Connected components with edge counts, in canonical order.

    Canonical order is largest-first by edge count, then node count, then
    smallest node id — the deterministic input the greedy packer needs so
    plans are identical run to run.
    """
    components = [
        Component(
            users=frozenset(users),
            items=frozenset(items),
            edges=sum(graph.user_degree(user) for user in users),
        )
        for users, items in connected_components(graph)
    ]
    components.sort(key=Component.sort_key)
    return components


@dataclass
class ShardPlan:
    """An edge-balanced assignment of whole components to shards.

    Attributes
    ----------
    shards:
        Per-shard component lists (never empty lists: shards that would
        receive no component are dropped, so ``len(plan)`` may be below
        the requested count on component-poor graphs).
    requested:
        The shard count the caller asked for.
    mega_components:
        Indices (into the concatenated component order) of components at
        or above the per-shard edge target — the ones the balancer kept
        whole instead of attempting to split.
    """

    shards: list[list[Component]] = field(default_factory=list)
    requested: int = 1
    mega_components: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.shards)

    def shard_edges(self, index: int) -> int:
        """Total edge count assigned to shard ``index``."""
        return sum(component.edges for component in self.shards[index])

    def shard_users(self, index: int) -> set:
        """Union of user sets assigned to shard ``index``."""
        users: set = set()
        for component in self.shards[index]:
            users |= component.users
        return users

    def shard_items(self, index: int) -> set:
        """Union of item sets assigned to shard ``index``."""
        items: set = set()
        for component in self.shards[index]:
            items |= component.items
        return items

    def subgraph(self, graph: BipartiteGraph, index: int) -> BipartiteGraph:
        """The induced subgraph of shard ``index``.

        Because every shard is a union of whole components, the subgraph
        retains *all* edges incident to its nodes: per-node degrees and
        click totals are identical to their full-graph values.
        """
        return graph.subgraph(self.shard_users(index), self.shard_items(index))

    def subgraphs(self, graph: BipartiteGraph) -> list[BipartiteGraph]:
        """All shard subgraphs, in shard order."""
        return [self.subgraph(graph, index) for index in range(len(self.shards))]

    def __repr__(self) -> str:
        sizes = [self.shard_edges(index) for index in range(len(self.shards))]
        return (
            f"ShardPlan(shards={len(self.shards)}, requested={self.requested}, "
            f"edges={sizes}, mega={len(self.mega_components)})"
        )


def partition_graph(graph: BipartiteGraph, shards: int) -> ShardPlan:
    """Pack ``graph``'s components into at most ``shards`` balanced shards.

    Greedy largest-first bin-packing by edge count: each component goes to
    the currently lightest shard (ties to the lowest shard index), which
    is the classic 4/3-approximation to balanced partitioning — ample,
    since balance only affects wall-clock, never detection output.
    Components holding at least the per-shard edge target are recorded in
    :attr:`ShardPlan.mega_components`; they are kept whole (one of them
    effectively owns a shard) rather than split, because splitting a
    component would break the biclique-locality invariant the sharded
    pipeline's correctness proof rests on.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    components = graph_components(graph)
    total_edges = sum(component.edges for component in components)
    # The balance target; every component at or above it is "mega" and
    # cannot be balanced without an edge cut we refuse to make.
    target = max(1, math.ceil(total_edges / shards))
    plan = ShardPlan(requested=shards)
    n_bins = min(shards, max(1, len(components)))
    loads = [0] * n_bins
    contents: list[list[Component]] = [[] for _ in range(n_bins)]
    for index, component in enumerate(components):
        if component.edges >= target:
            plan.mega_components.append(index)
        lightest = min(range(len(loads)), key=lambda b: (loads[b], b))
        loads[lightest] += component.edges
        contents[lightest].append(component)
    plan.shards = [bucket for bucket in contents if bucket]
    if not plan.shards:  # empty graph: keep one (empty) shard for shape
        plan.shards = [[]]
    obs.gauge("shard.requested", shards)
    obs.gauge("shard.planned", len(plan.shards))
    obs.count("shard.components", len(components))
    obs.count("shard.mega_components", len(plan.mega_components))
    return plan
