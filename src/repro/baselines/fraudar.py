"""FRAUDAR baseline — Hooi et al. [15], multi-block variant.

FRAUDAR greedily peels the bipartite graph to find the block maximising
average suspiciousness ``g(S) = f(S) / |S|``, where ``f`` sums
*column-weighted* edge suspiciousness: an edge into item ``i`` contributes
``1 / log(x + c)`` with ``x`` the item's degree — so edges into
high-traffic items (the natural camouflage) are discounted, which is the
camouflage resistance the paper credits FRAUDAR with.

The original release returns a single block; the paper re-implemented it
"for detecting multiple blocks", which we reproduce the standard way:
find a block, peel the next one from the subgraph of the nodes outside
it, repeat, stopping after ``max_blocks`` or when a block's density falls
below ``density_floor`` times the first block's.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Hashable

from .._util import stopwatch
from ..core.groups import DetectionResult, SuspiciousGroup
from ..core.identification import score_groups
from ..graph.bipartite import BipartiteGraph
from ..graph.views import Adjacency
from .base import observe_detector

__all__ = ["FraudarDetector", "peel_densest_block"]

Node = Hashable


def _column_weight(item_degree: int, c: float = 5.0) -> float:
    """FRAUDAR's logarithmic column weight ``1 / log(x + c)``."""
    return 1.0 / math.log(item_degree + c)


def peel_densest_block(
    graph: BipartiteGraph,
) -> tuple[set[Node], set[Node], float]:
    """Greedy peeling for the block maximising average column-weighted degree.

    Returns ``(users, items, density)`` of the best prefix found; the
    input graph is not modified.  Density is ``f(S)/|S|`` at the optimum.
    """
    # Edge weights are fixed from the *initial* item degrees (as in the
    # reference implementation), then nodes are peeled by minimum current
    # weighted degree using a lazy-deletion heap.
    adjacency = Adjacency(graph)
    item_weight = {
        item: _column_weight(len(clickers)) for item, clickers in adjacency.items.items()
    }

    weighted_degree: dict[tuple[str, Node], float] = {}
    for user, row in adjacency.users.items():
        weighted_degree[("u", user)] = sum(item_weight[item] for item in row)
    for item, clickers in adjacency.items.items():
        weighted_degree[("i", item)] = len(clickers) * item_weight[item]

    total_weight = sum(item_weight[item] for row in adjacency.users.values() for item in row)
    alive: set[tuple[str, Node]] = set(weighted_degree)
    heap: list[tuple[float, str, str]] = [
        (degree, side, str(node)) for (side, node), degree in weighted_degree.items()
    ]
    by_str: dict[tuple[str, str], Node] = {
        (side, str(node)): node for side, node in weighted_degree
    }
    heapq.heapify(heap)

    best_density = -1.0
    best_step = -1
    removal_order: list[tuple[str, Node]] = []
    size = len(alive)
    current_weight = total_weight

    if size > 0:
        best_density = current_weight / size
        best_step = 0

    while alive:
        degree, side, node_str = heapq.heappop(heap)
        key = (side, by_str[(side, node_str)])
        if key not in alive or degree > weighted_degree[key] + 1e-12:
            continue  # stale heap entry
        alive.discard(key)
        removal_order.append(key)
        current_weight -= weighted_degree[key]
        node = key[1]
        neighbor_side = "i" if side == "u" else "u"
        for neighbor in (adjacency.users if side == "u" else adjacency.items)[node]:
            neighbor_key = (neighbor_side, neighbor)
            if neighbor_key not in alive:
                continue
            edge_weight = item_weight[node] if side == "i" else item_weight[neighbor]
            weighted_degree[neighbor_key] -= edge_weight
            heapq.heappush(
                heap, (weighted_degree[neighbor_key], neighbor_side, str(neighbor))
            )
        if alive:
            density = current_weight / len(alive)
            if density > best_density:
                best_density = density
                best_step = len(removal_order)

    surviving = set(weighted_degree) - set(removal_order[:best_step])
    users = {node for side, node in surviving if side == "u"}
    items = {node for side, node in surviving if side == "i"}
    return users, items, best_density


@dataclass
class FraudarDetector:
    """Multi-block FRAUDAR.

    Parameters
    ----------
    max_blocks:
        Upper bound on extracted blocks — the parameter the paper points
        at when noting FRAUDAR "can't find multiple blocks" without the
        count being known in advance.  The default (4) deliberately
        undershoots multi-group scenarios, reproducing that criticism:
        recall saturates once the block budget is spent.
    density_floor:
        Stop when a block's density drops below this fraction of the first
        block's density.
    min_users, min_items:
        Size floors on emitted blocks.
    """

    max_blocks: int = 4
    density_floor: float = 0.3
    min_users: int = 2
    min_items: int = 2

    @property
    def name(self) -> str:
        """Display name."""
        return "FRAUDAR"

    def detect(self, graph: BipartiteGraph) -> DetectionResult:
        """Repeatedly peel the densest block, then size-filter the blocks."""
        with observe_detector(self.name) as sink, stopwatch() as timer:
            working = graph
            groups: list[SuspiciousGroup] = []
            first_density: float | None = None
            for _block in range(self.max_blocks):
                if working.num_users == 0 or working.num_items == 0:
                    break
                users, items, density = peel_densest_block(working)
                if not users or not items:
                    break
                if first_density is None:
                    first_density = density
                elif density < self.density_floor * first_density:
                    break
                if len(users) >= self.min_users and len(items) >= self.min_items:
                    groups.append(SuspiciousGroup(users=set(users), items=set(items)))
                # The next block is peeled from the nodes outside this one.
                working = working.subgraph(
                    [user for user in working.users() if user not in users],
                    [item for item in working.items() if item not in items],
                )
            groups.sort(
                key=lambda g: (-g.size, min((str(u) for u in g.users), default=""))
            )
            result = DetectionResult.from_groups(groups)
            result.user_scores, result.item_scores = score_groups(graph, groups)
            sink.append(result)
        result.timings["detection"] = timer[0]
        return result
