"""COPYCATCH baseline — Beutel et al. [4], degenerate offline variant.

COPYCATCH proper finds *temporally coherent* bipartite cores; the click
table has no timestamps, so — exactly as the paper's experimental protocol
states — "the algorithm degenerates to enumerate (near) biclique cores,
which is a #P-hard problem ... we take the result of running the algorithm
in a limited time as the final output", referencing the iMBEA enumeration
algorithm [3].

This module implements that protocol: a branch-and-bound maximal-biclique
enumeration (right-side expansion with common-neighbour intersection,
smallest-degree-first ordering as in iMBEA) over the core-pruned graph,
hard-stopped at a wall-clock deadline.  Bicliques meeting the ``(m, n)``
size floors are emitted as groups.  With realistic deadlines the
enumeration only covers a fraction of the search space — the structural
reason for COPYCATCH's poor showing in Fig. 8a.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable

from .._util import stopwatch
from ..config import RICDParams
from ..core.extraction import core_pruning
from ..core.groups import DetectionResult, SuspiciousGroup
from ..core.identification import score_groups
from ..graph.bipartite import BipartiteGraph
from ..graph.views import Adjacency
from .base import observe_detector

__all__ = ["CopyCatchDetector", "enumerate_bicliques"]

Node = Hashable


def enumerate_bicliques(
    graph: BipartiteGraph,
    min_users: int,
    min_items: int,
    deadline_seconds: float,
    max_results: int = 500,
) -> list[tuple[set[Node], set[Node]]]:
    """Enumerate maximal bicliques ``(users, items)`` until the deadline.

    Right-side (item-set) expansion: a branch holds the current item set
    ``R``, the common clicker set ``U = ∩ adj(R)``, and candidate items to
    add.  Branches whose user support drops below ``min_users`` are cut;
    maximal leaves with ``|R| >= min_items`` are reported.  Item candidates
    are visited in ascending-degree order (iMBEA's cheap-first heuristic).

    Returns whatever was found when the deadline hit — possibly nothing.
    """
    return _bicliques(
        Adjacency(graph), min_users, min_items, deadline_seconds, max_results
    )


def _bicliques(
    adjacency: Adjacency,
    min_users: int,
    min_items: int,
    deadline_seconds: float,
    max_results: int,
) -> list[tuple[set[Node], set[Node]]]:
    """:func:`enumerate_bicliques` over a dict adjacency, such as a pruned core."""
    start = time.perf_counter()
    results: list[tuple[set[Node], set[Node]]] = []
    clickers_of, clicked_by = adjacency.items, adjacency.users
    items_by_degree = sorted(clickers_of, key=lambda i: (len(clickers_of[i]), str(i)))

    def expired() -> bool:
        """Deadline or result-cap reached."""
        return (
            time.perf_counter() - start >= deadline_seconds
            or len(results) >= max_results
        )

    def expand(current_items: set[Node], users: set[Node], next_rank: int) -> None:
        """Branch on adding each later-ranked item that keeps enough users."""
        if expired():
            return
        extended = False
        for rank in range(next_rank, len(items_by_degree)):
            if expired():
                return
            item = items_by_degree[rank]
            clickers = set(clickers_of[item])
            new_users = users & clickers
            if len(new_users) < min_users:
                continue
            extended = True
            expand(current_items | {item}, new_users, rank + 1)
        if not extended and len(current_items) >= min_items:
            # Maximality on the item side: no item outside the set is
            # clicked by all current users.
            closure = _common_items(users)
            if closure == current_items or closure <= current_items:
                results.append((set(users), set(current_items)))
            elif len(closure) >= min_items:
                results.append((set(users), closure))

    def _common_items(users: set[Node]) -> set[Node]:
        iterator = iter(users)
        first = next(iterator)
        common = set(clicked_by[first])
        for user in iterator:
            common &= set(clicked_by[user])
            if not common:
                break
        return common

    for rank, item in enumerate(items_by_degree):
        if expired():
            break
        users = set(clickers_of[item])
        if len(users) < min_users:
            continue
        expand({item}, users, rank + 1)

    # Deduplicate identical bicliques reached through different branches.
    unique: dict[tuple[tuple, tuple], tuple[set[Node], set[Node]]] = {}
    for users, items in results:
        key = (tuple(sorted(map(str, users))), tuple(sorted(map(str, items))))
        unique[key] = (users, items)
    return list(unique.values())


@dataclass
class CopyCatchDetector:
    """Time-limited biclique-core enumeration (degenerate COPYCATCH).

    Parameters
    ----------
    min_users, min_items:
        The ``m``/``n`` core floors, "consistent with the k1, k2 in RICD".
    deadline_seconds:
        Wall-clock budget (the paper allowed ~600 s on a 16-worker
        cluster; the default here is scaled to the 1/1000 data scale).
    max_results:
        Safety cap on collected bicliques.
    """

    min_users: int = 10
    min_items: int = 10
    deadline_seconds: float = 5.0
    max_results: int = 500

    @property
    def name(self) -> str:
        """Display name."""
        return "COPYCATCH"

    def detect(self, graph: BipartiteGraph) -> DetectionResult:
        """Core-prune, enumerate bicliques until the deadline, emit groups."""
        with observe_detector(self.name) as sink, stopwatch() as timer:
            core = Adjacency(graph)
            core_pruning(core, RICDParams(k1=self.min_users, k2=self.min_items, alpha=1.0))
            bicliques = _bicliques(
                core,
                self.min_users,
                self.min_items,
                self.deadline_seconds,
                self.max_results,
            )
            groups = [
                SuspiciousGroup(users=users, items=items) for users, items in bicliques
            ]
            groups.sort(
                key=lambda g: (-g.size, min((str(u) for u in g.users), default=""))
            )
            result = DetectionResult.from_groups(groups)
            result.user_scores, result.item_scores = score_groups(graph, groups)
            sink.append(result)
        result.timings["detection"] = timer[0]
        return result
