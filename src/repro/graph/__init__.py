"""Weighted user-item bipartite click graph substrate.

This subpackage is the data backbone of the whole reproduction: every
detector (the RICD framework and all baselines) consumes a
:class:`~repro.graph.bipartite.BipartiteGraph`, built either from a
click-table file (:mod:`repro.graph.io`), an in-memory record list
(:mod:`repro.graph.builders`) or the synthetic marketplace generator
(:mod:`repro.datagen`).

The graph mirrors the paper's ``TaoBao_UI_Clicks`` table: an edge
``(u, v, p)`` means user ``u`` clicked item ``v`` exactly ``p`` times.
"""

from .bipartite import BipartiteGraph
from .builders import (
    from_click_records,
    from_edge_list,
    seed_expansion,
    seed_expansion_masks,
)
from .indexed import IndexedGraph
from .io import read_click_table, write_click_table
from .stats import (
    GraphScale,
    SideStats,
    click_histogram,
    graph_scale,
    item_click_profile,
    side_stats,
)
from .views import Adjacency, connected_components

__all__ = [
    "BipartiteGraph",
    "IndexedGraph",
    "from_click_records",
    "from_edge_list",
    "seed_expansion",
    "seed_expansion_masks",
    "read_click_table",
    "write_click_table",
    "GraphScale",
    "SideStats",
    "graph_scale",
    "side_stats",
    "click_histogram",
    "item_click_profile",
    "Adjacency",
    "connected_components",
]
