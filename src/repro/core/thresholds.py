"""Data-derived thresholds of Section IV-A.

Two thresholds drive the whole framework:

* ``T_hot`` — the hot-item boundary.  The paper ranks items by clicks and
  sums down the ranking until 80% of total clicks is covered (the Pareto
  principle); ``T_hot`` is the click count of the *last* item inside that
  mass (1,320 on the Taobao table).  Items with clicks >= ``T_hot`` are hot.

* ``T_click`` — the abnormal-click boundary (Eq. 4).  Assuming a crowd
  worker disguises with an average user's click volume and spends it with
  the same 80/20 skew, the threshold is

  .. math::  T_{click} = (Avg\\_clk \\times 0.8) / (Avg\\_cnt \\times 0.2)

  which evaluates to ~12 on the paper's statistics (11.35 and 4.32).
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from ..errors import DegenerateGraphError
from ..graph.bipartite import BipartiteGraph

__all__ = [
    "pareto_hot_threshold",
    "t_click_threshold",
    "t_click_from_graph",
    "classify_items",
    "hot_items",
]

Node = Hashable


def pareto_hot_threshold(graph: BipartiteGraph, mass_fraction: float = 0.8) -> int:
    """``T_hot``: clicks of the last item inside the top ``mass_fraction`` of clicks.

    Items are ranked by total clicks descending; the threshold is the click
    count of the item at which the cumulative share first reaches
    ``mass_fraction``.  Returns 1 for an empty or clickless graph (so every
    clicked item would count as hot — a degenerate but safe fallback).

    >>> from repro.graph import BipartiteGraph
    >>> g = BipartiteGraph()
    >>> for u, i, c in [("a", "x", 80), ("a", "y", 15), ("b", "z", 5)]:
    ...     g.add_click(u, i, c)
    >>> pareto_hot_threshold(g, 0.8)
    80
    """
    if not 0.0 < mass_fraction <= 1.0:
        raise ValueError(f"mass_fraction must lie in (0, 1], got {mass_fraction}")
    totals_desc = graph.indexed().item_total_clicks_descending()
    grand = int(totals_desc.sum()) if len(totals_desc) else 0
    if grand == 0:
        return 1
    cumulative = np.cumsum(totals_desc)
    # First rank whose cumulative share reaches the mass fraction.
    rank = int(np.searchsorted(cumulative, mass_fraction * grand, side="left"))
    rank = min(rank, len(totals_desc) - 1)
    return max(int(totals_desc[rank]), 1)


def t_click_threshold(
    avg_clk: float, avg_cnt: float, heavy_share: float = 0.8
) -> int:
    """Eq. 4: the abnormal click threshold from the two Table II statistics.

    ``T_click = (avg_clk * heavy_share) / (avg_cnt * (1 - heavy_share))``,
    rounded up — the paper rounds 10.5 up to "an ordinary item whose number
    of clicks greater than or equal to 12" using its published inputs.

    >>> t_click_threshold(11.35, 4.32)
    11

    Degenerate inputs — non-positive marketplace averages (an empty or
    clickless graph) or ``heavy_share == 1.0`` (Eq. 4's denominator
    vanishes) — raise :class:`~repro.errors.DegenerateGraphError`, a
    ``ValueError`` subclass the pipeline's threshold-resolution stage
    absorbs by falling back to the floor thresholds.
    """
    if avg_clk <= 0 or avg_cnt <= 0:
        raise DegenerateGraphError("avg_clk and avg_cnt must be positive")
    if heavy_share == 1.0:
        raise DegenerateGraphError(
            "heavy_share == 1.0 makes Eq. 4's denominator vanish"
        )
    if not 0.0 < heavy_share < 1.0:
        raise ValueError(f"heavy_share must lie in (0, 1), got {heavy_share}")
    value = (avg_clk * heavy_share) / (avg_cnt * (1.0 - heavy_share))
    return max(2, math.ceil(value))


def t_click_from_graph(graph: BipartiteGraph, heavy_share: float = 0.8) -> int:
    """Eq. 4 evaluated on a graph's own user-side statistics."""
    snapshot = graph.indexed()
    n_users = snapshot.num_users
    if n_users == 0:
        return 2
    # Avg_clk / Avg_cnt are ratios of exact integer sums, the same values
    # :func:`repro.graph.stats.side_stats` reports.
    avg_clk = int(snapshot.user_total_clicks().sum()) / n_users
    avg_cnt = snapshot.num_edges / n_users
    if avg_clk <= 0 or avg_cnt <= 0:
        return 2
    return t_click_threshold(avg_clk, avg_cnt, heavy_share)


def hot_items(graph: BipartiteGraph, t_hot: float) -> set[Node]:
    """Items whose total clicks are ``>= t_hot``."""
    return classify_items(graph, t_hot)[0]


def classify_items(
    graph: BipartiteGraph, t_hot: float
) -> tuple[set[Node], set[Node]]:
    """Split items into ``(hot, ordinary)`` by the ``t_hot`` boundary."""
    snapshot = graph.indexed()
    mask = snapshot.item_total_clicks() >= t_hot
    hot = {snapshot.items[index] for index in np.flatnonzero(mask)}
    ordinary = {snapshot.items[index] for index in np.flatnonzero(~mask)}
    return hot, ordinary
