"""The concrete stages of the RICD pipeline (Fig. 4, one class per box).

Every stage is a small, reusable object with a ``name`` and a
``run(ctx)`` that reads and writes the shared
:class:`~repro.pipeline.context.PipelineContext`.  The detector's one
sequence method (:meth:`~repro.core.framework.RICDDetector._run`, which
``detect`` and every incremental recheck call) and the baselines' "+UI"
wrapper run these same classes, so a behaviour fix (or a new obs
counter) lands in one place and every path inherits it.

Observability names are part of each stage's contract: spans
(``thresholds`` / ``seed_expansion`` / ``extraction`` / ``screening`` /
``identification``) and counters (``detect.threshold_cache_*``,
``detect.engine``) are identical to the pre-pipeline layout, so traces
recorded before and after the refactor line up column for column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING

from .. import obs
from ..graph.builders import seed_expansion_masks
# Not called here: perfbench wraps this name (tests/test_perfbench_hooks.py).
from ..graph.builders import seed_expansion  # noqa: F401
from ..core.identification import assemble_result
from ..core.screening import screen_groups
from ..core.thresholds import THRESHOLDS_MEMO_TAG, pareto_hot_threshold, t_click_from_graph
from ..resilience.faults import inject
from .context import PipelineContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..config import RICDParams
    from ..core.groups import SuspiciousGroup
    from ..graph.bipartite import BipartiteGraph

__all__ = [
    "ResolveThresholds",
    "SeedExpansion",
    "Extraction",
    "Screening",
    "SizeCaps",
    "Identification",
]


# ----------------------------------------------------------------------
# Threshold resolution (Section IV) — memoized marketplace statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResolveThresholds:
    """Fill data-derived ``t_hot`` / ``t_click`` into the parameters.

    Resolved parameters are a pure function of one graph version, so they
    are memoized in the snapshot's ``derived`` cache under
    ``(THRESHOLDS_MEMO_TAG, input params)``, next to the bitset fixpoint
    memos: feedback rounds, repeated ``detect`` calls, incremental
    rechecks and every "+UI"-wrapped baseline of a Fig. 8 suite derive
    the marketplace statistics once per graph version.  The memo dies with
    the snapshot at the next write, ``copy()`` starts cold, and a store
    load reinstalls the persisted entry.
    """

    name = "thresholds"

    def resolve(self, graph: "BipartiteGraph", params: "RICDParams") -> "RICDParams":
        """Return ``params`` with ``None`` thresholds derived from ``graph``."""
        if params.t_hot is not None and params.t_click is not None:
            return params
        derived = graph.indexed().derived
        key = (THRESHOLDS_MEMO_TAG, params)
        resolved = derived.get(key)
        if resolved is not None:
            obs.count("detect.threshold_cache_hits")
            return resolved
        obs.count("detect.threshold_cache_misses")
        changes: dict[str, float] = {}
        if params.t_hot is None:
            changes["t_hot"] = float(pareto_hot_threshold(graph))
        if params.t_click is None:
            changes["t_click"] = float(t_click_from_graph(graph))
        resolved = derived[key] = params.replace(**changes)
        return resolved

    def run(self, ctx: PipelineContext) -> None:
        """Resolve against the *full* graph (thresholds are global)."""
        with obs.span("thresholds"):
            ctx.params = self.resolve(ctx.graph, ctx.params)


# ----------------------------------------------------------------------
# Seed expansion (Algorithm 2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeedExpansion:
    """Restrict extraction to the seeds' two-hop neighbourhood (Algorithm 2).

    With seeds, ``ctx.region`` becomes boolean masks over
    ``ctx.graph.indexed()``
    (:func:`~repro.graph.builders.seed_expansion_masks`); without, the
    stage does nothing and extraction reads the full graph.  ``detect``
    expands as the paper writes it, uncapped; an incremental recheck
    seeds its dirty nodes and passes its traverse cap.  Thresholds were
    already resolved on the full graph either way, since they are global
    marketplace statistics.
    """

    max_traverse_degree: int | None = None

    name = "seed_expansion"

    def run(self, ctx: PipelineContext) -> None:
        if not (ctx.seed_users or ctx.seed_items):
            return
        with ctx.timer.measure("detection"), obs.span("seed_expansion"):
            ctx.region = seed_expansion_masks(
                ctx.graph.indexed(),
                ctx.seed_users,
                ctx.seed_items,
                hops=2,
                max_traverse_degree=self.max_traverse_degree,
            )


# ----------------------------------------------------------------------
# Module 1: suspicious group detection (Algorithm 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Extraction:
    """``(alpha, k1, k2)``-extension biclique extraction, engine-selected.

    ``bitset`` (the default: numpy mask/CSR frontier kernel) or
    ``reference`` (pure-Python Algorithm 3, the oracle tests select
    explicitly).  Both read ``ctx.graph``, restricted to ``ctx.region``
    when seed expansion set one: the kernel runs under the masks, and
    the reference engine extracts from the subgraph they induce.
    """

    engine: str = "bitset"

    name = "extraction"

    def extract(
        self,
        graph: "BipartiteGraph",
        params: "RICDParams",
        region: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> "list[SuspiciousGroup]":
        """Run the selected engine on ``graph`` (restricted to ``region``, if given)."""
        # Late imports keep the engines patchable.
        from ..core.extraction import extract_groups
        from ..core.extraction_bitset import extract_groups_bitset

        obs.gauge("detect.engine", self.engine)
        if self.engine == "bitset":
            return extract_groups_bitset(graph, params, region=region)
        if region is not None:
            snapshot = graph.indexed()
            user_mask, item_mask = region
            graph = graph.subgraph(
                compress(snapshot.users, user_mask.tolist()),
                compress(snapshot.items, item_mask.tolist()),
            )
        return extract_groups(graph, params)

    def run(self, ctx: PipelineContext) -> None:
        with ctx.timer.measure("detection"), obs.span("extraction"):
            inject("extraction")
            ctx.groups = self.extract(ctx.graph, ctx.params, ctx.region)


# ----------------------------------------------------------------------
# Module 2: suspicious group screening (Section V-B)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Screening:
    """User behaviour check + item behaviour verification.

    ``enabled=False`` passes groups through untouched (the RICD-UI
    ablation — the span and timing are still recorded so variant traces
    stay comparable); ``item_verification=False`` drops the second step
    (RICD-I).  Thresholds are read from the *resolved* ``ctx.params``.

    Screening reads the full graph on every path: items split hot from
    ordinary by the marketplace totals ``T_hot`` was resolved from, and
    every other read is a group member's row.  Only extraction sees the
    region.
    """

    enabled: bool = True
    item_verification: bool = True

    name = "screening"

    def run(self, ctx: PipelineContext) -> None:
        with ctx.timer.measure("screening"), obs.span("screening"):
            if self.enabled:
                inject("screening")
                ctx.groups = screen_groups(
                    ctx.graph,
                    ctx.groups,
                    t_hot=ctx.params.t_hot,  # resolved upstream
                    t_click=ctx.params.t_click,
                    params=ctx.screening,
                    do_item_verification=self.item_verification,
                )


@dataclass(frozen=True)
class SizeCaps:
    """Drop oversized final groups (desired property 4b).

    Organic group-buying / deal-hunter swarms form attack-like blocks that
    are much *larger* than crowd-worker groups, so groups with more than
    ``max_users`` users are discarded.  ``enabled`` mirrors the old
    variant gating: the cap only applies after item verification
    re-splits components (the full RICD variant); before that, extents
    are merged blobs the cap would wrongly nuke.  Accounted under the
    ``screening`` timing, where the filter has always lived.
    """

    max_users: int | None = None
    enabled: bool = True

    name = "size_caps"

    def run(self, ctx: PipelineContext) -> None:
        if not self.enabled or self.max_users is None:
            return
        with ctx.timer.measure("screening"):
            ctx.groups = [group for group in ctx.groups if len(group.users) <= self.max_users]


# ----------------------------------------------------------------------
# Module 3: suspicious group identification (Section V-B(3))
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Identification:
    """Risk-score ranking over the final groups, against the full graph."""

    name = "identification"

    def run(self, ctx: PipelineContext) -> None:
        with ctx.timer.measure("identification"), obs.span("identification"):
            ctx.result = assemble_result(ctx.graph, ctx.groups)
