"""Multi-region detection over one persistent store per region.

Production marketplaces run regional deployments: each region ingests its
own click traffic and keeps its own durable state, but fake-click
thresholds are *marketplace* statistics — Section IV derives ``T_hot``
(Pareto rule) and ``T_click`` (Eq. 4) from the global click distribution,
and a cold region resolving them locally would misclassify its items
(a local Pareto cutoff over a quiet region promotes ordinary items to
"hot").  This module therefore keeps:

* **one :class:`~repro.store.DetectionStore` per region** under a common
  root (``<root>/<region>/``), each with its own version history, warm
  resume and crash-safety guarantees;
* **global thresholds** — resolved once over the union of all region
  graphs, then pinned (as explicit ``t_hot``/``t_click``) into every
  region's detector, and persisted into every region's store so a
  region resumed in isolation still detects with marketplace-level
  thresholds;
* **canonical merge** — per-region groups fold through the
  :func:`merge_groups` total order, so the merged result is byte-stable
  regardless of region count or iteration order.

Per-region detection equals detection over the union graph *when
regions partition the click graph component-wise* — which regional
deployments satisfy by construction (a user clicks in their region).
An ``(alpha, k1, k2)``-extension biclique is connected, so it lives in
one component; pruning, screening and risk scoring read only a node's
own neighbourhood, which a whole component keeps intact.  Node ids
shared across regions are merged conservatively: suspicious anywhere
means suspicious globally, and a score is the maximum over regions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .. import obs
from ..core.framework import RICDDetector
from ..core.groups import DetectionResult, SuspiciousGroup
from ..errors import StoreError
from ..graph.bipartite import BipartiteGraph
from ..store import DetectionStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import RICDParams, ScreeningParams

__all__ = [
    "RegionalStores",
    "RegionReport",
    "detect_regions",
    "group_sort_key",
    "merge_groups",
]


def group_sort_key(group: SuspiciousGroup) -> tuple:
    """Total order over groups: size-descending, then sorted member ids.

    A *total* order (unlike the screening module's size/min-user key) is
    what makes the merged list independent of region count and arrival
    order — two distinct groups can never compare equal.
    """
    return (
        -group.size,
        tuple(sorted(str(user) for user in group.users)),
        tuple(sorted(str(item) for item in group.items)),
        tuple(sorted(str(item) for item in group.hot_items)),
    )


def merge_groups(
    per_region: Iterable[list[SuspiciousGroup]],
) -> list[SuspiciousGroup]:
    """Fold per-region group lists into one canonically ordered list.

    Regions hold disjoint components, so this is a pure concatenation +
    deterministic sort — no deduplication or conflict resolution is
    attempted.
    """
    merged = [group for groups in per_region for group in groups]
    merged.sort(key=group_sort_key)
    return merged


@dataclass(frozen=True)
class RegionReport:
    """What one region contributed to a regional detection round."""

    region: str
    store_version: "int | None"
    users: int
    items: int
    edges: int
    groups: int
    suspicious_users: int
    suspicious_items: int


def _merge_results(per_region: "Mapping[str, DetectionResult]") -> DetectionResult:
    """Fold per-region results into one canonical global result.

    Groups merge through :func:`merge_groups`; suspicious sets union; a
    node scored in several regions keeps its maximum risk.
    Degradation provenance is namespaced ``<region>:<event>`` so a
    degraded region stays attributable in the merged result.
    """
    merged = DetectionResult(
        groups=merge_groups(result.groups for result in per_region.values())
    )
    for region in sorted(per_region):
        result = per_region[region]
        merged.suspicious_users |= result.suspicious_users
        merged.suspicious_items |= result.suspicious_items
        for node, score in result.user_scores.items():
            merged.user_scores[node] = max(merged.user_scores.get(node, 0.0), score)
        for node, score in result.item_scores.items():
            merged.item_scores[node] = max(merged.item_scores.get(node, 0.0), score)
        for phase, seconds in result.timings.items():
            merged.timings[phase] = merged.timings.get(phase, 0.0) + seconds
        merged.feedback_rounds = max(merged.feedback_rounds, result.feedback_rounds)
        if result.degraded:
            merged.degraded = True
        merged.degradations += tuple(
            f"{region}:{event}" for event in result.degradations
        )
        if result.stale:
            merged.stale = True
    return merged


def detect_regions(
    region_graphs: "Mapping[str, BipartiteGraph]",
    params: "RICDParams | None" = None,
    screening: "ScreeningParams | None" = None,
    engine: str = "bitset",
    max_group_users: int | None = 18,
) -> "tuple[DetectionResult, dict[str, DetectionResult]]":
    """Detect over each region with *globally* resolved thresholds.

    Resolves ``T_hot``/``T_click`` once on the union of all region
    graphs, pins them into each region's detector, and returns the
    canonical merge plus the per-region results (for persistence).
    """
    if not region_graphs:
        raise StoreError("detect_regions needs at least one region graph")
    probe = RICDDetector(
        params=params, screening=screening, engine=engine, max_group_users=max_group_users
    )
    union = BipartiteGraph()
    for graph in region_graphs.values():
        for user, item, clicks in graph.edges():
            union.add_click(user, item, clicks)
    resolved = probe.resolve_thresholds(union)
    pinned = replace(probe.params, t_hot=resolved.t_hot, t_click=resolved.t_click)
    per_region: dict[str, DetectionResult] = {}
    for region in sorted(region_graphs):
        detector = RICDDetector(
            params=pinned,
            screening=screening,
            engine=engine,
            max_group_users=max_group_users,
        )
        with obs.span(f"region.{region}"):
            per_region[region] = detector.detect(region_graphs[region])
    return _merge_results(per_region), per_region


class RegionalStores:
    """One detection store per region under a shared root directory.

    Layout::

        <root>/
            eu/   <- a full DetectionStore (catalog.json, snapshots/, ...)
            na/
            apac/

    Regions are discovered from existing store directories on open and
    created lazily by :meth:`ingest`.  :meth:`checkpoint` runs the
    global-threshold regional detection and commits one new version per
    region atomically (each region's store keeps its own crash-safety
    contract); the merged result is recomputed from region heads by
    :meth:`merged_result`, so a restarted process serves the same global
    verdict without re-detecting.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self._stores: dict[str, DetectionStore] = {}
        if self.root.exists():
            for child in sorted(self.root.iterdir()):
                if (child / "catalog.json").is_file():
                    self._stores[child.name] = DetectionStore.open(child)

    @classmethod
    def open_or_create(cls, root: "str | Path") -> "RegionalStores":
        """Open the layout, creating the root directory if missing."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        return cls(root)

    def regions(self) -> "tuple[str, ...]":
        """Known region names, sorted."""
        return tuple(sorted(self._stores))

    def region_store(self, region: str) -> DetectionStore:
        """The region's store, created empty on first use."""
        if not region or "/" in region or region.startswith("."):
            raise StoreError(f"invalid region name {region!r}")
        if region not in self._stores:
            self._stores[region] = DetectionStore.open_or_create(self.root / region)
        return self._stores[region]

    def ingest(
        self, region: str, records: "Iterable[tuple[object, object, int]]"
    ) -> int:
        """Apply click records to one region and commit a new version.

        An empty region store bootstraps with a snapshot; a populated one
        commits the records as a delta on its head.  Returns the region's
        new store version.
        """
        store = self.region_store(region)
        records = [(str(user), str(item), int(clicks)) for user, item, clicks in records]
        if store.head is None:
            graph = BipartiteGraph()
            for user, item, clicks in records:
                graph.add_click(user, item, clicks)
            store.begin_version()
            store.put_snapshot(graph.indexed())
            return store.commit()
        store.begin_version()
        store.put_delta(records)
        return store.commit()

    def load_graphs(self) -> "dict[str, BipartiteGraph]":
        """Every region's head graph (empty regions load as empty graphs).

        Each graph loads lazily over its region's array snapshot, so a
        multi-region resume is O(regions), not O(edges): the union pass
        (``detect_regions``/``checkpoint``) streams ``edges()`` straight
        from the backing CSR without ever materializing dict adjacency.
        """
        graphs: dict[str, BipartiteGraph] = {}
        for region in self.regions():
            store = self._stores[region]
            graphs[region] = (
                store.load_graph() if store.head is not None else BipartiteGraph()
            )
        return graphs

    def checkpoint(
        self,
        params: "RICDParams | None" = None,
        screening: "ScreeningParams | None" = None,
        engine: str = "bitset",
        max_group_users: int | None = 18,
    ) -> "tuple[DetectionResult, list[RegionReport]]":
        """Detect with global thresholds and persist per-region results.

        Each region commits one version carrying its detection result and
        the *globally* resolved thresholds (so the store records the
        thresholds the result was actually produced under).  Returns the
        canonically merged result and one report per region.
        """
        graphs = self.load_graphs()
        if not graphs:
            raise StoreError("no regions to checkpoint; ingest into one first")
        merged, per_region = detect_regions(
            graphs,
            params=params,
            screening=screening,
            engine=engine,
            max_group_users=max_group_users,
        )
        probe = RICDDetector(
            params=params,
            screening=screening,
            engine=engine,
            max_group_users=max_group_users,
        )
        union = BipartiteGraph()
        for graph in graphs.values():
            for user, item, clicks in graph.edges():
                union.add_click(user, item, clicks)
        resolved = probe.resolve_thresholds(union)
        pinned = replace(probe.params, t_hot=resolved.t_hot, t_click=resolved.t_click)
        reports: list[RegionReport] = []
        for region in self.regions():
            store = self._stores[region]
            graph = graphs[region]
            result = per_region[region]
            store.begin_version()
            store.put_snapshot(graph.indexed())
            store.put_thresholds(pinned, resolved, probe.screening)
            store.put_result(result)
            version = store.commit()
            reports.append(
                RegionReport(
                    region=region,
                    store_version=version,
                    users=graph.num_users,
                    items=graph.num_items,
                    edges=graph.num_edges,
                    groups=len(result.groups),
                    suspicious_users=len(result.suspicious_users),
                    suspicious_items=len(result.suspicious_items),
                )
            )
        return merged, reports

    def merged_result(self) -> DetectionResult:
        """The canonical global result from each region's persisted head.

        Pure store reads — no detection runs — so a restarted process
        reconstructs the same merged verdict the last :meth:`checkpoint`
        produced.  Regions whose head carries no result contribute
        nothing (they have not been checkpointed yet).
        """
        per_region: dict[str, DetectionResult] = {}
        for region in self.regions():
            store = self._stores[region]
            if store.head is None:
                continue
            result = store.load_result()
            if result is not None:
                per_region[region] = result
        return _merge_results(per_region) if per_region else DetectionResult()

    def __repr__(self) -> str:
        heads = {region: self._stores[region].head for region in self.regions()}
        return f"RegionalStores(root={str(self.root)!r}, heads={heads})"
