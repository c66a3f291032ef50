"""Multi-region detection: one persistent store per region.

Production marketplaces run regional deployments that each keep their
own durable state, while the fake-click thresholds stay marketplace-wide
statistics.  :mod:`repro.shard.regions` gives each region its own
:class:`~repro.store.DetectionStore`, resolves ``T_hot``/``T_click``
once on the union of the region graphs, and folds the per-region
results through one canonical merge order.

Public surface:

* :class:`repro.shard.regions.RegionalStores` — the on-disk layout
  (``<root>/<region>/``) with ingest, checkpoint and merged reads;
* :func:`repro.shard.regions.detect_regions` — global-threshold
  detection over in-memory region graphs;
* :func:`repro.shard.regions.merge_groups` — the canonical total-order
  group merge.
"""

from .regions import RegionalStores, RegionReport, detect_regions, merge_groups

__all__ = [
    "merge_groups",
    "RegionalStores",
    "RegionReport",
    "detect_regions",
]
