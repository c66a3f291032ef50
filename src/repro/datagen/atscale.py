"""Array-native marketplace generation at paper proportions.

The dict-of-dict generator in :mod:`repro.datagen.marketplace` tops out
around the default 20k-user scale — every click is a Python dict insert.
This module generates the same *shape* of marketplace (heavy-tailed item
popularity, casual/power-user activity split, dense injected attack
blocks) directly as integer edge arrays, so a paper-proportioned graph
(``scale=1.0`` → 20M users / 4M items / ~90M click records, Section VII)
materialises in numpy at ~24 bytes per record instead of several hundred.

The output is deliberately engine-ready rather than id-ready: rows and
columns are integers, convertible to an
:class:`~repro.graph.indexed.IndexedGraph` (:func:`to_snapshot`) or — at
small scales only — a dict :class:`~repro.graph.bipartite.BipartiteGraph`
(:func:`to_bipartite`) when names or reference-engine comparisons are
needed.  Ground truth is exact by construction: worker rows and target
columns per injected group ride along in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PAPER_USERS",
    "PAPER_ITEMS",
    "PAPER_RECORDS",
    "AtScaleConfig",
    "AtScaleArrays",
    "generate_at_scale",
    "to_snapshot",
    "to_bipartite",
]

#: The paper's Taobao click-table proportions (Section VII).
PAPER_USERS = 20_000_000
PAPER_ITEMS = 4_000_000
PAPER_RECORDS = 90_000_000


@dataclass(frozen=True)
class AtScaleConfig:
    """Knobs for one paper-proportioned marketplace.

    ``scale`` multiplies the paper's table proportions: users, items,
    records and attack-group count all shrink together, so a 0.1 run is a
    faithful 1/10 miniature rather than a denser or sparser graph.

    The organic population splits in two, mirroring what CorePruning
    (floors ``ceil(alpha * k2)`` / ``ceil(alpha * k1)``) sees at Taobao
    scale: a casual majority whose distinct-item degree sits *below* the
    default floors (pruned in the first cascade — the bandwidth-bound
    phase the roofline measures) and a small power-user cadre above them
    whose diffuse co-click structure SquarePruning must then reject.
    """

    scale: float = 0.001
    seed: int = 0
    #: Zipf exponent for item popularity (1.05 ≈ the Pareto 80/20 share
    #: the dict generator targets).
    popularity_exponent: float = 1.05
    #: Fraction of organic users in the high-activity cadre.
    power_user_fraction: float = 0.002
    #: Distinct-item degree ranges (casual stays under the default k=10
    #: floors; power users clear them and reach SquarePruning).
    casual_degree: tuple[int, int] = (1, 8)
    power_degree: tuple[int, int] = (10, 24)
    #: Injected attack groups per 1.0 scale, and their block shape.
    groups_at_full_scale: int = 400
    workers_per_group: tuple[int, int] = (12, 18)
    targets_per_group: tuple[int, int] = (10, 14)
    target_clicks: tuple[int, int] = (1, 3)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass
class AtScaleArrays:
    """One generated marketplace as canonical edge arrays.

    ``user_idx`` / ``item_idx`` / ``clicks`` are parallel per-edge arrays
    sorted by ``(row, column)`` with duplicate pairs coalesced — the same
    invariant :class:`~repro.graph.indexed.IndexedGraph` maintains.
    Attack workers occupy the trailing rows (``n_users - n_workers ...``);
    ``worker_rows`` / ``target_columns`` list each group's block.
    """

    n_users: int
    n_items: int
    user_idx: "np.ndarray"
    item_idx: "np.ndarray"
    clicks: "np.ndarray"
    worker_rows: list = field(default_factory=list)
    target_columns: list = field(default_factory=list)

    @property
    def n_edges(self) -> int:
        return len(self.user_idx)

    def csr(self):
        """User-major CSR adjacency ``(indptr, item_indices)``."""
        indptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.user_idx, minlength=self.n_users), out=indptr[1:])
        return indptr, self.item_idx

    def csc(self):
        """Item-major CSC adjacency ``(indptr, user_indices)``."""
        order = np.argsort(self.item_idx, kind="stable")
        indptr = np.zeros(self.n_items + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.item_idx, minlength=self.n_items), out=indptr[1:])
        return indptr, self.user_idx[order]


def _degree_draw(rng, count: int, bounds: tuple[int, int]):
    low, high = bounds
    return rng.integers(low, high + 1, size=count, dtype=np.int64)


def _zipf_cdf(n_items: int, exponent: float):
    weights = (np.arange(1, n_items + 1, dtype=np.float64)) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def generate_at_scale(config: AtScaleConfig) -> AtScaleArrays:
    """Generate one paper-proportioned marketplace with injected attacks."""
    rng = np.random.default_rng(config.seed)
    n_organic = max(60, int(PAPER_USERS * config.scale))
    n_items = max(30, int(PAPER_ITEMS * config.scale))
    n_power = max(1, int(n_organic * config.power_user_fraction))
    n_casual = n_organic - n_power

    # Organic records: each user draws a distinct-item degree, then that
    # many items from the Zipf popularity CDF.  Duplicate (user, item)
    # draws coalesce into click weights during canonicalization, exactly
    # like repeated add_click calls.
    casual_deg = _degree_draw(rng, n_casual, config.casual_degree)
    power_deg = _degree_draw(rng, n_power, config.power_degree)
    degrees = np.concatenate([casual_deg, power_deg])
    organic_users = np.repeat(np.arange(n_organic, dtype=np.int64), degrees)
    cdf = _zipf_cdf(n_items, config.popularity_exponent)
    organic_items = np.searchsorted(cdf, rng.random(len(organic_users))).astype(
        np.int64
    )
    organic_clicks = np.ones(len(organic_users), dtype=np.int64)

    # Attack blocks: dense worker x target bicliques on fresh user rows,
    # targeting cold-to-mid items (attackers boost products that lack
    # organic traction; the hot head is what they camouflage with, and
    # camouflage does not change pruning survivors at default floors).
    n_groups = max(2, int(round(config.groups_at_full_scale * config.scale)))
    worker_counts = _degree_draw(rng, n_groups, config.workers_per_group)
    target_counts = _degree_draw(rng, n_groups, config.targets_per_group)
    cold_band_start = n_items // 2
    block_users = []
    block_items = []
    block_clicks = []
    worker_rows: list = []
    target_columns: list = []
    next_row = n_organic
    for group in range(n_groups):
        workers = np.arange(next_row, next_row + worker_counts[group], dtype=np.int64)
        next_row += worker_counts[group]
        targets = rng.choice(
            np.arange(cold_band_start, n_items, dtype=np.int64),
            size=target_counts[group],
            replace=False,
        )
        block_users.append(np.repeat(workers, len(targets)))
        block_items.append(np.tile(targets, len(workers)))
        block_clicks.append(
            rng.integers(
                config.target_clicks[0],
                config.target_clicks[1] + 1,
                size=len(workers) * len(targets),
                dtype=np.int64,
            )
        )
        worker_rows.append(workers)
        target_columns.append(np.sort(targets))
    n_users = int(next_row)

    user_idx = np.concatenate([organic_users] + block_users)
    item_idx = np.concatenate([organic_items] + block_items)
    clicks = np.concatenate([organic_clicks] + block_clicks)

    # Canonicalize: sort by (row, column), coalesce duplicates.
    keys = user_idx * np.int64(n_items) + item_idx
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    unique_keys, starts = np.unique(keys, return_index=True)
    clicks = np.add.reduceat(clicks[order], starts)
    user_idx = (unique_keys // n_items).astype(np.int64)
    item_idx = (unique_keys % n_items).astype(np.int64)

    return AtScaleArrays(
        n_users=n_users,
        n_items=n_items,
        user_idx=user_idx,
        item_idx=item_idx,
        clicks=clicks,
        worker_rows=worker_rows,
        target_columns=target_columns,
    )


def to_snapshot(arrays: AtScaleArrays):
    """The marketplace as an :class:`~repro.graph.indexed.IndexedGraph`.

    Materialises ``u<row>`` / ``i<column>`` id lists — linear memory in
    nodes, fine up to ~1/10 scale; the roofline benchmark's full-scale
    runs stay on the raw arrays instead.
    """
    from ..graph.indexed import IndexedGraph

    users = [f"u{row}" for row in range(arrays.n_users)]
    items = [f"i{column}" for column in range(arrays.n_items)]
    return IndexedGraph.from_arrays(
        users, items, arrays.user_idx, arrays.item_idx, arrays.clicks
    )


def to_bipartite(arrays: AtScaleArrays):
    """The marketplace as a dict :class:`BipartiteGraph` (small scales only)."""
    from ..graph.bipartite import BipartiteGraph

    graph = BipartiteGraph()
    for user, item, count in zip(
        arrays.user_idx.tolist(), arrays.item_idx.tolist(), arrays.clicks.tolist()
    ):
        graph.add_click(f"u{user}", f"i{item}", count)
    return graph
