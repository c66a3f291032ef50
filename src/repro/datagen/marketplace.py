"""Organic (attack-free) marketplace click generator.

Reproduces the statistical environment of the paper's ``TaoBao_UI_Clicks``
table (Tables I & II, Fig. 2) at a configurable scale:

* item popularity is Zipf-distributed, so the item-side click distribution
  is heavy-tailed and obeys the Pareto 80/20 rule the hot-item threshold
  is derived from;
* per-user activity (distinct items clicked) is heavy-tailed with mean
  ``avg_items_per_user`` (paper: 4.32);
* per-edge click counts are truncated-Zipf with mean tuned so the average
  *total* clicks per user lands near ``avg_clicks_per_user`` (paper: 11.35);
* normal users click popular items *more* often than unpopular ones — both
  in choice probability and in per-edge click count (Table IV's normal user
  clicks a hot item 19 times but ordinary items once) — which is exactly
  the contrast the user-behaviour check exploits.

All randomness flows through one :class:`numpy.random.Generator`, so a
scenario is fully determined by its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataGenError
from ..graph.bipartite import BipartiteGraph
from .distributions import sample_heavy_tail_counts, zipf_weights

__all__ = ["MarketplaceConfig", "generate_marketplace", "item_id", "user_id"]


def user_id(index: int) -> str:
    """Canonical organic user id for rank ``index``."""
    return f"u{index}"


def item_id(index: int) -> str:
    """Canonical item id for popularity rank ``index`` (0 = most popular)."""
    return f"i{index}"


@dataclass(frozen=True)
class MarketplaceConfig:
    """Configuration of the organic marketplace generator.

    Defaults reproduce the paper's Table I/II at 1/1000 scale: 20k users,
    4k items, ~86k click records, ~200k total clicks.

    Parameters
    ----------
    n_users, n_items:
        Partition sizes.
    avg_items_per_user:
        Target mean distinct items per user *before* de-duplication of
        repeated popularity draws; 4.9 yields a measured ``Avg_cnt`` near
        the paper's 4.32 (Table II).
    avg_clicks_per_user:
        Target mean total clicks per user (Table II ``Avg_clk``: 11.35).
    popularity_exponent, popularity_offset:
        Zipf-Mandelbrot parameters of item popularity
        (``w_k ∝ (k + offset)^-exponent``).  The defaults (2.6, 12) are
        calibrated so the Pareto-derived hot threshold lands ~24x the mean
        item clicks — matching the ratio implied by the paper's
        ``T_hot = 1320`` against its mean of 54.94.  (The paper's loose
        "about 20% of items hold 80% of clicks" phrasing is numerically
        inconsistent with its own ``T_hot``; we calibrate to ``T_hot``,
        the quantity the algorithms actually consume.)
    max_clicks_per_edge:
        Truncation of the per-edge click-count distribution.
    popularity_click_boost:
        How strongly the per-edge click count grows with item popularity
        (0 disables the effect).  Normal users revisit popular items.
    n_cohorts:
        Number of *organic co-click cohorts*: flash-sale / group-buying
        swarms in which many users each click the same trendy item set a
        small number of times.  These form dense bipartite blocks that are
        **not** attacks — the "group-buying phenomenon" of desired
        property (4b) — and are what makes the raw extraction module
        over-capture (the paper's RICD-UI precision is 0.03).  Cohort
        members click each item only 1-3 times, which is precisely the
        signature the screening module uses to clear them.
    cohort_users, cohort_items:
        Inclusive size ranges per cohort.
    cohort_item_pool:
        Fraction band ``(low, high)`` of the popularity ranking cohort
        items are drawn from (trendy but not top-hot items).
    n_superfans:
        Number of *organic superfans*: genuine users who binge-click a
        small cluster of similar ordinary items (comparing variants of one
        product) well past ``T_click``.  They are the behavioural false
        positives of this domain — indistinguishable from crowd workers by
        per-edge click counts alone, but never embedded in a large dense
        block, so structural extraction (RICD's module 1) filters them
        while screening-only pipelines (baselines "+UI") cannot.
    superfan_items:
        Inclusive range of adjacent-rank items per superfan cluster.
    superfan_clicks:
        Inclusive per-item click range for superfans (should straddle
        ``T_click``).
    superfan_item_pool:
        Fraction band of the popularity ranking superfan anchors are drawn
        from.
    n_swarms:
        Number of *deal-hunter swarms*: large organic groups who each
        binge-click the same product line (obsessive deal refreshing
        during a promotion).  They are structurally AND behaviourally
        attack-like — dense blocks whose members click ordinary items past
        ``T_click`` — and are exactly the "group-buying phenomenon" that
        desired property (4b) guards against.  The one thing separating
        them from real attacks is *scale*: organic swarms are large, while
        crowd-worker groups are small ("crowd workers tend to attack ...
        on a small scale").  RICD's group-size cap exploits that;
        baselines without the cap flag swarms as attacks.
    swarm_users, swarm_items:
        Inclusive size ranges per swarm (larger than any attack group).
    swarm_clicks:
        Per-edge click range for swarm members (past ``T_click``, but the
        per-item totals must stay below ``T_hot``).
    swarm_item_pool:
        Fraction band of the popularity ranking swarm items are drawn from.
    seed:
        RNG seed.
    """

    n_users: int = 20_000
    n_items: int = 4_000
    avg_items_per_user: float = 4.9
    avg_clicks_per_user: float = 11.35
    popularity_exponent: float = 2.6
    popularity_offset: float = 12.0
    max_clicks_per_edge: int = 60
    popularity_click_boost: float = 0.45
    n_cohorts: int = 12
    cohort_users: tuple[int, int] = (15, 40)
    cohort_items: tuple[int, int] = (8, 14)
    cohort_item_pool: tuple[float, float] = (0.01, 0.25)
    n_superfans: int = 250
    superfan_items: tuple[int, int] = (2, 4)
    superfan_clicks: tuple[int, int] = (12, 22)
    superfan_item_pool: tuple[float, float] = (0.05, 0.6)
    n_swarms: int = 6
    swarm_users: tuple[int, int] = (24, 32)
    swarm_items: tuple[int, int] = (10, 14)
    swarm_clicks: tuple[int, int] = (12, 13)
    swarm_item_pool: tuple[float, float] = (0.05, 0.5)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_items < 1:
            raise DataGenError("n_users and n_items must be positive")
        if self.avg_items_per_user <= 1.0:
            raise DataGenError("avg_items_per_user must exceed 1")
        if self.avg_clicks_per_user <= self.avg_items_per_user:
            raise DataGenError("avg_clicks_per_user must exceed avg_items_per_user")
        if self.max_clicks_per_edge < 2:
            raise DataGenError("max_clicks_per_edge must be >= 2")
        if self.n_cohorts < 0:
            raise DataGenError("n_cohorts must be >= 0")
        if self.cohort_users[0] > self.cohort_users[1] or self.cohort_users[0] < 1:
            raise DataGenError("cohort_users range is invalid")
        if self.cohort_items[0] > self.cohort_items[1] or self.cohort_items[0] < 1:
            raise DataGenError("cohort_items range is invalid")
        low, high = self.cohort_item_pool
        if not 0.0 <= low < high <= 1.0:
            raise DataGenError("cohort_item_pool must satisfy 0 <= low < high <= 1")
        if self.n_superfans < 0:
            raise DataGenError("n_superfans must be >= 0")
        if self.superfan_items[0] > self.superfan_items[1] or self.superfan_items[0] < 1:
            raise DataGenError("superfan_items range is invalid")
        if self.superfan_clicks[0] > self.superfan_clicks[1] or self.superfan_clicks[0] < 1:
            raise DataGenError("superfan_clicks range is invalid")
        low, high = self.superfan_item_pool
        if not 0.0 <= low < high <= 1.0:
            raise DataGenError("superfan_item_pool must satisfy 0 <= low < high <= 1")
        if self.n_swarms < 0:
            raise DataGenError("n_swarms must be >= 0")
        if self.swarm_users[0] > self.swarm_users[1] or self.swarm_users[0] < 1:
            raise DataGenError("swarm_users range is invalid")
        if self.swarm_items[0] > self.swarm_items[1] or self.swarm_items[0] < 1:
            raise DataGenError("swarm_items range is invalid")
        if self.swarm_clicks[0] > self.swarm_clicks[1] or self.swarm_clicks[0] < 1:
            raise DataGenError("swarm_clicks range is invalid")
        low, high = self.swarm_item_pool
        if not 0.0 <= low < high <= 1.0:
            raise DataGenError("swarm_item_pool must satisfy 0 <= low < high <= 1")


def generate_marketplace(config: MarketplaceConfig) -> BipartiteGraph:
    """Generate an organic click graph from ``config``.

    Returns a graph whose users are ``u0..u{n_users-1}`` and whose items
    are ``i0..i{n_items-1}`` with ``i0`` the most popular.  Every user has
    at least one edge.
    """
    rng = np.random.default_rng(config.seed)
    popularity = zipf_weights(
        config.n_items, config.popularity_exponent, config.popularity_offset
    )

    # Distinct items per user: heavy-tailed around avg_items_per_user.
    degrees = sample_heavy_tail_counts(
        rng,
        size=config.n_users,
        mean=config.avg_items_per_user,
        minimum=1,
        maximum=config.n_items,
    )

    # Per-edge click counts: the marginal mean must satisfy
    # mean_edge_clicks * avg_items_per_user ~= avg_clicks_per_user.
    mean_edge_clicks = config.avg_clicks_per_user / config.avg_items_per_user

    graph = BipartiteGraph()
    for rank in range(config.n_items):
        graph.add_item(item_id(rank))

    item_indices = np.arange(config.n_items)
    total_edges = int(degrees.sum())
    # Draw all item choices in one vectorised pass (with replacement; the
    # per-user de-duplication below merges repeats, slightly thinning very
    # high-degree draws, which the heavy-tailed degree sampler tolerates).
    all_choices = rng.choice(item_indices, size=total_edges, p=popularity)
    # Per-edge click counts decompose into a geometric baseline plus a
    # popularity-driven boost (normal users revisit popular items — Table
    # IV's normal user clicks a hot item 19 times).  The boost's expected
    # contribution is computed from the *actual* draws and subtracted from
    # the baseline mean, so the per-user total stays on the Avg_clk target
    # regardless of how concentrated the popularity distribution is.
    boost_mean_clicks = 3.0  # mean of the geometric(1/3) boost component
    if config.popularity_click_boost > 0:
        # Popularity percentile in [0, 1): 1.0 for the hottest item.
        percentile = 1.0 - all_choices / config.n_items
        boost_probability = config.popularity_click_boost * percentile**4
        boost = rng.random(total_edges) < boost_probability
        extra = rng.geometric(1.0 / boost_mean_clicks, size=total_edges) * boost
        expected_extra = float(boost_probability.mean()) * boost_mean_clicks
    else:
        extra = np.zeros(total_edges, dtype=np.int64)
        expected_extra = 0.0
    base_mean = max(1.05, mean_edge_clicks - expected_extra)
    base_clicks = rng.geometric(min(1.0, 1.0 / base_mean), size=total_edges)
    clicks = np.minimum(base_clicks + extra, config.max_clicks_per_edge)

    # User u0 owns the first degrees[0] draws, u1 the next degrees[1], ...
    owners = np.repeat(np.arange(config.n_users), degrees)
    graph.add_clicks(
        (user_id(owner), item_id(choice), weight)
        for owner, choice, weight in zip(owners.tolist(), all_choices.tolist(), clicks.tolist())
    )

    _add_cohorts(graph, config, rng)
    _add_superfans(graph, config, rng)
    _add_swarms(graph, config, rng)
    return graph


def _add_swarms(
    graph: BipartiteGraph, config: MarketplaceConfig, rng: np.random.Generator
) -> None:
    """Overlay deal-hunter swarms (large organic heavy-click blocks).

    Every swarm member clicks every swarm item ``swarm_clicks`` times —
    a dense block that passes the behaviour checks and is only
    distinguishable from an attack by its size (see the class docstring).
    """
    if config.n_swarms == 0:
        return
    pool_low = int(config.swarm_item_pool[0] * config.n_items)
    pool_high = max(pool_low + 1, int(config.swarm_item_pool[1] * config.n_items))
    item_pool = np.arange(pool_low, min(pool_high, config.n_items))
    for _swarm in range(config.n_swarms):
        n_members = int(rng.integers(config.swarm_users[0], config.swarm_users[1] + 1))
        n_swarm_items = min(
            int(rng.integers(config.swarm_items[0], config.swarm_items[1] + 1)),
            len(item_pool),
        )
        if n_swarm_items == 0:
            continue
        members = rng.integers(0, config.n_users, size=n_members)
        chosen = rng.choice(item_pool, size=n_swarm_items, replace=False)
        for member in members:
            user = user_id(int(member))
            for item_index in chosen:
                clicks = int(
                    rng.integers(config.swarm_clicks[0], config.swarm_clicks[1] + 1)
                )
                graph.add_click(user, item_id(int(item_index)), clicks)


def _add_superfans(
    graph: BipartiteGraph, config: MarketplaceConfig, rng: np.random.Generator
) -> None:
    """Overlay organic superfans (binge users on small product clusters).

    Each superfan picks an anchor rank in the configured popularity band
    and heavily clicks 2-4 *adjacent-rank* items (adjacent popularity
    ranks stand in for product variants).  Adjacent anchoring means
    independent superfans occasionally binge the same cluster — organic
    coincidence that the item-behaviour verification can mistake for a
    coordinated attack, but never at biclique scale.
    """
    if config.n_superfans == 0:
        return
    pool_low = int(config.superfan_item_pool[0] * config.n_items)
    pool_high = max(pool_low + 1, int(config.superfan_item_pool[1] * config.n_items))
    for _fan in range(config.n_superfans):
        fan = user_id(int(rng.integers(0, config.n_users)))
        anchor = int(rng.integers(pool_low, pool_high))
        width = int(rng.integers(config.superfan_items[0], config.superfan_items[1] + 1))
        for rank in range(anchor, min(anchor + width, config.n_items)):
            clicks = int(
                rng.integers(config.superfan_clicks[0], config.superfan_clicks[1] + 1)
            )
            graph.add_click(fan, item_id(rank), clicks)


def _add_cohorts(
    graph: BipartiteGraph, config: MarketplaceConfig, rng: np.random.Generator
) -> None:
    """Overlay organic co-click cohorts (flash sales, group buying).

    Each cohort picks a set of trendy items from the configured popularity
    band and a set of existing users; every member clicks every cohort
    item 1-3 times.  The result is a dense bipartite block with *small*
    per-edge click counts — structurally attack-like, behaviourally
    benign.
    """
    if config.n_cohorts == 0:
        return
    pool_low = int(config.cohort_item_pool[0] * config.n_items)
    pool_high = max(pool_low + 1, int(config.cohort_item_pool[1] * config.n_items))
    item_pool = np.arange(pool_low, min(pool_high, config.n_items))
    for _cohort in range(config.n_cohorts):
        n_members = int(rng.integers(config.cohort_users[0], config.cohort_users[1] + 1))
        n_cohort_items = int(
            rng.integers(config.cohort_items[0], config.cohort_items[1] + 1)
        )
        n_cohort_items = min(n_cohort_items, len(item_pool))
        if n_cohort_items == 0:
            continue
        members = rng.integers(0, config.n_users, size=n_members)
        chosen_items = rng.choice(item_pool, size=n_cohort_items, replace=False)
        for member in members:
            user = user_id(int(member))
            for item_index in chosen_items:
                graph.add_click(
                    user, item_id(int(item_index)), int(rng.integers(1, 4))
                )
