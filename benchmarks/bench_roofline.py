"""Roofline: the bitset pruning kernel against the memory wall.

The bitset engine's fixpoint is bandwidth-bound, not compute-bound: the
dominant operations are CSR gathers, bincounts and boolean fancy-indexing
over edge arrays.  This benchmark generates a paper-proportioned
marketplace (:mod:`repro.datagen.atscale` — the ICDE paper's 20M users /
4M items / 90M records at a configurable fraction), runs the fixpoint,
and reports each round's *achieved* gather bandwidth against the host's
*peak* copy bandwidth, so regressions show up as a falling fraction of
roofline rather than an opaque wall-clock delta.

Scale is controlled by ``RICD_ROOFLINE_SCALE`` (default ``0.002`` — a
40k-user miniature, small enough for CI's perf-smoke entry).  What runs
depends on the scale:

* every scale: the survivors must be exactly the injected groups, the
  run must stay inside the stated memory budget, and a capped-at-tiny
  miniature must match the pure-Python reference engine id for id;
* ``1.0``: the full paper-proportioned table — ~90M click records —
  extracted end to end; the memory budget line doubles as the claim in
  the README's "Engines" table.

Run the paper-scale configuration with::

    RICD_ROOFLINE_SCALE=1.0 PYTHONPATH=src \
        python -m pytest benchmarks/bench_roofline.py -q -s --json-out benchmarks
"""

import os
import time

import numpy as np
import pytest

from repro.config import RICDParams
from repro.core.extraction_bitset import prune_fixpoint_arrays
from repro.datagen.atscale import (
    PAPER_RECORDS,
    AtScaleConfig,
    generate_at_scale,
    to_bipartite,
)

PARAMS = RICDParams(k1=10, k2=10, alpha=1.0)

SCALE = float(os.environ.get("RICD_ROOFLINE_SCALE", "0.002"))

#: The stated memory budget, linear in scale: a fixed interpreter +
#: numpy floor plus the edge arrays and their transient sort/gather
#: copies.  At scale 1.0 this claims the full ~90M-record extraction fits
#: in 14 GiB of RSS (measured ~9.5 GiB).
MEMORY_BUDGET_MB = 2048 + 12288 * SCALE

_TIMING_ROUNDS = 3 if SCALE <= 0.2 else 1


def _min_elapsed(fn, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def _peak_copy_bandwidth_bytes() -> float:
    """The host's large-copy bandwidth (bytes/s), the roofline ceiling."""
    block = np.ones(1 << 23, dtype=np.int64)  # 64 MiB
    out = np.empty_like(block)
    elapsed = _min_elapsed(lambda: np.copyto(out, block), 3)
    return 2 * block.nbytes / elapsed  # one read + one write stream


@pytest.fixture(scope="module")
def marketplace():
    return generate_at_scale(AtScaleConfig(scale=SCALE, seed=0))


def test_bitset_matches_reference_at_tiny_scale():
    """The kernel equals the pure-Python reference engine, id for id."""
    from repro.core.extraction import prune_to_fixpoint
    from repro.graph import Adjacency

    arrays = generate_at_scale(AtScaleConfig(scale=min(SCALE, 0.002), seed=0))
    user_indptr, user_items = arrays.csr()
    item_indptr, item_users = arrays.csc()
    alive_users, alive_items = prune_fixpoint_arrays(
        user_indptr, user_items, item_indptr, item_users, PARAMS
    )
    reference = prune_to_fixpoint(Adjacency(to_bipartite(arrays)), PARAMS)
    assert {f"u{index}" for index in alive_users} == set(reference.users)
    assert {f"i{index}" for index in alive_items} == set(reference.items)


def test_bitset_finds_exactly_the_injected_groups(marketplace):
    """Ground truth by construction: survivors == injected workers/targets."""
    user_indptr, user_items = marketplace.csr()
    item_indptr, item_users = marketplace.csc()
    alive_users, alive_items = prune_fixpoint_arrays(
        user_indptr, user_items, item_indptr, item_users, PARAMS
    )
    workers = np.sort(np.concatenate(marketplace.worker_rows))
    targets = np.unique(np.concatenate(marketplace.target_columns))
    assert np.array_equal(alive_users, workers)
    assert np.array_equal(alive_items, targets)


def test_roofline_report(marketplace, emit_report, emit_json):
    from repro._util import peak_rss_mb

    user_indptr, user_items = marketplace.csr()
    item_indptr, item_users = marketplace.csc()

    stats: list = []
    alive_users, alive_items = prune_fixpoint_arrays(
        user_indptr, user_items, item_indptr, item_users, PARAMS, stats=stats
    )
    bitset_elapsed = _min_elapsed(
        lambda: prune_fixpoint_arrays(
            user_indptr, user_items, item_indptr, item_users, PARAMS
        ),
        _TIMING_ROUNDS,
    )

    peak_bw = _peak_copy_bandwidth_bytes()
    lines = [
        f"Roofline — bitset fixpoint at scale {SCALE:g} "
        f"({marketplace.n_users:,} users / {marketplace.n_items:,} items / "
        f"{marketplace.n_edges:,} edges, paper = {PAPER_RECORDS:,} records):",
        f"  peak copy bandwidth {peak_bw / 1e9:.1f} GB/s | "
        f"fixpoint min-of-{_TIMING_ROUNDS} {bitset_elapsed * 1000:.1f} ms | "
        f"survivors {len(alive_users)}/{len(alive_items)}",
    ]
    rounds_json = []
    for entry in stats:
        achieved = 8 * entry["gathered_entries"] / max(entry["seconds"], 1e-9)
        rounds_json.append(dict(entry, achieved_bytes_per_s=achieved))
        lines.append(
            f"    round {entry['round']}: killed {entry['users_killed']:,}u/"
            f"{entry['items_killed']:,}i | gathered {entry['gathered_entries']:,} "
            f"entries in {entry['seconds'] * 1000:.1f} ms | "
            f"achieved {achieved / 1e9:.2f} GB/s "
            f"({100 * achieved / peak_bw:.0f}% of roofline)"
        )
    rss = peak_rss_mb()
    lines.append(f"  peak RSS {rss:.0f} MB (budget {MEMORY_BUDGET_MB:.0f} MB)")
    assert rss <= MEMORY_BUDGET_MB, (
        f"peak RSS {rss:.0f} MB exceeds the stated {MEMORY_BUDGET_MB:.0f} MB "
        f"budget for scale {SCALE:g}"
    )
    emit_report("\n".join(lines))
    emit_json(
        "roofline",
        {
            "config": {
                "scale": SCALE,
                "seed": 0,
                "params": {"k1": PARAMS.k1, "k2": PARAMS.k2, "alpha": PARAMS.alpha},
                "timing_rounds": _TIMING_ROUNDS,
                "memory_budget_mb": MEMORY_BUDGET_MB,
            },
            "graph": {
                "n_users": marketplace.n_users,
                "n_items": marketplace.n_items,
                "n_edges": marketplace.n_edges,
            },
            "bitset_fixpoint_s": bitset_elapsed,
            "peak_copy_bandwidth_bytes_per_s": peak_bw,
            "rounds": rounds_json,
            "survivors": {"users": len(alive_users), "items": len(alive_items)},
        },
    )
