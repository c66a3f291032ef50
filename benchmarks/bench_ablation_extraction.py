"""Ablations of the extraction algorithm's design choices (DESIGN.md §5).

Two knobs the paper motivates but does not isolate:

* **candidate ordering** — SquarePruning visits vertices in non-decreasing
  two-hop-neighbourhood order ("like reduce2Hop"); the ablation compares
  against plain id order.  Both must reach the same fixpoint (the pruning
  conditions are order-independent at convergence); the ordering buys
  wall-clock time, not quality.
* **fixpoint iteration** — Algorithm 3 as literally written performs one
  CorePruning + one SquarePruning pass; iterating to a fixpoint removes
  strictly more non-core vertices.
"""

import pytest

from repro.config import RICDParams
from repro.core.extraction import prune_to_fixpoint
from repro.graph import Adjacency

PARAMS = RICDParams(k1=10, k2=10, alpha=1.0)


@pytest.mark.parametrize("ordered", [True, False], ids=["2hop-ordered", "id-ordered"])
def test_ablation_square_pruning_order(benchmark, scenario, ordered):
    def run():
        return prune_to_fixpoint(Adjacency(scenario.graph), PARAMS, ordered=ordered)

    survivors = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(survivors.users) > 0


def test_ordering_reaches_same_fixpoint(benchmark, scenario, emit_report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ordered = prune_to_fixpoint(Adjacency(scenario.graph), PARAMS, ordered=True)
    unordered = prune_to_fixpoint(Adjacency(scenario.graph), PARAMS, ordered=False)
    emit_report(
        "Ablation (ordering): fixpoints agree — "
        f"{len(ordered.users)} users / {len(ordered.items)} items survive"
    )
    assert set(ordered.users) == set(unordered.users)
    assert set(ordered.items) == set(unordered.items)


@pytest.mark.parametrize("iterate", [True, False], ids=["fixpoint", "single-pass"])
def test_ablation_fixpoint_iteration(benchmark, scenario, iterate):
    def run():
        return prune_to_fixpoint(Adjacency(scenario.graph), PARAMS, iterate=iterate)

    survivors = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(survivors.users) >= 0


def test_fixpoint_prunes_more(benchmark, scenario, emit_report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    single = prune_to_fixpoint(Adjacency(scenario.graph), PARAMS, iterate=False)
    fixed = prune_to_fixpoint(Adjacency(scenario.graph), PARAMS, iterate=True)
    emit_report(
        "Ablation (fixpoint): single-pass keeps "
        f"{len(single.users)}u/{len(single.items)}i, fixpoint keeps "
        f"{len(fixed.users)}u/{len(fixed.items)}i"
    )
    assert set(fixed.users) <= set(single.users)
    assert set(fixed.items) <= set(single.items)
