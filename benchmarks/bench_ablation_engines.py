"""Extraction-engine comparison: reference (dict) vs bitset (CSR kernel).

Both engines compute the same greatest fixpoint of Algorithm 3's pruning
conditions (property-tested in ``tests/core/test_extraction_bitset.py``);
this bench records the wall-clock gap at paper scale.
"""

import pytest

from repro.config import RICDParams
from repro.core.extraction import extract_groups
from repro.core.extraction_bitset import extract_groups_bitset
from repro.core.framework import RICDDetector

PARAMS = RICDParams(k1=10, k2=10, alpha=1.0)

ENGINES = {"reference": extract_groups, "bitset": extract_groups_bitset}


def _group_set(groups):
    return {(frozenset(map(str, g.users)), frozenset(map(str, g.items))) for g in groups}


@pytest.mark.parametrize("engine", list(ENGINES))
def test_extraction_engine(benchmark, scenario, engine):
    graph = scenario.graph.copy()  # fresh snapshot: no memoized fixpoint
    groups = benchmark.pedantic(
        ENGINES[engine], args=(graph, PARAMS), rounds=1, iterations=1
    )
    assert isinstance(groups, list)


def test_engines_identical_output(benchmark, scenario, emit_report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    reference = extract_groups(scenario.graph, PARAMS)
    bitset = extract_groups_bitset(scenario.graph, PARAMS)
    assert _group_set(reference) == _group_set(bitset)
    emit_report(
        "Ablation (engines): reference and bitset extraction agree on "
        f"{len(reference)} groups at paper scale"
    )


@pytest.mark.parametrize("engine", list(ENGINES))
def test_full_detector_engine(benchmark, scenario, engine):
    detector = RICDDetector(engine=engine)
    graph = scenario.graph.copy()
    benchmark.pedantic(detector.detect, args=(graph,), rounds=1, iterations=1)
