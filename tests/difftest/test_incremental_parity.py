"""Differential test: incremental replay converges to the batch result.

The incremental layer promises that streaming a click table through
:class:`~repro.core.incremental.IncrementalRICD` and running one final
recheck leaves the detection state equal to a one-shot batch
:meth:`~repro.core.framework.RICDDetector.detect` over the same table.
Starting from an *empty* graph makes every node dirty by the final
recheck, so the dirty region is the whole graph and the comparison is
exact — groups, suspicious sets, and risk scores, in canonical order —
across the same scenario grid the engine equivalences are pinned on.

Partial dirty regions are pinned engine against engine: a bitset
recheck runs on masks over the live index, a reference recheck on the
region's subgraph copy, and the two states must stay equal after every
recheck of a stream.
"""

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.framework import RICDDetector
from repro.core.incremental import IncrementalRICD
from repro.graph import BipartiteGraph

from ..canon import canonical_result
from .scenarios import SCENARIO_GRID, build_scenario

pytestmark = pytest.mark.difftest

PARAMS = RICDParams(k1=5, k2=5)
SCREENING = ScreeningParams()


def click_records(graph):
    """The graph's click table as deterministic-order records."""
    return [
        (user, item, graph.get_click(user, item))
        for user in sorted(graph.users(), key=str)
        for item in sorted(graph.user_neighbors(user), key=str)
    ]


@pytest.mark.parametrize("case", SCENARIO_GRID, ids=lambda case: case[0])
def test_replay_all_batches_matches_one_shot_batch(case):
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)

    online = IncrementalRICD(
        BipartiteGraph(),
        params=PARAMS,
        screening=SCREENING,
    )
    records = click_records(scenario.graph)
    chunk = max(1, len(records) // 7)
    for start in range(0, len(records), chunk):
        online.ingest(records[start : start + chunk])
    online.recheck()

    # The replayed graph is the scenario's click *table* (zero-click
    # items of the generated marketplace never appear in any record), so
    # the one-shot reference runs on exactly that table.
    expected = RICDDetector(params=PARAMS, screening=SCREENING).detect(online.graph)
    assert online.graph.num_edges == scenario.graph.num_edges
    assert canonical_result(online.current_result) == canonical_result(expected)


@pytest.mark.parametrize("case", SCENARIO_GRID, ids=lambda case: case[0])
def test_masked_regional_rechecks_match_region_copies(case):
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)
    # Records come user by user, and the planted workers' ids sort last,
    # so the stream ends on small regions around the attacks.
    records = click_records(scenario.graph)
    half = len(records) // 2
    bootstrap = BipartiteGraph()
    for user, item, clicks in records[:half]:
        bootstrap.add_click(user, item, clicks)
    masked, copied = (
        IncrementalRICD(
            bootstrap,
            params=PARAMS,
            screening=SCREENING,
            engine=engine,
        )
        for engine in ("bitset", "reference")
    )
    rest = records[half:]
    chunk = max(1, len(rest) // 12)
    for start in range(0, len(rest), chunk):
        batch = rest[start : start + chunk]
        masked.ingest(batch)
        copied.ingest(batch)
        # Each chunk dirties part of the graph: a genuinely regional pass.
        assert 0 < masked.dirty_size < masked.graph.num_users + masked.graph.num_items
        masked.recheck()
        copied.recheck()
        assert canonical_result(masked.current_result) == canonical_result(
            copied.current_result
        )

    # A masked pass must leave no regional fixpoint in the live snapshot's
    # memo, where the full pass below would find it.  The batch detection
    # runs on a copy, which carries no memo.
    masked.recheck_full()
    expected = RICDDetector(params=PARAMS, screening=SCREENING).detect(masked.graph.copy())
    assert canonical_result(masked.current_result) == canonical_result(expected)
