"""Differential test: incremental replay converges to the batch result.

The incremental layer promises that streaming a click table through
:class:`~repro.core.incremental.IncrementalRICD` and running one final
recheck leaves the detection state equal to a one-shot batch
:meth:`~repro.core.framework.RICDDetector.detect` over the same table.
Starting from an *empty* graph makes every node dirty by the final
recheck, so the dirty region is the whole graph and the comparison is
exact — groups, suspicious sets, and risk scores, in canonical order —
across the same scenario grid the engine equivalences are pinned on.
"""

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.framework import RICDDetector
from repro.core.incremental import ClickBatch, IncrementalRICD
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
        # Rechecks deferred entirely to the explicit final call.
        recheck_batches=10**9,
    )
    records = click_records(scenario.graph)
    chunk = max(1, len(records) // 7)
    for start in range(0, len(records), chunk):
        online.ingest(ClickBatch.of(records[start : start + chunk]))
    online.recheck()

    # The replayed graph is the scenario's click *table* (zero-click
    # items of the generated marketplace never appear in any record), so
    # the one-shot reference runs on exactly that table.
    expected = RICDDetector(params=PARAMS, screening=SCREENING).detect(online.graph)
    assert online.graph.num_edges == scenario.graph.num_edges
    assert canonical_result(online.current_result) == canonical_result(expected)
