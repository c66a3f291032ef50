"""Differential test: regional rechecks drift from batch detection by a stated bound.

Checkpoints are exact (``test_incremental_parity.py``), but between them
a recheck extracts from the dirty nodes' two-hop region only and keeps
the previous groups that hold no dirty node.  The region can hold part
of a component that the full graph holds whole, and screening that part
can keep users that screening the whole component drops.  Across the
scenario grid, streamed in the chunks of the masked-vs-copied parity
test, every recheck must flag every user that a batch ``detect`` of the
same graph flags, and at most ``MAX_EXTRA_USERS`` more.
"""

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.framework import RICDDetector
from repro.core.incremental import ClickBatch, IncrementalRICD
from repro.graph import BipartiteGraph

from .scenarios import SCENARIO_GRID, build_scenario
from .test_incremental_parity import click_records

pytestmark = pytest.mark.difftest

PARAMS = RICDParams(k1=5, k2=5)
SCREENING = ScreeningParams()
#: Measured: 3 extra users over the grid's 65 rechecks, at most 2 in one.
MAX_EXTRA_USERS = 2


@pytest.mark.parametrize("case", SCENARIO_GRID, ids=lambda case: case[0])
def test_rechecks_stay_within_the_drift_bound(case):
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)
    records = click_records(scenario.graph)
    half = len(records) // 2
    bootstrap = BipartiteGraph()
    for user, item, clicks in records[:half]:
        bootstrap.add_click(user, item, clicks)
    online = IncrementalRICD(
        bootstrap, params=PARAMS, screening=SCREENING, recheck_batches=None
    )
    batch = RICDDetector(params=PARAMS, screening=SCREENING)
    rest = records[half:]
    chunk = max(1, len(rest) // 12)
    for start in range(0, len(rest), chunk):
        online.ingest(ClickBatch.of(rest[start : start + chunk]))
        flagged = online.recheck().suspicious_users
        # A copy: a batch pass on the live graph would memoize its
        # fixpoint in the live snapshot.
        expected = batch.detect(online.graph.copy()).suspicious_users
        assert expected <= flagged, f"the recheck misses {sorted(expected - flagged, key=str)}"
        assert len(flagged - expected) <= MAX_EXTRA_USERS
