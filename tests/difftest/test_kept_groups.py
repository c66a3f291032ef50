"""Differential test: a recheck serves every group once.

A recheck keeps the previous groups that hold no dirty node.  An organic
click on an item a group rides as a hot item dirties only that item, so
the group stays kept, and the two-hop region around the click holds the
whole group, so the regional pass finds it again.  Across the scenario
grid, one click on each ridden hot item in turn, each followed by a
recheck, must never leave two served groups with the same users and
items.
"""

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.incremental import ClickBatch, IncrementalRICD

from .scenarios import SCENARIO_GRID, build_scenario

pytestmark = pytest.mark.difftest


@pytest.mark.parametrize("case", SCENARIO_GRID, ids=lambda case: case[0])
def test_clicks_on_ridden_hot_items_serve_each_group_once(case):
    _, seed, density, exponent, camouflage = case
    scenario = build_scenario(seed, density, exponent, camouflage)
    online = IncrementalRICD(
        scenario.graph,
        params=RICDParams(k1=5, k2=5),
        screening=ScreeningParams(),
        recheck_batches=None,
    )
    ridden = {item for group in online.current_result.groups for item in group.hot_items}
    for index, item in enumerate(sorted(ridden, key=str)):
        online.ingest(ClickBatch.of([(f"organic_{index}", item, 1)]))
        keys = [
            (frozenset(group.users), frozenset(group.items))
            for group in online.recheck().groups
        ]
        assert len(keys) == len(set(keys)), f"a group served twice after a click on {item}"
