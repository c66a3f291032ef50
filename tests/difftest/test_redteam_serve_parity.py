"""Differential test: slow-drip red-team campaigns are batch-equal.

The temporal half of the attack zoo (ISSUE 8): an adaptive campaign
dripped through the online :class:`~repro.serve.DetectionService` as
unit-click micro-batches over a simulated clock must, at the final
checkpoint, produce *exactly* the one-shot batch detection over the same
final click table.  Slow-dripping buys the attacker staleness between
rechecks, never a different sync-point verdict — clicks are additive and
``checkpoint()`` is batch-equal by the serve contract.

Pinned per attack family (adaptive variants — the ones that actually
drip in practice) via :func:`repro.serve.drip_campaign`.
"""

from __future__ import annotations

import pytest

from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.datagen import clean_marketplace, family_names, plan_family
from repro.serve import drip_campaign

from ..canon import canonical_result

pytestmark = pytest.mark.difftest

PARAMS = RICDParams(k1=4, k2=4)
BUDGET = 500


def _plan(family, adaptive=True):
    clean = clean_marketplace("tiny", seed=9)
    plan = plan_family(clean, family, budget=BUDGET, seed=4, adaptive=adaptive)
    return clean, plan


@pytest.mark.parametrize("family", family_names())
def test_drip_checkpoint_equals_one_shot_batch(family):
    clean, plan = _plan(family)
    outcome = drip_campaign(clean, plan, n_batches=8, params=PARAMS)
    assert outcome.events == BUDGET

    # One-shot reference: the same plan applied to the same clean table.
    attacked = clean.copy()
    plan.apply(attacked)
    reference = RICDDetector(params=PARAMS).detect(attacked)
    assert canonical_result(outcome.final) == canonical_result(reference)

    workers = {worker for group in plan.groups for worker in group.workers}
    assert outcome.n_workers == len(workers)
    assert outcome.final_flagged_workers == len(
        reference.suspicious_users & workers
    )


def test_static_campaign_also_batch_equal():
    # The invariant is not an adaptive artifact: the overt paper-style
    # drip lands on the same verdict too (and is actually detected).
    clean, plan = _plan("coattails", adaptive=False)
    outcome = drip_campaign(clean, plan, n_batches=5, params=PARAMS)
    attacked = clean.copy()
    plan.apply(attacked)
    reference = RICDDetector(params=PARAMS).detect(attacked)
    assert canonical_result(outcome.final) == canonical_result(reference)
    assert outcome.final_worker_recall == pytest.approx(
        len(reference.suspicious_users & {w for g in plan.groups for w in g.workers})
        / outcome.n_workers
    )


def test_mid_stream_flags_never_exceed_campaign_workers():
    clean, plan = _plan("poisoning")
    outcome = drip_campaign(clean, plan, n_batches=6, params=PARAMS)
    assert 0 <= outcome.mid_flagged_workers <= outcome.n_workers
    assert outcome.n_batches == 6
