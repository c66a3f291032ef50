"""Slow-drip red-team replay through the online detection service.

The nastiest adaptive behaviour in the attack zoo is *temporal*: instead
of landing the campaign in one batch, the attacker drips unit clicks
over the stream clock so that no single micro-batch moves any record
past a threshold (:meth:`repro.datagen.attacks.base.AttackPlan.schedule`
builds exactly that drip order).  This module replays such a campaign
through a real :class:`~repro.serve.service.DetectionService` on a
:class:`~repro.serve.clock.SimulatedClock` — deterministic, wall-clock
free — and reports what the service saw at its final checkpoint.

The anchor invariant, pinned by ``tests/difftest/test_redteam_serve_parity``:
because clicks are additive and :meth:`DetectionService.checkpoint` is
batch-equal over the live graph, the final checkpoint of a dripped
campaign must equal one-shot batch detection on the same final table.
Slow-dripping buys the attacker *staleness* (mid-stream rechecks see a
partial campaign) but nothing at the sync point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import RICDParams
from ..core.groups import DetectionResult
from ..errors import ConfigError
from .clock import SimulatedClock
from .service import DetectionService, ServeConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datagen.attacks.base import AttackPlan
    from ..graph.bipartite import BipartiteGraph

__all__ = ["DripOutcome", "drip_campaign"]


@dataclass(frozen=True)
class DripOutcome:
    """What the service saw while a campaign dripped through it.

    Attributes
    ----------
    family, adaptive:
        Provenance of the replayed plan.
    n_batches:
        Drip batches the campaign was split into.
    events:
        Unit click events actually submitted.
    mid_flagged_workers:
        Campaign workers flagged at any *mid-stream* recheck — how much
        the service caught before the campaign completed.
    final:
        The batch-equal final checkpoint result.
    final_flagged_workers:
        Campaign workers flagged at the final checkpoint.
    n_workers:
        Campaign workers planned (the recall denominator).
    """

    family: str
    adaptive: bool
    n_batches: int
    events: int
    mid_flagged_workers: int
    final: DetectionResult
    final_flagged_workers: int
    n_workers: int

    @property
    def final_worker_recall(self) -> float:
        """Share of campaign workers flagged at the final checkpoint."""
        if self.n_workers == 0:
            return 0.0
        return self.final_flagged_workers / self.n_workers


def drip_campaign(
    clean_graph: "BipartiteGraph",
    plan: "AttackPlan",
    n_batches: int = 40,
    params: RICDParams | None = None,
    serve_config: ServeConfig | None = None,
    seconds_per_batch: float = 60.0,
) -> DripOutcome:
    """Drip ``plan`` through a fresh service over ``clean_graph``.

    The service starts from a *copy* of ``clean_graph`` with the plan's
    fresh nodes registered (account/listing registration precedes
    clicking, and it keeps the final table identical to
    :meth:`~repro.datagen.attacks.base.AttackPlan.apply` even for
    workers whose edges were clipped by the budget).  Each scheduled
    batch is submitted and pumped, and the simulated clock advances
    ``seconds_per_batch`` between batches so age-based staleness bounds
    fire exactly as they would in production.
    """
    if n_batches < 1:
        raise ConfigError(f"n_batches must be >= 1, got {n_batches}", "n_batches")

    initial = clean_graph.copy()
    for user in sorted(plan.fresh_users, key=str):
        initial.add_user(user)
    for item in sorted(plan.fresh_items, key=str):
        initial.add_item(item)

    clock = SimulatedClock()
    service = DetectionService.over_graph(
        initial,
        params=params,
        config=serve_config or ServeConfig(),
        clock=clock,
    )
    workers = {worker for group in plan.groups for worker in group.workers}

    events = 0
    mid_flagged: set = set()
    for batch in plan.schedule(n_batches):
        for user, item, clicks in batch:
            service.submit(user, item, clicks)
            events += clicks
        service.pump_until_idle()
        mid_flagged |= service.result.suspicious_users & workers
        clock.advance(seconds_per_batch)

    final = service.checkpoint()
    return DripOutcome(
        family=plan.family,
        adaptive=plan.adaptive,
        n_batches=n_batches,
        events=events,
        mid_flagged_workers=len(mid_flagged),
        final=final,
        final_flagged_workers=len(final.suspicious_users & workers),
        n_workers=len(workers),
    )
