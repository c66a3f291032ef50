"""Bounded-staleness recheck scheduling.

The online detector's result is allowed to lag the stream, but only
within explicit bounds.  :class:`StalenessPolicy` states them — a recheck
becomes due when the dirty region grows past ``max_dirty`` nodes, OR
``max_batches`` micro-batches have been ingested since the last recheck,
OR the oldest un-rechecked click is ``max_age`` clock-seconds old,
whichever trips first.  :class:`RecheckScheduler` evaluates the policy
against the live detector state and reports *which* bound fired, so the
decision is observable (``serve.recheck_reason`` gauge) and pinnable in
tests at exact boundary values.

Under overload the service does not edit the policy in place; it asks the
scheduler to evaluate a *scaled* view (every bound multiplied by the
degradation ladder's cadence factor), so de-escalating back to the
configured bounds is just dropping the scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["StalenessPolicy", "RecheckScheduler"]


@dataclass(frozen=True)
class StalenessPolicy:
    """How stale the served detection state may become before a recheck.

    Any bound may be ``None`` (disabled); at least one must be set, or the
    service would never recheck on its own.

    Parameters
    ----------
    max_dirty:
        Dirty-region size bound (users + items awaiting recheck).
    max_batches:
        Ingested micro-batches between rechecks.
    max_age:
        Clock-seconds the oldest dirty mark may wait.
    """

    max_dirty: int | None = 5_000
    max_batches: int | None = 10
    max_age: float | None = 60.0

    def __post_init__(self) -> None:
        if self.max_dirty is None and self.max_batches is None and self.max_age is None:
            raise ConfigError(
                "at least one staleness bound must be set", "staleness"
            )
        if self.max_dirty is not None and self.max_dirty < 1:
            raise ConfigError(f"max_dirty must be >= 1, got {self.max_dirty}", "max_dirty")
        if self.max_batches is not None and self.max_batches < 1:
            raise ConfigError(
                f"max_batches must be >= 1, got {self.max_batches}", "max_batches"
            )
        if self.max_age is not None and self.max_age <= 0:
            raise ConfigError(f"max_age must be > 0, got {self.max_age}", "max_age")


@dataclass
class RecheckScheduler:
    """Evaluates one :class:`StalenessPolicy` against live detector state.

    Stateless between calls by design: the service supplies the inputs
    (the incremental detector's dirty size, and the batch count and dirty
    age the service itself keeps); the scheduler owns only the decision,
    which keeps it trivially pinnable at exact bound values.

    Examples
    --------
    >>> scheduler = RecheckScheduler(StalenessPolicy(max_dirty=10, max_batches=3))
    >>> scheduler.due(dirty_size=9, batches_since=2, dirty_age=0.0) is None
    True
    >>> scheduler.due(dirty_size=10, batches_since=2, dirty_age=0.0)
    'dirty'
    >>> scheduler.due(dirty_size=1, batches_since=3, dirty_age=0.0)
    'batches'
    >>> scheduler.due(dirty_size=0, batches_since=99, dirty_age=0.0) is None
    True
    """

    policy: StalenessPolicy

    def due(
        self,
        dirty_size: int,
        batches_since: int,
        dirty_age: float,
        scale: int = 1,
    ) -> str | None:
        """The bound that fired (``"dirty"``/``"batches"``/``"age"``), or ``None``.

        A recheck with nothing dirty is pointless, so nothing is ever due
        while the dirty region is empty.  ``scale`` multiplies every bound
        — the degradation ladder's coarser-cadence lever.
        """
        if dirty_size == 0:
            return None
        policy = self.policy
        if policy.max_dirty is not None and dirty_size >= policy.max_dirty * scale:
            return "dirty"
        if policy.max_batches is not None and batches_since >= policy.max_batches * scale:
            return "batches"
        if policy.max_age is not None and dirty_age >= policy.max_age * scale:
            return "age"
        return None
