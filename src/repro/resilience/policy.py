"""Retry and deadline policies shared by every execution path.

Both objects are deliberately tiny and dependency-free, so they are
cheap to consult on hot paths.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..errors import ConfigError, DeadlineExceededError

__all__ = ["RetryPolicy", "Deadline"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Parameters
    ----------
    max_retries:
        Additional attempts after the first failure; ``0`` disables
        retries (the failure goes straight to the serial fallback).
    base_delay:
        Backoff before the first retry, in seconds.
    multiplier:
        Exponential growth factor per attempt.
    max_delay:
        Backoff ceiling, in seconds.
    jitter:
        Fractional jitter band: the delay is scaled by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]``.  The draw is seeded
        from ``(seed, attempt)``, so two runs of the same policy back off
        identically — reproducibility extends to the failure path.
    seed:
        Jitter seed.

    Examples
    --------
    >>> policy = RetryPolicy(max_retries=3, base_delay=0.1, jitter=0.0)
    >>> [round(policy.delay(a), 3) for a in (1, 2, 3)]
    [0.1, 0.2, 0.4]
    >>> policy.delay(2) == policy.delay(2)  # deterministic
    True
    """

    max_retries: int = 0
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}", "max_retries"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("delays must be >= 0", "base_delay")
        if self.multiplier < 1.0:
            raise ConfigError(
                f"multiplier must be >= 1, got {self.multiplier}", "multiplier"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError(
                f"jitter must lie in [0, 1), got {self.jitter}", "jitter"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), in seconds."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter == 0.0:
            return raw
        draw = random.Random(f"retry:{self.seed}:{attempt}").random()
        return raw * (1.0 + self.jitter * (2.0 * draw - 1.0))

    def sleep(self, attempt: int) -> None:
        """Sleep out the backoff for ``attempt`` (no-op when zero)."""
        delay = self.delay(attempt)
        if delay > 0:
            time.sleep(delay)


class Deadline:
    """A soft wall-clock budget anchored at creation time.

    A deadline never aborts a detection by itself: expiry means "stop
    waiting on pool stragglers (they finish serially in the parent) and
    open no new feedback rounds", so the result is always complete —
    possibly marked degraded, never silently truncated.  Construct with :meth:`start`, which maps
    ``None`` to "no deadline" so call sites stay branch-free.

    ``clock`` is an optional ``() -> float`` time source replacing
    ``time.monotonic`` — the streaming service anchors its per-recheck
    budgets to its injectable :class:`~repro.serve.clock.Clock`, so the
    deterministic test harness can expire deadlines by *advancing
    simulated time* instead of sleeping through real seconds.

    Examples
    --------
    >>> Deadline.start(None) is None
    True
    >>> deadline = Deadline.start(60.0)
    >>> deadline.expired
    False
    >>> deadline.remaining() <= 60.0
    True
    >>> tick = iter((0.0, 5.0)).__next__
    >>> Deadline(2.0, clock=tick).expired   # simulated clock jumped past it
    True
    """

    __slots__ = ("seconds", "_anchor", "_now")

    def __init__(self, seconds: float, clock=None):
        if seconds <= 0:
            raise ConfigError(f"deadline must be > 0 seconds, got {seconds}", "deadline")
        self.seconds = float(seconds)
        self._now = time.monotonic if clock is None else clock
        self._anchor = self._now()

    @classmethod
    def start(cls, seconds: float | None, clock=None) -> "Deadline | None":
        """A deadline starting now, or ``None`` when no budget was given."""
        return None if seconds is None else cls(seconds, clock=clock)

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._now() - self._anchor

    def remaining(self) -> float:
        """Seconds left in the budget, floored at zero."""
        return max(0.0, self.seconds - self.elapsed())

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` if the budget ran out."""
        if self.expired:
            raise DeadlineExceededError(self.seconds, self.elapsed())

    def __repr__(self) -> str:
        return f"Deadline(seconds={self.seconds}, remaining={self.remaining():.3f})"
