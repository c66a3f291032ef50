"""Click streams: replay a scenario as day-structured batches.

The paper's future-work setting (Section VIII) and its Fig. 10 case study
are both *temporal*: clicks arrive day by day, attacks ramp up before a
campaign, and early detection saves losses.  The click *table* has no
timestamps, so this module assigns them generatively:

* organic records are spread uniformly over the horizon (shopping noise);
* each attack group runs a campaign window — fake clicks land between its
  start and end day, ramping like the Fig. 10 timeline.

The output is one list of ``(user, item, clicks)`` records per day, which
:meth:`~repro.core.incremental.IncrementalRICD.ingest` takes as it is;
:func:`replay` ingests and rechecks each day and reports the detection day
per group, which is the headline metric of online detection ("the earlier
these attacks are detected ... the more losses can be reduced").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.incremental import IncrementalRICD
from ..errors import DataGenError
from .scenario import Scenario

__all__ = [
    "StreamConfig",
    "scenario_to_stream",
    "replay",
    "ReplayResult",
]


@dataclass(frozen=True)
class StreamConfig:
    """Temporal layout of the stream.

    Parameters
    ----------
    days:
        Horizon length.
    campaign_start, campaign_end:
        Window (1-based, inclusive) during which attack groups place their
        fake clicks; defaults follow the Fig. 10 narrative (ramp from day
        3, done by day 8).
    seed:
        Timestamp-assignment seed.
    """

    days: int = 10
    campaign_start: int = 3
    campaign_end: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.days < 1:
            raise DataGenError("days must be >= 1")
        if not 1 <= self.campaign_start <= self.campaign_end <= self.days:
            raise DataGenError(
                "require 1 <= campaign_start <= campaign_end <= days"
            )


def scenario_to_stream(
    scenario: Scenario, config: StreamConfig | None = None
) -> list[list[tuple]]:
    """Split the scenario's click records into one list per day.

    Organic records (everything not in a group's ``fake_edges``) are
    assigned uniform-random days; each group's fake records are assigned
    days within the campaign window with linearly increasing probability
    (the Fig. 10 ramp).  Every record keeps its full click weight — the
    stream replays the *same* final graph the batch detector would see.
    """
    config = config or StreamConfig()
    rng = np.random.default_rng(config.seed)
    fake_pairs = {
        (user, item)
        for group in scenario.truth.groups
        for user, item, _clicks in group.fake_edges
    }

    per_day: list[list[tuple]] = [[] for _day in range(config.days)]
    for user, item, clicks in scenario.graph.edges():
        if (user, item) in fake_pairs:
            continue
        day = int(rng.integers(0, config.days))
        per_day[day].append((user, item, clicks))

    window = np.arange(config.campaign_start, config.campaign_end + 1)
    ramp = window - config.campaign_start + 1.0
    ramp /= ramp.sum()
    for group in scenario.truth.groups:
        for user, item, clicks in group.fake_edges:
            day = int(rng.choice(window, p=ramp)) - 1
            per_day[day].append((user, item, clicks))

    return per_day


@dataclass
class ReplayResult:
    """Outcome of replaying a stream through the online detector.

    Attributes
    ----------
    detection_day:
        ``{group_id: day}`` — first day (1-based) on which at least 80% of
        the group's workers were flagged; groups never reaching that bar
        are absent.
    final_flagged_users:
        The online state's suspicious users after the last batch.
    days:
        Horizon replayed.
    batch_seconds:
        Wall-clock seconds each day's ``ingest`` plus ``recheck`` took —
        one entry per day, so benchmarks can report latency percentiles
        instead of one end-state number.
    """

    detection_day: dict[int, int]
    final_flagged_users: set
    days: int
    batch_seconds: list[float] = field(default_factory=list)


def replay(
    scenario: Scenario,
    online: IncrementalRICD,
    config: StreamConfig | None = None,
    detection_bar: float = 0.8,
) -> ReplayResult:
    """Feed the scenario's stream through ``online`` day by day.

    Each day's records are ingested and then rechecked, so every day is
    covered the day it arrives.

    Parameters
    ----------
    online:
        A freshly constructed detector over an *empty-ish* or clean graph;
        the stream supplies all click volume.  (Constructing it over the
        scenario graph would leak the future.)
    detection_bar:
        Worker-coverage fraction that counts as "group detected".
    """
    if not 0.0 < detection_bar <= 1.0:
        raise DataGenError("detection_bar must lie in (0, 1]")
    config = config or StreamConfig()
    batches = scenario_to_stream(scenario, config)
    detection_day: dict[int, int] = {}
    batch_seconds: list[float] = []
    result = online.current_result
    for day_index, batch in enumerate(batches, start=1):
        started = time.perf_counter()
        online.ingest(batch)
        result = online.recheck()
        batch_seconds.append(time.perf_counter() - started)
        for group in scenario.truth.groups:
            if group.group_id in detection_day:
                continue
            caught = len(set(group.workers) & result.suspicious_users)
            if caught >= detection_bar * len(group.workers):
                detection_day[group.group_id] = day_index
    return ReplayResult(
        detection_day=detection_day,
        final_flagged_users=set(result.suspicious_users),
        days=config.days,
        batch_seconds=batch_seconds,
    )
