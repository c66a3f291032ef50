"""Context-scoped recording of spans, counters and gauges.

The recorder answers the question PR 1's end-to-end timings cannot:
*where* inside CorePruning/SquarePruning, screening and identification
the time and pruning work go.  Design constraints, in order:

1. **Zero-cost when disabled.**  Every instrumentation site costs one
   :class:`~contextvars.ContextVar` read plus a ``None`` check when no
   recorder is installed — no generator frames, no dict writes, no keys.
   The hot paths (cached extraction, screening scans) stay within noise.
2. **Context-scoped, nesting-safe.**  The active recorder travels through
   a contextvar, so traced and untraced calls interleave freely (a traced
   suite can call into untraced helpers and vice versa) and installing a
   recorder inside an already-recording block shadows the outer one until
   the block exits.
3. **Mergeable.**  Process-pool workers record into their own recorders
   and ship plain dicts back; :meth:`Recorder.merge` folds them into the
   parent additively (spans and counters add, gauges last-write-wins), so
   per-stage numbers stay meaningful across ``jobs > 1`` runs.

Instrumentation sites use the module-level helpers::

    from .. import obs

    with obs.span("prune"):
        ...
    obs.count("extract.users_removed", removed)
    obs.gauge("detect.engine", "bitset")

and entry points that own a trace use :func:`recording`::

    recorder = Recorder()
    with recording(recorder):
        detector.detect(graph)
    print(recorder.report().render())

Span semantics: each ``span`` interval is recorded once, under its dotted
path (``"extraction.prune"`` when ``span("prune")`` runs inside
``span("extraction")``), accumulating wall-clock seconds and a call count.
Time is therefore never double-counted *within* a key; a parent span's
total naturally includes its children's, which is what a stage breakdown
wants.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .report import TraceReport

__all__ = ["Recorder", "recording", "current", "span", "count", "gauge"]

#: The active recorder for the current execution context (None = disabled).
_ACTIVE: ContextVar["Recorder | None"] = ContextVar("repro_obs_recorder", default=None)


class _NullSpan:
    """Shared no-op context manager handed out when recording is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span interval; enters/exits the recorder's path stack."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Span":
        self._recorder._enter_span(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._exit_span(time.perf_counter() - self._start)
        return False


class Recorder:
    """Accumulates one run's spans, counters and gauges.

    Attributes
    ----------
    spans:
        Dotted span path → ``[total_seconds, call_count]``.
    counters:
        Counter name → accumulated integer value (monotonic; ``count``
        only adds).
    gauges:
        Gauge name → last written value (JSON scalar: str/int/float).
    meta:
        Free-form run metadata (engine, jobs, scenario id, ...); written
        by entry points, never by instrumentation sites.

    A recorder is single-context: do not share one instance across
    threads or processes — give each worker its own and :meth:`merge`.

    Examples
    --------
    >>> recorder = Recorder()
    >>> with recording(recorder):
    ...     with span("outer"):
    ...         with span("inner"):
    ...             count("work", 2)
    >>> sorted(recorder.spans)
    ['outer', 'outer.inner']
    >>> recorder.counters["work"]
    2
    """

    __slots__ = ("spans", "counters", "gauges", "meta", "_stack")

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, object] = {}
        self.meta: dict[str, object] = {}
        self._stack: list[str] = []

    # ------------------------------------------------------------------
    # Span bookkeeping (called by _Span only)
    # ------------------------------------------------------------------
    def _enter_span(self, name: str) -> None:
        path = f"{self._stack[-1]}.{name}" if self._stack else name
        self._stack.append(path)

    def _exit_span(self, elapsed: float) -> None:
        path = self._stack.pop()
        cell = self.spans.get(path)
        if cell is None:
            self.spans[path] = [elapsed, 1]
        else:
            cell[0] += elapsed
            cell[1] += 1

    # ------------------------------------------------------------------
    # Direct (recorder-bound) instrumentation
    # ------------------------------------------------------------------
    def span(self, name: str) -> _Span:
        """A context manager timing one interval under ``name``."""
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the monotonic counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: object) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------
    def merge(self, other: "Recorder | Mapping") -> None:
        """Fold another recorder (or its exported dict) into this one.

        Spans and counters are additive; gauges and meta are
        last-write-wins.  This is the cross-worker aggregation contract:
        counters stay exact sums, span totals become cumulative worker
        seconds (wall-clock of the pool is the parent's own span).
        """
        if isinstance(other, Recorder):
            spans: Mapping = other.spans
            counters: Mapping = other.counters
            gauges: Mapping = other.gauges
            meta: Mapping = other.meta
        else:
            spans = other.get("spans", {})
            counters = other.get("counters", {})
            gauges = other.get("gauges", {})
            meta = other.get("meta", {})
        for path, stat in spans.items():
            seconds, calls = (
                (stat[0], stat[1])
                if not isinstance(stat, Mapping)
                else (stat["seconds"], stat["calls"])
            )
            cell = self.spans.get(path)
            if cell is None:
                self.spans[path] = [seconds, calls]
            else:
                cell[0] += seconds
                cell[1] += calls
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(gauges)
        self.meta.update(meta)

    def report(self) -> "TraceReport":
        """Freeze the current state into a :class:`TraceReport`."""
        from .report import SpanStat, TraceReport

        return TraceReport(
            spans={
                path: SpanStat(seconds=cell[0], calls=cell[1])
                for path, cell in self.spans.items()
            },
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            meta=dict(self.meta),
        )

    def __repr__(self) -> str:
        return (
            f"Recorder(spans={len(self.spans)}, counters={len(self.counters)}, "
            f"gauges={len(self.gauges)})"
        )


class _RecordingScope:
    """Installs a recorder as the context's active one for a with-block."""

    __slots__ = ("_recorder", "_token")

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder

    def __enter__(self) -> Recorder:
        self._token = _ACTIVE.set(self._recorder)
        return self._recorder

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.reset(self._token)
        return False


def recording(recorder: Recorder | None = None) -> _RecordingScope:
    """Activate ``recorder`` (a fresh one when ``None``) for a with-block.

    Nesting installs the inner recorder until its block exits, then
    restores the outer one — instrumentation always reaches exactly one
    recorder.

    >>> with recording() as recorder:
    ...     count("seen")
    >>> recorder.counters
    {'seen': 1}
    """
    return _RecordingScope(recorder if recorder is not None else Recorder())


def current() -> Recorder | None:
    """The context's active recorder, or ``None`` when disabled."""
    return _ACTIVE.get()


def span(name: str):
    """Time a with-block under ``name`` on the active recorder (no-op when off)."""
    recorder = _ACTIVE.get()
    if recorder is None:
        return _NULL_SPAN
    return _Span(recorder, name)


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` on the active recorder (no-op when off)."""
    recorder = _ACTIVE.get()
    if recorder is not None:
        recorder.count(name, n)


def gauge(name: str, value: object) -> None:
    """Set gauge ``name`` on the active recorder (no-op when off)."""
    recorder = _ACTIVE.get()
    if recorder is not None:
        recorder.gauge(name, value)
