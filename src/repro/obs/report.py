"""Structured per-run trace reports: JSON round-trip + text rendering.

A :class:`TraceReport` is the frozen export of one
:class:`~repro.obs.recorder.Recorder`: stage wall-clock (spans), pruning
and screening work (counters), configuration facts (gauges) and run
metadata.  It is the shape the CLI writes with ``--trace-out``, the eval
harness merges across workers, and the golden/differential tests compare.

The module is dependency-free on purpose (stdlib only): importing it must
never pull the detection stack in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["SpanStat", "TraceReport"]


@dataclass(frozen=True)
class SpanStat:
    """Accumulated wall-clock of one span path.

    Attributes
    ----------
    seconds:
        Total elapsed seconds across all calls.
    calls:
        Number of completed intervals.
    """

    seconds: float
    calls: int


def _render_rows(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Minimal fixed-width table (self-contained; see module docstring)."""
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return lines


@dataclass
class TraceReport:
    """One run's observability export.

    Attributes
    ----------
    spans:
        Dotted span path → :class:`SpanStat`.
    counters:
        Counter name → accumulated value.
    gauges:
        Gauge name → last written scalar.
    meta:
        Run metadata (engine, jobs, input path, ...).
    """

    spans: dict[str, SpanStat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (the on-disk JSON shape)."""
        return {
            "spans": {
                path: {"seconds": stat.seconds, "calls": stat.calls}
                for path, stat in self.spans.items()
            },
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TraceReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            spans={
                path: SpanStat(seconds=stat["seconds"], calls=stat["calls"])
                for path, stat in data.get("spans", {}).items()
            },
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            meta=dict(data.get("meta", {})),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text; keys sorted so traces diff cleanly."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TraceReport":
        """Inverse of :meth:`to_json`.

        >>> report = TraceReport(counters={"n": 3})
        >>> TraceReport.from_json(report.to_json()) == report
        True
        """
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable trace: stage table, counters, gauges, meta."""
        sections: list[str] = []
        if self.meta:
            sections.append(
                "meta: " + ", ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
            )
        if self.spans:
            rows = [
                [path, f"{stat.seconds * 1000:.1f}", str(stat.calls)]
                for path, stat in sorted(self.spans.items())
            ]
            sections.append(
                "\n".join(_render_rows(["stage", "ms", "calls"], rows))
            )
        if self.counters:
            rows = [[name, str(value)] for name, value in sorted(self.counters.items())]
            sections.append("\n".join(_render_rows(["counter", "value"], rows)))
        if self.gauges:
            rows = [[name, str(value)] for name, value in sorted(self.gauges.items())]
            sections.append("\n".join(_render_rows(["gauge", "value"], rows)))
        if not sections:
            return "(empty trace)"
        return "\n\n".join(sections)

    def __str__(self) -> str:
        return self.render()
