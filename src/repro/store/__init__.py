"""Persistent, versioned storage for click graphs and detection results.

The package turns the invocation-shaped stack into a deployable one:
:class:`DetectionStore` persists graph snapshots, click-record deltas,
resolved thresholds and :class:`~repro.core.groups.DetectionResult`
payloads under monotone store versions, and both warm-start consumers —
:meth:`repro.core.incremental.IncrementalRICD.from_store` and
:meth:`repro.serve.DetectionService.from_store` — resume from it with
their caches pre-seeded, producing canonically identical output to a
cold run on the same click table.
"""

from .serialization import (
    memos_from_json,
    memos_to_json,
    params_from_json,
    params_to_json,
    result_from_json,
    result_to_json,
    screening_from_json,
    screening_to_json,
)
from .store import CATALOG_SCHEMA, DetectionStore

__all__ = [
    "DetectionStore",
    "CATALOG_SCHEMA",
    "params_to_json",
    "params_from_json",
    "screening_to_json",
    "screening_from_json",
    "result_to_json",
    "result_from_json",
    "memos_to_json",
    "memos_from_json",
]
