"""JSON codecs for the artifacts the detection store persists.

Everything the store writes beyond the graph arrays is small, structured
and human-auditable, so it lands as JSON: resolved threshold parameters,
bitset-fixpoint memo entries, click-record deltas, and full
:class:`~repro.core.groups.DetectionResult` payloads with their
degraded/stale provenance.  Node ids are stringified on the way out —
the same convention as :func:`repro.graph.io.write_click_table` and the
npz/memmap writers, so a store round trip composes with the array
round trip without an id-mapping layer.

Codecs are loss-free for detection semantics: sets come back as sets,
scores as the same floats (JSON round-trips Python floats exactly via
``repr``), provenance tuples as tuples.  Wall-clock ``timings`` survive
too — they describe the run that produced the result, not the process
that loaded it.
"""

from __future__ import annotations

from typing import Iterable

from ..config import RICDParams, ScreeningParams
from ..core.groups import DetectionResult, SuspiciousGroup

__all__ = [
    "params_to_json",
    "params_from_json",
    "screening_to_json",
    "screening_from_json",
    "result_to_json",
    "result_from_json",
    "memos_to_json",
    "memos_from_json",
    "FIXPOINT_MEMO_TAG",
]

#: ``IndexedGraph.derived`` key tag of the bitset extraction's pruning
#: fixpoint memo (see :mod:`repro.core.extraction_bitset`).
FIXPOINT_MEMO_TAG = "prune_fixpoint_bitset"


def _sorted_ids(nodes: Iterable) -> list[str]:
    return sorted(str(node) for node in nodes)


def params_to_json(params: RICDParams) -> dict:
    """``RICDParams`` → plain dict (``None`` thresholds stay ``None``)."""
    return {
        "k1": params.k1,
        "k2": params.k2,
        "alpha": params.alpha,
        "t_hot": params.t_hot,
        "t_click": params.t_click,
    }


def params_from_json(payload: dict) -> RICDParams:
    """Inverse of :func:`params_to_json` (validated like a fresh object)."""
    return RICDParams(
        k1=int(payload["k1"]),
        k2=int(payload["k2"]),
        alpha=float(payload["alpha"]),
        t_hot=None if payload.get("t_hot") is None else float(payload["t_hot"]),
        t_click=None if payload.get("t_click") is None else float(payload["t_click"]),
    )


def screening_to_json(screening: ScreeningParams) -> dict:
    """``ScreeningParams`` → plain dict."""
    return {
        "hot_click_cap": screening.hot_click_cap,
        "disguise_ratio": screening.disguise_ratio,
        "min_overlap": screening.min_overlap,
        "min_users": screening.min_users,
        "min_items": screening.min_items,
    }


def screening_from_json(payload: dict) -> ScreeningParams:
    """Inverse of :func:`screening_to_json`."""
    return ScreeningParams(
        hot_click_cap=float(payload["hot_click_cap"]),
        disguise_ratio=float(payload["disguise_ratio"]),
        min_overlap=float(payload["min_overlap"]),
        min_users=int(payload["min_users"]),
        min_items=int(payload["min_items"]),
    )


def result_to_json(result: DetectionResult) -> dict:
    """``DetectionResult`` → plain dict, sets sorted for determinism.

    Degraded/stale provenance is part of the payload, so a result whose
    feedback loop was truncated or that kept a stale answer through a
    failed recheck reports the same flags after a store round trip.
    """
    return {
        "suspicious_users": _sorted_ids(result.suspicious_users),
        "suspicious_items": _sorted_ids(result.suspicious_items),
        "groups": [
            {
                "users": _sorted_ids(group.users),
                "items": _sorted_ids(group.items),
                "hot_items": _sorted_ids(group.hot_items),
            }
            for group in result.groups
        ],
        "user_scores": {str(node): score for node, score in result.user_scores.items()},
        "item_scores": {str(node): score for node, score in result.item_scores.items()},
        "timings": dict(result.timings),
        "feedback_rounds": result.feedback_rounds,
        "degraded": result.degraded,
        "degradations": list(result.degradations),
        "stale": result.stale,
    }


def result_from_json(payload: dict) -> DetectionResult:
    """Inverse of :func:`result_to_json`."""
    return DetectionResult(
        suspicious_users=set(payload["suspicious_users"]),
        suspicious_items=set(payload["suspicious_items"]),
        groups=[
            SuspiciousGroup(
                users=set(group["users"]),
                items=set(group["items"]),
                hot_items=set(group["hot_items"]),
            )
            for group in payload["groups"]
        ],
        user_scores={node: float(score) for node, score in payload["user_scores"].items()},
        item_scores={node: float(score) for node, score in payload["item_scores"].items()},
        timings={phase: float(spent) for phase, spent in payload["timings"].items()},
        feedback_rounds=int(payload["feedback_rounds"]),
        degraded=bool(payload["degraded"]),
        degradations=tuple(payload["degradations"]),
        stale=bool(payload["stale"]),
    )


def memos_to_json(derived: dict) -> list[dict]:
    """Extract the persistable fixpoint memos from a snapshot's ``derived``.

    Only the bitset pruning-fixpoint entries are portable: they are pure
    functions of ``(snapshot, k1, k2, alpha)``, so a store that replays
    them against the *same* graph version hands the extraction engine a
    warm cache that is indistinguishable from one it computed itself.
    """
    memos = []
    for key, value in derived.items():
        if not (isinstance(key, tuple) and key and key[0] == FIXPOINT_MEMO_TAG):
            continue
        _, k1, k2, alpha = key
        users, items = value
        memos.append(
            {
                "k1": k1,
                "k2": k2,
                "alpha": alpha,
                "users": _sorted_ids(users),
                "items": _sorted_ids(items),
            }
        )
    return memos


def memos_from_json(memos: list[dict]) -> dict:
    """Inverse of :func:`memos_to_json`: ``derived``-shaped dict entries."""
    derived = {}
    for memo in memos:
        key = (FIXPOINT_MEMO_TAG, int(memo["k1"]), int(memo["k2"]), float(memo["alpha"]))
        derived[key] = (frozenset(memo["users"]), frozenset(memo["items"]))
    return derived
