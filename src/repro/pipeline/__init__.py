"""Composable detection pipeline: stages, feedback, the runner.

This package is the single orchestration seam for the RICD framework.
The entry points that used to hand-assemble Fig. 4 — the detector, the
incremental recheck and the baselines' "+UI" wrapper — compose the
stage objects defined here; the detector runs them through one
:class:`DetectionPipeline`.
"""

from .context import PipelineContext
from .feedback import FeedbackDriver
from .runner import DetectionPipeline
from .stages import (
    Extraction,
    Identification,
    ResolveThresholds,
    Screening,
    SeedExpansion,
    SizeCaps,
    Stage,
    run_stages,
    shared_thresholds,
)

__all__ = [
    "PipelineContext",
    "Stage",
    "ResolveThresholds",
    "SeedExpansion",
    "Extraction",
    "Screening",
    "SizeCaps",
    "Identification",
    "run_stages",
    "shared_thresholds",
    "FeedbackDriver",
    "DetectionPipeline",
]
