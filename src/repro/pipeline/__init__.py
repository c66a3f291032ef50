"""Composable detection pipeline: the context, the stages, the feedback loop.

Each box of the RICD framework (Fig. 4) is one stage object here, and
stages talk only through a shared :class:`PipelineContext`.  The
detector runs the sequence itself
(:meth:`~repro.core.framework.RICDDetector._run`, called by ``detect``
and by every incremental recheck), and the baselines' "+UI" wrapper
composes the same screening and identification stages.
"""

from .context import PipelineContext
from .feedback import FeedbackDriver
from .stages import (
    Extraction,
    Identification,
    ResolveThresholds,
    Screening,
    SeedExpansion,
    SizeCaps,
)

__all__ = [
    "PipelineContext",
    "ResolveThresholds",
    "SeedExpansion",
    "Extraction",
    "Screening",
    "SizeCaps",
    "Identification",
    "FeedbackDriver",
]
