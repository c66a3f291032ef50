"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers embedding the detector in a larger pipeline can catch one base
class.  Subclasses are grouped by the subsystem that raises them; each
carries a human-readable message and, where useful, structured context
attributes (the offending node id, parameter name, etc.).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "DuplicateNodeError",
    "ClickTableError",
    "MalformedRowError",
    "SchemaVersionError",
    "StoreError",
    "CorruptArtifactError",
    "ConfigError",
    "DataGenError",
    "DetectionError",
    "ScreeningError",
    "FeedbackExhaustedError",
    "TransientWorkerError",
    "InjectedFaultError",
    "DeadlineExceededError",
    "DegenerateGraphError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Base class for bipartite-graph level errors."""


class NodeNotFoundError(GraphError, KeyError):
    """A user or item id was requested that does not exist in the graph.

    Attributes
    ----------
    node:
        The missing node identifier.
    side:
        ``"user"`` or ``"item"`` — which partition was searched.
    """

    def __init__(self, node, side: str):
        self.node = node
        self.side = side
        super().__init__(f"{side} node {node!r} not found in graph")

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return f"{self.side} node {self.node!r} not found in graph"


class DuplicateNodeError(GraphError):
    """A node id was added to a partition where it already exists."""

    def __init__(self, node, side: str):
        self.node = node
        self.side = side
        super().__init__(f"{side} node {node!r} already present in graph")


class ClickTableError(ReproError):
    """A click-table file or record is malformed."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class MalformedRowError(ClickTableError, ValueError):
    """One click-table row failed to parse.

    Subclasses :class:`ValueError` so callers that historically guarded
    ingestion with ``except ValueError`` (the bare unpacking/int() errors
    this class replaced) keep working, while new code can catch the
    precise type.  Carries the 1-based ``line_number`` and the raw ``row``
    cells for error reporting.
    """

    def __init__(self, message: str, line_number: int | None = None, row=None):
        self.row = row
        super().__init__(message, line_number=line_number)


class SchemaVersionError(ClickTableError):
    """A persisted artifact declares a schema version this build can't read.

    Raised instead of silently misreading arrays when an on-disk graph
    archive (npz or memmap directory) or store catalog was written by a
    newer (or unknown) format revision.  Carries the offending version
    and the versions this build supports so operators can tell whether to
    upgrade the reader or re-export the artifact.
    """

    def __init__(self, message: str, found=None, supported: tuple = ()):
        self.found = found
        self.supported = tuple(supported)
        super().__init__(message)


class StoreError(ReproError):
    """The versioned detection store is inconsistent or misused.

    Attributes
    ----------
    version:
        The store version involved, when known.
    """

    def __init__(self, message: str, version: int | None = None):
        self.version = version
        super().__init__(message)


class CorruptArtifactError(StoreError):
    """An on-disk store artifact failed an integrity (checksum) check."""


class ConfigError(ReproError, ValueError):
    """A parameter object holds an invalid value.

    Attributes
    ----------
    parameter:
        Name of the offending parameter, when known.
    """

    def __init__(self, message: str, parameter: str | None = None):
        self.parameter = parameter
        super().__init__(message)


class DataGenError(ReproError):
    """The synthetic marketplace or attack generator was misconfigured."""


class DetectionError(ReproError):
    """A detector failed to produce a result."""


class ScreeningError(DetectionError):
    """The suspicious-group screening module received malformed groups."""


class FeedbackExhaustedError(DetectionError):
    """The feedback parameter-adjustment loop ran out of adjustment steps.

    Raised by the identification module (Fig. 7 of the paper) when the
    output still does not meet the end-user expectation ``T`` after the
    configured maximum number of parameter relaxations.

    Attributes
    ----------
    rounds:
        Number of adjustment rounds attempted.
    last_size:
        Size of the final (still insufficient) output.
    """

    def __init__(self, rounds: int, last_size: int, expectation: int):
        self.rounds = rounds
        self.last_size = last_size
        self.expectation = expectation
        super().__init__(
            f"feedback loop exhausted after {rounds} rounds: "
            f"output size {last_size} < expectation {expectation}"
        )


class TransientWorkerError(DetectionError):
    """A failure that is safe to retry: the task itself is deterministic
    and the fault came from the execution substrate (a crashed or lost
    pool worker, an injected fault, a transient environment hiccup).

    The resilience layer retries these per its
    :class:`~repro.resilience.RetryPolicy` and falls back to a serial
    in-parent re-run when retries are exhausted.
    """


class InjectedFaultError(TransientWorkerError):
    """A fault raised by the :class:`~repro.resilience.FaultInjector`.

    Attributes
    ----------
    site:
        The instrumentation site that fired (``"worker"``,
        ``"extraction"``, ``"feedback"``, ...).
    kind:
        The fault flavour: ``"error"`` for a plain injected exception, or
        ``"crash"`` when a crash was requested in a process that must not
        be killed (the orchestrating parent).
    """

    def __init__(self, site: str, kind: str = "error"):
        self.site = site
        self.kind = kind
        super().__init__(f"injected {kind} fault at site {site!r}")


class DeadlineExceededError(DetectionError):
    """A detection deadline budget ran out.

    Attributes
    ----------
    budget:
        The configured budget in seconds.
    elapsed:
        Seconds actually spent when the deadline tripped.
    """

    def __init__(self, budget: float, elapsed: float):
        self.budget = budget
        self.elapsed = elapsed
        super().__init__(
            f"deadline of {budget:.3f}s exceeded after {elapsed:.3f}s"
        )


class DegenerateGraphError(DetectionError, ValueError):
    """Threshold derivation hit a degenerate input.

    Raised instead of a bare :class:`ZeroDivisionError` when Eq. 4's
    denominator collapses (``heavy_share == 1.0``) or the statistics are
    non-positive.  Subclasses :class:`ValueError` so existing callers
    catching the old error class keep working; the pipeline's
    ``ResolveThresholds`` stage catches it and falls back to the safe
    floor thresholds.
    """


class ExperimentError(ReproError):
    """An experiment id was unknown or an experiment failed to run."""
