"""The RICD detection framework (Fig. 4) and its ablation variants.

:class:`RICDDetector` chains the three modules of the paper:

1. **Suspicious group detection** — optional seed expansion (Algorithm 2's
   ``GraphGenerator``) followed by ``(alpha, k1, k2)``-extension biclique
   extraction (Algorithm 3);
2. **Suspicious group screening** — user behaviour check + item behaviour
   verification (switchable, giving the RICD / RICD-I / RICD-UI variants
   of Table VI);
3. **Suspicious group identification** — risk-score ranking plus the
   Fig. 7 feedback loop that relaxes parameters until the output meets the
   end-user expectation.

The detector is stateless between calls: thresholds left as ``None`` in
the parameters are re-derived from each input graph exactly as Section IV
prescribes (Pareto rule for ``T_hot``, Eq. 4 for ``T_click``).

The detector runs the Fig. 4 sequence once, in :meth:`RICDDetector._run`,
over the stage objects of :mod:`repro.pipeline`: extraction on the full
graph, restricted to the seeds' region when seed expansion set one,
screening and the size cap against the full graph, the Fig. 7 loop when
a policy is set, then identification against the full graph.
:meth:`RICDDetector.detect` and every
:class:`~repro.core.incremental.IncrementalRICD` recheck take the same
three steps (threshold resolution, seed expansion, this sequence); a
recheck seeds the dirty nodes.  The baselines' "+UI" wrapper composes
the same stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from .. import obs
from ..config import FeedbackPolicy, RICDParams, ScreeningParams
from ..graph.bipartite import BipartiteGraph
from ..pipeline import (
    Extraction,
    FeedbackDriver,
    Identification,
    PipelineContext,
    ResolveThresholds,
    Screening,
    SeedExpansion,
    SizeCaps,
)
from ..resilience import Deadline
from .groups import DetectionResult, SuspiciousGroup
from .thresholds import pareto_hot_threshold, t_click_from_graph

__all__ = ["RICDDetector", "RICDVariant", "VARIANT_FULL", "VARIANT_NO_ITEM", "VARIANT_NO_SCREEN"]

Node = Hashable

#: Full framework: both screening steps (the paper's "RICD").
VARIANT_FULL = "ricd"
#: User behaviour check only (the paper's "RICD-I").
VARIANT_NO_ITEM = "ricd-i"
#: No screening module at all (the paper's "RICD-UI").
VARIANT_NO_SCREEN = "ricd-ui"

RICDVariant = str  # alias for documentation purposes

_VALID_VARIANTS = (VARIANT_FULL, VARIANT_NO_ITEM, VARIANT_NO_SCREEN)


def _derive_t_hot(graph: BipartiteGraph) -> float:
    """Pareto ``T_hot`` via this module's name, so tests can intercept it."""
    return pareto_hot_threshold(graph)


def _derive_t_click(graph: BipartiteGraph) -> float:
    """Eq. 4 ``T_click`` via this module's name, so tests can intercept it."""
    return t_click_from_graph(graph)


@dataclass
class RICDDetector:
    """The "Ride Item's Coattails" attack detector.

    Parameters
    ----------
    params:
        Extraction parameters.  ``t_hot``/``t_click`` left at ``None`` are
        derived from the input graph per Section IV.
    screening:
        Screening-module parameters.
    feedback:
        Fig. 7 policy; ``None`` disables the feedback loop.
    variant:
        ``"ricd"`` (full), ``"ricd-i"`` (no item verification) or
        ``"ricd-ui"`` (no screening).
    max_group_users:
        Cap on the users of a *final* (screened, re-split) group — desired
        property 4b: organic group-buying / deal-hunter swarms form blocks
        that are structurally and behaviourally attack-like but much
        *larger* than crowd-worker groups ("crowd workers tend to attack
        ... on a small scale"), so oversized final groups are discarded.
        The cap only applies to the full variant: before item verification
        re-splits components, group extents are merged blobs the cap would
        wrongly nuke.  ``None`` disables it.
    strict_feedback:
        When the feedback loop exhausts its rounds without meeting the
        expectation: raise :class:`FeedbackExhaustedError` if ``True``,
        otherwise return the best (largest) output seen.
    engine:
        Extraction engine: ``"bitset"`` (the default: the numpy mask/CSR
        frontier kernel, the engine that holds paper scale) or
        ``"reference"`` (pure-Python Algorithm 3, the paper-faithful
        oracle the tests compare against).  Both reach the same fixpoint.
    deadline:
        Soft wall-clock budget in seconds for one ``detect`` call, or
        ``None`` for unbounded.  Expiry never aborts the run: the
        feedback loop stops relaxing and the result carries explicit
        ``degraded`` provenance.

    Examples
    --------
    >>> from repro.datagen import tiny_scenario
    >>> from repro.config import RICDParams
    >>> scenario = tiny_scenario()
    >>> detector = RICDDetector(params=RICDParams(k1=4, k2=4))
    >>> result = detector.detect(scenario.graph)
    >>> isinstance(result.suspicious_users, set)
    True
    """

    params: RICDParams = field(default_factory=RICDParams)
    screening: ScreeningParams = field(default_factory=ScreeningParams)
    feedback: FeedbackPolicy | None = None
    variant: RICDVariant = VARIANT_FULL
    max_group_users: int | None = 18
    strict_feedback: bool = False
    engine: str = "bitset"
    deadline: float | None = None

    #: Lazily built memoized threshold resolver (one per detector, so the
    #: (graph, version, params) memo survives across detect calls).
    _threshold_stage: ResolveThresholds | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        """Drop the weakref-bearing resolver; workers re-derive on first use."""
        state = self.__dict__.copy()
        state["_threshold_stage"] = None
        return state

    #: Detector name used by the evaluation harness and reports.
    @property
    def name(self) -> str:
        """Short display name (matches the paper's method labels)."""
        return {
            VARIANT_FULL: "RICD",
            VARIANT_NO_ITEM: "RICD-I",
            VARIANT_NO_SCREEN: "RICD-UI",
        }[self.variant]

    def __post_init__(self) -> None:
        if self.variant not in _VALID_VARIANTS:
            raise ValueError(
                f"variant must be one of {_VALID_VARIANTS}, got {self.variant!r}"
            )
        # perfbench still passes the retired "auto" spelling; it always ran
        # bitset on perfbench's graphs.  Drop this alias once perfbench
        # passes "bitset".
        if self.engine == "auto":
            self.engine = "bitset"
        if self.engine not in ("reference", "bitset"):
            raise ValueError(
                f"engine must be 'reference' or 'bitset', got {self.engine!r}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    # ------------------------------------------------------------------
    # Detector configuration -> pipeline stages
    # ------------------------------------------------------------------
    def _thresholds(self) -> ResolveThresholds:
        """This detector's memoized threshold-resolution stage.

        The derive hooks route through this module's ``_derive_*``
        wrappers, which read ``pareto_hot_threshold`` /
        ``t_click_from_graph`` from the module namespace at call time —
        the interception seam the threshold-globality tests patch.
        """
        if self._threshold_stage is None:
            self._threshold_stage = ResolveThresholds(
                derive_t_hot=_derive_t_hot, derive_t_click=_derive_t_click
            )
        return self._threshold_stage

    def _module_stages(self) -> tuple:
        """Modules 1 + 2 as stage objects, gated by the variant."""
        return (
            Extraction(engine=self.engine),
            Screening(
                enabled=self.variant != VARIANT_NO_SCREEN,
                item_verification=self.variant == VARIANT_FULL,
            ),
            SizeCaps(max_users=self.max_group_users, enabled=self.variant == VARIANT_FULL),
        )

    # ------------------------------------------------------------------
    def resolve_thresholds(self, graph: BipartiteGraph) -> RICDParams:
        """Fill in data-derived ``t_hot`` / ``t_click`` (Section IV).

        Resolution is memoized against the graph's mutation version, so
        feedback rounds and repeated ``detect`` calls on one graph (suites,
        sweeps, benchmarks) derive the marketplace statistics once.
        """
        return self._thresholds().resolve(graph, self.params)

    def _run_modules(self, ctx: PipelineContext) -> list[SuspiciousGroup]:
        """Modules 1 + 2: extraction on the region or full graph, screening on the full graph.

        One round under the context's current (possibly feedback-relaxed)
        parameters: the unit :meth:`_run` and every Fig. 7 round run, so
        subclass overrides apply on every path.  The round's groups are
        left on ``ctx.groups`` and returned.
        """
        for stage in self._module_stages():
            stage.run(ctx)
        return ctx.groups

    def _run(
        self, ctx: PipelineContext, kept: Sequence[SuspiciousGroup] = ()
    ) -> DetectionResult:
        """Fig. 4 from module 1 on, over a context with resolved thresholds.

        Runs :meth:`_run_modules`, then the Fig. 7 loop when a policy is
        set, and ranks ``kept`` together with the round's groups against
        the full graph.  ``kept`` is an incremental recheck's still-valid
        previous groups; one that the round found again (same users and
        items) is dropped for the round's copy, so no group is served
        twice.
        """
        screened = self._run_modules(ctx)
        if self.feedback is not None:
            screened = FeedbackDriver(self.feedback, strict=self.strict_feedback).drive(
                ctx, screened, self._run_modules
            )
        obs.count("detect.feedback_rounds", ctx.feedback_rounds)
        if kept:
            found = {(frozenset(group.users), frozenset(group.items)) for group in screened}
            kept = [
                group
                for group in kept
                if (frozenset(group.users), frozenset(group.items)) not in found
            ]
        ctx.groups = [*kept, *screened]
        Identification().run(ctx)
        result = ctx.result
        result.timings = dict(ctx.timer.durations)
        result.feedback_rounds = ctx.feedback_rounds
        if ctx.degradations:
            result.degraded = True
            result.degradations = tuple(ctx.degradations)
            obs.gauge("detect.degraded", True)
        return result

    def detect(
        self,
        graph: BipartiteGraph,
        seed_users: Sequence[Node] = (),
        seed_items: Sequence[Node] = (),
    ) -> DetectionResult:
        """Run the full framework on ``graph``.

        Parameters
        ----------
        graph:
            The click graph (never mutated).
        seed_users, seed_items:
            Known abnormal nodes from the business department; when given,
            extraction runs on their two-hop neighbourhood only
            (Algorithm 2's seed-pruned ``MaxBiGraph``).  Thresholds are
            still derived from the *full* graph, since they are global
            marketplace statistics, and screening reads the full graph too.
        """
        # Same obs namespace as the baselines' shared hook, so traces of a
        # mixed suite line up: detector.<name>.<stage>.
        with obs.span(f"detector.{self.name}"):
            ctx = PipelineContext(
                graph=graph,
                params=self.params,
                screening=self.screening,
                seed_users=tuple(seed_users),
                seed_items=tuple(seed_items),
                deadline=Deadline.start(self.deadline),
            )
            self._thresholds().run(ctx)
            SeedExpansion().run(ctx)
            result = self._run(ctx)
        obs.count(f"detector.{self.name}.groups", len(result.groups))
        obs.count(f"detector.{self.name}.users", len(result.suspicious_users))
        obs.count(f"detector.{self.name}.items", len(result.suspicious_items))
        return result
