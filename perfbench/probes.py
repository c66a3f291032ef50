"""Hooks the benchmark installs around repro's public calls.

Two levels, chosen per run:

* :class:`CoverageLog` (every run) records only the two per-batch
  timestamps freshness needs: when ``IncrementalRICD.ingest`` applied a
  batch, and when each ``IncrementalRICD.recheck`` began and ended.
* :class:`Tracer` (``--trace 1`` only) wraps the entry points of every
  measured layer in spans, counts work where it happens, and derives the
  per-layer metrics and each layer's self time.

Both patch class or module attributes and put the originals back on
:meth:`Patches.restore`; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from collections import defaultdict
from time import perf_counter

from perfbench.measure import median, percentile

__all__ = ["Patches", "CoverageLog", "Tracer", "paused", "LAYER_OF"]

#: Marks an attribute the patched class only inherits.
_INHERITED = object()


class Patches:
    """Replace attributes and restore the originals afterwards."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make_wrapper):
        """Install ``make_wrapper(original)`` as ``owner.name``."""
        raw = vars(owner).get(name, _INHERITED)
        self._saved.append((owner, name, raw))
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(owner, name, make_wrapper(getattr(owner, name)))

    def restore(self):
        while self._saved:
            owner, name, raw = self._saved.pop()
            if raw is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)


class CoverageLog:
    """When batches were applied and when rechecks ran (untraced hooks)."""

    def __init__(self):
        self.applied = []  # (time applied, events)
        self.rechecks = []  # (began, ended, result not stale)

    def install(self, patches: Patches):
        from repro.core.incremental import IncrementalRICD

        log = self

        def on_ingest(ingest):
            def ingest_logged(online, batch):
                result = ingest(online, batch)
                log.applied.append((perf_counter(), len(batch)))
                return result

            return ingest_logged

        def on_recheck(recheck):
            def recheck_logged(online):
                began = perf_counter()
                result = recheck(online)
                log.rechecks.append((began, perf_counter(), not result.stale))
                return result

            return recheck_logged

        patches.wrap(IncrementalRICD, "ingest", on_ingest)
        patches.wrap(IncrementalRICD, "recheck", on_recheck)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_time = 0.0
        self.end = None
        self.start = perf_counter()


#: Span name -> the layer (repro module) it belongs to.
LAYER_OF = {
    "http.verdict": "serve.api",
    "http.submit": "serve.api",
    "http.other": "serve.api",
    "service.submit_events": "serve.queue",
    "service.pump": "serve.service",
    "service.checkpoint": "serve.service",
    "service.snapshot": "serve.service",
    "incremental.ingest": "core.incremental",
    "incremental.recheck": "core.incremental",
    "builders.seed_expansion": "graph.builders",
    "pipeline.thresholds": "pipeline",
    "pipeline.extraction": "pipeline",
    "pipeline.screening": "pipeline",
    "pipeline.identification": "pipeline",
    "detector.detect": "core.framework",
    "indexed.build": "graph.indexed",
    "indexed.delta": "graph.indexed",
    "store.persist": "store",
    "store.compact": "store",
    "store.load": "store",
    "io.read": "graph.io",
}


class Tracer:
    """Spans and counts around each layer's public entry points.

    Spans nest per thread, so a layer's self time is its spans' time
    minus the time of spans opened inside them.  :attr:`enabled` lets a
    workload keep its own correctness checks out of the trace.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.enabled = True
        self._local = threading.local()

    # -- recording -------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        span = _Span(name, stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span):
        span.end = perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_time += span.end - span.start
        self.spans.append(span)

    def timed(self, name, after=None):
        """Wrapper factory: a span per call, then ``after(args, result)``."""
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                span = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(span)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return make

    # -- installation ----------------------------------------------------
    def install(self, patches: Patches):
        """Wrap every measured layer's entry points."""
        self.patches = patches
        import repro.core.framework as framework
        import repro.core.incremental as incremental
        import repro.graph.io as graph_io
        import repro.pipeline.stages as stages
        from repro.core.framework import RICDDetector
        from repro.graph.indexed import IndexedGraph
        from repro.serve.queue import BoundedEventQueue
        from repro.serve.service import DetectionService
        from repro.store import DetectionStore

        counts, samples = self.counts, self.samples

        # serve.service / serve.queue
        def after_pump(args, report):
            counts["pump_calls"] += 1
            samples["ladder"].append(("normal", "coarse", "stale").index(report.level))

        patches.wrap(DetectionService, "pump", self.timed("service.pump", after_pump))
        patches.wrap(DetectionService, "checkpoint", self.timed("service.checkpoint"))
        patches.wrap(DetectionService, "submit_events", self.timed("service.submit_events"))
        patches.wrap(DetectionService, "snapshot", self.timed("service.snapshot"))

        def on_drain(drain):
            @functools.wraps(drain)
            def drain_traced(queue, max_events=None):
                if self.enabled:
                    samples["queue_depth"].append(len(queue))
                return drain(queue, max_events)

            return drain_traced

        patches.wrap(BoundedEventQueue, "drain", on_drain)

        # core.incremental: ingest, and rechecks with the region they covered
        def after_ingest(args, result):
            counts["ingest_events"] += len(args[1])

        patches.wrap(incremental.IncrementalRICD, "ingest", self.timed("incremental.ingest", after_ingest))

        def on_recheck(recheck):
            @functools.wraps(recheck)
            def recheck_traced(online):
                if not self.enabled:
                    return recheck(online)
                dirty = online.dirty_size
                self._local.region = None
                span = self.open("incremental.recheck")
                try:
                    result = recheck(online)
                finally:
                    self.close(span)
                samples["recheck_s"].append(span.end - span.start)
                counts["recheck_stale"] += bool(result.stale)
                if dirty:
                    live = online.graph.num_edges
                    region = self._local.region
                    region = live if region is None else region
                    samples["region_edges"].append(region)
                    samples["region_share"].append(region / live if live else 1.0)
                return result

            return recheck_traced

        patches.wrap(incremental.IncrementalRICD, "recheck", on_recheck)

        # graph.builders: seed expansion, at both modules that call it
        def after_expansion(args, region):
            counts["seed_expansion_calls"] += 1
            self._local.region = region.num_edges

        for module in (incremental, stages):
            patches.wrap(
                module, "seed_expansion", self.timed("builders.seed_expansion", after_expansion)
            )

        # pipeline: thresholds (a lookup that derives is a miss), modules 1-3
        def on_derive(derive):
            @functools.wraps(derive)
            def derive_counted(*args, **kwargs):
                self._local.derived = True
                return derive(*args, **kwargs)

            return derive_counted

        for module in (framework, stages):
            patches.wrap(module, "pareto_hot_threshold", on_derive)
            patches.wrap(module, "t_click_from_graph", on_derive)

        def on_resolve(resolve):
            timed = self.timed("pipeline.thresholds")(resolve)

            @functools.wraps(resolve)
            def resolve_counted(stage, graph, params):
                self._local.derived = False
                resolved = timed(stage, graph, params)
                if self.enabled and (params.t_hot is None or params.t_click is None):
                    counts["threshold_lookups"] += 1
                    counts["threshold_hits"] += not self._local.derived
                return resolved

            return resolve_counted

        patches.wrap(stages.ResolveThresholds, "resolve", on_resolve)

        def after_extraction(args, result):
            counts["extraction_calls"] += 1

        patches.wrap(stages.Extraction, "run", self.timed("pipeline.extraction", after_extraction))

        def on_screening(run):
            timed = self.timed("pipeline.screening")(run)

            @functools.wraps(run)
            def screening_counted(stage, ctx):
                before = len(ctx.groups)
                timed(stage, ctx)
                if self.enabled and stage.enabled:
                    counts["screen_in"] += before
                    counts["screen_out"] += len(ctx.groups)

            return screening_counted

        patches.wrap(stages.Screening, "run", on_screening)
        patches.wrap(stages.Identification, "run", self.timed("pipeline.identification"))
        patches.wrap(RICDDetector, "detect", self.timed("detector.detect"))

        # graph.indexed: full builds and delta merges
        patches.wrap(IndexedGraph, "from_graph", self.timed("indexed.build"))
        patches.wrap(IndexedGraph, "from_arrays", self.timed("indexed.build"))
        patches.wrap(IndexedGraph, "apply_delta", self.timed("indexed.delta"))

        # store: persist (put_* + commit), compaction, loads
        def after_commit(args, version):
            store = args[0]
            counts["commits"] += 1
            counts["commit_bytes"] += sum(
                (store.root / relpath).stat().st_size
                for relpath in store.entry(version)["checksums"]
            )

        def on_store_write(after=None):
            def make(write):
                timed = self.timed("store.persist", after)(write)

                @functools.wraps(write)
                def write_counted(store, *args, **kwargs):
                    try:
                        return timed(store, *args, **kwargs)
                    except Exception:
                        counts["persist_failures"] += self.enabled
                        raise

                return write_counted

            return make

        for name in ("put_snapshot", "put_delta", "put_thresholds", "put_result"):
            patches.wrap(DetectionStore, name, on_store_write())
        patches.wrap(DetectionStore, "commit", on_store_write(after_commit))
        patches.wrap(DetectionStore, "compact", self.timed("store.compact"))
        for name in ("load_snapshot", "load_result", "load_thresholds"):
            patches.wrap(DetectionStore, name, self.timed("store.load"))

        # graph.io: click-table reads, timed as one span per table
        def on_iterate(iterate):
            @functools.wraps(iterate)
            def iterate_traced(path):
                if not self.enabled:
                    return iterate(path)
                span = self.open("io.read")
                try:
                    records = list(iterate(path))
                finally:
                    self.close(span)
                counts["records_read"] += len(records)
                return iter(records)

            return iterate_traced

        patches.wrap(graph_io, "iter_click_table", on_iterate)

    def install_http(self, server):
        """Wrap the HTTP transport of one running ``ApiServer``."""
        patches = self.patches
        handler = server.RequestHandlerClass
        tracer = self
        lock = threading.Lock()  # one handler thread per connection

        def route(request):
            path = request.path
            if path.startswith("/v1/verdict/"):
                return "http.verdict"
            if path.startswith("/v1/clicks"):
                return "http.submit"
            return "http.other"

        def on_method(method):
            @functools.wraps(method)
            def method_traced(request):
                if not tracer.enabled:
                    return method(request)
                span = tracer.open(route(request))
                try:
                    return method(request)
                finally:
                    tracer.close(span)
                    with lock:
                        tracer.counts["requests"] += 1
                        tracer.counts["errors"] += getattr(request, "bench_status", 500) >= 400

            return method_traced

        def on_send_response(send_response):
            @functools.wraps(send_response)
            def send_response_seen(request, code, message=None):
                request.bench_status = code
                return send_response(request, code, message)

            return send_response_seen

        patches.wrap(handler, "do_GET", on_method)
        patches.wrap(handler, "do_POST", on_method)
        patches.wrap(handler, "send_response", on_send_response)

    @contextlib.contextmanager
    def paused(self):
        """Keep the workload's own checks out of the trace."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- results ---------------------------------------------------------
    def busy(self, name) -> float:
        return sum(span.end - span.start for span in self.spans if span.name == name)

    def per_layer(self, extra) -> dict:
        """Per-layer metrics by name; ``extra`` supplies what spans cannot."""
        counts, samples = self.counts, self.samples
        recheck_s = samples["recheck_s"]
        ingest_busy = self.busy("incremental.ingest")
        read_busy = self.busy("io.read")
        snapshot_wait = sum(
            span.end - span.start
            for span in self.spans
            if span.name == "service.snapshot" and _under_http(span)
        )
        values = {
            "serve.api.requests": counts["requests"],
            "serve.api.errors": counts["errors"],
            "serve.api.verdict_busy_s": self.busy("http.verdict"),
            "serve.api.submit_busy_s": self.busy("http.submit"),
            "serve.service.pump_calls": counts["pump_calls"],
            "serve.service.pump_busy_s": self.busy("service.pump"),
            "serve.service.snapshot_wait_s": snapshot_wait,
            "serve.service.ladder_max": max(samples["ladder"], default=0),
            "serve.queue.depth_max": max(samples["queue_depth"], default=0),
            "core.incremental.ingest_events": counts["ingest_events"],
            "core.incremental.ingest_busy_s": ingest_busy,
            "core.incremental.ingest_us_per_event": (
                ingest_busy / counts["ingest_events"] * 1e6 if counts["ingest_events"] else 0.0
            ),
            "core.incremental.recheck_calls": len(recheck_s),
            "core.incremental.recheck_busy_s": self.busy("incremental.recheck"),
            "core.incremental.recheck_p50_s": median(recheck_s) if recheck_s else 0.0,
            "core.incremental.recheck_max_s": max(recheck_s, default=0.0),
            "core.incremental.recheck_stale": counts["recheck_stale"],
            "core.incremental.region_edges_mean": _mean(samples["region_edges"]),
            "core.incremental.region_share": _mean(samples["region_share"]),
            "graph.builders.seed_expansion_calls": counts["seed_expansion_calls"],
            "graph.builders.seed_expansion_busy_s": self.busy("builders.seed_expansion"),
            "pipeline.thresholds_busy_s": self.busy("pipeline.thresholds"),
            "pipeline.threshold_lookups": counts["threshold_lookups"],
            "pipeline.threshold_cache_hit_ratio": (
                counts["threshold_hits"] / counts["threshold_lookups"]
                if counts["threshold_lookups"]
                else 0.0
            ),
            "pipeline.extraction_calls": counts["extraction_calls"],
            "pipeline.extraction_busy_s": self.busy("pipeline.extraction"),
            "pipeline.screening_busy_s": self.busy("pipeline.screening"),
            "pipeline.screening_pass_ratio": (
                counts["screen_out"] / counts["screen_in"] if counts["screen_in"] else 0.0
            ),
            "pipeline.identification_busy_s": self.busy("pipeline.identification"),
            "graph.indexed.builds": self._calls("indexed.build"),
            "graph.indexed.delta_builds": self._calls("indexed.delta"),
            "graph.indexed.busy_s": self.busy("indexed.build") + self.busy("indexed.delta"),
            "store.commits": counts["commits"],
            "store.persist_busy_s": self.busy("store.persist"),
            "store.bytes_per_commit": (
                counts["commit_bytes"] / counts["commits"] if counts["commits"] else 0.0
            ),
            "store.persist_failures": counts["persist_failures"],
            "store.compact_busy_s": self.busy("store.compact"),
            "store.load_busy_s": self.busy("store.load"),
            "graph.io.read_busy_s": read_busy,
            "graph.io.records_per_s": counts["records_read"] / read_busy if read_busy else 0.0,
        }
        values.update(extra)
        return values

    def _calls(self, name) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def shares(self, roots) -> tuple[float, dict]:
        """Self time per span name under the blocking ``roots`` spans.

        Returns the roots' total time and ``{span name: self seconds}``;
        :data:`LAYER_OF` maps each name to its layer.
        """
        total = 0.0
        names = defaultdict(float)
        for span in self.spans:
            top = span
            while top.parent is not None:
                top = top.parent
            if top.name not in roots:
                continue
            duration = span.end - span.start
            if span is top:
                total += duration
            names[span.name] += duration - span.child_time
        return total, dict(names)


def paused(tracer):
    """``tracer.paused()``, or a no-op on untraced runs."""
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def _under_http(span) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name.startswith("http."):
            return True
        parent = parent.parent
    return False


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def late_p90_ms(lateness) -> float:
    """p90 of how late the generator sent, in ms (0 when unsupported)."""
    value = percentile(lateness, 0.9)
    return 0.0 if value is None else value * 1e3
