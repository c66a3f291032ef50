"""perfbench's hooks find every name they wrap, and put each one back.

``perfbench/probes.py`` patches ``src/`` entry points by name.  A
renamed or deleted entry point would otherwise fail only in a traced
benchmark run; here it fails the unit suite.
"""

import repro.core.framework as framework
import repro.core.incremental as incremental
import repro.graph.io as graph_io
import repro.pipeline.stages as stages
from perfbench.probes import CoverageLog, Patches, Tracer
from repro.graph import BipartiteGraph
from repro.serve import ApiServer, DetectionAPI, DetectionService, SimulatedClock

#: The class and module attributes the hooks wrap, by owner and name.
WRAPPED = [
    (incremental.IncrementalRICD, "ingest"),
    (incremental.IncrementalRICD, "recheck"),
    (framework.RICDDetector, "detect"),
    (stages.ResolveThresholds, "resolve"),
    (stages.Extraction, "run"),
    (stages.Screening, "run"),
    (stages.Identification, "run"),
    (incremental, "seed_expansion"),
    (stages, "seed_expansion"),
    (framework, "pareto_hot_threshold"),
    (framework, "t_click_from_graph"),
    (stages, "pareto_hot_threshold"),
    (stages, "t_click_from_graph"),
    (graph_io, "iter_click_table"),
]


def test_hooks_install_and_restore():
    service = DetectionService.over_graph(BipartiteGraph(), clock=SimulatedClock())
    server = ApiServer(("127.0.0.1", 0), DetectionAPI(service))
    handler = server.RequestHandlerClass
    wrapped = WRAPPED + [(handler, "do_GET"), (handler, "do_POST")]
    before = [getattr(owner, name) for owner, name in wrapped]
    patches = Patches()
    try:
        CoverageLog().install(patches)
        tracer = Tracer()
        tracer.install(patches)
        tracer.install_http(server)
        during = [getattr(owner, name) for owner, name in wrapped]
    finally:
        patches.restore()
        server.server_close()
    assert all(hooked is not original for hooked, original in zip(during, before))
    assert [getattr(owner, name) for owner, name in wrapped] == before
