"""Warm resume: restart the detection service on its persistent store.

Detection-as-a-service survives a process restart: one process ingests a
click table, checkpoints, and exits; a second process resumes from the
store directory alone, finds every artifact intact (``verify()``), and
must serve the *identical* verdict at the same store version — without
ever rebuilding the array snapshot or re-deriving the thresholds
(asserted by counter, not by timing).  It then checkpoints one click by
a fresh user, which must encode that one id only: the load kept the
snapshot's encoded ids.  CI runs the two phases as
separate processes; running the script with no phase argument does both
in sequence.

Run:  python examples/warm_resume.py [write|resume] [store-dir]
"""

import sys
import tempfile

from repro import obs
from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.datagen import tiny_scenario
from repro.serve import DetectionService, ServeConfig, StalenessPolicy

PARAMS = RICDParams(k1=4, k2=4)


def canonical(result):
    """Order-free, stringified view of everything observable."""
    return (
        sorted(map(str, result.suspicious_users)),
        sorted(map(str, result.suspicious_items)),
        sorted(
            sorted(map(str, group.users)) for group in result.groups
        ),
    )


def make_service(store_dir):
    return DetectionService.from_store(
        store_dir,
        params=PARAMS,
        engine="reference",
        config=ServeConfig(staleness=StalenessPolicy(max_batches=10**9)),
    )


def write(store_dir) -> None:
    print(f"[write] bootstrapping a detection service on {store_dir}")
    service = make_service(store_dir)
    graph = tiny_scenario().graph
    for user in sorted(graph.users(), key=str):
        for item in sorted(graph.user_neighbors(user), key=str):
            service.submit(user, item, graph.get_click(user, item))
    result = service.checkpoint()
    assert result.suspicious_users, "the tiny scenario must trip detection"
    print(
        f"[write] checkpointed store version {service.store_version}: "
        f"{len(result.suspicious_users)} suspicious users, "
        f"{len(result.groups)} groups"
    )


def resume(store_dir) -> None:
    print(f"[resume] restarting from {store_dir} (new process, no state)")
    recorder = obs.Recorder()
    with obs.recording(recorder):
        service = make_service(store_dir)
        warm = service.result
        service.online.graph.indexed()
        RICDDetector(params=PARAMS).resolve_thresholds(service.online.graph)
    builds = recorder.counters.get("graph.indexed.builds", 0)
    assert builds == 0, f"warm resume rebuilt the snapshot {builds}x"
    derived = recorder.counters.get("detect.threshold_cache_misses", 0)
    assert derived == 0, f"warm resume re-derived its thresholds {derived}x"
    # The checkpoint snapshot another process wrote: CRCs hold, no orphans.
    orphans = service.store.verify()
    assert orphans == [], f"store holds unreferenced artifacts: {orphans}"

    # A copy is cold: it carries none of the memos the store installed.
    cold = RICDDetector(params=PARAMS, engine="reference").detect(
        service.online.graph.copy()
    )
    assert canonical(warm) == canonical(cold), "warm verdict diverged from cold"
    assert warm.suspicious_users, "resumed service must still flag the attack"
    print(
        f"[resume] store version {service.store_version}: warm verdict equals "
        f"a cold re-detection ({len(warm.suspicious_users)} suspicious users), "
        "snapshot and thresholds served from the store (0 index rebuilds, "
        "0 threshold derivations)"
    )

    # The load kept the snapshot's encoded ids, so a checkpoint after one
    # click by a fresh user encodes that one id, not every id again.
    item = next(iter(service.online.graph.items()))
    service.submit("resumed-fresh-user", item, 1)
    recorder = obs.Recorder()
    with obs.recording(recorder):
        service.checkpoint()
    encoded = recorder.counters.get("graph.io.ids_encoded", 0)
    assert encoded == 1, f"the checkpoint after one new user encoded {encoded} ids"
    orphans = service.store.verify()
    assert orphans == [], f"store holds unreferenced artifacts: {orphans}"
    print(
        f"[resume] one fresh click checkpointed as store version "
        f"{service.store_version}, encoding 1 new id"
    )


def main() -> None:
    phase = sys.argv[1] if len(sys.argv) > 1 else "both"
    if phase == "both":
        with tempfile.TemporaryDirectory() as scratch:
            store_dir = f"{scratch}/store"
            write(store_dir)
            resume(store_dir)
        return
    if len(sys.argv) < 3:
        raise SystemExit(f"usage: {sys.argv[0]} [write|resume] STORE_DIR")
    {"write": write, "resume": resume}[phase](sys.argv[2])


if __name__ == "__main__":
    main()
