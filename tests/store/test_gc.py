"""Garbage collection of unreferenced store artifacts.

Aborted writes and crashes between artifact write and catalog publish
leave invisible files under the artifact directories.  ``verify()``
reports them as orphans; ``gc()`` reaps them; and — the crash-safety
contract — GC never tears a file the atomically-published catalog
references, at any injected fault point.
"""

import pytest

from repro import obs
from repro.errors import ReproError
from repro.resilience.faults import injecting
from repro.store import DetectionStore

from .test_store import attack_graph, commit_snapshot

pytestmark = pytest.mark.servertest


def artifact_files(root):
    files = set()
    for subdir in ("snapshots", "deltas", "thresholds", "results"):
        base = root / subdir
        if base.exists():
            files.update(
                p.relative_to(root).as_posix() for p in base.rglob("*") if p.is_file()
            )
    return files


def referenced_files(store):
    refs = set()
    for entry in store._catalog["entries"].values():
        refs.update(entry["checksums"])
    return refs


class TestOrphanReporting:
    def test_clean_store_has_no_orphans(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        assert store.verify() == []

    def test_abort_leaves_reported_orphans(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("uX", "i0", 3)])
        store.abort()
        orphans = store.verify()
        assert orphans == ["deltas/v2.json"]

    def test_pending_version_is_not_reported(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("uX", "i0", 3)])
        # Mid-write: the uncommitted delta is pending, not orphaned.
        assert store.verify() == []
        store.commit()
        assert store.verify() == []

    def test_stranger_files_outside_artifact_dirs_untouched(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        note = store.root / "NOTES.txt"
        note.write_text("operator scribble\n")
        assert store.verify() == []
        store.gc()
        assert note.exists()


class TestGC:
    def test_gc_reaps_aborted_write(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("uX", "i0", 3)])
        store.abort()
        recorder = obs.Recorder()
        with obs.recording(recorder):
            reaped = store.gc()
        assert reaped == ["deltas/v2.json"]
        assert recorder.counters["store.gc_reaped"] == 1
        assert store.verify() == []
        # The committed version is untouched and still loads.
        assert store.load_graph(1).total_clicks == attack_graph().total_clicks

    def test_gc_reaps_orphaned_snapshot_dir_and_prunes_it(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_snapshot(attack_graph().indexed())
        store.abort()
        assert (store.root / "snapshots" / "v2").exists()
        store.gc()
        assert not (store.root / "snapshots" / "v2").exists()
        assert (store.root / "snapshots" / "v1").exists()
        store.verify()

    def test_gc_spares_in_progress_write(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("uX", "i0", 3)])
        assert store.gc() == []
        store.commit()
        assert store.load_graph(2).has_user("uX")

    def test_compact_sweeps_leftovers(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("uX", "i0", 3)])
        store.commit()
        # Strand an aborted write, then compact: the fold publishes and
        # the sweep reclaims the stranded file.
        store.begin_version()
        store.put_delta([("uY", "i0", 1)])
        store.abort()
        assert store.compact() == 2
        assert store.verify() == []
        assert not (store.root / "deltas" / "v3.json").exists()
        assert store.load_graph(2).has_user("uX")


class TestGCCrashSafety:
    """GC never races the atomic catalog publish.

    A crash at any ``store`` fault-injection point leaves either the old
    catalog (new artifacts orphaned and invisible) or the new one (all
    artifacts referenced).  In both halves, reopening and running GC must
    keep every referenced file on disk and keep every committed version
    loadable.
    """

    def _assert_gc_safe(self, root):
        reopened = DetectionStore.open(root)
        reopened.gc()
        remaining = artifact_files(reopened.root)
        assert referenced_files(reopened) <= remaining
        for version in reopened.versions():
            reopened.load_snapshot(version)
        assert reopened.verify() == []

    def test_crashed_commit_then_gc(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("uX", "i0", 3)])
        with injecting("error=1.0,sites=store,max=1"):
            with pytest.raises(ReproError):
                store.commit()
        self._assert_gc_safe(tmp_path / "s")

    def test_crashed_compact_then_gc(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        store.begin_version()
        store.put_delta([("uX", "i0", 3)])
        store.commit()
        # Crash inside compact: either before the folded snapshot is
        # written or before the catalog naming it publishes.
        with injecting("error=1.0,sites=store,max=1"):
            with pytest.raises(ReproError):
                store.compact()
        self._assert_gc_safe(tmp_path / "s")
        # Retrying on the reopened store succeeds and leaves no orphans.
        reopened = DetectionStore.open(tmp_path / "s")
        assert reopened.compact() == 2
        assert reopened.verify() == []

    def test_sustained_faults_with_gc_between_attempts(self, tmp_path):
        store = DetectionStore.create(tmp_path / "s")
        commit_snapshot(store, attack_graph())
        with injecting("error=0.4,sites=store,seed=11"):
            for _attempt in range(12):
                try:
                    store.begin_version()
                    store.put_delta([("uX", "i0", 1)])
                    store.commit()
                except ReproError:
                    store.abort()
                    store.gc()
        self._assert_gc_safe(tmp_path / "s")
