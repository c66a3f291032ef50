"""Append-only, version-keyed persistence for the detection stack.

A :class:`DetectionStore` is one directory holding everything a
long-running deployment accumulates, keyed by a monotone *store version*
(1, 2, 3, ...):

.. code-block:: text

    store/
      catalog.json            # the only mutable file (atomic replace)
      snapshots/v1/           # graph memmap dirs (base snapshots)
      deltas/v3.json          # click records since the previous version
      thresholds/v3.json      # resolved params + fixpoint memo entries
      results/v3.json         # DetectionResult + degraded/stale provenance

Every artifact is immutable once written; the catalog is the single
point of visibility.  A version *exists* exactly when the catalog's
``entries`` map references it, and the catalog is only ever replaced
atomically (:func:`os.replace` of a fully-written temp file) **after**
all of the version's artifacts are durable on disk.  That ordering is
the crash-safety contract the ``store`` fault-injection site exercises:
a process killed mid-write leaves either the old catalog (new artifacts
orphaned but invisible) or the new one (all artifacts present) — never a
catalog naming a partial artifact.

Versions persist either a full *snapshot* (graph memmap directory) or a
*delta* (the click records appended since the previous version, so a
delta's base is always the version just below it).  The streaming
service commits a snapshot at every checkpoint — the live index its full
pass has just built — and deltas for the regional rechecks in between.
:meth:`DetectionStore.load_snapshot` resolves the nearest base snapshot
at-or-below the requested version and replays the delta chain forward
through :meth:`~repro.graph.indexed.IndexedGraph.apply_delta`, so a load
at version V is canonically identical to a cold build of the same click
table.  :meth:`DetectionStore.compact` folds a head delta chain into a
fresh base snapshot (a head that is already a snapshot is left as is),
bounding replay cost without rewriting history, and sweeps unreferenced
files either way.

Integrity is checked two ways: a ``schema`` marker on the catalog
(:class:`~repro.errors.SchemaVersionError` on unknown revisions) and a
CRC-32 per artifact file recorded at publish time
(:meth:`DetectionStore.verify` recomputes them, raising
:class:`~repro.errors.CorruptArtifactError` on mismatch).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from .. import obs
from ..config import RICDParams, ScreeningParams
from ..core.groups import DetectionResult
from ..errors import CorruptArtifactError, SchemaVersionError, StoreError
from ..graph.bipartite import BipartiteGraph
from ..graph.indexed import IndexedGraph
from ..graph.io import read_graph_memmap, write_graph_memmap
from ..resilience.faults import inject
from .serialization import (
    memos_from_json,
    params_from_json,
    params_to_json,
    result_from_json,
    result_to_json,
    screening_from_json,
    screening_to_json,
)

__all__ = ["DetectionStore", "CATALOG_SCHEMA"]

#: Catalog schema marker; bump on incompatible layout changes.
CATALOG_SCHEMA = "ricd.store/1"

#: Subdirectories that hold versioned artifacts (GC scans only these; the
#: catalog and anything a deployment drops next to it are never touched).
_ARTIFACT_DIRS = ("snapshots", "deltas", "thresholds", "results")


def _artifact_version(relpath: str) -> int | None:
    """The version an artifact path belongs to, by naming convention.

    ``snapshots/v3/clicks.npy`` and ``deltas/v3.json`` both map to 3;
    paths outside the convention map to ``None`` (treated as orphans of
    no version).
    """
    parts = relpath.split("/")
    if len(parts) < 2:
        return None
    tag = parts[1].split(".", 1)[0]
    if tag.startswith("v") and tag[1:].isdigit():
        return int(tag[1:])
    return None

def _crc32(path: Path) -> int:
    value = 0
    with path.open("rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                return value
            value = zlib.crc32(chunk, value)


class DetectionStore:
    """One persistent, versioned store directory (see module docstring).

    Writes follow a begin/put/commit protocol::

        version = store.begin_version()
        store.put_snapshot(graph)          # or put_delta(records)
        store.put_thresholds(params, resolved)
        store.put_result(result)
        store.commit()

    Artifacts land on disk as soon as they are ``put`` (they are
    invisible until :meth:`commit` publishes the catalog), so the commit
    itself is one fsync-cheap atomic rename.  :meth:`abort` forgets an
    uncommitted version; its orphaned files are harmless, and
    :meth:`gc` (which every :meth:`compact` runs) reclaims them.
    """

    def __init__(self, root: str | Path, catalog: dict):
        self.root = Path(root)
        self._catalog = catalog
        self._pending: dict | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str | Path) -> "DetectionStore":
        """Initialise an empty store at ``root`` (which must not hold one)."""
        root = Path(root)
        if (root / "catalog.json").exists():
            raise StoreError(f"{root} already holds a detection store")
        root.mkdir(parents=True, exist_ok=True)
        store = cls(root, {"schema": CATALOG_SCHEMA, "head": None, "entries": {}})
        store._publish_catalog()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "DetectionStore":
        """Open an existing store, validating the catalog schema."""
        root = Path(root)
        catalog_path = root / "catalog.json"
        if not catalog_path.exists():
            raise StoreError(f"{root} is not a detection store (no catalog.json)")
        catalog = json.loads(catalog_path.read_text())
        schema = catalog.get("schema")
        if schema != CATALOG_SCHEMA:
            raise SchemaVersionError(
                f"{catalog_path}: unsupported store schema {schema!r} "
                f"(this build reads {CATALOG_SCHEMA!r})",
                found=schema,
                supported=(CATALOG_SCHEMA,),
            )
        return cls(root, catalog)

    @classmethod
    def open_or_create(cls, root: str | Path) -> "DetectionStore":
        """Open ``root`` when it holds a store, otherwise initialise one."""
        if (Path(root) / "catalog.json").exists():
            return cls.open(root)
        return cls.create(root)

    # ------------------------------------------------------------------
    # Catalog accessors
    # ------------------------------------------------------------------
    @property
    def head(self) -> int | None:
        """Latest committed version, or ``None`` for an empty store."""
        return self._catalog["head"]

    def versions(self) -> list[int]:
        """All committed versions, ascending."""
        return sorted(int(version) for version in self._catalog["entries"])

    def entry(self, version: int) -> dict:
        """The catalog entry for ``version`` (raises on unknown versions)."""
        try:
            return self._catalog["entries"][str(version)]
        except KeyError:
            raise StoreError(f"version {version} not in store", version=version) from None

    def _resolve_version(self, version: int | None) -> int:
        if version is None:
            if self.head is None:
                raise StoreError("store is empty")
            return self.head
        self.entry(version)
        return version

    # ------------------------------------------------------------------
    # Write protocol
    # ------------------------------------------------------------------
    def begin_version(self) -> int:
        """Start writing the next version; returns its number."""
        if self._pending is not None:
            raise StoreError("a version write is already in progress")
        version = 1 if self.head is None else self.head + 1
        self._pending = {"version": version, "entry": {"checksums": {}}}
        return version

    def abort(self) -> None:
        """Forget the in-progress version (orphaned files stay invisible)."""
        self._pending = None

    def _require_pending(self) -> dict:
        if self._pending is None:
            raise StoreError("no version write in progress; call begin_version()")
        return self._pending

    def _record(self, relpath: str, slot: str | None = None) -> None:
        pending = self._require_pending()
        path = self.root / relpath
        if path.is_dir():
            for child in sorted(path.iterdir()):
                child_rel = f"{relpath}/{child.name}"
                pending["entry"]["checksums"][child_rel] = _crc32(child)
        else:
            pending["entry"]["checksums"][relpath] = _crc32(path)
        if slot is not None:
            pending["entry"][slot] = relpath

    def _put_json(self, relpath: str, payload: dict, slot: str) -> None:
        inject("store")
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
        self._record(relpath, slot)

    def put_snapshot(self, graph) -> None:
        """Persist the full graph (or snapshot) as this version's base."""
        pending = self._require_pending()
        inject("store")
        relpath = f"snapshots/v{pending['version']}"
        with obs.span("store_snapshot"):
            write_graph_memmap(graph, self.root / relpath)
        self._record(relpath, "snapshot")

    def put_delta(self, records: "list[tuple[object, object, int]]") -> None:
        """Persist the click records appended since the previous version.

        ``records`` are ``(user, item, clicks)`` triples; the ids are
        stringified here, exactly as the click-table format does.  The
        base is implicitly the previous committed version — the store is
        a linear history.
        """
        pending = self._require_pending()
        if self.head is None:
            raise StoreError("first version must be a snapshot, not a delta")
        payload = {
            "base": self.head,
            "records": [[str(user), str(item), int(clicks)] for user, item, clicks in records],
        }
        self._put_json(f"deltas/v{pending['version']}.json", payload, "delta")

    def put_thresholds(
        self,
        params: RICDParams,
        resolved: RICDParams,
        screening: ScreeningParams | None = None,
        memos: list | None = None,
    ) -> None:
        """Persist the resolved thresholds (and optional fixpoint memos)."""
        pending = self._require_pending()
        payload = {
            "input": params_to_json(params),
            "resolved": params_to_json(resolved),
            "screening": None if screening is None else screening_to_json(screening),
            "memos": memos or [],
        }
        self._put_json(f"thresholds/v{pending['version']}.json", payload, "thresholds")

    def put_result(self, result: DetectionResult) -> None:
        """Persist the detection result, provenance flags included."""
        pending = self._require_pending()
        self._put_json(
            f"results/v{pending['version']}.json", result_to_json(result), "result"
        )

    def commit(self) -> int:
        """Publish the pending version atomically; returns its number."""
        pending = self._require_pending()
        entry = pending["entry"]
        if "snapshot" not in entry and "delta" not in entry:
            raise StoreError("pending version holds neither a snapshot nor a delta")
        version = pending["version"]
        self._catalog["entries"][str(version)] = entry
        self._catalog["head"] = version
        try:
            self._publish_catalog()
        except BaseException:
            # Roll the in-memory view back so the store object matches the
            # (unchanged) on-disk catalog after an injected fault.
            del self._catalog["entries"][str(version)]
            self._catalog["head"] = None if version == 1 else version - 1
            raise
        self._pending = None
        obs.count("store.commits")
        return version

    def _publish_catalog(self) -> None:
        inject("store")
        tmp = self.root / "catalog.json.tmp"
        tmp.write_text(json.dumps(self._catalog, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.root / "catalog.json")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _base_and_chain(self, version: int) -> "tuple[int, list[int]]":
        """The nearest base snapshot at-or-below ``version`` + delta chain.

        Walks down by version number: :meth:`begin_version` numbers
        versions contiguously from the head, so a delta's base is always
        the version just below it (:meth:`load_delta_records` checks the
        recorded ``base`` when it parses the delta).
        """
        cursor = version
        while "snapshot" not in self.entry(cursor):
            cursor -= 1
        return cursor, list(range(cursor + 1, version + 1))

    def load_delta_records(self, version: int) -> "list[tuple[str, str, int]]":
        """The click records version ``version`` appended over its base.

        Raises :class:`~repro.errors.CorruptArtifactError` when the delta
        records a base other than ``version - 1``: replaying it on that
        base would silently drop the versions in between.
        """
        entry = self.entry(version)
        if "delta" not in entry:
            raise StoreError(f"version {version} has no delta", version=version)
        payload = json.loads((self.root / entry["delta"]).read_text())
        base = payload.get("base")
        if base != version - 1:
            raise CorruptArtifactError(
                f"version {version}: delta records base {base!r}, "
                f"expected {version - 1}",
                version=version,
            )
        return [(user, item, int(clicks)) for user, item, clicks in payload["records"]]

    def load_snapshot(self, version: int | None = None) -> IndexedGraph:
        """The graph at ``version`` (default head) as a canonical snapshot.

        Loads the nearest persisted base snapshot and hands each delta's
        ``(user, item, clicks)`` records, as stored, to
        :meth:`~repro.graph.indexed.IndexedGraph.apply_delta`, which
        registers unseen nodes and tells increments from new edges
        itself.  The result holds exactly the edges and clicks of a cold
        build of the same records.  ``snapshot.version`` is set to the
        *store* version, which is what every warm cache re-keys on.
        """
        version = self._resolve_version(version)
        base, chain = self._base_and_chain(version)
        with obs.span("store_load"):
            snapshot = read_graph_memmap(self.root / self.entry(base)["snapshot"])
            snapshot.version = base
            for delta_version in chain:
                records = self.load_delta_records(delta_version)
                snapshot = snapshot.apply_delta(records, delta_version)
        obs.count("store.snapshot_loads")
        self._rehydrate_memos(snapshot, version)
        return snapshot

    def load_graph(self, version: int | None = None) -> BipartiteGraph:
        """The graph at ``version`` as a warm mutable :class:`BipartiteGraph`.

        The snapshot is installed as the graph's memoized array view, so
        the first ``indexed()`` call is a hit — no
        ``graph.indexed.builds`` on the warm path.  The rebuild is O(1):
        the graph is array-backed by the snapshot (see
        :mod:`repro.graph.bipartite`) — a restart does not loop over the
        edge table.
        """
        return BipartiteGraph.from_indexed(self.load_snapshot(version))

    def _rehydrate_memos(self, snapshot: IndexedGraph, version: int) -> None:
        entry = self._catalog["entries"].get(str(version), {})
        if "thresholds" not in entry:
            return
        payload = json.loads((self.root / entry["thresholds"]).read_text())
        snapshot.derived.update(memos_from_json(payload.get("memos", [])))

    def load_thresholds(
        self, version: int | None = None
    ) -> "tuple[RICDParams, RICDParams, ScreeningParams | None] | None":
        """``(input, resolved, screening)`` params at ``version``, if persisted."""
        version = self._resolve_version(version)
        entry = self.entry(version)
        if "thresholds" not in entry:
            return None
        payload = json.loads((self.root / entry["thresholds"]).read_text())
        screening = payload.get("screening")
        return (
            params_from_json(payload["input"]),
            params_from_json(payload["resolved"]),
            None if screening is None else screening_from_json(screening),
        )

    def load_result(self, version: int | None = None) -> DetectionResult | None:
        """The persisted :class:`DetectionResult` at ``version``, if any."""
        version = self._resolve_version(version)
        entry = self.entry(version)
        if "result" not in entry:
            return None
        payload = json.loads((self.root / entry["result"]).read_text())
        return result_from_json(payload)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Make the head a base snapshot, then sweep unreferenced files.

        A head delta chain is folded: the materialised head graph is
        written as ``snapshots/v<head>`` and the head entry gains a
        ``snapshot`` reference (published atomically like any write), so
        later loads stop replaying the chain.  A head that already holds a
        snapshot — what a service checkpoint commits — is left as is.
        Either way :meth:`gc` then reclaims invisible leftovers (aborted
        writes, crashed publishes), including a delta an absorbed write
        stranded at the number the head snapshot reused.  History is
        untouched — older versions remain loadable.  Returns the head
        version.
        """
        version = self._resolve_version(None)
        entry = self.entry(version)
        if "snapshot" not in entry:
            snapshot = self.load_snapshot(version)
            inject("store")
            relpath = f"snapshots/v{version}"
            write_graph_memmap(snapshot, self.root / relpath)
            checksums = dict(entry["checksums"])
            snapshot_dir = self.root / relpath
            for child in sorted(snapshot_dir.iterdir()):
                checksums[f"{relpath}/{child.name}"] = _crc32(child)
            updated = dict(entry, snapshot=relpath, checksums=checksums)
            self._catalog["entries"][str(version)] = updated
            try:
                self._publish_catalog()
            except BaseException:
                self._catalog["entries"][str(version)] = entry
                raise
            obs.count("store.compactions")
        # History stays loadable: every historical delta/threshold/result
        # is still referenced by its own entry and is never an orphan.
        self.gc()
        return version

    def verify(self, version: int | None = None) -> list[str]:
        """Recompute artifact checksums; raise on corruption or loss.

        With ``version=None`` every committed version is checked.  Returns
        the store's *orphaned* artifact relpaths — files on disk under the
        artifact directories that no catalog entry references (leftovers
        of an :meth:`abort` or of a crash between artifact write and
        catalog publish).  Orphans are invisible to every read path and
        therefore not corruption; :meth:`gc` reclaims them.
        """
        versions = self.versions() if version is None else [self._resolve_version(version)]
        for candidate in versions:
            entry = self.entry(candidate)
            for relpath, expected in entry["checksums"].items():
                path = self.root / relpath
                if not path.exists():
                    raise CorruptArtifactError(
                        f"version {candidate}: missing artifact {relpath}",
                        version=candidate,
                    )
                actual = _crc32(path)
                if actual != expected:
                    raise CorruptArtifactError(
                        f"version {candidate}: checksum mismatch on {relpath} "
                        f"(expected {expected:#010x}, got {actual:#010x})",
                        version=candidate,
                    )
        return self._orphaned_artifacts()

    def _orphaned_artifacts(self) -> list[str]:
        """Artifact files on disk that no catalog entry references.

        The in-progress version (when a begin/put sequence is underway) is
        treated as referenced even where its checksums are not yet
        recorded: a multi-file snapshot directory must not be reported —
        or reaped — from under a write that has not reached its
        :meth:`_record` call.
        """
        referenced: set[str] = set()
        for entry in self._catalog["entries"].values():
            referenced.update(entry["checksums"])
        pending_version = None
        if self._pending is not None:
            referenced.update(self._pending["entry"]["checksums"])
            pending_version = self._pending["version"]
        orphans: list[str] = []
        for subdir in _ARTIFACT_DIRS:
            base = self.root / subdir
            if not base.exists():
                continue
            for path in sorted(base.rglob("*")):
                if path.is_dir():
                    continue
                relpath = path.relative_to(self.root).as_posix()
                if relpath in referenced:
                    continue
                if (
                    pending_version is not None
                    and _artifact_version(relpath) == pending_version
                ):
                    continue
                orphans.append(relpath)
        return orphans

    def gc(self) -> list[str]:
        """Delete unreferenced artifact files; returns the reaped relpaths.

        Safe against the commit protocol by construction: a file is only
        reaped when the *published* catalog (plus any in-progress pending
        version) does not reference it, and the catalog is only ever
        replaced atomically after its artifacts are durable — so a crash
        at any injected fault point leaves GC either reaping invisible
        leftovers or keeping referenced files, never tearing a committed
        version.  Empty artifact directories left behind (e.g. a reaped
        snapshot dir) are pruned.
        """
        orphans = self._orphaned_artifacts()
        for relpath in orphans:
            try:
                (self.root / relpath).unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        for subdir in _ARTIFACT_DIRS:
            base = self.root / subdir
            if not base.exists():
                continue
            for path in sorted(base.rglob("*"), reverse=True):
                if path.is_dir():
                    try:
                        path.rmdir()
                    except OSError:  # non-empty: still referenced
                        pass
        obs.count("store.gc_reaped", len(orphans))
        return orphans

    def __repr__(self) -> str:
        return f"DetectionStore(root={str(self.root)!r}, head={self.head})"

