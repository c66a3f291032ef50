"""Click-table and graph-array file I/O.

The on-disk text format mirrors the paper's ``TaoBao_UI_Clicks`` table:
one record per line with three columns ``User_ID``, ``Item_ID``,
``Click``.  Both comma- and tab-separated files are supported, with an
optional header row.  Identifiers are kept as strings (production ids are
opaque); click counts must parse as positive integers.

Beyond the text format, this module persists :class:`IndexedGraph`
snapshots as numpy arrays for out-of-core work at paper scale:

* :func:`write_graph_memmap` / :func:`read_graph_memmap` — a directory of
  raw ``.npy`` files whose edge arrays reload **memory-mapped**, so a
  90M-edge graph costs page-cache, not heap (the one graph file format:
  every store snapshot is one);
* :func:`read_click_table_indexed` — chunked text ingestion straight into
  edge arrays, never holding the whole table as Python records the way
  :func:`read_click_table` does (≈24 bytes/edge peak instead of several
  hundred).
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import ClickTableError, MalformedRowError, SchemaVersionError
from .bipartite import BipartiteGraph
from .builders import from_click_records
from .indexed import IndexedGraph, InternedDelta

__all__ = [
    "read_click_table",
    "write_click_table",
    "iter_click_table",
    "read_click_table_indexed",
    "write_graph_memmap",
    "read_graph_memmap",
]

_HEADER_TOKENS = {"user_id", "item_id", "click", "user", "item", "clicks"}

#: Default ingestion chunk: 2^20 records ≈ 24 MiB of edge arrays.
_CHUNK_RECORDS = 1 << 20


def _sniff_delimiter(sample_line: str) -> str:
    """Best-effort delimiter detection from one content line.

    A tab wins over a comma only when it appears in the *stripped* line —
    a whitespace-only line, or ordinary trailing-tab damage around a
    single column, must not flip an otherwise comma-separated file to
    TSV.  Lines with neither delimiter (single-column, blank) default to
    comma, which leaves them to the three-column validation downstream
    instead of misparsing the whole file.
    """
    stripped = sample_line.strip()
    if "\t" in stripped:
        return "\t"
    return ","


def _is_content(row: list[str]) -> bool:
    """Whether a parsed row holds data: not blank, not a ``#`` comment."""
    return any(cell.strip() for cell in row) and not row[0].lstrip().startswith("#")


def iter_click_table(path: str | Path) -> Iterator[tuple[str, str, int]]:
    """Yield ``(user_id, item_id, click)`` records from a click-table file.

    Blank lines and ``#`` comments are skipped; the first content row is
    treated as a header and skipped when any of its cells matches a known
    column name, case-insensitively.  The delimiter is sniffed from the
    first content line (comments and blanks don't vote).

    Raises
    ------
    MalformedRowError
        On rows that do not have exactly three columns or whose click
        column is not a positive integer.  The error subclasses both
        :class:`ClickTableError` and :class:`ValueError` and carries the
        1-based line number plus the raw cells.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        delimiter = ","
        for line in handle:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                delimiter = _sniff_delimiter(line)
                break
        handle.seek(0)
        rows = enumerate(csv.reader(handle, delimiter=delimiter), start=1)
        for line_number, row in rows:
            if not _is_content(row):
                continue
            if not any(cell.strip().lower() in _HEADER_TOKENS for cell in row):
                # No header: the first content row is a record.
                rows = itertools.chain([(line_number, row)], rows)
            break
        for line_number, row in rows:
            # The common row, inlined: three cells, each stripped once.
            if len(row) == 3:
                user, item, raw_clicks = row[0].strip(), row[1].strip(), row[2].strip()
                if user.startswith("#") or not (user or item or raw_clicks):
                    continue
            elif not _is_content(row):
                continue
            else:
                raise MalformedRowError(
                    f"expected 3 columns, got {len(row)}",
                    line_number=line_number,
                    row=row,
                )
            try:
                clicks = int(raw_clicks)
            except ValueError:
                raise MalformedRowError(
                    f"click column {raw_clicks!r} is not an integer",
                    line_number=line_number,
                    row=row,
                ) from None
            if clicks <= 0:
                raise MalformedRowError(
                    f"click count must be positive, got {clicks}",
                    line_number=line_number,
                    row=row,
                )
            yield user, item, clicks


def read_click_table(path: str | Path) -> BipartiteGraph:
    """Load a click-table file into a :class:`BipartiteGraph`.

    >>> import tempfile, os
    >>> with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as f:
    ...     _ = f.write("user_id,item_id,click\\nu1,i1,3\\nu1,i2,1\\n")
    >>> g = read_click_table(f.name)
    >>> (g.num_users, g.num_items, g.total_clicks)
    (1, 2, 4)
    >>> os.unlink(f.name)
    """
    return from_click_records(iter_click_table(path))


def read_click_table_indexed(
    path: str | Path, chunk_records: int = _CHUNK_RECORDS
) -> IndexedGraph:
    """Stream a click table straight into an :class:`IndexedGraph`.

    Records are interned in chunks of ``chunk_records`` into id and click
    columns (:class:`~repro.graph.indexed.InternedDelta`), so peak RSS is
    the id tables plus ~24 bytes per edge — never the
    several-hundred-bytes-per-edge record list :func:`read_click_table`
    holds.  Duplicate ``(user, item)`` records coalesce by summing clicks,
    matching :meth:`~repro.graph.bipartite.BipartiteGraph.add_click`
    accumulation, and ids take first-seen order in both, so the result is
    array-for-array identical to ``read_click_table(path).indexed()``.
    """
    empty = np.empty(0, dtype=np.int64)
    base = IndexedGraph([], [], empty, empty, empty)
    columns = InternedDelta(base)
    chunk: list[tuple[str, str, int]] = []
    for record in iter_click_table(path):
        chunk.append(record)
        if len(chunk) >= chunk_records:
            columns.add(chunk)
            chunk = []
    columns.add(chunk)
    return base.apply_delta(columns, 0)


def write_click_table(
    graph: BipartiteGraph, path: str | Path, delimiter: str = ",", header: bool = True
) -> int:
    """Write ``graph`` as a click table; returns the number of records written.

    Records are emitted in deterministic (sorted by string form) order so
    written files are reproducible across runs regardless of insertion
    order.

    The table format stores click *records* only, so isolated nodes
    (catalogue items nobody has clicked, registered-but-idle accounts) are
    not persisted — a round trip keeps every edge but drops degree-zero
    nodes, which no detector in this package ever looks at.
    """
    path = Path(path)
    rows = sorted(graph.edges(), key=lambda edge: (str(edge[0]), str(edge[1])))
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        if header:
            writer.writerow(["User_ID", "Item_ID", "Click"])
        for user, item, clicks in rows:
            writer.writerow([user, item, clicks])
    return len(rows)


# ----------------------------------------------------------------------
# Array persistence (memory-mapped directory)
# ----------------------------------------------------------------------
def _as_snapshot(graph) -> IndexedGraph:
    if isinstance(graph, IndexedGraph):
        return graph
    return graph.indexed()


def _id_array(ids: list):
    """Node ids as a unicode array (ids stringify, as in the text format)."""
    return np.array([str(node) for node in ids], dtype=str)


#: Schema revisions this build can read.  Bump the last entry when the
#: array layout changes; keep older readable revisions in the tuple.
_GRAPH_SCHEMA_VERSIONS = (1,)


def _check_schema_version(found, location) -> None:
    """Reject artifacts written by an unknown schema revision.

    A missing version (``None``) is accepted as revision 1 — directories
    written before the marker existed are layout-identical to v1.
    """
    if found is None:
        return
    if not isinstance(found, int) or found not in _GRAPH_SCHEMA_VERSIONS:
        raise SchemaVersionError(
            f"{location}: unsupported graph schema version {found!r} "
            f"(this build reads {_GRAPH_SCHEMA_VERSIONS})",
            found=found,
            supported=_GRAPH_SCHEMA_VERSIONS,
        )


_MEMMAP_ARRAYS = ("user_idx", "item_idx", "clicks")


def write_graph_memmap(graph, directory: str | Path) -> Path:
    """Persist a graph (or snapshot) as a directory of raw ``.npy`` files.

    Each edge array lands in its own ``.npy`` file, which
    :func:`read_graph_memmap` can open with ``mmap_mode="r"`` — the
    arrays then live in the page cache and are paged in on demand,
    bounding heap use for paper-scale graphs.
    """
    snapshot = _as_snapshot(graph)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "users.npy", _id_array(snapshot.users))
    np.save(directory / "items.npy", _id_array(snapshot.items))
    for name in _MEMMAP_ARRAYS:
        np.save(
            directory / f"{name}.npy",
            np.asarray(getattr(snapshot, name), dtype=np.int64),
        )
    meta = {
        "format": "repro-graph-memmap",
        "version": _GRAPH_SCHEMA_VERSIONS[-1],
        "num_users": snapshot.num_users,
        "num_items": snapshot.num_items,
        "num_edges": snapshot.num_edges,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return directory


def read_graph_memmap(directory: str | Path, mmap: bool = True) -> IndexedGraph:
    """Load a :func:`write_graph_memmap` directory back into a snapshot.

    With ``mmap=True`` (the default) the three edge arrays are opened
    memory-mapped read-only; everything downstream — the CSR/CSC
    accessors, :func:`repro.core.extraction_bitset.prune_fixpoint_arrays`
    — consumes them without materialising copies of the raw edge list.
    The id lists always load eagerly (the node-id round trip needs real
    strings).
    """
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    if meta.get("format") != "repro-graph-memmap":
        raise ClickTableError(f"{directory} is not a graph-memmap directory")
    _check_schema_version(meta.get("version"), directory)
    mode = "r" if mmap else None
    arrays = {
        name: np.load(directory / f"{name}.npy", mmap_mode=mode, allow_pickle=False)
        for name in _MEMMAP_ARRAYS
    }
    users = [str(user) for user in np.load(directory / "users.npy", allow_pickle=False)]
    items = [str(item) for item in np.load(directory / "items.npy", allow_pickle=False)]
    if len(users) != meta["num_users"] or len(items) != meta["num_items"]:
        raise ClickTableError(f"{directory}: meta.json disagrees with the id arrays")
    # Arrays were persisted canonical (write path snapshots are), so the
    # plain constructor — which never copies — keeps them memory-mapped.
    return IndexedGraph(
        users, items, arrays["user_idx"], arrays["item_idx"], arrays["clicks"]
    )
