"""Tests for click-table file I/O."""

import csv

import pytest

from repro.errors import ClickTableError
from repro.graph import BipartiteGraph, read_click_table, write_click_table
from repro.graph.io import iter_click_table


def write(tmp_path, text, name="clicks.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRead:
    def test_csv_with_header(self, tmp_path):
        path = write(tmp_path, "User_ID,Item_ID,Click\nu1,i1,3\nu2,i1,1\n")
        graph = read_click_table(path)
        assert graph.num_users == 2
        assert graph.get_click("u1", "i1") == 3

    def test_csv_without_header(self, tmp_path):
        path = write(tmp_path, "u1,i1,3\n")
        graph = read_click_table(path)
        assert graph.total_clicks == 3

    def test_tsv_detected(self, tmp_path):
        path = write(tmp_path, "u1\ti1\t2\nu2\ti2\t4\n")
        graph = read_click_table(path)
        assert graph.get_click("u2", "i2") == 4

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = write(tmp_path, "# comment\nu1,i1,1\n\nu2,i2,2\n")
        graph = read_click_table(path)
        assert graph.num_edges == 2

    def test_bad_column_count(self, tmp_path):
        path = write(tmp_path, "u1,i1\n")
        with pytest.raises(ClickTableError) as excinfo:
            read_click_table(path)
        assert excinfo.value.line_number == 1

    def test_non_integer_click(self, tmp_path):
        path = write(tmp_path, "u1,i1,many\n")
        with pytest.raises(ClickTableError):
            read_click_table(path)

    def test_nonpositive_click(self, tmp_path):
        path = write(tmp_path, "u1,i1,0\n")
        with pytest.raises(ClickTableError):
            read_click_table(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        graph = read_click_table(path)
        assert len(graph) == 0

    def test_whitespace_stripped(self, tmp_path):
        path = write(tmp_path, " u1 , i1 , 3 \n")
        assert read_click_table(path).get_click("u1", "i1") == 3

    def test_iter_streams_records(self, tmp_path):
        path = write(tmp_path, "u1,i1,1\nu2,i2,2\n")
        assert list(iter_click_table(path)) == [("u1", "i1", 1), ("u2", "i2", 2)]


class TestWrite:
    def test_round_trip(self, tmp_path, simple_graph):
        path = tmp_path / "out.csv"
        count = write_click_table(simple_graph, path)
        assert count == simple_graph.num_edges
        assert read_click_table(path) == simple_graph

    def test_deterministic_output(self, tmp_path):
        a = BipartiteGraph()
        a.add_click("u2", "i1", 1)
        a.add_click("u1", "i1", 1)
        b = BipartiteGraph()
        b.add_click("u1", "i1", 1)
        b.add_click("u2", "i1", 1)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_click_table(a, path_a)
        write_click_table(b, path_b)
        assert path_a.read_text() == path_b.read_text()

    def test_no_header_option(self, tmp_path, simple_graph):
        path = tmp_path / "raw.csv"
        write_click_table(simple_graph, path, header=False)
        first = path.read_text().splitlines()[0]
        assert "User_ID" not in first

    def test_tsv_round_trip(self, tmp_path, simple_graph):
        path = tmp_path / "out.tsv"
        write_click_table(simple_graph, path, delimiter="\t")
        assert read_click_table(path) == simple_graph


# ----------------------------------------------------------------------
# Delimiter sniffing, typed malformed-row errors, chunked/array IO
# ----------------------------------------------------------------------
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MalformedRowError
from repro.graph.io import (
    _HEADER_TOKENS,
    _sniff_delimiter,
    read_click_table_indexed,
    read_graph_memmap,
    write_graph_memmap,
)



def edge_table(snapshot):
    """A snapshot's click table as an id-keyed dict (order-free compare)."""
    return {
        (snapshot.users[int(u)], snapshot.items[int(i)]): int(c)
        for u, i, c in zip(snapshot.user_idx, snapshot.item_idx, snapshot.clicks)
    }


def graph_table(graph):
    return {(user, item): clicks for user, item, clicks in graph.edges()}


class TestDelimiterSniffing:
    def test_tab_in_content_wins(self):
        assert _sniff_delimiter("u1\ti1\t2\n") == "\t"

    def test_comma_line_stays_comma(self):
        assert _sniff_delimiter("u1,i1,2\n") == ","

    def test_single_column_defaults_to_comma(self):
        assert _sniff_delimiter("justonecolumn\n") == ","

    def test_whitespace_only_line_defaults_to_comma(self):
        assert _sniff_delimiter(" \t \n") == ","

    def test_trailing_tab_damage_does_not_flip_csv(self):
        # A comma row with trailing-tab damage must stay comma-separated.
        assert _sniff_delimiter("u1,i1,2\t\n") == ","

    def test_comment_with_tab_does_not_vote(self, tmp_path):
        path = write(tmp_path, "# a\tcomment\tfull\tof\ttabs\nu1,i1,3\n")
        graph = read_click_table(path)
        assert graph.get_click("u1", "i1") == 3

    def test_single_column_line_raises_not_misparses(self, tmp_path):
        path = write(tmp_path, "justonecolumn\n")
        with pytest.raises(MalformedRowError):
            read_click_table(path)


class TestMalformedRowError:
    def test_is_value_error_and_click_table_error(self, tmp_path):
        path = write(tmp_path, "u1,i1,3\nu2,i2\n")
        with pytest.raises(ValueError):
            read_click_table(path)
        with pytest.raises(ClickTableError):
            read_click_table(path)

    def test_carries_line_number_and_row(self, tmp_path):
        path = write(tmp_path, "u1,i1,3\nu2,i2,many\n")
        with pytest.raises(MalformedRowError) as excinfo:
            read_click_table(path)
        assert excinfo.value.line_number == 2
        assert excinfo.value.row == ["u2", "i2", "many"]

    def test_header_after_comments_still_detected(self, tmp_path):
        path = write(tmp_path, "# preamble\n\nUser_ID,Item_ID,Click\nu1,i1,3\n")
        assert read_click_table(path).get_click("u1", "i1") == 3


class TestIndexedIngestion:
    def test_matches_dict_path(self, tmp_path):
        path = write(tmp_path, "u1,i1,3\nu2,i1,1\nu1,i2,2\n")
        snapshot = read_click_table_indexed(path)
        assert edge_table(snapshot) == graph_table(read_click_table(path))

    def test_chunk_boundaries_do_not_change_result(self, tmp_path):
        rows = "".join(f"u{n % 5},i{n % 3},{1 + n % 4}\n" for n in range(20))
        path = write(tmp_path, rows)
        whole = read_click_table_indexed(path)
        chunked = read_click_table_indexed(path, chunk_records=3)
        assert edge_table(whole) == edge_table(chunked)

    def test_duplicates_coalesce_across_chunks(self, tmp_path):
        path = write(tmp_path, "u1,i1,1\nu2,i2,5\nu1,i1,2\n")
        snapshot = read_click_table_indexed(path, chunk_records=2)
        assert snapshot.num_edges == 2
        assert edge_table(snapshot)[("u1", "i1")] == 3

    def test_ids_in_first_seen_order(self, tmp_path):
        path = write(tmp_path, "zeta,i9,1\nalpha,i1,1\n")
        snapshot = read_click_table_indexed(path)
        assert list(snapshot.users) == ["zeta", "alpha"]

    def test_empty_file(self, tmp_path):
        snapshot = read_click_table_indexed(write(tmp_path, ""))
        assert snapshot.num_edges == 0


class TestArrayPersistence:
    def test_memmap_round_trip(self, tmp_path, simple_graph):
        directory = write_graph_memmap(simple_graph, tmp_path / "graph_dir")
        loaded = read_graph_memmap(directory)
        assert edge_table(loaded) == graph_table(simple_graph)

    def test_memmap_arrays_are_memory_mapped(self, tmp_path, simple_graph):
        directory = write_graph_memmap(simple_graph, tmp_path / "graph_dir")
        loaded = read_graph_memmap(directory)
        assert isinstance(loaded.user_idx, np.memmap)
        eager = read_graph_memmap(directory, mmap=False)
        assert not isinstance(eager.user_idx, np.memmap)

    def test_memmap_reload_extraction_equivalence(self, tmp_path, simple_graph):
        """CSR/CSC built off the memmap equal the in-memory snapshot's."""
        directory = write_graph_memmap(simple_graph, tmp_path / "graph_dir")
        loaded = read_graph_memmap(directory)
        live = simple_graph.indexed()
        for built, expected in zip(loaded.csr_arrays(), live.csr_arrays()):
            assert np.array_equal(built, expected)
        for built, expected in zip(loaded.csc_arrays(), live.csc_arrays()):
            assert np.array_equal(built, expected)

    def test_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "meta.json").write_text('{"format": "something-else"}')
        with pytest.raises(ClickTableError):
            read_graph_memmap(tmp_path)

    def test_rejects_meta_id_mismatch(self, tmp_path, simple_graph):
        directory = write_graph_memmap(simple_graph, tmp_path / "graph_dir")
        meta_path = directory / "meta.json"
        import json

        meta = json.loads(meta_path.read_text())
        meta["num_users"] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ClickTableError):
            read_graph_memmap(directory)


class TestSchemaVersioning:
    """Unknown schema revisions of a memmap directory raise a typed error."""

    def test_memmap_unknown_schema_raises_typed_error(self, tmp_path, simple_graph):
        import json

        from repro.errors import SchemaVersionError

        directory = write_graph_memmap(simple_graph, tmp_path / "graph_dir")
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SchemaVersionError) as excinfo:
            read_graph_memmap(directory)
        assert excinfo.value.found == 99

    def test_non_integer_schema_version_raises(self, tmp_path, simple_graph):
        import json

        from repro.errors import SchemaVersionError

        directory = write_graph_memmap(simple_graph, tmp_path / "graph_dir")
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = "two"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SchemaVersionError):
            read_graph_memmap(directory)

    def test_memmap_without_version_reads_as_legacy(self, tmp_path, simple_graph):
        import json

        directory = write_graph_memmap(simple_graph, tmp_path / "graph_dir")
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["version"]
        meta_path.write_text(json.dumps(meta))
        assert edge_table(read_graph_memmap(directory)) == graph_table(simple_graph)


click_records_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9).map(lambda n: f"u{n}"),
        st.integers(min_value=0, max_value=9).map(lambda n: f"i{n}"),
        st.integers(min_value=1, max_value=5),
    ),
    max_size=40,
)


@given(click_records_strategy)
@settings(max_examples=40, deadline=None)
def test_property_text_and_array_round_trips_agree(tmp_path_factory, records):
    """write → read agrees across the dict, chunked and memmap paths."""
    graph = BipartiteGraph()
    for user, item, clicks in records:
        graph.add_click(user, item, clicks)
    tmp_path = tmp_path_factory.mktemp("roundtrip")
    table = tmp_path / "clicks.csv"
    write_click_table(graph, table)
    via_dict = read_click_table(table)
    via_arrays = read_click_table_indexed(table, chunk_records=7)
    assert via_dict == graph
    assert edge_table(via_arrays) == graph_table(graph)
    directory = write_graph_memmap(graph, tmp_path / "graph_dir")
    assert edge_table(read_graph_memmap(directory)) == graph_table(graph)


# Each step's ids draw from a wider range (``<U2`` up to ``<U5``), and an
# item may be an ``int``, which the writer stringifies.
_steps = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.integers(0, 9999), st.booleans(), st.integers(0, 9999), st.integers(1, 5)),
            max_size=8,
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)


def _step_records(step, draws):
    width = 10 ** min(step + 1, 4)
    return [
        (f"u{user % width}", item % 100 if plain else f"i{item % width}", clicks)
        for user, plain, item, clicks in draws
    ]


@given(_steps)
@settings(max_examples=40, deadline=None)
def test_a_write_encodes_only_the_ids_added_since_the_last(tmp_path_factory, steps):
    """Merged and reloaded snapshots write the bytes a cold write does, encoding only new ids."""
    from repro import obs

    tmp_path = tmp_path_factory.mktemp("ids")
    graph = BipartiteGraph()
    encoded = 0
    for step, (draws, reload) in enumerate(steps):
        graph.add_clicks(_step_records(step, draws))
        graph.indexed()
        recorder = obs.Recorder()
        with obs.recording(recorder):
            directory = write_graph_memmap(graph, tmp_path / f"v{step}")
        cold = write_graph_memmap(graph.copy(), tmp_path / f"cold{step}")
        for path in sorted(cold.iterdir()):
            assert (directory / path.name).read_bytes() == path.read_bytes(), path.name
        ids = graph.num_users + graph.num_items
        assert recorder.counters.get("graph.io.ids_encoded", 0) == ids - encoded
        encoded = ids
        if reload:
            # A loaded snapshot holds its encoded ids as read.
            graph = BipartiteGraph.from_indexed(read_graph_memmap(directory))


# ----------------------------------------------------------------------
# The table reader inlines its common row; the loop it replaced stays
# here as the reference every generated table must agree with.
# ----------------------------------------------------------------------
def reference_iter_click_table(path):
    """``iter_click_table`` as it was written before the common-row path."""
    with open(path, newline="") as handle:
        delimiter = ","
        for line in handle:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                delimiter = _sniff_delimiter(line)
                break
        handle.seek(0)
        reader = csv.reader(handle, delimiter=delimiter)
        seen_content = False
        for line_number, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if not seen_content:
                seen_content = True
                if any(cell.strip().lower() in _HEADER_TOKENS for cell in row):
                    continue
            if len(row) != 3:
                raise MalformedRowError(
                    f"expected 3 columns, got {len(row)}",
                    line_number=line_number,
                    row=row,
                )
            user, item, raw_clicks = (cell.strip() for cell in row)
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


def read_outcome(reader, path):
    """The records a reader yields, then the error it stops on (if any)."""
    records = []
    try:
        for record in reader(path):
            records.append(record)
    except Exception as error:  # noqa: BLE001 - the failure itself is compared
        failure = (
            type(error),
            getattr(error, "line_number", None),
            getattr(error, "row", None),
            str(error),
        )
        return records, failure
    return records, None


_good_ids = st.sampled_from(["u1", "i2", " u3 ", "i4\t", '"u,6"', '"i\t7"', "user"])
_good_clicks = st.sampled_from(["1", " 7 ", "12", "+2", '"9"', '" 3 "'])
_any_cells = st.sampled_from(["", "  ", "#u5", "Item", "0", "-3", "many", "1.5", '"u,6"', "4"])
_headers = st.lists(
    st.sampled_from(["User_ID", "user_id", "ITEM_ID", "Item", "click", "CLICKS", "ts"]),
    min_size=2,
    max_size=4,
)
_good_rows = st.tuples(st.just("cells"), st.tuples(_good_ids, _good_ids, _good_clicks).map(list))
_lines = st.one_of(
    st.tuples(st.just("blank"), st.sampled_from(["", " ", "\t", "  \t "])),
    st.tuples(st.just("comment"), st.sampled_from(["# note", "  # indented", "#a,b\tc"])),
    st.tuples(st.just("cells"), _headers),
    _good_rows,
    _good_rows,
    _good_rows,
    # Blank cells, comments in the first cell, and bad or missing clicks.
    st.tuples(st.just("cells"), st.lists(_any_cells, min_size=3, max_size=3)),
    st.tuples(st.just("cells"), st.lists(_any_cells, min_size=2, max_size=4)),
)


@st.composite
def click_tables(draw):
    """Table text mixing every row kind the reader tells apart."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    parts = []
    for kind, payload in draw(st.lists(_lines, max_size=12)):
        if kind == "cells":
            # Mostly the table's delimiter; sometimes the other one.
            payload = draw(st.sampled_from([delimiter] * 6 + [",", "\t"])).join(payload)
        parts.append(payload + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(parts)


@given(click_tables())
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_reference_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("table") / "clicks.csv"
    path.write_bytes(text.encode())
    assert read_outcome(iter_click_table, path) == read_outcome(reference_iter_click_table, path)
