from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hypernest.hypergraph as hypergraph
import oracles
from conftest import hypergraphs
from hypernest import (
    FormatError,
    Hypergraph,
    filter_by_size,
    ingest_simplex,
    is_connected,
    largest_connected_component,
    load_plain,
    load_simplex_dataset,
    parse_plain,
    projected_density,
    write_plain,
)
from hypernest.hypergraph import (RepeatedNodeError, component_labels, dataset_files, load_auto,
                                  split_rows)

# small label domains, so rows repeat; "mixed" rows hold ints and strs
INT_LABEL = st.integers(0, 7)
MIXED_LABEL = st.one_of(INT_LABEL, st.sampled_from("abcdefg"))


@st.composite
def label_rows(draw, label=MIXED_LABEL, max_rows: int = 25):
    rows = draw(st.lists(st.lists(label, min_size=1, max_size=5, unique=True),
                         min_size=1, max_size=max_rows))
    # reversed copies of earlier rows: equal as sets, in another order
    return rows + [rows[i][::-1] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]


class TestConstruction:
    def test_dedup_and_indexing(self):
        h = Hypergraph([[2, 1], [1, 2], [3]])
        assert h.m == 2
        assert h.n == 3
        assert oracles.label_sets(h) == frozenset({frozenset({1, 2}), frozenset({3})})

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph([[1, 2], []])

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError, match="duplicate node"):
            Hypergraph([[1, 1, 2]])

    def test_duplicate_node_reports_first_bad_row(self):
        # rows 1 and 3 repeat a node; row 2 repeats row 0 and is dropped later
        with pytest.raises(RepeatedNodeError) as err:
            Hypergraph([["a", "b"], [2, "x", 2], ["b", "a"], ["c", "c"]])
        assert (err.value.row, err.value.labels) == (1, (2, "x", 2))
        assert str(err.value) == "duplicate node within hyperedge (2, 'x', 2)"

    def test_edges_sorted_by_internal_id(self):
        h = Hypergraph([["b", "a"], ["a", "c"]])
        for edge in h.edges:
            assert list(edge) == sorted(edge)

    @given(hypergraphs())
    def test_membership_round_trip(self, h):
        rebuilt = [[] for _ in range(h.n)]
        for eid, edge in enumerate(h.edges):
            for u in edge:
                rebuilt[u].append(eid)
        ptr = h.memb_ptr.tolist()
        assert [h.memb_ids[a:b].tolist() for a, b in zip(ptr, ptr[1:])] == rebuilt

    @given(hypergraphs())
    def test_every_member_exists(self, h):
        for edge in h.edges:
            assert all(0 <= u < h.n for u in edge)
        # no isolated nodes: every node sits in some hyperedge
        assert (h.degrees > 0).all() and h.degrees.size == h.n


class TestArrayModel:
    """The CSR arrays against brute-force oracles (``tests/oracles.py``)."""

    @given(label_rows())
    # a dropped row between kept ones, listing its labels in another order
    @example([["b", "a", 3], ["x"], [3, "a", "b"], ["a", "y"]])
    def test_matches_oracle_constructor(self, rows):
        h = Hypergraph(rows)
        assert (h.labels, h.edges) == oracles.label_rows(rows)
        assert split_rows(h.edge_ptr, h.edge_nodes) == [list(e) for e in h.edges]
        assert h.sizes.tolist() == [len(e) for e in h.edges]
        # each label names one id
        assert len(set(h.labels)) == h.n
        assert [list(row) for row in h.iter_label_edges()] == [
            oracles.sorted_labels(h, e) for e in range(h.m)]

    @pytest.mark.parametrize("rows", [[[1, 2], []], [[1, 2], [3, 1, 3]], [["a", 1, "a"]]])
    def test_empty_or_repeating_row_rejected(self, rows):
        with pytest.raises(ValueError):
            Hypergraph(rows)

    @given(label_rows())
    def test_components_match_bfs(self, rows):
        h = Hypergraph(rows)
        comps = oracles.components(h)
        # each node is labeled with the smallest node of its component
        assert component_labels(h).tolist() == [min(c) for u in range(h.n) for c in comps if u in c]
        assert is_connected(h) == (len(comps) == 1)

    @given(label_rows())
    @example(rows=[["a", "b"], [1, 2]])  # the mixed-label tie keeps the int component
    def test_lcc_matches_oracle(self, rows):
        h = Hypergraph(rows)
        comps = oracles.components(h)
        best = max(len(c) for c in comps)
        # ties go to the component holding the smallest label, ints first
        key = lambda u: (isinstance(h.labels[u], str), h.labels[u])  # noqa: E731
        pick = min((c for c in comps if len(c) == best), key=lambda c: min(map(key, c)))
        kept = [oracles.sorted_labels(h, e) for e in range(h.m) if h.edges[e][0] in pick]
        out = largest_connected_component(h)
        if len(kept) == h.m:
            assert out is h
        else:
            assert (out.labels, out.edges) == oracles.label_rows(kept)

    @given(label_rows(), st.data())
    def test_subhypergraph_matches_label_sorted_rebuild(self, rows, data):
        h = Hypergraph(rows)
        ids = data.draw(st.lists(st.integers(0, h.m - 1), max_size=h.m))
        sub = h.subhypergraph(np.unique(np.array(ids, dtype=np.int64)))
        expect = oracles.label_rows([oracles.sorted_labels(h, e) for e in sorted(set(ids))])
        assert (sub.labels, sub.edges) == expect

    @pytest.mark.parametrize("chunk", [1, 7])
    @given(h=hypergraphs())
    def test_projected_density_at_any_chunk_size(self, chunk, h):
        if h.n < 2:
            return
        pairs = {(u, v) for e in h.edges for u in e for v in e if u < v}
        with mock.patch.object(hypergraph, "_CHUNK_ENCOUNTERS", chunk):
            assert projected_density(h) == len(pairs) / (h.n * (h.n - 1) // 2)

    def test_label_order_fallbacks(self):
        # ints beyond int64 and labels that do not compare take the slow paths
        big = Hypergraph([[2**70, 1], [3, 2**70]])
        assert list(big.iter_label_edges()) == [(1, 2**70), (3, 2**70)]
        assert np.array_equal(big.edge_nodes, [0, 1, 0, 2])
        mixed = Hypergraph([[(1,), 2], [3, 2]])
        assert list(mixed.iter_label_edges()) == [((1,), 2), (2, 3)]


class TestIngestSimplex:
    def test_basic(self):
        h = ingest_simplex([2, 3], [1, 2, 1, 2, 3])
        assert oracles.label_sets(h) == frozenset({frozenset({1, 2}), frozenset({1, 2, 3})})

    def test_multiedge_collapsed(self):
        h = ingest_simplex([2, 2], [1, 2, 2, 1])
        assert h.m == 1
        assert oracles.label_sets(h) == frozenset({frozenset({1, 2})})

    def test_length_mismatch(self):
        with pytest.raises(FormatError, match="sum to"):
            ingest_simplex([2, 3], [1, 2, 3])

    def test_non_positive_size(self):
        with pytest.raises(FormatError, match="non-positive"):
            ingest_simplex([2, 0], [1, 2])

    def test_repeated_node_in_record(self):
        with pytest.raises(FormatError, match="repeats"):
            ingest_simplex([2], [5, 5])
        with pytest.raises(FormatError, match=r"^record 2 repeats a node: \[7, 8, 7\]$"):
            ingest_simplex([2, 1, 3, 2], [1, 2, 3, 7, 8, 7, 4, 4])

    def test_file_loader_ignores_times(self, tmp_path):
        (tmp_path / "toy-nverts.txt").write_text("2\n3\n")
        (tmp_path / "toy-simplices.txt").write_text("1\n2\n1\n2\n3\n")
        (tmp_path / "toy-times.txt").write_text("10\n20\n")
        for arg in (tmp_path, tmp_path / "toy", tmp_path / "toy-nverts.txt"):
            h = load_simplex_dataset(arg)
            assert h.m == 2 and h.n == 3

    def test_dataset_files_per_format(self, tmp_path):
        (tmp_path / "toy-nverts.txt").write_text("2\n3\n")
        plain = tmp_path / "toy.txt"
        plain.write_text("1 2\n")
        pair = [tmp_path / "toy-nverts.txt", tmp_path / "toy-simplices.txt"]
        for arg in (tmp_path, tmp_path / "toy", tmp_path / "toy-nverts.txt"):
            assert dataset_files(arg) == dataset_files(arg, "simplex") == pair
            assert dataset_files(arg, "plain") == [arg]
        assert dataset_files(plain) == dataset_files(plain, "plain") == [plain]
        assert dataset_files(plain, "simplex") == [tmp_path / "toy.txt-nverts.txt",
                                                   tmp_path / "toy.txt-simplices.txt"]
        (tmp_path / "two-nverts.txt").write_text("2\n")
        with pytest.raises(FormatError, match="expected exactly one \\*-nverts.txt, found 2$"):
            dataset_files(tmp_path)

    @pytest.mark.parametrize("fmt", ["Plain", "simplex ", ""])
    def test_unknown_format_is_refused(self, tmp_path, fmt):
        # it was read as simplex: "missing dataset file x-nverts.txt"
        (tmp_path / "x").write_text("1 2\n")
        with pytest.raises(ValueError) as err:
            load_auto(tmp_path / "x", fmt)
        assert str(err.value) == f"unknown format {fmt!r}; choose from auto, plain, simplex"


    @pytest.mark.parametrize("nverts,simplices,message", [
        (b"2\n3\n", b"1\n2\n1\n2\n", "record sizes sum to 5 but 4 node entries were given"),
        (b"2\n0\n", b"1\n2\n", "record 1 has non-positive size 0"),
        # a sign, 19 or more digits and invalid UTF-8 take the text tokenizer
        (b"2\n-1\n1\n", b"1\n2\n", "record 1 has non-positive size -1"),
        (b"99999999999999999999\n", b"1\n2\n",
         "record sizes sum to 99999999999999999999 but 2 node entries were given"),
        # 18-digit sizes whose sum passes int64
        (b"999999999999999999\n" * 11, b"1\n",
         "record sizes sum to 10999999999999999989 but 1 node entries were given"),
        (b"2\n", b"5\n5\n", "record 0 repeats a node: [5, 5]"),
        (b"2\nx\n", b"1\n2\n",
         "{dir}/d-nverts.txt: non-integer entry (invalid literal for int() with base 10: 'x')"),
        (b"2\n", b"1\n\xff\n", "{dir}/d-simplices.txt: non-integer entry ('utf-8' codec can't "
         "decode byte 0xff in position 2: invalid start byte)"),
    ])
    def test_malformed_files_keep_their_messages(self, tmp_path, nverts, simplices, message):
        (tmp_path / "d-nverts.txt").write_bytes(nverts)
        (tmp_path / "d-simplices.txt").write_bytes(simplices)
        with pytest.raises(FormatError) as err:
            load_simplex_dataset(tmp_path / "d")
        assert str(err.value) == message.format(dir=tmp_path)

    def test_text_tokenizer_reads_what_int_reads(self, tmp_path):
        (tmp_path / "d-nverts.txt").write_bytes(b"2\r1\n")  # a bare CR
        (tmp_path / "d-simplices.txt").write_bytes(b"+5\n1_0\n007\n")
        h = load_simplex_dataset(tmp_path / "d")
        assert h.labels == (5, 10, 7)
        assert h.edge_ptr.tolist() == [0, 2, 3]


# pieces of a plain file: the integer grammar that is read in array passes,
# and bytes that send a file to the text parser
GRAMMAR_PIECES = st.sampled_from([b"1", b"2", b"3", b"007", b"12", b"1" * 18, b" ", b"  ",
                                  b"\t", b"\n", b"\n", b"\r\n", b"\n\n"])
OTHER_PIECES = st.sampled_from([b"#", b"# c\n", b"+5", b"-3", b"1_0", b"9" * 19, b"\r", b"\x0b",
                                b"\x0c", b"\x1c", b"\xc2\xa0", b"\xe2\x80\x83", b"\xc3\xa9",
                                b"\xd9\xa3", b"\xff", b"a", b"\x00"])


@st.composite
def plain_bytes(draw) -> bytes:
    pieces = draw(st.lists(GRAMMAR_PIECES, max_size=40))
    # about half of the files hold the integer grammar alone
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(OTHER_PIECES))
    return b"".join(pieces)


def load_outcome(load) -> tuple:
    """The labels and the four CSR arrays that ``load()`` builds, or the type
    and message of its error."""
    try:
        h = load()
    except ValueError as exc:
        return type(exc), str(exc)
    return (h.labels, h.edge_ptr.tolist(), h.edge_nodes.tolist(), h.memb_ptr.tolist(),
            h.memb_ids.tolist())


class TestPlainFormat:
    @given(plain_bytes())
    @example(b"1 2\r3 4\n")  # a bare CR ends a line
    @example(b"1 2\r\n\r\n3 2 1\r\n2 1")
    @example(b"1 2\n\n5 007 5\n")
    @example(b"\n \t\n")
    @example(b"")
    @example(b"1234567890123456789 1\n")
    @example(b"123456789012345678 1\n")
    def test_load_plain_matches_the_text_parser(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("plain") / "h.txt"
        path.write_bytes(data)
        with open(path) as fh:
            expected = load_outcome(lambda: parse_plain(fh))
        assert load_outcome(lambda: load_plain(path)) == expected

    def test_parse(self):
        h = parse_plain(["# comment", "1 2 3", "", "2 3"])
        assert oracles.label_sets(h) == frozenset({frozenset({1, 2, 3}), frozenset({2, 3})})

    def test_string_labels(self):
        h = parse_plain(["alice bob", "bob carol"])
        assert h.n == 3

    def test_repeated_token(self):
        with pytest.raises(FormatError, match="repeated"):
            parse_plain(["1 2 1"])

    def test_repeated_token_names_its_line(self):
        # skipped comment and blank lines still count; the first bad line is named
        lines = ["# header", "1 2", "", "  ", "3 x", "# note", "01  2\t1", "5 5"]
        with pytest.raises(FormatError, match=r"^line 7: repeated node in hyperedge '1 2 1'$"):
            parse_plain(lines)

    def test_empty_input(self):
        with pytest.raises(FormatError, match="no hyperedges"):
            parse_plain(["# nothing", ""])

    def test_write_refuses_a_line_that_reads_as_a_comment(self, tmp_path):
        path = tmp_path / "h.txt"
        with pytest.raises(ValueError, match="^cannot write the plain format: label '#a' would"):
            write_plain(parse_plain(["b #a", "b c"]), path)
        assert not path.exists()
        # a "#" label after the first of its line reads back
        h = parse_plain(["1 #a", "b c"])
        write_plain(h, path)
        assert path.read_text() == "1 #a\nb c\n"
        assert oracles.label_sets(load_plain(path)) == oracles.label_sets(h)

    @pytest.mark.parametrize("rows,label", [
        ([["a b", "c"]], "'a b'"),
        ([["", "c"], ["c", "d"]], "''"),
        ([["1", 1]], "1"),
        ([[1, "x"], ["1", "y"]], "'1'"),
    ])
    def test_write_refuses_labels_that_read_back_otherwise(self, tmp_path, rows, label):
        # written, these read back with 3 nodes for 2, with n = 2 for 3, as a
        # repeated node, and with the int 1 and the str "1" merged
        path = tmp_path / "h.txt"
        with pytest.raises(ValueError) as err:
            write_plain(Hypergraph(rows), path)
        assert str(err.value) == (f"cannot write the plain format: label {label} would not "
                                  "read back as one node of its own")
        assert not path.exists()

    @given(label_rows(st.one_of(INT_LABEL, st.sampled_from(["a", "1", "02", "#x", "", "a b",
                                                             "\t", "\xa0", "c\rd"]))))
    def test_written_labels_read_back_as_the_same_hypergraph(self, tmp_path_factory, rows):
        # a file that is written reads back as the hypergraph, each label as
        # the plain format reads its text; a refused one is never written
        h = Hypergraph(rows)
        path = tmp_path_factory.mktemp("plain") / "h.txt"
        try:
            write_plain(h, path)
        except ValueError:
            assert not path.exists()
            return
        back = {frozenset(hypergraph._plain_label(str(lab)) for lab in edge)
                for edge in h.iter_label_edges()}
        assert oracles.label_sets(load_plain(path)) == back
        assert load_plain(path).n == h.n

    def test_int_labels_are_not_read_back_one_by_one(self, tmp_path):
        with mock.patch.object(hypergraph, "_plain_label", side_effect=AssertionError):
            write_plain(Hypergraph([[1, 2], [2, -3]]), tmp_path / "h.txt")
        assert (tmp_path / "h.txt").read_text() == "1 2\n-3 2\n"

    @given(hypergraphs())
    def test_write_load_round_trip(self, tmp_path_factory, h):
        path = tmp_path_factory.mktemp("plain") / "h.txt"
        write_plain(h, path)
        assert oracles.label_sets(load_plain(path)) == oracles.label_sets(h)


class TestFilterBySize:
    def test_drops_large_edges_and_their_nodes(self):
        h = Hypergraph([[1, 2], list(range(1, 27))])
        out = filter_by_size(h, 25)
        assert oracles.label_sets(out) == frozenset({frozenset({1, 2})})
        assert out.n == 2

    def test_identity_at_max(self):
        h = Hypergraph([[1, 2], [1, 2, 3]])
        assert filter_by_size(h, h.max_size) is h

    def test_invalid_max(self):
        with pytest.raises(ValueError):
            filter_by_size(Hypergraph([[1]]), 0)


class TestLargestConnectedComponent:
    def test_picks_bigger_component(self):
        h = Hypergraph([[1, 2], [2, 3], [7, 8]])
        out = largest_connected_component(h)
        assert oracles.label_sets(out) == frozenset({frozenset({1, 2}), frozenset({2, 3})})

    def test_connected_identity(self):
        h = Hypergraph([[1, 2], [2, 3]])
        assert largest_connected_component(h) is h

    def test_tie_break_smallest_min_label(self):
        h = Hypergraph([[5, 6], [1, 2]])
        out = largest_connected_component(h)
        assert oracles.label_sets(out) == frozenset({frozenset({1, 2})})

    def test_tie_of_labels_that_do_not_compare_keeps_lowest_node_id(self):
        # a tuple label and an int label do not compare; node ids follow first appearance
        assert largest_connected_component(Hypergraph([[(1,)], [2]])).labels == ((1,),)
        assert largest_connected_component(Hypergraph([[2], [(1,)]])).labels == (2,)

    def test_is_connected(self):
        assert is_connected(Hypergraph([[1, 2], [2, 3]]))
        assert not is_connected(Hypergraph([[1, 2], [3, 4]]))

    @given(hypergraphs())
    def test_lcc_never_grows(self, h):
        out = largest_connected_component(h)
        assert out.m <= h.m and out.n <= h.n

    @given(hypergraphs())
    def test_filter_then_lcc_idempotent(self, h):
        cap = min(len(e) for e in h.edges) + 1  # keeps at least one edge
        once = largest_connected_component(filter_by_size(h, cap))
        twice = largest_connected_component(filter_by_size(once, cap))
        assert oracles.label_sets(twice) == oracles.label_sets(once)


class TestProjectedDensity:
    def test_single_triangle(self):
        assert projected_density(Hypergraph([[1, 2, 3]])) == 1.0

    def test_two_disjoint_pairs(self, disconnected_pairs):
        assert projected_density(disconnected_pairs) == pytest.approx(1 / 3)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            projected_density(Hypergraph([[1]]))
