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
from hypernest.hypergraph import RepeatedNodeError, component_labels, dataset_files, split_rows

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


class TestPlainFormat:
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
