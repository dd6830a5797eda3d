from __future__ import annotations

import json
from graphlib import TopologicalSorter
from math import comb
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given

import oracles
from conftest import hypergraphs, overlap_entries
import hypernest.hypergraph as hypergraph
import hypernest.linegraph as linegraph
from hypernest import (
    Hypergraph,
    adjacent_layer_dag,
    build_encapsulation_dag,
    build_overlap_graph,
    encapsulation_counts,
    preprocess,
    projected_density,
    rooted_heights,
)
from hypernest.hypergraph import split_rows


class TestEncapsulationDag:
    def test_disconnected_pair_stays_isolated(self):
        # {e,f} shares node e with a larger hyperedge but is contained in
        # nothing and contains nothing
        h = Hypergraph([["e", "f"], ["a", "b", "c", "e"], ["b", "e"]])
        dag = build_encapsulation_dag(h)
        assert np.diff(dag.out_ptr)[0] == 0
        assert np.diff(dag.in_csr[0])[0] == 0
        assert oracles.dag_edges(dag) == {(1, 2)}

    def test_single_edge(self):
        dag = build_encapsulation_dag(Hypergraph([[1, 2]]))
        assert dag.num_vertices == 1
        assert dag.edge_count == 0

    def test_chain(self, chain_hypergraph):
        dag = build_encapsulation_dag(chain_hypergraph)
        assert oracles.dag_edges(dag) == {(0, 1), (0, 2), (1, 2)}

    @given(hypergraphs())
    def test_matches_all_pairs_oracle(self, h):
        dag = build_encapsulation_dag(h)
        assert oracles.dag_edges(dag) == oracles.encapsulation_edges(h)

    @given(hypergraphs())
    def test_edge_semantics_and_transpose(self, h):
        dag, sets = build_encapsulation_dag(h), oracles.edge_sets(h)
        for i, j in oracles.dag_edges(dag):
            assert len(h.edges[i]) > len(h.edges[j])
            assert sets[j] < sets[i]
        transpose = {(j, i) for i, nbrs in enumerate(split_rows(*dag.in_csr)) for j in nbrs}
        assert transpose == oracles.dag_edges(dag)

    @given(hypergraphs())
    def test_transitively_closed(self, h):
        dag = build_encapsulation_dag(h)
        rows = oracles.out_rows(dag)
        reach = oracles.reachability(rows)
        for v, nbrs in enumerate(rows):
            assert set(nbrs) == reach[v]

    @given(hypergraphs())
    def test_overlap_fields_match_oracle(self, h):
        dag = build_encapsulation_dag(h)
        weights = oracles.overlap_weights(h)
        assert (dag.overlap_edges, dag.overlap_weight) == (len(weights), sum(weights.values()))

    def test_analyses_leave_transpose_unbuilt(self, chain_hypergraph):
        dag = build_encapsulation_dag(chain_hypergraph)
        encapsulation_counts(chain_hypergraph, dag)
        rooted_heights(dag, chain_hypergraph)
        assert "in_csr" not in vars(dag)
        assert split_rows(*dag.in_csr) == [[], [0], [0, 1]]

    @given(hypergraphs())
    def test_acyclic(self, h):
        dag = build_encapsulation_dag(h)
        rows = oracles.out_rows(dag)
        list(TopologicalSorter(dict(enumerate(rows))).static_order())  # raises on a cycle

    def test_sort_keys_that_would_overflow_are_refused(self):
        # the windowed builds sort one int64 key per (node, size layer, entry)
        huge = SimpleNamespace(n=2**62, m=1, sizes=np.array([2]), edge_nodes=np.array([0, 1]))
        with pytest.raises(ValueError, match="overflow"):
            build_encapsulation_dag(huge)

    @given(hypergraphs())
    def test_candidate_visits_within_bound(self, h):
        dag = build_encapsulation_dag(h)
        assert dag.candidate_visits <= h.m * h.max_size * int(h.degrees.max())


class TestOverlapGraph:
    def test_weight_and_normalization(self):
        h = Hypergraph([[1, 2, 3], [3, 4]])
        weight = overlap_entries(build_overlap_graph(h))[(0, 1)]
        assert weight == 1
        # normalized by the smaller hyperedge: |e_0 & e_1| / min(|e_0|, |e_1|)
        assert weight / min(h.sizes[0], h.sizes[1]) == pytest.approx(0.5)

    def test_disjoint_edges(self, disconnected_pairs):
        assert overlap_entries(build_overlap_graph(disconnected_pairs)) == {}

    def test_shared_node_adjacency(self):
        h = Hypergraph([["e", "f"], ["a", "b", "c", "e"], ["b", "e"]])
        g = build_overlap_graph(h)
        assert g.nbrs[g.ptr[0]:g.ptr[1]].tolist() == [1, 2]

    @given(hypergraphs())
    def test_matches_all_pairs_oracle(self, h):
        g = build_overlap_graph(h)
        got = {(i, j): w for (i, j), w in overlap_entries(g).items() if i < j}
        assert got == oracles.overlap_weights(h)

    @given(hypergraphs())
    def test_symmetry(self, h):
        g = build_overlap_graph(h)
        entries = overlap_entries(g)
        for (i, j), w in entries.items():
            assert entries[(j, i)] == w

    @given(hypergraphs())
    def test_totals_match_full_graph(self, h):
        g = build_overlap_graph(h)
        dag = build_encapsulation_dag(h)
        # each edge is listed from both ends
        edges, total_weight = g.nbrs.size // 2, int(g.weights.sum()) // 2
        assert (dag.overlap_edges, dag.overlap_weight) == (edges, total_weight)

    @given(hypergraphs())
    def test_every_containment_edge_overlaps(self, h):
        dag = build_encapsulation_dag(h)
        entries = overlap_entries(build_overlap_graph(h))
        for i, j in oracles.dag_edges(dag):
            assert entries[(i, j)] == len(h.edges[j])


# hypergraphs whose windows are empty for some rows (a size gap, a
# singleton layer with nothing one size smaller), whose hyperedges overlap
# others of their own size, and whose first and last rows gather nothing
# one size smaller
WINDOW_CASES = [
    [[1, 2, 3], [1]],
    [[1, 2], [2, 3], [1, 3], [1, 2, 3]],
    [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2], [4, 5], [6]],
    [[7], [1, 2, 3, 4], [1, 2, 3], [1, 2], [5, 6], [1, 3, 5, 6], [8]],
    [[1, 2, 3, 4, 5], [3, 4, 5], [5, 6, 7], [5]],
    # near misses: b shares |b| - 1 nodes with a, so its run of keys is one
    # short of containment. In the first the near miss is the last row's
    # only pair, so at every chunk size that run ends at its chunk's last key
    # and the containment test reads the sentinel pad; its first row gathers
    # nothing. In the others near misses sit between contained pairs, of
    # several sizes, and past rows gathering nothing.
    [[1, 2, 5], [1, 2, 3, 4]],
    [[1, 2, 3, 4, 5], [1, 2, 3, 6], [1, 2, 3], [2, 3, 4, 7], [4, 5], [5, 8]],
    [[9], [1, 2, 3, 4], [1, 2, 4, 5], [1, 3, 4], [2, 3, 6], [1, 2, 3, 4, 5, 6]],
    [[1, 2], [3, 4], [5, 6], [1, 2, 3], [3, 4, 5], [5, 6, 7, 1]],
]
CHUNKS = [1, 7, hypergraph._CHUNK_ENCOUNTERS]


def _restricted(dag, h):
    """``dag`` restricted to its edges between sizes one apart."""
    return dag.restrict(h.sizes[dag.sources] - h.sizes[dag.out_idx] == 1)


class TestChunkedKernel:
    """Chunk boundaries must not change either line graph: with one
    encounter per chunk every row is a chunk of its own, and an odd chunk
    size splits rows at uneven points. The DAG builds gather through
    per-row windows, some of them empty, so a chunk's rows need not hold
    any pair."""

    @staticmethod
    def _check(h):
        dag, adj, g = build_encapsulation_dag(h), adjacent_layer_dag(h), build_overlap_graph(h)
        weights = oracles.overlap_weights(h)
        assert oracles.dag_edges(dag) == oracles.encapsulation_edges(h)
        assert all(nbrs == sorted(nbrs) for nbrs in oracles.out_rows(dag))
        assert (dag.overlap_edges, dag.overlap_weight) == (len(weights), sum(weights.values()))
        assert dag.candidate_visits == oracles.gathered_encounters(h)
        assert (adj.out_ptr.tolist(), adj.out_idx.tolist()) == (
            _restricted(dag, h).out_ptr.tolist(), _restricted(dag, h).out_idx.tolist())
        assert adj.candidate_visits == oracles.gathered_encounters(h, adjacent=True)
        got = {(i, j): w for (i, j), w in overlap_entries(g).items() if i < j}
        assert got == weights
        assert all(nbrs == sorted(nbrs) for nbrs in split_rows(g.ptr, g.nbrs))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @given(h=hypergraphs())
    def test_matches_oracles_at_any_chunk_size(self, chunk, h):
        with mock.patch.object(hypergraph, "_CHUNK_ENCOUNTERS", chunk):
            self._check(h)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("rows", WINDOW_CASES)
    def test_empty_windows_and_equal_sizes(self, chunk, rows):
        with mock.patch.object(hypergraph, "_CHUNK_ENCOUNTERS", chunk):
            self._check(Hypergraph(rows))

    def test_near_miss_at_the_end_of_the_last_chunk(self):
        h = Hypergraph([[1, 2, 5], [1, 2, 3, 4]])
        for adjacent in (False, True):
            *_, (a0, a1, keys, total) = hypergraph.co_member_pairs(
                h.edge_ptr, *linegraph._size_windows(h, adjacent))
            # row 1 gathers row 0 through nodes 1 and 2, one key short of |b| = 3
            assert (a1, total, keys[total - 1] & 1, keys[total:].tolist()) == (2, 2, 0, [-1] * 4)
        assert build_encapsulation_dag(h).edge_count == adjacent_layer_dag(h).edge_count == 0

    @pytest.mark.parametrize("chunk", CHUNKS)
    @given(h=hypergraphs())
    def test_chunks_tile_the_rows_and_gather_no_self_pair(self, chunk, h):
        shift = hypergraph.pair_shift(h.m)
        for adjacent in (False, True):
            with mock.patch.object(hypergraph, "_CHUNK_ENCOUNTERS", chunk):
                chunks = list(hypergraph.co_member_pairs(
                    h.edge_ptr, *linegraph._size_windows(h, adjacent)))
            assert [c[0] for c in chunks] == [0, *(c[1] for c in chunks[:-1])]
            assert chunks[-1][1] == h.m
            for a0, a1, keys, total in chunks:
                run = keys[:total]
                assert keys[total:].tolist() == [-1] * h.max_size
                assert (run[1:] >= run[:-1]).all()
                a, b = (run >> shift) + a0, run & ((1 << shift) - 1)
                assert ((a0 <= a) & (a < a1) & (b < h.m) & (a != b)).all()

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_chunks_that_gather_nothing(self, chunk):
        # every hyperedge is the smallest of each of its nodes' lists, so no
        # row gathers anything, yet every build still walks every chunk
        h = Hypergraph([[1, 2], [3, 4], [5, 6], [7]])
        with mock.patch.object(hypergraph, "_CHUNK_ENCOUNTERS", chunk):
            chunks = list(hypergraph.co_member_pairs(
                h.edge_ptr, *linegraph._size_windows(h, adjacent=False)))
            dag, adj = build_encapsulation_dag(h), adjacent_layer_dag(h)
            self._check(h)
        assert [(a0, a1, total) for a0, a1, _, total in chunks] == [(0, 4, 0)]
        assert (dag.out_ptr.tolist(), dag.candidate_visits, dag.overlap_edges) == ([0] * 5, 7, 0)
        assert (adj.out_ptr.tolist(), adj.candidate_visits) == ([0] * 5, 0)

    def test_equal_size_pairs_gathered_once(self):
        # three 2-node hyperedges pairwise sharing one node, under a
        # 3-node hyperedge holding all three
        h = Hypergraph([[1, 2], [2, 3], [1, 3], [1, 2, 3]])
        dag = build_encapsulation_dag(h)
        assert (dag.overlap_edges, dag.overlap_weight) == (6, 9)
        # self pairs 2+2+2+3, the three 2-node pairs once each, 2+2+2 from the top
        assert dag.candidate_visits == 9 + 3 + 6
        assert adjacent_layer_dag(h).candidate_visits == 6

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_empty_and_single_edge(self, chunk):
        with mock.patch.object(hypergraph, "_CHUNK_ENCOUNTERS", chunk):
            empty = build_encapsulation_dag(Hypergraph([]))
            single = build_encapsulation_dag(Hypergraph([[1, 2, 3]]))
            empty_adj = adjacent_layer_dag(Hypergraph([]))
            single_adj = adjacent_layer_dag(Hypergraph([[1, 2, 3]]))
            empty_g = build_overlap_graph(Hypergraph([]))
            single_g = build_overlap_graph(Hypergraph([[1, 2, 3]]))
        assert (empty_g.ptr.tolist(), empty_g.nbrs.size, empty_g.weights.size) == ([0], 0, 0)
        assert (single_g.ptr.tolist(), single_g.nbrs.size, single_g.weights.size) == ([0, 0], 0, 0)
        assert (oracles.out_rows(empty), empty.candidate_visits, empty.overlap_edges,
                empty.overlap_weight) == ([], 0, 0, 0)
        assert (oracles.out_rows(single), single.candidate_visits, single.overlap_edges,
                single.overlap_weight) == ([[]], 3, 0, 0)
        assert (empty_adj.out_ptr.tolist(), empty_adj.candidate_visits) == ([0], 0)
        assert (single_adj.out_ptr.tolist(), single_adj.candidate_visits) == ([0, 0], 0)


class TestAdjacentLayerDag:
    def test_only_size_difference_one(self, chain_hypergraph):
        adj = adjacent_layer_dag(chain_hypergraph)
        assert oracles.dag_edges(adj) == {(0, 1), (1, 2)}

    @given(hypergraphs())
    def test_restriction_property(self, h):
        dag = build_encapsulation_dag(h)
        adj = adjacent_layer_dag(h)
        assert oracles.dag_edges(adj) == {
            (i, j) for i, j in oracles.dag_edges(dag) if len(h.edges[i]) - len(h.edges[j]) == 1
        }


class TestEncapsulationCounts:
    def test_chain_counts(self, chain_hypergraph):
        counts = encapsulation_counts(chain_hypergraph, build_encapsulation_dag(chain_hypergraph))
        assert counts.pair_counts == {(3, 2): 1, (3, 1): 1, (2, 1): 1}
        assert counts.size_counts == {1: 1, 2: 1, 3: 1}

    def test_full_complex_histogram_at_one(self):
        h = Hypergraph([[1, 2, 3], [1, 2], [1, 3], [2, 3], [1], [2], [3]])
        counts = encapsulation_counts(h, build_encapsulation_dag(h))
        assert counts.histograms[(3, 2)] == [3 / comb(3, 2)] == [1.0]
        assert counts.histograms[(3, 1)] == [1.0]
        assert counts.histograms[(2, 1)] == [1.0, 1.0, 1.0]

    def test_histograms_of_large_hyperedges(self):
        # C(70, 35) passes int64 and C(58, 29) passes 2^53: each value must
        # be the correctly rounded c / C(n, m) of Python ints
        rows = [range(70), range(58)] + [range(k, k + s) for s in (35, 29) for k in range(3)]
        h = preprocess(Hypergraph(rows), max_size=None)
        counts = encapsulation_counts(h, build_encapsulation_dag(h))
        sets = oracles.edge_sets(h)
        for (n, m_), values in counts.histograms.items():
            expected = [sum(len(b) == m_ and b < a for b in sets) / comb(n, m_)
                        for a in sets if len(a) == n]
            assert values == expected
        assert counts.histograms[(70, 35)] == [3 / comb(70, 35)]

    def test_no_encapsulations(self, disconnected_pairs):
        counts = encapsulation_counts(
            disconnected_pairs, build_encapsulation_dag(disconnected_pairs)
        )
        assert all(v == 0 for v in counts.pair_counts.values())

    def test_normalized_counts(self, chain_hypergraph):
        counts = encapsulation_counts(chain_hypergraph, build_encapsulation_dag(chain_hypergraph))
        assert counts.normalized_pair_counts()[(3, 2)] == 1.0

    @given(hypergraphs())
    def test_invariants(self, h):
        counts = encapsulation_counts(h, build_encapsulation_dag(h))
        for (n, m_), c in counts.pair_counts.items():
            assert n > m_
            assert 0 <= c <= counts.size_counts[n] * comb(n, m_)
        for values in counts.histograms.values():
            assert all(0.0 <= v <= 1.0 for v in values)
        # pair counts must add up to the DAG edge count
        assert sum(counts.pair_counts.values()) == build_encapsulation_dag(h).edge_count

    def test_json_round_trip(self, chain_hypergraph):
        counts = encapsulation_counts(chain_hypergraph, build_encapsulation_dag(chain_hypergraph))
        doc = counts.to_json_dict(normalized=True, histograms=True)
        parsed = json.loads(json.dumps(doc))
        assert parsed["pairs"]["3,2"]["count"] == 1
        # the single size-2 hyperedge contains one of its C(2,1)=2 subsets
        assert parsed["pairs"]["2,1"]["histogram"] == [0.5]


class TestExports:
    def test_dataset_stats(self, chain_hypergraph):
        h = chain_hypergraph
        assert (h.n, h.m, build_encapsulation_dag(h).edge_count) == (3, 3, 3)
        assert projected_density(h) == 1.0
