from __future__ import annotations

import json
from math import comb
from unittest import mock

import pytest
from hypothesis import given

import oracles
from conftest import hypergraphs
import hypernest.hypergraph as hypergraph
from hypernest import (
    Hypergraph,
    adjacent_layer_dag,
    build_encapsulation_dag,
    build_overlap_graph,
    encapsulation_counts,
    preprocess,
    rooted_heights,
)
from hypernest.dagpaths import topological_order


class TestEncapsulationDag:
    def test_disconnected_pair_stays_isolated(self):
        # {e,f} shares node e with a larger hyperedge but is contained in
        # nothing and contains nothing
        h = Hypergraph([["e", "f"], ["a", "b", "c", "e"], ["b", "e"]])
        dag = build_encapsulation_dag(h)
        assert dag.out_degree(0) == 0
        assert dag.in_degree(0) == 0
        assert dag.edge_set() == {(1, 2)}

    def test_single_edge(self):
        dag = build_encapsulation_dag(Hypergraph([[1, 2]]))
        assert dag.num_vertices == 1
        assert dag.edge_count == 0

    def test_chain(self, chain_hypergraph):
        dag = build_encapsulation_dag(chain_hypergraph)
        assert dag.edge_set() == {(0, 1), (0, 2), (1, 2)}

    @given(hypergraphs())
    def test_matches_all_pairs_oracle(self, h):
        dag = build_encapsulation_dag(h)
        assert dag.edge_set() == oracles.encapsulation_edges(h)

    @given(hypergraphs())
    def test_edge_semantics_and_transpose(self, h):
        dag = build_encapsulation_dag(h)
        for i, j in dag.edge_set():
            assert len(h.edges[i]) > len(h.edges[j])
            assert h.edge_sets[j] < h.edge_sets[i]
        transpose = {(j, i) for i, nbrs in enumerate(dag.in_adj) for j in nbrs}
        assert transpose == dag.edge_set()

    @given(hypergraphs())
    def test_transitively_closed(self, h):
        dag = build_encapsulation_dag(h)
        reach = oracles.reachability(dag.out_adj)
        for v, nbrs in enumerate(dag.out_adj):
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
        assert "in_adj" not in vars(dag)
        assert dag.in_adj == [[], [0], [0, 1]]

    @given(hypergraphs())
    def test_acyclic(self, h):
        dag = build_encapsulation_dag(h)
        topological_order(dag.out_adj)  # raises on a cycle

    @given(hypergraphs())
    def test_candidate_visits_within_bound(self, h):
        dag = build_encapsulation_dag(h)
        assert dag.candidate_visits <= h.m * h.max_size * h.max_degree


class TestOverlapGraph:
    def test_weight_and_normalization(self):
        h = Hypergraph([[1, 2, 3], [3, 4]])
        g = build_overlap_graph(h)
        assert g.weight(0, 1) == 1
        assert g.normalized_weight(0, 1) == pytest.approx(0.5)

    def test_disjoint_edges(self, disconnected_pairs):
        g = build_overlap_graph(disconnected_pairs)
        assert g.edge_count == 0

    def test_shared_node_adjacency(self):
        h = Hypergraph([["e", "f"], ["a", "b", "c", "e"], ["b", "e"]])
        g = build_overlap_graph(h)
        assert set(g.adj[0]) == {1, 2}

    @given(hypergraphs())
    def test_matches_all_pairs_oracle(self, h):
        g = build_overlap_graph(h)
        got = {(i, j): g.adj[i][j] for i, nbrs in enumerate(g.adj) for j in nbrs if i < j}
        assert got == oracles.overlap_weights(h)

    @given(hypergraphs())
    def test_symmetry(self, h):
        g = build_overlap_graph(h)
        for i, nbrs in enumerate(g.adj):
            for j, w in nbrs.items():
                assert g.adj[j][i] == w

    @given(hypergraphs())
    def test_totals_match_full_graph(self, h):
        g = build_overlap_graph(h)
        dag = build_encapsulation_dag(h)
        assert (dag.overlap_edges, dag.overlap_weight) == (g.edge_count, g.total_weight)

    @given(hypergraphs())
    def test_every_containment_edge_overlaps(self, h):
        dag = build_encapsulation_dag(h)
        g = build_overlap_graph(h)
        for i, j in dag.edge_set():
            assert g.weight(i, j) == len(h.edges[j])


class TestChunkedKernel:
    """Chunk boundaries must not change either line graph: with one
    encounter per chunk every row is a chunk of its own, and an odd chunk
    size splits rows at uneven points."""

    @pytest.mark.parametrize("chunk", [1, 7])
    @given(h=hypergraphs())
    def test_matches_oracles_at_any_chunk_size(self, chunk, h):
        with mock.patch.object(hypergraph, "_CHUNK_ENCOUNTERS", chunk):
            dag = build_encapsulation_dag(h)
            g = build_overlap_graph(h)
        weights = oracles.overlap_weights(h)
        assert dag.edge_set() == oracles.encapsulation_edges(h)
        assert all(nbrs == sorted(nbrs) for nbrs in dag.out_adj)
        assert (dag.overlap_edges, dag.overlap_weight) == (len(weights), sum(weights.values()))
        # every (a, u, b) encounter of u in both a and b, so sum_u deg(u)^2
        sets = h.edge_sets
        assert dag.candidate_visits == sum(len(x & y) for x in sets for y in sets)
        got = {(i, j): w for i, nbrs in enumerate(g.adj) for j, w in nbrs.items() if i < j}
        assert got == weights
        assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adj)

    @pytest.mark.parametrize("chunk", [1, 7, hypergraph._CHUNK_ENCOUNTERS])
    def test_empty_and_single_edge(self, chunk):
        with mock.patch.object(hypergraph, "_CHUNK_ENCOUNTERS", chunk):
            empty = build_encapsulation_dag(Hypergraph([]))
            single = build_encapsulation_dag(Hypergraph([[1, 2, 3]]))
            assert build_overlap_graph(Hypergraph([])).adj == []
            assert build_overlap_graph(Hypergraph([[1, 2, 3]])).adj == [{}]
        assert (empty.out_adj, empty.candidate_visits, empty.overlap_edges,
                empty.overlap_weight) == ([], 0, 0, 0)
        assert (single.out_adj, single.candidate_visits, single.overlap_edges,
                single.overlap_weight) == ([[]], 3, 0, 0)


class TestAdjacentLayerDag:
    def test_only_size_difference_one(self, chain_hypergraph):
        dag = build_encapsulation_dag(chain_hypergraph)
        adj = adjacent_layer_dag(dag, chain_hypergraph)
        assert adj.edge_set() == {(0, 1), (1, 2)}

    @given(hypergraphs())
    def test_restriction_property(self, h):
        dag = build_encapsulation_dag(h)
        adj = adjacent_layer_dag(dag, h)
        assert adj.edge_set() == {
            (i, j) for i, j in dag.edge_set() if len(h.edges[i]) - len(h.edges[j]) == 1
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
        sets = h.edge_sets
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
        from hypernest.linegraph import compute_dataset_stats

        stats = compute_dataset_stats(chain_hypergraph)
        assert (stats.n, stats.m, stats.dag_edge_count) == (3, 3, 3)
        assert stats.projected_density == 1.0
