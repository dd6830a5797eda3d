from __future__ import annotations

import csv
import math
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hypernest.dagpaths as dagpaths_mod
import oracles
from conftest import hypergraphs, random_dags
from hypernest import (Hypergraph, build_encapsulation_dag, preprocess, rooted_heights,
                      transitive_reduction)
from hypernest.cli import main as cli_main
from hypernest.dagpaths import max_root_out_degree


@st.composite
def relabelled_graphs(draw):
    """``random_dags()`` rows with the vertex ids permuted, so edges need not
    run from low to high ids, and maybe one more edge, which can close a
    cycle."""
    out_adj = draw(random_dags())
    n = len(out_adj)
    perm = draw(st.permutations(range(n)))
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, nbrs in enumerate(out_adj):
        rows[perm[u]] = [perm[v] for v in nbrs]
    extra = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    if extra is not None and extra[1] not in rows[extra[0]]:
        rows[extra[0]].append(extra[1])
    return rows


class TestTransitiveReduction:
    def test_shortcut_edge_removed(self):
        dag = oracles.dag_from_rows([[1, 2], [2], []])
        reduced = transitive_reduction(dag)
        assert oracles.dag_edges(reduced) == {(0, 1), (1, 2)}

    def test_already_reduced_chain(self):
        dag = oracles.dag_from_rows([[1], [2], []])
        assert oracles.dag_edges(transitive_reduction(dag)) == {(0, 1), (1, 2)}

    def test_chain_hypergraph(self, chain_hypergraph):
        reduced = transitive_reduction(build_encapsulation_dag(chain_hypergraph))
        assert oracles.dag_edges(reduced) == {(0, 1), (1, 2)}

    def test_cycle_rejected(self):
        cyclic = oracles.dag_from_rows([[1], [0]])
        with pytest.raises(ValueError, match="cycle"):
            transitive_reduction(cyclic)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            transitive_reduction(oracles.dag_from_rows([[0]]))

    @pytest.mark.parametrize("rows", [[], [[]], [[], [], []]])
    def test_edgeless_dags_reduce_to_themselves(self, rows):
        reduced = transitive_reduction(oracles.dag_from_rows(rows))
        assert oracles.out_rows(reduced) == rows
        assert (reduced.out_ptr.dtype, reduced.out_idx.dtype) == (np.int64, np.int32)

    @given(relabelled_graphs())
    @example([[1, 3], [2], [3], []])  # (0, 3) is implied only through three edges
    @example([[1], [2], [0]])  # a cycle, which both reject
    def test_matches_frozenset_reference(self, rows):
        try:
            expected = oracles.transitive_reduction(rows)
        except ValueError:
            with pytest.raises(ValueError, match="cycle"):
                transitive_reduction(oracles.dag_from_rows(rows))
        else:
            assert oracles.out_rows(transitive_reduction(oracles.dag_from_rows(rows))) == expected

    @given(hypergraphs())
    def test_containment_dag_matches_frozenset_reference(self, h):
        dag = build_encapsulation_dag(h)
        reduced = transitive_reduction(dag)
        assert oracles.out_rows(reduced) == oracles.transitive_reduction(oracles.out_rows(dag))

    @given(random_dags())
    def test_reachability_preserved(self, out_adj):
        dag = oracles.dag_from_rows(out_adj)
        reduced = transitive_reduction(dag)
        assert (oracles.reachability(oracles.out_rows(reduced))
                == oracles.reachability(oracles.out_rows(dag)))

    @given(random_dags(max_vertices=30))
    def test_minimality(self, out_adj):
        dag = oracles.dag_from_rows(out_adj)
        reduced = transitive_reduction(dag)
        for u, v in oracles.dag_edges(reduced):
            pruned = oracles.out_rows(reduced)
            pruned[u].remove(v)
            assert v not in oracles.reachable_from(pruned, u)

    @given(random_dags())
    def test_matches_networkx(self, out_adj):
        dag = oracles.dag_from_rows(out_adj)
        g = nx.DiGraph(oracles.dag_edges(dag))
        g.add_nodes_from(range(len(out_adj)))
        expected = set(nx.transitive_reduction(g).edges())
        assert oracles.dag_edges(transitive_reduction(dag)) == expected

    @given(random_dags())
    def test_edge_subset(self, out_adj):
        dag = oracles.dag_from_rows(out_adj)
        assert oracles.dag_edges(transitive_reduction(dag)) <= oracles.dag_edges(dag)


def root_ids(h: Hypergraph) -> list[int]:
    return [rec.root_id for rec in rooted_heights(build_encapsulation_dag(h), h).records]


class TestRoots:
    def test_roots_have_no_parents_and_some_children(self, chain_hypergraph):
        assert root_ids(chain_hypergraph) == [0]

    def test_isolated_vertices_are_not_roots(self):
        assert root_ids(Hypergraph([[1, 2]])) == []

    @given(hypergraphs())
    def test_root_definition(self, h):
        dag = build_encapsulation_dag(h)
        in_deg = [0] * h.m
        for _, j in oracles.dag_edges(dag):
            in_deg[j] += 1
        rows = oracles.out_rows(dag)
        expected = [v for v in range(h.m) if in_deg[v] == 0 and rows[v]]
        assert root_ids(h) == expected


class TestRootedHeights:
    def test_chain_height(self, chain_hypergraph):
        report = rooted_heights(build_encapsulation_dag(chain_hypergraph), chain_hypergraph)
        assert {rec.root_id: rec.max_height for rec in report.records} == {0: 2}
        assert report.height_distribution() == {2: 1}

    def test_single_out_edge(self):
        h = Hypergraph([[1, 2, 3], [1, 2]])
        report = rooted_heights(build_encapsulation_dag(h), h)
        assert {rec.root_id: rec.max_height for rec in report.records} == {0: 1}

    def test_max_degree_root_attains_max_height(self):
        # the full subset lattice of a 4-node hyperedge maximizes both
        edges = [[1, 2, 3, 4]]
        for size in (3, 2, 1):
            from itertools import combinations

            edges.extend(list(c) for c in combinations([1, 2, 3, 4], size))
        h = Hypergraph(edges)
        report = rooted_heights(build_encapsulation_dag(h), h)
        rec = next(r for r in report.records if r.size == 4)
        assert rec.dag_degree == max_root_out_degree(4, singletons_present=True) == 14
        assert rec.max_height == 3
        assert rec.norm_degree == 1.0
        assert rec.norm_height == 1.0

    @given(hypergraphs())
    def test_height_bounded_by_size_minus_one(self, h):
        for rec in rooted_heights(build_encapsulation_dag(h), h).records:
            assert rec.max_height <= rec.size - 1

    @given(hypergraphs())
    def test_height_is_longest_path_in_reduction(self, h):
        dag = build_encapsulation_dag(h)
        reduced = oracles.out_rows(transitive_reduction(dag))
        for rec in rooted_heights(dag, h).records:
            assert rec.max_height == oracles.longest_path_from(reduced, rec.root_id)
            assert rec.dag_degree == np.diff(dag.out_ptr)[rec.root_id]

    def test_norm_degree_denominator_without_singletons(self):
        h = Hypergraph([[1, 2, 3], [1, 2]])
        report = rooted_heights(build_encapsulation_dag(h), h)
        rec = report.records[0]
        assert rec.norm_degree == pytest.approx(1 / (2**3 - 3 - 2))

    def test_norm_degree_denominator_with_singletons(self):
        h = Hypergraph([[1, 2, 3], [1, 2], [5]])
        report = rooted_heights(build_encapsulation_dag(h), h)
        rec = next(r for r in report.records if r.size == 3)
        assert rec.norm_degree == pytest.approx(1 / (2**3 - 2))

    def test_large_root_keeps_int_denominators(self, tmp_path):
        # the degree bound 2^70 - 2 - 70 passes int64: a record built from
        # array columns would overflow
        rows = [range(70), range(35), range(2)]
        h = preprocess(Hypergraph(rows), max_size=None)
        (rec,) = rooted_heights(build_encapsulation_dag(h), h).records
        assert (rec.size, rec.dag_degree, rec.max_height) == (70, 2, 2)
        assert rec.norm_degree == 2 / (2**70 - 2 - 70)
        assert rec.norm_height == 2 / 69
        path, out = tmp_path / "big.txt", tmp_path / "heights.csv"
        path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        assert cli_main(["heights", str(path), "--max-size", "0", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "0,70,2,2,1.69407e-21,0.0289855"

    def test_norm_height(self):
        h = Hypergraph([[1, 2, 3, 4], [1, 2]])
        report = rooted_heights(build_encapsulation_dag(h), h)
        assert report.records[0].norm_height == pytest.approx(1 / 3)

    def test_normalized_columns_built_on_first_read(self):
        h = Hypergraph([[1, 2, 3, 4], [1, 2, 3], [1, 2], [5]])
        report = rooted_heights(build_encapsulation_dag(h), h)
        assert (report.max_height(), report.height_distribution()) == (2, {2: 1})
        assert "norm_degrees" not in vars(report) and "norm_heights" not in vars(report)
        assert report.norm_heights.tolist() == [2 / 3]
        assert "norm_degrees" not in vars(report)
        # with 1-node hyperedges present a 4-node root may hold 2^4 - 2 subsets
        assert report.norm_degrees.tolist() == [2 / 14]

    def test_randomized_samples_build_no_normalized_columns(self, tmp_path, monkeypatch):
        # `heights --randomize` reads only the samples' heights; the observed
        # report alone is written with its normalized columns
        reports = []

        def recorded(dag, h):
            reports.append(rooted_heights(dag, h))
            return reports[-1]

        monkeypatch.setattr(dagpaths_mod, "rooted_heights", recorded)
        golden = Path(__file__).parent / "golden" / "nested.txt"
        assert cli_main(["heights", str(golden), "--randomize", "2",
                         "--out", str(tmp_path / "h.csv"),
                         "--summary-out", str(tmp_path / "h.json")]) == 0
        built = [{"norm_degrees", "norm_heights"} & set(vars(r)) for r in reports]
        assert built == [{"norm_degrees", "norm_heights"}, set(), set()]

    def test_csv_export(self, tmp_path, chain_hypergraph):
        report = rooted_heights(build_encapsulation_dag(chain_hypergraph), chain_hypergraph)
        path = tmp_path / "heights.csv"
        report.write_csv(path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert rows[0]["root_id"] == "0"
        assert rows[0]["max_height"] == "2"
        assert math.isclose(float(rows[0]["norm_height"]), 1.0)
