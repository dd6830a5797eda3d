from __future__ import annotations

import json
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import oracles

from hypernest import (
    GenerationError,
    RnhmParams,
    build_encapsulation_dag,
    generate,
    is_connected,
    rewire_edge,
    spawn_rng,
)
import hypernest.rnhm as rnhm_mod
from hypernest.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

FULL_KEEP = {2: 1.0, 3: 1.0}


@st.composite
def small_params(draw) -> RnhmParams:
    """Parameters small enough for the frozenset reference generator."""
    nodes = draw(st.integers(4, 30))
    max_size = draw(st.integers(2, min(5, nodes)))
    max_edges = draw(st.integers(1, min(6, comb(nodes, max_size))))
    keep = {s: draw(st.sampled_from((0.0, 0.3, 0.7, 1.0))) for s in range(2, max_size)}
    return RnhmParams(nodes, max_size, max_edges, keep, draw(st.booleans()))


def outcome(make, params: RnhmParams, seed: int) -> tuple:
    """Labels, edge arrays and counters of the sample ``make`` draws, or the
    type and message of the error it raises."""
    try:
        sample = make(params, spawn_rng(seed, "rnhm"))
    except GenerationError as exc:
        return type(exc), str(exc)
    h = sample.hypergraph
    return (h.labels, h.edge_ptr.tolist(), h.edge_nodes.tolist(), sample.rewired_edges,
            sample.connectivity_rejections, sample.rewire_rejections)


def fig_params(eps2: float = 1.0, eps3: float = 1.0, singletons: bool = True) -> RnhmParams:
    return RnhmParams(
        num_nodes=20,
        max_size=4,
        num_max_edges=5,
        keep_probs={2: eps2, 3: eps3},
        include_singletons=singletons,
    )


class TestParams:
    def test_max_size_bounds(self):
        with pytest.raises(ValueError):
            RnhmParams(num_nodes=3, max_size=4, num_max_edges=1)
        with pytest.raises(ValueError):
            RnhmParams(num_nodes=3, max_size=1, num_max_edges=1)

    def test_node_ids_fit_int64(self):
        # NumPy draws node ids as int64; a larger count overflowed in the draw
        RnhmParams(num_nodes=2**63 - 1, max_size=3, num_max_edges=1)
        for nodes in (2**63, 10**20):
            with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
                RnhmParams(num_nodes=nodes, max_size=3, num_max_edges=1)

    def test_too_many_max_edges(self):
        with pytest.raises(ValueError, match="distinct"):
            RnhmParams(num_nodes=4, max_size=4, num_max_edges=2)

    def test_keep_prob_range(self):
        with pytest.raises(ValueError):
            RnhmParams(num_nodes=10, max_size=4, num_max_edges=1, keep_probs={2: 1.5})
        with pytest.raises(ValueError, match="outside"):
            RnhmParams(num_nodes=10, max_size=4, num_max_edges=1, keep_probs={4: 0.5})

    def test_subset_count_is_bounded(self):
        # 3 * (2^30 - 2) subsets, and a size whose 2^k would be a huge integer
        with pytest.raises(ValueError, match="subsets"):
            RnhmParams(num_nodes=50, max_size=30, num_max_edges=3)
        with pytest.raises(ValueError, match="subsets"):
            RnhmParams(num_nodes=10**12, max_size=10**9, num_max_edges=1)
        # 15 * (2^16 - 2) = 983,010 is within the bound
        RnhmParams(num_nodes=40, max_size=16, num_max_edges=15)
        with pytest.raises(ValueError, match="subsets"):
            RnhmParams(num_nodes=40, max_size=16, num_max_edges=16)

    def test_missing_sizes_default_to_keep(self):
        p = RnhmParams(num_nodes=10, max_size=4, num_max_edges=1)
        assert p.keep_prob(2) == 1.0


class TestFullNesting:
    def test_every_max_edge_contains_all_subsets_with_singletons(self):
        sample = generate(fig_params(), spawn_rng(1, "rnhm"))
        h = sample.hypergraph
        dag = build_encapsulation_dag(h)
        for eid in range(h.m):
            if len(h.edges[eid]) == 4:
                assert np.diff(dag.out_ptr)[eid] == 2**4 - 2

    def test_without_singletons(self):
        sample = generate(fig_params(singletons=False), spawn_rng(2, "rnhm"))
        h = sample.hypergraph
        dag = build_encapsulation_dag(h)
        for eid in range(h.m):
            if len(h.edges[eid]) == 4:
                assert np.diff(dag.out_ptr)[eid] == 2**4 - 4 - 2

    def test_singletons_cover_every_appearing_node(self):
        sample = generate(fig_params(), spawn_rng(3, "rnhm"))
        h = sample.hypergraph
        singles = {next(iter(e)) for e in oracles.label_sets(h) if len(e) == 1}
        appearing = {lab for e in oracles.label_sets(h) if len(e) > 1 for lab in e}
        assert singles == appearing

    def test_no_rewires_recorded(self):
        sample = generate(fig_params(), spawn_rng(4, "rnhm"))
        assert sample.rewired_edges == 0


class TestRewireEdge:
    def test_replacements_avoid_superset_nodes(self):
        rng = spawn_rng(0)
        superset_nodes = {0, 1, 2, 3}
        existing = {(0, 1)}
        for _ in range(50):
            new = rewire_edge((0, 1), superset_nodes, existing, num_nodes=20, rng=rng)
            kept = set(new) & {0, 1}
            assert len(kept) == 1  # the pivot survives
            assert all(v >= 4 for v in set(new) - kept)
            assert len(new) == 2

    def test_result_not_already_present(self):
        rng = spawn_rng(1)
        existing = {(0, 1), (0, 4), (1, 4)}
        # nodes 0..5 with supersets covering 0..3: the pool is {4, 5}, and
        # only the pairs with node 5 are new
        new = rewire_edge((0, 1), {0, 1, 2, 3}, existing, num_nodes=6, rng=rng)
        assert new not in existing
        assert new in {(0, 5), (1, 5)}

    def test_infeasible_pool(self):
        with pytest.raises(GenerationError, match="replacement nodes"):
            rewire_edge((0, 1, 2), {0, 1, 2, 3, 4}, set(), num_nodes=6, rng=spawn_rng(0))

    def test_exhausted_draws(self):
        # the only candidate pair {0,4}/{1,4} style edges all exist already
        existing = {(0, 4), (1, 4)}
        with pytest.raises(GenerationError, match="no unused replacement"):
            rewire_edge((0, 1), {0, 1, 2, 3}, existing, num_nodes=5, rng=spawn_rng(0))

    def test_pool_is_never_built(self):
        # a pool list of 10**12 node ids could not be allocated
        superset_nodes = {0, 1, 2, 3, 10**12 - 1}
        new = rewire_edge((0, 1, 2), superset_nodes, set(), num_nodes=10**12, rng=spawn_rng(0))
        assert len(new) == 3 and len(set(new) & {0, 1, 2}) == 1
        assert all(3 < v < 10**12 - 1 for v in set(new) - {0, 1, 2})

    @given(
        superset_nodes=st.sets(st.integers(0, 40), max_size=30),
        num_nodes=st.integers(3, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_match_a_built_pool(self, superset_nodes, num_nodes, seed):
        # the same generator calls, indexing the explicit ascending pool
        edge = (0, 1, 2)
        superset_nodes |= set(edge)
        pool = [v for v in range(num_nodes) if v not in superset_nodes]
        assume(len(pool) >= 2)
        gen = spawn_rng(seed)
        pivot = edge[int(gen.integers(3))]
        drawn = [pool[int(i)] for i in gen.choice(len(pool), size=2, replace=False)]
        expected = tuple(sorted([pivot, *drawn]))
        assert rewire_edge(edge, superset_nodes, set(), num_nodes, spawn_rng(seed)) == expected


class TestMatchesReference:
    @given(params=small_params(), seed=st.integers(0, 2**32 - 1))
    # a rewired edge holds a later subset, so its nodes join that subset's supersets
    @example(params=RnhmParams(10, 4, 2, {2: 0.3, 3: 0.3}), seed=0)
    # one disconnected draw and one infeasible rewire before the sample
    @example(params=RnhmParams(6, 3, 2, {2: 0.8}), seed=3937)
    # no draw has room for a rewire
    @example(params=RnhmParams(4, 3, 2, {2: 0.0}), seed=0)
    def test_same_sample_as_frozenset_reference(self, params, seed):
        assert outcome(generate, params, seed) == outcome(oracles.rnhm_generate, params, seed)


class TestGenerate:
    def test_connected_and_simple(self):
        for seed in range(6):
            sample = generate(fig_params(eps2=0.4, eps3=0.6), spawn_rng(seed, "rnhm"))
            h = sample.hypergraph
            assert is_connected(h)
            assert len(oracles.label_sets(h)) == h.m

    def test_deterministic(self):
        a = generate(fig_params(eps2=0.3), spawn_rng(9, "rnhm"))
        b = generate(fig_params(eps2=0.3), spawn_rng(9, "rnhm"))
        assert list(a.hypergraph.iter_label_edges()) == list(b.hypergraph.iter_label_edges())
        assert a.rewired_edges == b.rewired_edges

    def test_rewired_edges_leave_subset_lattice(self):
        sample = generate(fig_params(eps2=0.0, eps3=1.0), spawn_rng(11, "rnhm"))
        h = sample.hypergraph
        assert sample.rewired_edges > 0
        max_edges = [set(e) for e in oracles.label_sets(h) if len(e) == 4]
        lattice_pairs = {
            frozenset(p) for edge in max_edges for p in combinations(sorted(edge), 2)
        }
        observed_pairs = {e for e in oracles.label_sets(h) if len(e) == 2}
        # every 2-node hyperedge was rewired, so most leave the subset lattice
        assert observed_pairs - lattice_pairs

    def test_impossible_rewire_raises(self, monkeypatch):
        # the single maximal hyperedge covers all nodes: no replacement pool
        params = RnhmParams(num_nodes=4, max_size=4, num_max_edges=1, keep_probs={2: 0.0, 3: 0.0})
        monkeypatch.setattr(rnhm_mod, "MAX_ATTEMPTS", 5)
        with pytest.raises(GenerationError, match="attempts"):
            generate(params, spawn_rng(0, "rnhm"))

    @pytest.mark.parametrize("params,seed,attempts,counts,hints", [
        # no draw has room for a rewire: no hint about connectivity
        (RnhmParams(4, 3, 2, {2: 0.0}), 0, 100, "0 disconnected, 100 rewire-infeasible",
         "rewires found no room outside their supersets"),
        (RnhmParams(20, 2, 2), 0, 2, "2 disconnected, 0 rewire-infeasible",
         "the parameter combination may make connectivity too unlikely"),
        (RnhmParams(6, 3, 2, {2: 0.8}), 2991, 2, "1 disconnected, 1 rewire-infeasible",
         "the parameter combination may make connectivity too unlikely; "
         "rewires found no room outside their supersets"),
    ])
    def test_final_error_names_each_cause_seen(self, monkeypatch, params, seed, attempts,
                                               counts, hints):
        monkeypatch.setattr(rnhm_mod, "MAX_ATTEMPTS", attempts)
        with pytest.raises(GenerationError) as info:
            generate(params, spawn_rng(seed, "rnhm"))
        assert str(info.value) == f"no connected sample within {attempts} attempts ({counts}); {hints}"

    def test_regenerates_golden_fixture(self, tmp_path, capsys):
        # the RNHM part of golden/nested.txt, which has 40 rewires
        out = tmp_path / "rnhm.txt"
        argv = ["rnhm", "--nodes", "24", "--max-size", "5", "--max-edges", "6",
                "--eps", "0.6,0.7,0.8", "--singletons", "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        assert "rewired=40" in capsys.readouterr().out
        produced = out.read_bytes()
        assert (GOLDEN / "nested.txt").read_bytes()[: len(produced)] == produced

    def test_rejection_counters(self, tmp_path, capsys):
        # seed 3937 rejects one disconnected draw and one infeasible rewire
        sample = generate(RnhmParams(6, 3, 2, {2: 0.8}), spawn_rng(3937, "rnhm"))
        counts = {"rewired_edges": 3, "connectivity_rejections": 1, "rewire_rejections": 1}
        assert {key: getattr(sample, key) for key in counts} == counts
        out = tmp_path / "rnhm.txt"
        assert main(["rnhm", "--nodes", "6", "--max-size", "3", "--max-edges", "2",
                     "--eps", "0.8", "--seed", "3937", "--out", str(out)]) == 0
        assert "rewired=3 rejections=1 rewire_rejections=1\n" in capsys.readouterr().out
        block = json.loads(out.with_name("rnhm.txt.manifest.json").read_text())["rnhm"]
        assert {key: block[key] for key in counts} == counts

    def test_edge_sizes_within_bounds(self):
        sample = generate(fig_params(eps2=0.5, eps3=0.5), spawn_rng(12, "rnhm"))
        sizes = {len(e) for e in oracles.label_sets(sample.hypergraph)}
        assert sizes <= {1, 2, 3, 4}
        assert 4 in sizes
