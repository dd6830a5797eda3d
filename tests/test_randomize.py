from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypernest.randomize as randomize_mod
import oracles
from conftest import hypergraphs
from hypernest import Hypergraph, layer_randomize, retention_report, spawn_rng


def layer_profile(h: Hypergraph):
    """Per size: the set of node labels in the layer and the unlabeled
    degree multiset (degrees counted within the layer only)."""
    by_size: dict[int, list[int]] = {}
    for eid, edge in enumerate(h.edges):
        by_size.setdefault(len(edge), []).append(eid)
    profile = {}
    for size, ids in by_size.items():
        degree: Counter = Counter()
        for eid in ids:
            for u in h.edges[eid]:
                degree[h.labels[u]] += 1
        profile[size] = (frozenset(degree), tuple(sorted(degree.values())))
    return profile


class TestLayerRandomize:
    def test_star_layer_preserves_shape(self):
        h = Hypergraph([[0, i] for i in range(1, 6)])
        out = layer_randomize(h, 7)
        assert out.m == h.m
        assert layer_profile(out) == layer_profile(h)

    def test_single_edge_layer_unchanged(self):
        # the layer's node set is exactly the edge, so any bijection fixes it
        h = Hypergraph([[1, 2, 3], [1, 2], [2, 4]])
        out = layer_randomize(h, 3)
        assert frozenset({1, 2, 3}) in out.label_sets()

    def test_singleton_layer_set_preserved(self):
        h = Hypergraph([[1], [2], [5], [1, 2, 5]])
        out = layer_randomize(h, 11)
        singles = {next(iter(e)) for e in out.label_sets() if len(e) == 1}
        assert singles == {1, 2, 5}

    @given(hypergraphs())
    @settings(max_examples=40)
    def test_invariants(self, h):
        out = layer_randomize(h, 123)
        assert sorted(out.sizes.tolist()) == sorted(h.sizes.tolist())
        assert layer_profile(out) == layer_profile(h)

    @given(hypergraphs())
    @settings(max_examples=20)
    def test_deterministic_given_seed(self, h):
        a = layer_randomize(h, 99)
        b = layer_randomize(h, 99)
        assert list(a.iter_label_edges()) == list(b.iter_label_edges())

    @given(hypergraphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_matches_oracle_and_keeps_each_size(self, h, seed):
        out = layer_randomize(h, seed)
        assert (out.labels, out.edges) == oracles.layer_randomize(h, spawn_rng(seed))
        assert out.m == h.m and np.array_equal(out.sizes, h.sizes)
        assert layer_profile(out) == layer_profile(h)

    def test_mixed_labels_match_oracle(self):
        h = Hypergraph([["a", 1], [2, "b"], ["a", "b"], [1, 2, "c"], ["c"], [3]])
        for seed in range(5):
            out = layer_randomize(h, seed)
            assert (out.labels, out.edges) == oracles.layer_randomize(h, spawn_rng(seed))

    def test_different_seeds_usually_differ(self):
        h = Hypergraph([[i, i + 1, i + 2] for i in range(20)])
        outcomes = {tuple(layer_randomize(h, s).iter_label_edges()) for s in range(5)}
        assert len(outcomes) > 1


class TestRetentionReport:
    def test_identity_randomization_gives_ones(self, monkeypatch):
        monkeypatch.setattr(randomize_mod, "layer_randomize", lambda h, rng: h)
        h = Hypergraph([[1, 2, 3], [1, 2], [2, 3]])
        report = retention_report(h, samples=3, master_seed=0)
        for row in report.samples:
            assert row["dag_edges"] == 1.0
            assert row["overlap_edges"] == 1.0
            assert row["overlap_weight"] == 1.0
        assert report.means == {"dag_edges": 1.0, "overlap_edges": 1.0, "overlap_weight": 1.0}

    def test_zero_observed_flagged_as_one(self):
        h = Hypergraph([[1, 2], [3, 4]])  # no containment, no overlap
        report = retention_report(h, samples=2, master_seed=0)
        assert report.observed["dag_edges"] == 0
        assert set(report.degenerate_ratios) == {"dag_edges", "overlap_edges", "overlap_weight"}
        for row in report.samples:
            assert row["dag_edges"] == 1.0

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            retention_report(Hypergraph([[1, 2]]), samples=0, master_seed=0)

    def test_report_shape_and_collapse_count(self):
        h = Hypergraph([[1, 2, 3], [1, 2], [2, 3], [1, 3]])
        report = retention_report(h, samples=4, master_seed=5)
        assert len(report.samples) == 4
        assert report.seed == 5
        # a per-layer bijection cannot merge distinct hyperedges
        for i in range(4):
            assert layer_randomize(h, spawn_rng(5, "layer-randomization", i)).m == h.m
        doc = report.to_json_dict()
        assert set(doc) == {"observed", "samples", "means", "seed", "degenerate_ratios"}

    def test_same_streams_as_direct_calls(self):
        h = Hypergraph([[1, 2, 3], [1, 2], [2, 3], [3, 4], [1, 4]])
        report = retention_report(h, samples=2, master_seed=17)
        from hypernest.linegraph import build_encapsulation_dag

        direct = layer_randomize(h, spawn_rng(17, "layer-randomization", 0))
        expect = build_encapsulation_dag(direct).edge_count
        observed = report.observed["dag_edges"]
        assert report.samples[0]["dag_edges"] == (expect / observed if observed else 1.0)
