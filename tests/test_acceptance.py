"""Acceptance suite: one test per release criterion, each printing a
``[acceptance] <criterion>: PASS|FAIL|SKIP`` line (run with ``pytest -s``).

Criteria needing the empirical datasets skip with instructions when the
files are absent; everything else runs self-contained.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import chain, combinations
from math import comb

import numpy as np
import pytest

import oracles
from conftest import dataset_prefix, overlap_entries, pick_seeds, run_once
from hypernest import (
    DynamicsConfig,
    ExperimentGrid,
    Hypergraph,
    RnhmParams,
    adjacent_layer_dag,
    build_encapsulation_dag,
    build_influence,
    build_overlap_graph,
    filter_by_size,
    generate,
    largest_connected_component,
    layer_randomize,
    layer_samples,
    load_simplex_dataset,
    preprocess,
    projected_density,
    rooted_heights,
    spawn_rng,
    summarize,
    transitive_reduction,
)
from hypernest.cli import main as cli_main
from hypernest.dynamics import activation_proportion
from hypernest.experiments import randomized_comparison
from hypernest.hypergraph import load_auto
from hypernest.linegraph import HyperedgeDag


@contextmanager
def criterion(name: str):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[acceptance] {name}: SKIP ({exc})")
        raise
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    else:
        print(f"[acceptance] {name}: PASS")


def proportion(h: Hypergraph, batch) -> float:
    """Activation proportion of the one run of ``batch`` on ``h``."""
    steps = batch.steps(0)
    return activation_proportion(h.m, len(steps[0]), sum(map(len, steps)))


# expected statistics after dedup -> size<=25 filter -> largest component
LCC_EXPECTED = {
    "contact-high-school": (327, 7818, 7942),
    "contact-primary-school": (242, 12704, 16199),
    "email-Enron": (143, 1512, 8240),
    "email-Eu": (979, 25008, 277224),
}
LCC_DENSITY = {
    "contact-high-school": 0.11,
    "contact-primary-school": 0.29,
    "email-Enron": 0.18,
    "email-Eu": 0.06,
}
# larger coauthorship corpora: exact-match stretch targets, same runtime bound
LCC_STRETCH = {
    "coauth-MAG-Geology": (898648, 947977, 1650117),
    "coauth-MAG-History": (219435, 205531, 217627),
}


def load_lcc(name: str) -> Hypergraph:
    h = load_simplex_dataset(dataset_prefix(name))
    return largest_connected_component(filter_by_size(h, 25))


class TestCriterion1DatasetStatistics:
    @pytest.mark.parametrize("name", sorted(LCC_EXPECTED))
    def test_counts_exact_within_time(self, name):
        with criterion(f"1 dataset statistics [{name}]"):
            expect_n, expect_m, expect_dag = LCC_EXPECTED[name]
            prefix = dataset_prefix(name)
            start = time.perf_counter()
            h = largest_connected_component(filter_by_size(load_simplex_dataset(prefix), 25))
            dag = build_encapsulation_dag(h)
            elapsed = time.perf_counter() - start
            assert (h.n, h.m, dag.edge_count) == (expect_n, expect_m, expect_dag)
            assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

    @pytest.mark.parametrize("name", sorted(LCC_STRETCH))
    def test_coauthorship_stretch(self, name):
        with criterion(f"1 dataset statistics stretch [{name}]"):
            expect_n, expect_m, expect_dag = LCC_STRETCH[name]
            start = time.perf_counter()
            h = load_lcc(name)
            dag = build_encapsulation_dag(h)
            elapsed = time.perf_counter() - start
            assert (h.n, h.m, dag.edge_count) == (expect_n, expect_m, expect_dag)
            assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"


class TestCriterion2ProjectedDensity:
    @pytest.mark.parametrize("name", sorted(LCC_DENSITY))
    def test_density_to_two_decimals(self, name):
        with criterion(f"2 projected density [{name}]"):
            h = load_lcc(name)
            assert projected_density(h) == pytest.approx(LCC_DENSITY[name], abs=0.005)


# offline stand-in for criteria 1 and 2: fully nested blocks chained by one
# shared node each, a smaller nested block on its own, and one hyperedge over
# 26 nodes that joins the two until the size filter drops it
PLANTED_CHAIN = (3, 4, 5, 6)
PLANTED_OTHER = 4
# the chain's nodes: each block after the first shares one with the block before
PLANTED_N = sum(PLANTED_CHAIN) - (len(PLANTED_CHAIN) - 1)


def write_planted_dataset(prefix) -> None:
    blocks, start = [], 0
    for k in PLANTED_CHAIN:
        blocks.append(range(start, start + k))
        start += k - 1
    blocks.append(range(100, 100 + PLANTED_OTHER))
    simplices = [list(sub) for block in blocks for s in range(2, len(block) + 1)
                 for sub in combinations(block, s)]
    # repeated interactions, as the datasets record them
    simplices += [list(block) for block in blocks]
    # the last chain node, the other block's first and 24 nodes of its own
    simplices.append([blocks[-2][-1], blocks[-1][0], *range(200, 224)])
    rng = random.Random(5)
    rng.shuffle(simplices)
    for simplex in simplices:
        rng.shuffle(simplex)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    (prefix.parent / f"{prefix.name}-nverts.txt").write_text(
        "".join(f"{len(s)}\n" for s in simplices))
    (prefix.parent / f"{prefix.name}-simplices.txt").write_text(
        "".join(f"{u}\n" for s in simplices for u in s))


class TestCriteria1And2PlantedStandIn:
    @pytest.fixture
    def planted(self, tmp_path):
        prefix = tmp_path / "planted" / "planted"
        write_planted_dataset(prefix)
        return largest_connected_component(filter_by_size(load_simplex_dataset(prefix), 25))

    def test_counts_match_closed_form(self, planted):
        with criterion("1 dataset statistics [planted stand-in]"):
            dag = build_encapsulation_dag(planted)
            assert planted.n == PLANTED_N
            # each block of k nodes holds its 2^k - 1 - k subsets of two or more
            assert planted.m == sum(2**k - 1 - k for k in PLANTED_CHAIN)
            # a size-s hyperedge contains its 2^s - 2 - s proper subsets of two or more
            assert dag.edge_count == sum(comb(k, s) * (2**s - 2 - s)
                                         for k in PLANTED_CHAIN for s in range(2, k + 1))

    def test_density_matches_closed_form(self, planted):
        with criterion("2 projected density [planted stand-in]"):
            expected = sum(comb(k, 2) for k in PLANTED_CHAIN) / comb(PLANTED_N, 2)
            assert projected_density(planted) == expected


# offline stand-in for criterion 1's coauthorship stretch at a tenth of its
# hyperedges: SCALE_BLOCKS fully nested 6-node blocks (57 hyperedges, 416 DAG
# edges and 156 adjacent-layer edges each), each sharing one node with the
# block before, then a chain of SCALE_PAIRS pairs that each add one node, so
# m = 100,000 with MAG-Geology's 1.74 DAG edges a hyperedge. A nested block
# on its own and a 26-node hyperedge joining it to the chain leave under the
# size filter and the largest component.
SCALE_BLOCKS, SCALE_PAIRS = 418, 76_174


def write_scale_dataset(prefix, blocks: int, pairs: int) -> list[int]:
    """Write the stand-in as a shuffled simplex dataset with repeated
    records; return the labels of the component that must remain."""
    subsets = [c for s in range(2, 7) for c in combinations(range(6), s)]
    chained = 5 * blocks + 1 + pairs
    rows = [[5 * b + u for u in c] for b in range(blocks) for c in subsets]
    rows += [[5 * blocks + i, 5 * blocks + i + 1] for i in range(pairs)]
    rows += [[chained + u for u in c] for c in subsets]
    rows.append([chained - 1, chained, *range(chained + 6, chained + 30)])
    # repeated interactions, as the datasets record them
    rows += rows[::50]
    rng = random.Random(7)
    rng.shuffle(rows)
    for row in rows:
        rng.shuffle(row)
    labels = np.random.default_rng(7).permutation(chained + 30) + 1
    prefix.parent.mkdir(parents=True, exist_ok=True)
    (prefix.parent / f"{prefix.name}-nverts.txt").write_text(
        "".join(f"{len(row)}\n" for row in rows))
    flat = labels[list(chain.from_iterable(rows))].tolist()
    (prefix.parent / f"{prefix.name}-simplices.txt").write_text("\n".join(map(str, flat)) + "\n")
    return labels[:chained].tolist()


class TestCriterion1ScaleStandIn:
    def test_counts_match_closed_form(self, tmp_path):
        with criterion("1 dataset statistics [planted stand-in, 100k hyperedges]"):
            prefix = tmp_path / "scale" / "scale"
            kept = write_scale_dataset(prefix, SCALE_BLOCKS, SCALE_PAIRS)
            start = time.perf_counter()
            h = preprocess(load_auto(prefix), max_size=25, lcc=True)
            dag, adjacent = build_encapsulation_dag(h), adjacent_layer_dag(h)
            elapsed = time.perf_counter() - start
            blocks, pairs = SCALE_BLOCKS, SCALE_PAIRS
            assert (h.n, h.m) == (5 * blocks + 1 + pairs, 57 * blocks + pairs) == (78_265, 100_000)
            assert (dag.edge_count, adjacent.edge_count) == (416 * blocks, 156 * blocks)
            assert sorted(h.labels) == sorted(kept)
            assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"


# offline stand-in for criteria 9 and 10: a fixed RNHM sample that keeps every
# subset of its ten 6-node hyperedges except the 5-node ones, which are all
# rewired, so its deepest chains (6 > 4 > 3 > 2) step across a missing size
NESTED_PARAMS = RnhmParams(num_nodes=40, max_size=6, num_max_edges=10, keep_probs={5: 0.0})
NESTED_SEED_COUNTS = (1, 5, 20)


class TestCriteria9And10PlantedStandIn:
    @pytest.fixture(scope="class")
    def nested(self):
        return generate(NESTED_PARAMS, spawn_rng(2, "rnhm")).hypergraph

    def test_smallest_first_dominates_and_observed_beats_randomized(self, nested):
        with criterion("9 smallest-first dominates; observed >= randomized [planted stand-in]"):
            grid = ExperimentGrid(
                strategies=("smallest-first", "uniform", "size-biased", "inverse-size-biased"),
                seed_counts=NESTED_SEED_COUNTS,
            )
            records, comparisons = randomized_comparison(
                nested, build_influence(nested, "strict"), grid, runs=20, samples=5,
                master_seed=42)
            means = {(s["strategy"], s["seeds"]): s["mean_proportion"]
                     for s in summarize(records)["cells"]}
            for seeds in NESTED_SEED_COUNTS:
                for strategy in ("uniform", "size-biased", "inverse-size-biased"):
                    assert means[("smallest-first", seeds)] >= means[(strategy, seeds)]
            assert all(comp["difference"] >= 0.0 for comp in comparisons["cells"])
            # a relabeling of the whole sample would tie every cell
            assert any(comp["difference"] > 0.0 for comp in comparisons["cells"])

    def test_observed_paths_deep_randomized_shallow(self, nested):
        with criterion("10 observed height >= 3; randomized mean max <= 3 [planted stand-in]"):
            assert rooted_heights(build_encapsulation_dag(nested), nested).max_height() >= 3
            sample_max = [rooted_heights(build_encapsulation_dag(r), r).max_height()
                          for r in layer_samples(nested, 5, 7)]
            assert sum(sample_max) / len(sample_max) <= 3.0, sample_max


class TestCriterion3ConstructionOracle:
    def test_thousand_random_hypergraphs(self):
        with criterion("3 construction equals brute-force oracle (1000 hypergraphs)"):
            rng = random.Random(1203)
            for _ in range(1000):
                n = rng.randint(1, 12)
                m = rng.randint(1, 60)
                edges = []
                for _ in range(m):
                    size = rng.randint(1, n)
                    edges.append(sorted(rng.sample(range(n), size)))
                h = Hypergraph(edges)
                dag = build_encapsulation_dag(h)
                assert oracles.dag_edges(dag) == oracles.encapsulation_edges(h)
                g = build_overlap_graph(h)
                got = {(i, j): w for (i, j), w in overlap_entries(g).items() if i < j}
                weights = oracles.overlap_weights(h)
                assert got == weights
                assert dag.overlap_edges == len(weights)
                assert dag.overlap_weight == sum(weights.values())


def _random_dag(rng: random.Random, max_vertices: int) -> HyperedgeDag:
    n = rng.randint(2, max_vertices)
    p = rng.uniform(0.3, 3.0) / n
    out_adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                out_adj[u].append(v)
    return oracles.dag_from_rows(out_adj)


class TestCriterion4TransitiveReduction:
    def test_reachability_and_minimality(self):
        with criterion("4 transitive reduction: reachability preserved, result minimal"):
            rng = random.Random(77)
            for _ in range(60):
                dag = _random_dag(rng, 200)
                reduced = transitive_reduction(dag)
                assert (oracles.reachability(oracles.out_rows(reduced))
                        == oracles.reachability(oracles.out_rows(dag)))
                for u, v in oracles.dag_edges(reduced):
                    pruned = oracles.out_rows(reduced)
                    pruned[u].remove(v)
                    assert v not in oracles.reachable_from(pruned, u)


def _layer_profile(h: Hypergraph):
    profile: dict[int, tuple] = {}
    by_size: dict[int, list[int]] = {}
    for eid, edge in enumerate(h.edges):
        by_size.setdefault(len(edge), []).append(eid)
    for size, ids in by_size.items():
        degrees: dict = {}
        for eid in ids:
            for u in h.edges[eid]:
                degrees[h.labels[u]] = degrees.get(h.labels[u], 0) + 1
        profile[size] = (frozenset(degrees), tuple(sorted(degrees.values())))
    return profile


class TestCriterion5LayerRandomizationInvariants:
    def test_invariants_over_100_seeds(self):
        with criterion("5 layer randomization invariants (100+ seeded runs)"):
            bases = [
                Hypergraph(
                    [[1, 2, 3], [1, 2], [2, 3], [3, 4], [2, 3, 4, 5], [1], [5], [4, 5]]
                ),
                Hypergraph([[i, i + 1] for i in range(12)] + [[i, i + 1, i + 2] for i in range(8)]),
            ]
            runs = 0
            for h in bases:
                before = _layer_profile(h)
                for seed in range(55):
                    randomized = layer_randomize(h, spawn_rng(seed))
                    assert sorted(randomized.sizes.tolist()) == sorted(h.sizes.tolist())
                    assert _layer_profile(randomized) == before
                    again = layer_randomize(h, spawn_rng(seed))
                    assert list(again.iter_label_edges()) == list(randomized.iter_label_edges())
                    runs += 1
            assert runs >= 100


FIG_PARAMS = dict(num_nodes=20, max_size=4, num_max_edges=5, include_singletons=True)


class TestCriterion6NestedModelExtremes:
    def test_full_keep_gives_full_nesting(self):
        with criterion("6a full-keep generation contains every subset (out-degree 2^s - 2)"):
            for seed in range(10):
                params = RnhmParams(keep_probs={2: 1.0, 3: 1.0}, **FIG_PARAMS)
                h = generate(params, spawn_rng(seed, "rnhm")).hypergraph
                dag = build_encapsulation_dag(h)
                for eid in range(h.m):
                    if len(h.edges[eid]) == 4:
                        assert np.diff(dag.out_ptr)[eid] == 2**4 - 2

    def test_full_keep_smallest_first_always_saturates(self):
        with criterion("6b smallest-first N seeds fully activate unrewired samples"):
            params = RnhmParams(keep_probs={2: 1.0, 3: 1.0}, **FIG_PARAMS)
            config = DynamicsConfig(variant="strict", tau=1)
            for realization in range(25):
                h = generate(params, spawn_rng(realization, "rnhm")).hypergraph
                influence = build_influence(h, "strict")
                for run in range(10):
                    seeds = pick_seeds(
                        h, "smallest-first", 20, spawn_rng(realization, "seed-selection", 0, run)
                    )
                    assert proportion(h, run_once(h, influence, config, seeds)) == 1.0

    def test_pair_rewiring_separates_outcomes(self):
        # controlled comparison at equal keep probability for 3-node edges
        with criterion("6c mean activation: keep-all-pairs strictly above rewire-all-pairs"):
            def mean_activation(eps2: float) -> float:
                total = 0.0
                count = 0
                for realization in range(25):
                    params = RnhmParams(keep_probs={2: eps2, 3: 1.0}, **FIG_PARAMS)
                    h = generate(params, spawn_rng(500 + realization, "rnhm")).hypergraph
                    influence = build_influence(h, "strict")
                    config = DynamicsConfig(variant="strict", tau=1)
                    for run in range(50):
                        seeds = pick_seeds(
                            h, "smallest-first", min(20, h.m),
                            spawn_rng(500 + realization, "seed-selection", 0, run),
                        )
                        total += proportion(h, run_once(h, influence, config, seeds))
                        count += 1
                return total / count

            rewired = mean_activation(0.0)
            kept = mean_activation(1.0)
            print(f"  mean activation: eps2=0 -> {rewired:.4f}, eps2=1 -> {kept:.4f}")
            assert rewired < kept


class TestCriterion7DynamicsGroundTruth:
    def test_no_nesting_hypergraph_never_spreads(self):
        with criterion("7 no-containment hypergraph: zero spread from any single seed"):
            h = Hypergraph([["a", "b"], ["b", "c"], ["c", "d", "e"]])
            influence = build_influence(h, "strict")
            for seed in range(h.m):
                batch = run_once(h, influence, DynamicsConfig(variant="strict", tau=1),
                                 seeds=[seed])
                assert batch.steps(0) == [[seed]]

    def test_contained_pair_activates_parent(self):
        with criterion("7 containment pair: seeded subset activates its superset"):
            h = Hypergraph([["a", "b", "c"], ["a", "b"]])
            batch = run_once(h, build_influence(h, "strict"), DynamicsConfig(variant="strict"),
                             seeds=[1])
            assert batch.steps(0) == [[1], [0]]

    def test_non_strict_single_node_cascade(self):
        with criterion("7 non-strict: active node b reaches pair then triple"):
            h = Hypergraph([["a", "b", "c"], ["a", "b"]])
            batch = run_once(
                h,
                build_influence(h, "non-strict"),
                DynamicsConfig(variant="non-strict"),
                seeds=[],
                seed_nodes=[h.labels.index("b")],
            )
            assert batch.steps(0) == [[], [1], [0]]
            assert batch.edge_active[0].tolist() == [True, True]


class TestCriterion8Determinism:
    def test_cli_runs_are_byte_identical(self, tmp_path):
        with criterion("8 repeated runs produce byte-identical outputs"):
            net = tmp_path / "net.txt"
            argv = [
                "rnhm", "--nodes", "20", "--max-size", "4", "--max-edges", "5",
                "--eps", "0.5,0.8", "--singletons", "--seed", "3", "--out",
            ]
            assert cli_main([*argv, str(tmp_path / "a.txt")]) == 0
            assert cli_main([*argv, str(tmp_path / "b.txt")]) == 0
            assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
            net.write_bytes((tmp_path / "a.txt").read_bytes())

            sim = [
                "simulate", str(net), "--variant", "strict",
                "--strategy", "smallest-first,uniform,size-biased,inverse-size-biased",
                "--seeds", "1,5,20", "--runs", "5", "--seed", "11",
            ]
            for tag in ("r1", "r2"):
                assert cli_main([
                    *sim, "--out", str(tmp_path / f"{tag}.csv"),
                    "--trajectories", str(tmp_path / f"{tag}.json"),
                ]) == 0
            assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
            assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


ENRON_SEED_COUNTS = (10, 50, 100, 500)


class TestCriterion9EmpiricalDirectionality:
    def test_smallest_first_dominates_and_observed_beats_randomized(self):
        with criterion("9 email-Enron: smallest-first dominates; observed >= randomized"):
            h = load_lcc("email-Enron")
            grid = ExperimentGrid(
                strategies=("smallest-first", "uniform", "size-biased", "inverse-size-biased"),
                seed_counts=ENRON_SEED_COUNTS,
            )
            records, comparisons = randomized_comparison(
                h, build_influence(h, "strict"), grid, runs=20, samples=5, master_seed=42,
                dataset="email-Enron"
            )
            means = {
                (s["strategy"], s["seeds"]): s["mean_proportion"]
                for s in summarize(records)["cells"]
            }
            for seeds in ENRON_SEED_COUNTS:
                best = means[("smallest-first", seeds)]
                for strategy in ("uniform", "size-biased", "inverse-size-biased"):
                    assert best >= means[(strategy, seeds)], (
                        f"smallest-first {best} < {strategy} {means[(strategy, seeds)]} "
                        f"at {seeds} seeds"
                    )
            for comp in comparisons["cells"]:
                assert comp["difference"] >= 0.0, (
                    f"{comp['strategy']}@{comp['seeds']}: observed {comp['observed_mean']} "
                    f"< randomized {comp['randomized_mean']}"
                )


class TestCriterion10PathDepth:
    def test_observed_paths_deep_randomized_shallow(self):
        with criterion("10 email-Enron: observed height >= 3; randomized mean max <= 3"):
            h = load_lcc("email-Enron")
            observed = rooted_heights(build_encapsulation_dag(h), h)
            assert any(rec.max_height >= 3 for rec in observed.records)
            sample_max = []
            for randomized in layer_samples(h, 5, 7):
                report = rooted_heights(build_encapsulation_dag(randomized), randomized)
                sample_max.append(report.max_height())
            assert sum(sample_max) / len(sample_max) <= 3.0, sample_max
