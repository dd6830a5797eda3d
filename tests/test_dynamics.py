from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import hypernest.dynamics as dynamics_mod
import hypernest.experiments as experiments_mod
import oracles
from conftest import (any_hypergraphs, final_active, hypergraphs, pick_seeds, run_once, seed_ids,
                      seed_mask)
from hypernest import (
    DynamicsConfig,
    ExperimentGrid,
    Hypergraph,
    RnhmParams,
    adjacent_layer_dag,
    build_influence,
    generate,
    run_experiment,
    spawn_rng,
)
from hypernest.cli import main
from hypernest.dynamics import STRATEGIES, VARIANTS, activation_proportion, spread, trajectory


def run(h: Hypergraph, config: DynamicsConfig, seeds, seed_nodes=()):
    return run_once(h, build_influence(h, config.variant), config, seeds, seed_nodes)


def non_seed_active(row) -> int:
    """Hyperedges that the run of activation row ``row`` activated after its seeds."""
    return sum(map(len, trajectory(row)[1:]))


def assert_rounds_partition(row, steps) -> None:
    """A run's activating rounds are exactly 1 .. its largest round, with no
    gap, and ``steps``, its trajectory, splits its active hyperedges by round."""
    top = row.max(initial=0)
    assert set(row[row > 0].tolist()) == set(range(1, top + 1))
    assert len(steps) == top + 1
    assert sorted(e for step in steps for e in step) == np.flatnonzero(row >= 0).tolist()
    assert all((row[step] == k).all() for k, step in enumerate(steps))


# three hyperedges over {a,…,e} with no containment relation at all
NO_NESTING = [["a", "b"], ["b", "c"], ["c", "d", "e"]]
# one containment relation: {a,b,c} contains {a,b}
ONE_NESTING = [["a", "b", "c"], ["a", "b"]]


class TestSelectSeeds:
    def test_smallest_first_picks_smallest(self):
        h = Hypergraph([[1], [2], [3, 4], [5, 6, 7]])
        seeds = pick_seeds(h, "smallest-first", 2, spawn_rng(0))
        assert seeds == [0, 1]

    @pytest.mark.parametrize("strategy", ["uniform", "size-biased", "inverse-size-biased", "smallest-first"])
    def test_count_equals_m_selects_all(self, strategy):
        h = Hypergraph([[1], [2, 3], [3, 4, 5]])
        assert pick_seeds(h, strategy, h.m, spawn_rng(1)) == [0, 1, 2]

    def test_count_above_m_rejected(self):
        with pytest.raises(ValueError):
            pick_seeds(Hypergraph([[1, 2]]), "uniform", 2, spawn_rng(0))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            pick_seeds(Hypergraph([[1, 2]]), "biggest-first", 1, spawn_rng(0))

    def test_rnhm_smallest_first_takes_all_singletons(self):
        params = RnhmParams(
            num_nodes=20, max_size=4, num_max_edges=5,
            keep_probs={2: 1.0, 3: 1.0}, include_singletons=True,
        )
        h = generate(params, spawn_rng(0, "rnhm")).hypergraph
        singleton_ids = [i for i in range(h.m) if len(h.edges[i]) == 1]
        seeds = pick_seeds(h, "smallest-first", 20, spawn_rng(2))
        assert set(singleton_ids) <= set(seeds)

    def test_deterministic_given_rng(self):
        h = Hypergraph([[i, i + 1] for i in range(30)] + [[i, i + 1, i + 2] for i in range(20)])
        for strategy in ("uniform", "size-biased", "inverse-size-biased", "smallest-first"):
            assert pick_seeds(h, strategy, 10, spawn_rng(5)) == pick_seeds(h, strategy, 10, spawn_rng(5))

    def test_size_bias_direction(self):
        # one big hyperedge among many singletons: size bias should pick it
        # as the single seed far more often than uniform would
        h = Hypergraph([[i] for i in range(10)] + [[100, 101, 102, 103, 104, 105, 106, 107, 108, 109]])
        big = h.m - 1
        hits = sum(pick_seeds(h, "size-biased", 1, spawn_rng(seed)) == [big] for seed in range(200))
        inverse_hits = sum(
            pick_seeds(h, "inverse-size-biased", 1, spawn_rng(seed)) == [big] for seed in range(200)
        )
        # weight 10/20 under size bias vs 0.1/10.1 under inverse bias
        assert hits > 60
        assert inverse_hits < 20
        assert hits > 3 * inverse_hits

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @given(h=hypergraphs(max_edges=40), data=st.data())
    @settings(max_examples=40)
    def test_same_draws_and_set_as_a_full_sort(self, strategy, h, data):
        count, seed = data.draw(st.integers(0, h.m)), data.draw(st.integers(0, 2**16))
        gen, expected_gen = spawn_rng(seed), spawn_rng(seed)
        assert pick_seeds(h, strategy, count, gen) == oracles.sorted_seeds(h, strategy, count,
                                                                             expected_gen)
        # both consumed the same draws
        assert gen.bit_generator.state == expected_gen.bit_generator.state

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @given(h=hypergraphs(max_edges=40), data=st.data())
    @settings(max_examples=40)
    def test_stretch_rows_are_the_single_draws(self, strategy, h, data):
        count = data.draw(st.one_of(st.just(0), st.just(h.m), st.integers(0, h.m)))
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=4, unique=True))
        gens = [spawn_rng(seed) for seed in seeds]
        rows = dynamics_mod.pick_seeds(h, strategy, count, gens)
        assert rows.dtype == bool and rows.shape == (len(seeds), h.m)
        for k, seed in enumerate(seeds):
            # row k is what gens[k] draws alone, and gens[k] ends where that draw leaves it
            alone = spawn_rng(seed)
            single = dynamics_mod.pick_seeds(h, strategy, count, [alone])
            assert rows[k].tolist() == single[0].tolist()
            assert gens[k].bit_generator.state == alone.bit_generator.state

    @given(m=st.integers(0, 30), data=st.data())
    def test_smallest_keys_break_ties_by_id(self, m, data):
        rows = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=m, max_size=m),
                                  max_size=4))
        keys = np.array(rows, dtype=np.int64).reshape(len(rows), m)
        count = data.draw(st.integers(0, m))
        picked = dynamics_mod._smallest(keys, count)
        assert picked.dtype == bool and picked.shape == (len(rows), m)
        expected = np.zeros_like(picked)
        np.put_along_axis(expected, np.argsort(keys, axis=1, kind="stable")[:, :count], True,
                          axis=1)
        assert picked.tolist() == expected.tolist()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @given(h=hypergraphs(max_edges=40), data=st.data())
    @settings(max_examples=40)
    def test_mask_rows_hold_count_seeds_of_a_full_sort(self, strategy, h, data):
        count = data.draw(st.one_of(st.just(0), st.just(h.m), st.integers(0, h.m)))
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=4, unique=True))
        mask = dynamics_mod.pick_seeds(h, strategy, count, [spawn_rng(seed) for seed in seeds])
        assert np.count_nonzero(mask, axis=1).tolist() == [count] * len(seeds)
        for row, seed in zip(mask, seeds):
            expected = oracles.sorted_seeds(h, strategy, count, spawn_rng(seed))
            assert set(np.flatnonzero(row).tolist()) == set(expected)


class TestStrictDynamics:
    def test_no_nesting_means_no_spread(self):
        h = Hypergraph(NO_NESTING)
        influence = build_influence(h, "strict")
        config = DynamicsConfig(variant="strict", tau=1)
        for seed in range(h.m):
            assert trajectory(run_once(h, influence, config, seeds=[seed])) == [[seed]]

    def test_contained_pair_spreads(self):
        h = Hypergraph(ONE_NESTING)
        row = run(h, DynamicsConfig(variant="strict"), seeds=[1])
        assert trajectory(row) == [[1], [0]]
        assert final_active(row) == 2

    def test_nodes_do_not_feed_back(self):
        # node b is active, but without a 1-node hyperedge nothing happens
        h = Hypergraph(ONE_NESTING)
        row = run(
            h, DynamicsConfig(variant="strict"), seeds=[], seed_nodes=[h.labels.index("b")]
        )
        assert final_active(row) == 0

    def test_explicit_singletons_do_feed_pairs(self):
        h = Hypergraph([[1], [1, 2], [1, 2, 3]])
        row = run(h, DynamicsConfig(variant="strict"), seeds=[0])
        assert (row >= 0).tolist() == [True, True, True]

    def test_tau_two_needs_two_children(self):
        h = Hypergraph([[1, 2, 3], [1, 2], [2, 3], [1, 3]])
        config = DynamicsConfig(variant="strict", tau=2)
        assert non_seed_active(run(h, config, seeds=[1])) == 0
        assert non_seed_active(run(h, config, seeds=[1, 2])) == 1

    def test_strictly_greater_comparison(self):
        h = Hypergraph(ONE_NESTING)
        config = DynamicsConfig(variant="strict", tau=1, comparison=">")
        assert non_seed_active(run(h, config, seeds=[1])) == 0

    def test_max_steps_caps_progress(self):
        h = Hypergraph([[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]])
        config = DynamicsConfig(variant="strict", max_steps=2)
        row = run(h, config, seeds=[0])
        assert row.max(initial=0) == 2
        assert final_active(row) == 3


class TestNonStrictDynamics:
    def test_node_activates_pair_then_triangle(self):
        h = Hypergraph(ONE_NESTING)
        row = run(
            h, DynamicsConfig(variant="non-strict"), seeds=[], seed_nodes=[h.labels.index("b")]
        )
        assert trajectory(row) == [[], [1], [0]]

    def test_edge_activation_activates_members(self):
        h = Hypergraph([["a", "b", "c"], ["c", "d"]])
        row = run(h, DynamicsConfig(variant="non-strict"), seeds=[0])
        # c became active with the seed edge, so {c,d} follows a step later
        assert trajectory(row) == [[0], [1]]

    def test_degenerates_to_strict_without_pairs(self):
        h = Hypergraph([[1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5, 6]])
        strict = run(h, DynamicsConfig(variant="strict"), seeds=[0])
        loose = run(h, DynamicsConfig(variant="non-strict"), seeds=[0])
        assert trajectory(strict) == trajectory(loose)

    @given(hypergraphs(min_edge_size=3))
    @settings(max_examples=30)
    def test_degenerates_to_strict_without_pairs_property(self, h):
        seeds = [0]
        strict = run(h, DynamicsConfig(variant="strict"), seeds)
        loose = run(h, DynamicsConfig(variant="non-strict"), seeds)
        assert trajectory(strict) == trajectory(loose)


class TestEmpiricalAdjacent:
    def test_size_gap_is_bridged(self):
        h = Hypergraph([[1, 2, 3, 4], [1, 2]])
        row = run(h, DynamicsConfig(variant="empirical-adjacent"), seeds=[1])
        assert (row >= 0).tolist() == [True, True]
        # under the adjacent-size rule the same seed reaches nothing
        strict = run(h, DynamicsConfig(variant="strict"), seeds=[1])
        assert non_seed_active(strict) == 0

    def test_only_largest_contained_size_counts(self):
        h = Hypergraph([[1, 2, 3, 4], [1, 2, 3], [1, 4]])
        config = DynamicsConfig(variant="empirical-adjacent")
        via_pair = run(h, config, seeds=[2])
        assert via_pair[0] < 0
        via_triple = run(h, config, seeds=[1])
        assert via_triple[0] >= 0

    def test_matches_strict_when_gapless(self, chain_hypergraph):
        empirical = run(chain_hypergraph, DynamicsConfig(variant="empirical-adjacent"), seeds=[2])
        strict = run(chain_hypergraph, DynamicsConfig(variant="strict"), seeds=[2])
        assert trajectory(empirical) == trajectory(strict)


class TestThresholdDynamics:
    def test_unanimity(self):
        h = Hypergraph([[1, 2, 3]])
        config = DynamicsConfig(variant="threshold", tau=0)
        partial = run(h, config, seeds=[], seed_nodes=[0, 1])
        assert final_active(partial) == 0
        full = run(h, config, seeds=[], seed_nodes=[0, 1, 2])
        assert final_active(full) == 1

    def test_all_but_one(self):
        h = Hypergraph([[1, 2, 3]])
        config = DynamicsConfig(variant="threshold", tau=1)
        row = run(h, config, seeds=[], seed_nodes=[0, 1])
        assert final_active(row) == 1

    def test_activation_spreads_through_nodes(self):
        h = Hypergraph([[1, 2], [2, 3], [3, 4]])
        config = DynamicsConfig(variant="threshold", tau=1)
        row = run(h, config, seeds=[0])
        # {2,3} needs one of its nodes, then {3,4}
        assert trajectory(row) == [[0], [1], [2]]

    def test_degenerate_tau_warns_and_self_activates(self):
        h = Hypergraph([[1, 2], [3, 4, 5]])
        config = DynamicsConfig(variant="threshold", tau=2)
        # the engine runs it as given; the CLI warns (cli.warn_self_activation)
        row = run(h, config, seeds=[])
        assert (row >= 0).tolist() == [True, False]


class TestEngineInvariants:
    @given(any_hypergraphs(), st.integers(0, 3))
    @settings(max_examples=40)
    def test_monotone_and_counts_consistent(self, h, seed):
        rng = spawn_rng(seed)
        seeds = pick_seeds(h, "uniform", min(2, h.m), rng)
        for variant in ("strict", "non-strict"):
            config = DynamicsConfig(variant=variant)
            row = run(h, config, seeds)
            steps = trajectory(row)
            flat = [e for step in steps for e in step]
            assert len(flat) == len(set(flat))  # no hyperedge activates twice
            assert len(steps) - 1 <= 25
            assert final_active(row) == len(flat)
            assert_rounds_partition(row, steps)
            event("deepest round", len(steps) - 1)
            # the oracle recounts every influence from scratch each round
            assert steps == oracles.contagion_steps(h, config, seeds)

    @given(any_hypergraphs())
    @settings(max_examples=30)
    def test_empty_adjacent_dag_never_spreads(self, h):
        adj = adjacent_layer_dag(h)
        rows = oracles.out_rows(adj)
        if any(rows[i] for i in range(h.m)):
            return
        row = run(h, DynamicsConfig(variant="strict"), seeds=list(range(min(3, h.m))))
        assert non_seed_active(row) == 0

    @given(st.integers(0, 50))
    @settings(max_examples=25)
    def test_order_independence(self, seed):
        rng = spawn_rng(seed)
        base = [[1, 2, 3, 4], [1, 2, 3], [1, 2], [2, 3], [1], [2], [4, 5], [5]]
        order = rng.permutation(len(base))
        h1 = Hypergraph(base)
        h2 = Hypergraph([base[i] for i in order])
        seeds1 = [4, 5, 7]
        label_seeds = {frozenset(base[i]) for i in seeds1}

        def label_set(h, e):
            return frozenset(oracles.sorted_labels(h, e))

        seeds2 = [i for i in range(h2.m) if label_set(h2, i) in label_seeds]
        for variant in ("strict", "non-strict"):
            t1 = run(h1, DynamicsConfig(variant=variant), seeds1)
            t2 = run(h2, DynamicsConfig(variant=variant), seeds2)
            steps1 = [{label_set(h1, e) for e in step} for step in trajectory(t1)]
            steps2 = [{label_set(h2, e) for e in step} for step in trajectory(t2)]
            assert steps1 == steps2

    @given(any_hypergraphs(max_nodes=40, max_edges=200), st.sampled_from([64, 512, 4096]))
    # every subset of six nodes: more containment links than hyperedges and nodes
    @example(Hypergraph([c for k in range(1, 7) for c in combinations(range(6), k)]), 512)
    @settings(max_examples=30)
    def test_batches_stay_within_the_key_budget(self, h, budget):
        # a batch of several runs keeps its per-run flags and counts, and
        # every array a round gathers, within the key budget
        held = []  # per spread call: [runs, largest array held]

        def batch(h, influence, config, seeds, *rest):
            held.append([len(seeds), len(seeds) * (h.m + h.n)])
            return spread(h, influence, config, seeds, *rest)

        def sized(fn):
            def wrapped(*args):
                out = fn(*args)
                held[-1][1] = max(held[-1][1], out.size)
                return out
            return wrapped

        def first_runs(influence, grid):
            return np.concatenate(list(experiments_mod.activations(h, influence, grid, 1, 0)))

        # run 0 of every cell, in batches: the same rows as in one call
        cells = {variant: ExperimentGrid(DynamicsConfig(variant), STRATEGIES, (0, 1, h.m))
                 for variant in VARIANTS}
        unbudgeted = {variant: first_runs(build_influence(h, variant), grid)
                      for variant, grid in cells.items()}
        # every hyperedge seeded: the first round gathers every influence row
        with mock.patch.object(dynamics_mod, "_BATCH_KEYS", budget), \
                mock.patch.object(experiments_mod, "spread", batch), \
                mock.patch.object(dynamics_mod, "gather_rows", sized(dynamics_mod.gather_rows)), \
                mock.patch.object(dynamics_mod, "_influenced", sized(dynamics_mod._influenced)):
            for variant in VARIANTS:
                influence = build_influence(h, variant)
                grid = ExperimentGrid(DynamicsConfig(variant), seed_counts=(h.m,))
                run_experiment(h, influence, grid, 12, 0)
                calls = len(held)
                activated = first_runs(influence, cells[variant])
                assert activated.tolist() == unbudgeted[variant].tolist()
                assert max(runs for runs, _ in held[calls:]) <= influence.batch_runs(h)
        assert sum(runs for runs, _ in held) == (12 + 12) * len(VARIANTS)
        assert all(runs == 1 or largest <= budget for runs, largest in held)

    @given(any_hypergraphs(max_nodes=20, max_edges=80), st.sampled_from([64, 512, 4096]),
           st.integers(1, 7))
    @settings(max_examples=20)
    def test_sweep_batches_stay_within_the_key_budget(self, h, budget, runs):
        # a sweep hands each hypergraph's cells x runs to the engine as one
        # range: every spread call, and every stream derivation, still holds
        # at most batch_runs runs
        spread_runs, stream_runs = [], []
        spawn_rngs = experiments_mod.spawn_rngs

        def batch(h, influence, config, seeds, *rest):
            spread_runs.append(len(seeds))
            return spread(h, influence, config, seeds, *rest)

        def derive(master_seed, *path):
            stream_runs.append(len(path[-1]))
            return spawn_rngs(master_seed, *path)

        with mock.patch.object(dynamics_mod, "_BATCH_KEYS", budget), \
                mock.patch.object(experiments_mod, "spread", batch), \
                mock.patch.object(experiments_mod, "spawn_rngs", derive):
            for variant in VARIANTS:
                grid = ExperimentGrid(DynamicsConfig(variant), STRATEGIES, (0, 1, h.m + 1))
                experiments_mod.pooled_cells([h, h], grid, runs, 0)
                assert sum(spread_runs) == 2 * len(grid.cells()) * runs
                assert max(spread_runs) <= build_influence(h, variant).batch_runs(h)
                assert stream_runs == spread_runs
                spread_runs.clear()
                stream_runs.clear()

    def test_deterministic_trajectories(self):
        h = Hypergraph([[1], [2], [1, 2], [2, 3], [1, 2, 3]])
        config = DynamicsConfig(variant="non-strict")
        a = run(h, config, seeds=[0, 1])
        b = run(h, config, seeds=[0, 1])
        assert trajectory(a) == trajectory(b) and (a == b).all()

    def test_seed_validation(self):
        h = Hypergraph([[1, 2]])
        with pytest.raises(ValueError):
            spread(h, build_influence(h, "strict"), DynamicsConfig(), np.ones((1, 5), dtype=bool))

    def test_only_bool_masks_of_the_batch_shape_are_read(self):
        h = Hypergraph([[1, 2, 3], [1, 2]])  # m = 2, n = 3: a mask of the other width is wrong
        influence = build_influence(h, "non-strict")
        seeds, seed_nodes = seed_mask([[1], []], h.m), seed_mask([[], [0, 1]], h.n)
        for mask, width in ((seeds, h.n), (seed_nodes, h.m)):
            wrong_shapes = [np.zeros((2, width), dtype=bool), mask[:1], mask[0], mask[None]]
            for bad in (mask.tolist(), mask.astype(np.int64), mask.nonzero()[1], *wrong_shapes):
                args = (bad, seed_nodes) if mask is seeds else (seeds, bad)
                with pytest.raises(ValueError, match="must be a bool array of shape"):
                    spread(h, influence, DynamicsConfig("non-strict"), *args)
        activated = spread(h, influence, DynamicsConfig("non-strict"), seeds, seed_nodes)
        assert [trajectory(row) for row in activated] == [[[1], [0]], [[], [1], [0]]]

    def test_activation_proportion_conventions(self):
        h = Hypergraph([[1, 2], [2, 3]])
        row = run(h, DynamicsConfig(), seeds=[0, 1])
        seeded, final = len(trajectory(row)[0]), final_active(row)
        assert seeded == h.m
        assert activation_proportion(h.m, seeded, final) == 1.0

    def test_trajectory_json_dump(self, tmp_path):
        import json

        # smallest-first seeds the pair, which activates the triple
        (tmp_path / "h.txt").write_text("1 2 3\n1 2\n")
        path = tmp_path / "traj.json"
        assert main(["simulate", str(tmp_path / "h.txt"), "--strategy", "smallest-first",
                     "--runs", "1", "--out", str(tmp_path / "r.csv"),
                     "--trajectories", str(path)]) == 0
        (doc,) = json.loads(path.read_text())
        assert doc["steps"] == [[1], [0]]
        assert doc["final_active"] == 2


class TestContagionOracle:
    @pytest.mark.parametrize("comparison", [">=", ">"])
    @pytest.mark.parametrize("tau", [1, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    @given(h=any_hypergraphs(max_edges=40), data=st.data())
    @settings(max_examples=20)
    def test_steps_match_brute_force(self, variant, tau, comparison, h, data):
        seeds = data.draw(seed_ids(h.m))
        seed_nodes = data.draw(st.lists(st.integers(0, h.n - 1), max_size=2, unique=True))
        config = DynamicsConfig(variant=variant, tau=tau, comparison=comparison, max_steps=6)
        row = run(h, config, seeds, seed_nodes)
        steps = trajectory(row)
        event("deepest round", len(steps) - 1)
        assert steps == oracles.contagion_steps(h, config, seeds, seed_nodes)
        assert final_active(row) == sum(map(len, steps))

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(h=any_hypergraphs(max_edges=40), data=st.data())
    @settings(max_examples=25)
    def test_batched_runs_match_brute_force(self, variant, h, data):
        # runs of one batch share the arrays they read and nothing else
        runs = data.draw(st.integers(1, 4))
        seeds = [data.draw(seed_ids(h.m)) for _ in range(runs)]
        seed_nodes = [data.draw(st.lists(st.integers(0, h.n - 1), max_size=2, unique=True))
                      for _ in range(runs)]
        config = DynamicsConfig(variant=variant, tau=data.draw(st.integers(1, 2)),
                                comparison=data.draw(st.sampled_from([">=", ">"])),
                                max_steps=data.draw(st.sampled_from([1, 3, 25])))
        activated = spread(h, build_influence(h, variant), config, seed_mask(seeds, h.m),
                           seed_mask(seed_nodes, h.n))
        expected = [oracles.contagion_steps(h, config, s, u) for s, u in zip(seeds, seed_nodes)]
        event("deepest round", max(len(steps) - 1 for steps in expected))
        assert [trajectory(row) for row in activated] == expected
        assert activated.max(axis=1, initial=0).tolist() == [len(steps) - 1 for steps in expected]
        assert [final_active(row) for row in activated] == [sum(map(len, steps))
                                                            for steps in expected]
        for row in activated:
            assert_rounds_partition(row, trajectory(row))
