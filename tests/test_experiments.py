from __future__ import annotations

import csv
from dataclasses import replace
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import hypernest.dynamics as dynamics_mod
import hypernest.experiments as experiments_mod
import oracles
from conftest import hypergraphs, pick_seeds
from hypernest import (DynamicsConfig, ExperimentGrid, GenerationError, Hypergraph, RnhmParams,
                       RunRecord, build_influence, generate, spawn_rng,
                       run_experiment, summarize)
from hypernest.dynamics import STRATEGIES, VARIANTS, activation_proportion, spread
from hypernest.experiments import (first_runs, pooled_cells, randomized_comparison,
                                   write_records_csv)


@pytest.fixture
def ladder() -> Hypergraph:
    # singletons feeding pairs feeding triples; rich enough to spread
    edges = [[i] for i in range(6)]
    edges += [[i, i + 1] for i in range(5)]
    edges += [[i, i + 1, i + 2] for i in range(4)]
    return Hypergraph(edges)


GRID = ExperimentGrid(
    DynamicsConfig("non-strict"),
    strategies=("uniform", "smallest-first"),
    seed_counts=(1, 4),
)


def experiment(h: Hypergraph, grid: ExperimentGrid, runs: int, master_seed: int, **kwargs):
    """``run_experiment`` under the influence map of the grid's variant."""
    return run_experiment(h, build_influence(h, grid.config.variant), grid, runs, master_seed,
                          **kwargs)


class TestRunExperiment:
    def test_deterministic_across_calls(self, ladder):
        a = experiment(ladder, GRID, runs=5, master_seed=3)
        b = experiment(ladder, GRID, runs=5, master_seed=3)
        assert a == b

    def test_jobs_do_not_change_results(self, ladder):
        serial = experiment(ladder, GRID, runs=3, master_seed=1, jobs=1)
        parallel = experiment(ladder, GRID, runs=3, master_seed=1, jobs=2)
        assert serial == parallel

    def test_record_grid_coverage(self, ladder):
        records = experiment(ladder, GRID, runs=2, master_seed=0, dataset="toy")
        assert len(records) == len(GRID.cells()) * 2
        assert {(r.strategy, r.seeds) for r in records} == set(GRID.cells())
        assert all(r.dataset == "toy" and r.variant == "non-strict" and r.tau == 1
                   for r in records)

    def test_all_seeded_reports_complete(self, ladder):
        grid = ExperimentGrid(strategies=("uniform",), seed_counts=(ladder.m,))
        records = experiment(ladder, grid, runs=2, master_seed=0)
        assert all(r.seeds == r.final_active == ladder.m and r.proportion == 1.0 for r in records)

    def test_proportion_definition(self, ladder):
        grid = ExperimentGrid(strategies=("smallest-first",), seed_counts=(6,))
        (rec,) = experiment(ladder, grid, runs=1, master_seed=0)
        assert rec.proportion == rec.non_seed_active / (ladder.m - rec.seeds)

    def test_runs_validation(self, ladder):
        with pytest.raises(ValueError):
            experiment(ladder, GRID, runs=0, master_seed=0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_validation(self, ladder, jobs):
        with pytest.raises(ValueError, match="jobs"):
            experiment(ladder, GRID, runs=1, master_seed=0, jobs=jobs)

    def test_workers_never_exceed_parts(self, ladder):
        # under fork a pool starts all its workers at the first submit, so a
        # grid of two runs must ask for two workers however many jobs it may use
        asked = []

        class SerialPool:
            """Records the workers asked for; runs the parts in this process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        grid = ExperimentGrid(strategies=("uniform",), seed_counts=(2,))
        serial = experiment(ladder, grid, runs=2, master_seed=0)
        with mock.patch("concurrent.futures.ProcessPoolExecutor", SerialPool):
            wide = experiment(ladder, grid, runs=2, master_seed=0, jobs=64)
        assert asked == [2]
        assert wide == serial


def single_run(h, influence, grid, c, run, master_seed):
    """Run ``run`` of cell ``c`` of ``grid`` alone, as a batch of one, its
    seeds drawn from NumPy's own ``SeedSequence`` stream of the run."""
    gen = oracles.seed_sequence_rng(master_seed, "seed-selection", c, run)
    return spread(h, influence, grid.config, [pick_seeds(h, *grid.cells()[c], gen)])


def per_run_records(h, grid, runs, master_seed) -> list[RunRecord]:
    """The records of ``run_experiment``, one ``spread`` call per run, each
    read from its run's steps and activation row alone."""
    config, influence = grid.config, build_influence(h, grid.config.variant)
    records = []
    for idx, (strategy, seed_count) in enumerate(grid.cells()):
        for run in range(runs):
            batch = single_run(h, influence, grid, idx, run, master_seed)
            steps = batch.steps(0)
            seeded, final = len(steps[0]), int(batch.edge_active[0].sum())
            records.append(RunRecord("", config.variant, strategy, seed_count, config.tau, run,
                                     len(steps) - 1, final, final - seeded,
                                     activation_proportion(h.m, seeded, final)))
    return records


@st.composite
def grids(draw, h: Hypergraph, variant: str) -> ExperimentGrid:
    """A multi-cell grid of ``variant`` with drawn strategies, seed counts,
    threshold, step cap and comparison."""
    config = DynamicsConfig(
        variant,
        tau=draw(st.integers(0 if variant == "threshold" else 1, 2)),
        max_steps=draw(st.sampled_from([1, 3, 25])),
        comparison=draw(st.sampled_from([">=", ">"])),
    )
    return ExperimentGrid(
        config,
        strategies=tuple(draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=3,
                                       unique=True))),
        seed_counts=tuple(draw(st.lists(st.integers(0, h.m), min_size=1, max_size=3,
                                        unique=True))),
    )


class TestBatchedRuns:
    """``run_experiment`` runs a grid's cells x runs in shared batches;
    each record must still be what a batch of that run alone gives."""

    @pytest.mark.parametrize("comparison", [">=", ">"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @given(h=hypergraphs(max_edges=30), data=st.data())
    @settings(max_examples=25)
    def test_records_match_per_run_loop(self, variant, comparison, h, data):
        grid = data.draw(grids(h, variant))
        grid = replace(grid, config=replace(grid.config, comparison=comparison))
        runs, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**16))
        # a budget of one key splits the grid into one run per batch
        budget = data.draw(st.sampled_from([1, 64, dynamics_mod._BATCH_KEYS]))
        with mock.patch.object(dynamics_mod, "_BATCH_KEYS", budget):
            records = experiment(h, grid, runs, seed)
        assert records == per_run_records(h, grid, runs, seed)

    @pytest.mark.parametrize("jobs", [1, 2])
    @given(h=hypergraphs(max_edges=30), data=st.data())
    @settings(max_examples=8)
    def test_worker_parts_match_per_run_loop(self, jobs, h, data):
        grid = data.draw(grids(h, data.draw(st.sampled_from(VARIANTS))))
        records = experiment(h, grid, 3, 11, jobs=jobs)
        assert records == per_run_records(h, grid, 3, 11)

    def test_one_variant_splits_across_jobs(self, ladder):
        parts = []

        class InlinePool:
            """Runs the parts in this process and records them."""

            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                parts.extend(work)
                return map(fn, parts)

        grid = ExperimentGrid(DynamicsConfig("threshold"), ("uniform",), (2,))
        serial = experiment(ladder, grid, runs=5, master_seed=2)
        with mock.patch("concurrent.futures.ProcessPoolExecutor", InlinePool):
            split = experiment(ladder, grid, runs=5, master_seed=2, jobs=2)
        # one cell's five runs go to two workers, as runs 0-1 and 2-4
        assert [part[3] for part in parts] == [(0, 2), (2, 5)]
        parallel = experiment(ladder, grid, runs=5, master_seed=2, jobs=2)
        assert split == parallel == serial == per_run_records(ladder, grid, 5, 2)

    @pytest.mark.parametrize("budget", [1, dynamics_mod._BATCH_KEYS])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_matches_seed_sequence_loop(self, ladder, strategy, jobs, budget):
        parts = []

        class InlinePool:
            """Runs the parts in this process and records them."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                parts.extend(work)
                return map(fn, parts)

        grid = ExperimentGrid(DynamicsConfig("strict"), (strategy,), (1, 3, 5))
        # a budget of one key runs one run per batch, the full one a part's
        # runs of every cell in one batch
        with mock.patch.object(dynamics_mod, "_BATCH_KEYS", budget), \
                mock.patch("concurrent.futures.ProcessPoolExecutor", InlinePool):
            records = experiment(ladder, grid, runs=2, master_seed=9, jobs=jobs)
        if jobs == 2:
            # six runs split as three and three: cell 1 goes to both workers
            assert [part[3] for part in parts] == [(0, 3), (3, 6)]
        assert records == per_run_records(ladder, grid, 2, 9)

    def test_contagion_leaves_row_views_unbuilt(self, ladder):
        for variant in VARIANTS:
            grid = ExperimentGrid(DynamicsConfig(variant), ("uniform",), (2,))
            influence = build_influence(ladder, variant)
            run_experiment(ladder, influence, grid, runs=2, master_seed=0)
            first_runs(ladder, influence, grid, 0)
            maps = [*influence.edges, *(influence.nodes or ())]
            assert all(isinstance(a, np.ndarray) for a in maps)
        assert "edges" not in vars(ladder)


class TestFirstRuns:
    @pytest.mark.parametrize("variant", VARIANTS)
    @given(h=hypergraphs(max_edges=30), data=st.data())
    @settings(max_examples=10)
    def test_run_c_is_run_0_of_cell_c(self, variant, h, data):
        grid = data.draw(grids(h, variant))
        influence = build_influence(h, variant)
        batch = first_runs(h, influence, grid, 5)
        first = [rec for rec in run_experiment(h, influence, grid, 2, 5) if rec.run == 0]
        assert batch.num_steps.tolist() == [rec.steps for rec in first]
        assert batch.final_active.tolist() == [rec.final_active for rec in first]
        for c in range(len(first)):
            assert batch.steps(c) == single_run(h, influence, grid, c, 0, 5).steps(0)

    def test_one_spread_call(self, ladder):
        calls = []

        def counted(*args):
            calls.append(len(args[3]))
            return spread(*args)

        with mock.patch("hypernest.experiments.spread", counted):
            first_runs(ladder, build_influence(ladder, "non-strict"), GRID, 0)
        assert calls == [len(GRID.cells())]


@st.composite
def sweep_params(draw) -> RnhmParams:
    """RNHM parameters small enough for many sweeps."""
    nodes = draw(st.integers(4, 12))
    max_size = draw(st.integers(2, 4))
    max_edges = draw(st.integers(1, min(4, comb(nodes, max_size))))
    keep = {s: draw(st.sampled_from((0.0, 0.3, 0.7, 1.0))) for s in range(2, max_size)}
    return RnhmParams(nodes, max_size, max_edges, keep, draw(st.booleans()))


class TestPooledCells:
    """``pooled_cells`` runs each hypergraph's cells x runs as one range on
    shared streams; its rows must be those of one one-cell grid per cell."""

    @given(params=sweep_params(), variant=st.sampled_from(VARIANTS), tau=st.integers(0, 2),
           realizations=st.integers(1, 3), seed=st.integers(0, 2**16),
           counts=st.lists(st.integers(1, 20), max_size=2, unique=True), runs=st.integers(1, 7),
           budget=st.sampled_from([1, 64, dynamics_mod._BATCH_KEYS]))
    # the benchmark sweep's parameters at its first keep-probability pair
    @example(params=RnhmParams(20, 4, 5, {2: 0.0, 3: 0.0}, True), variant="strict", tau=1,
             realizations=2, seed=0, counts=[1, 5, 10, 20, 35], runs=7, budget=700)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
    def test_rows_match_one_cell_grids(self, params, variant, tau, realizations, seed, counts,
                                       runs, budget):
        try:
            hs = [generate(params, spawn_rng(seed + r, "rnhm")).hypergraph
                  for r in range(realizations)]
        except GenerationError:
            assume(False)
        config = DynamicsConfig(variant, tau if variant == "threshold" else max(tau, 1))
        # 0 and a count above every m, which each hypergraph clamps to its m
        grid = ExperimentGrid(config, STRATEGIES, (0, *counts, 99))
        # a budget of one key runs one run per batch; smaller budgets end
        # batches inside cells
        with mock.patch.object(dynamics_mod, "_BATCH_KEYS", budget):
            rows = pooled_cells(hs, grid, runs, seed)
        assert rows == oracles.sweep_cells(hs, grid, runs, seed)


class TestSummaries:
    def test_mean_and_stderr(self, ladder):
        records = experiment(ladder, GRID, runs=8, master_seed=2)
        for cell in summarize(records)["cells"]:
            props = [
                r.proportion
                for r in records
                if (r.strategy, r.seeds) == (cell["strategy"], cell["seeds"])
            ]
            assert cell["runs"] == len(props)
            assert cell["mean_proportion"] == pytest.approx(sum(props) / len(props))
            assert cell["stderr"] >= 0.0

    def test_identical_runs_have_zero_variance(self, ladder):
        # smallest-first with every hyperedge seeded is the same draw each run
        grid = ExperimentGrid(strategies=("smallest-first",), seed_counts=(ladder.m,))
        (cell,) = summarize(experiment(ladder, grid, runs=5, master_seed=0))["cells"]
        assert cell["stderr"] == 0.0
        assert cell["mean_proportion"] == 1.0


class TestRandomizedComparison:
    def test_shape_and_determinism(self, ladder):
        grid = ExperimentGrid(strategies=("smallest-first",), seed_counts=(6,))
        influence = build_influence(ladder, "strict")
        records, comps = randomized_comparison(ladder, influence, grid, runs=3, samples=2,
                                               master_seed=4)
        records2, comps2 = randomized_comparison(ladder, influence, grid, runs=3, samples=2,
                                                 master_seed=4)
        assert comps == comps2 and records == records2
        (comp,) = comps["cells"]
        assert comp["difference"] == pytest.approx(comp["observed_mean"] - comp["randomized_mean"])

    def test_null_samples_split_across_jobs_and_build_no_records(self, ladder):
        parts = []

        class InlinePool:
            """Runs the parts in this process and records them."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                work = list(work)
                parts.extend(work)
                return map(fn, work)

        influence = build_influence(ladder, GRID.config.variant)
        serial = randomized_comparison(ladder, influence, GRID, runs=3, samples=2, master_seed=5)
        with mock.patch("concurrent.futures.ProcessPoolExecutor", InlinePool), \
                mock.patch.object(experiments_mod, "RunRecord", wraps=RunRecord) as built:
            split = randomized_comparison(ladder, influence, GRID, runs=3, samples=2,
                                          master_seed=5, jobs=2)
        # twelve runs as six and six, on the observed grid and on each sample
        assert [part[3] for part in parts] == [(0, 6), (6, 12)] * 3
        assert split == serial
        # records of the observed runs only
        assert built.call_count == len(GRID.cells()) * 3

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_validation(self, ladder, samples):
        with pytest.raises(ValueError, match="samples"):
            randomized_comparison(ladder, build_influence(ladder, "non-strict"), GRID, runs=1,
                                  samples=samples, master_seed=0)


class TestCsvExport:
    def test_columns_and_round_trip(self, ladder, tmp_path):
        records = experiment(ladder, GRID, runs=2, master_seed=0, dataset="toy")
        path = tmp_path / "results.csv"
        write_records_csv(records, path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert list(rows[0]) == [
            "dataset", "variant", "strategy", "seeds", "tau", "run",
            "steps", "final_active", "non_seed_active", "proportion",
        ]
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert int(row["final_active"]) == rec.final_active
            assert float(row["proportion"]) == pytest.approx(rec.proportion)
