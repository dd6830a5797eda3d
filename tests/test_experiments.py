from __future__ import annotations

import csv
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypernest.dynamics as dynamics_mod
from conftest import hypergraphs
from hypernest import ExperimentGrid, Hypergraph, RunRecord, run_experiment, summarize
from hypernest.dynamics import STRATEGIES, VARIANTS, activation_proportion, spread
from hypernest.experiments import (_cell_seeds, first_runs, prepare_dynamics,
                                   randomized_comparison, write_records_csv)


@pytest.fixture
def ladder() -> Hypergraph:
    # singletons feeding pairs feeding triples; rich enough to spread
    edges = [[i] for i in range(6)]
    edges += [[i, i + 1] for i in range(5)]
    edges += [[i, i + 1, i + 2] for i in range(4)]
    return Hypergraph(edges)


GRID = ExperimentGrid(
    variants=("strict", "non-strict"),
    strategies=("uniform", "smallest-first"),
    seed_counts=(1, 4),
)


class TestRunExperiment:
    def test_deterministic_across_calls(self, ladder):
        a = run_experiment(prepare_dynamics(ladder), GRID, runs=5, master_seed=3)
        b = run_experiment(prepare_dynamics(ladder), GRID, runs=5, master_seed=3)
        assert a == b

    def test_jobs_do_not_change_results(self, ladder):
        serial = run_experiment(prepare_dynamics(ladder), GRID, runs=3, master_seed=1, jobs=1)
        parallel = run_experiment(prepare_dynamics(ladder), GRID, runs=3, master_seed=1, jobs=2)
        assert serial == parallel

    def test_record_grid_coverage(self, ladder):
        records = run_experiment(prepare_dynamics(ladder), GRID, runs=2, master_seed=0, dataset="toy")
        assert len(records) == len(GRID.cells()) * 2
        assert {(r.variant, r.strategy, r.seeds) for r in records} == set(GRID.cells())
        assert all(r.dataset == "toy" and r.tau == 1 for r in records)

    def test_all_seeded_reports_complete(self, ladder):
        grid = ExperimentGrid(strategies=("uniform",), seed_counts=(ladder.m,))
        records = run_experiment(prepare_dynamics(ladder), grid, runs=2, master_seed=0)
        assert all(r.seeds == r.final_active == ladder.m and r.proportion == 1.0 for r in records)

    def test_proportion_definition(self, ladder):
        grid = ExperimentGrid(strategies=("smallest-first",), seed_counts=(6,))
        (rec,) = run_experiment(prepare_dynamics(ladder), grid, runs=1, master_seed=0)
        assert rec.proportion == rec.non_seed_active / (ladder.m - rec.seeds)

    def test_runs_validation(self, ladder):
        with pytest.raises(ValueError):
            run_experiment(prepare_dynamics(ladder), GRID, runs=0, master_seed=0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_validation(self, ladder, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(prepare_dynamics(ladder), GRID, runs=1, master_seed=0, jobs=jobs)

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
        serial = run_experiment(prepare_dynamics(ladder), grid, runs=2, master_seed=0)
        with mock.patch("concurrent.futures.ProcessPoolExecutor", SerialPool):
            wide = run_experiment(prepare_dynamics(ladder), grid, runs=2, master_seed=0, jobs=64)
        assert asked == [2]
        assert wide == serial


def single_run(prepared, grid, c, run, master_seed):
    """Run ``run`` of cell ``c`` of ``grid`` alone, as a batch of one."""
    h, cell = prepared.hypergraph, grid.cells()[c]
    seeds = _cell_seeds(h, cell, c, run, master_seed)
    return spread(h, prepared.influence(cell[0]), grid.config(cell[0]), [seeds])


def per_run_records(prepared, grid, runs, master_seed) -> list[RunRecord]:
    """The records of ``run_experiment``, one ``spread`` call per run, each
    read from its run's steps and activation row alone."""
    m = prepared.hypergraph.m
    records = []
    for idx, (variant, strategy, seed_count) in enumerate(grid.cells()):
        for run in range(runs):
            batch = single_run(prepared, grid, idx, run, master_seed)
            steps = batch.steps(0)
            seeded, final = len(steps[0]), int(batch.edge_active[0].sum())
            records.append(RunRecord("", variant, strategy, seed_count, grid.tau, run,
                                     len(steps) - 1, final, final - seeded,
                                     activation_proportion(m, seeded, final)))
    return records


@st.composite
def grids(draw, h: Hypergraph, variants) -> ExperimentGrid:
    """A multi-cell grid over ``variants`` with drawn strategies, seed counts,
    threshold, step cap and comparison."""
    return ExperimentGrid(
        variants=variants,
        strategies=tuple(draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=3,
                                       unique=True))),
        seed_counts=tuple(draw(st.lists(st.integers(0, h.m), min_size=1, max_size=3,
                                        unique=True))),
        tau=draw(st.integers(0 if variants == ("threshold",) else 1, 2)),
        max_steps=draw(st.sampled_from([1, 3, 25])),
        comparison=draw(st.sampled_from([">=", ">"])),
    )


class TestBatchedRuns:
    """``run_experiment`` runs a variant's cells x runs in shared batches;
    each record must still be what a batch of that run alone gives."""

    @pytest.mark.parametrize("comparison", [">=", ">"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @given(h=hypergraphs(max_edges=30), data=st.data())
    @settings(max_examples=25)
    def test_records_match_per_run_loop(self, variant, comparison, h, data):
        grid = replace(data.draw(grids(h, (variant,))), comparison=comparison)
        runs, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**16))
        prepared = prepare_dynamics(h)
        # a budget of one key splits the grid into one run per batch
        budget = data.draw(st.sampled_from([1, 64, dynamics_mod._BATCH_KEYS]))
        with mock.patch.object(dynamics_mod, "_BATCH_KEYS", budget):
            records = run_experiment(prepared, grid, runs, seed)
        assert records == per_run_records(prepared, grid, runs, seed)

    @pytest.mark.parametrize("jobs", [1, 2])
    @given(h=hypergraphs(max_edges=30), data=st.data())
    @settings(max_examples=8)
    def test_multi_variant_grid_matches_per_run_loop(self, jobs, h, data):
        variants = tuple(data.draw(st.lists(st.sampled_from(VARIANTS[:3]), min_size=2,
                                            max_size=3, unique=True)))
        grid = data.draw(grids(h, variants))
        prepared = prepare_dynamics(h)
        records = run_experiment(prepared, grid, 3, 11, jobs=jobs)
        assert records == per_run_records(prepared, grid, 3, 11)

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

        grid = ExperimentGrid(variants=("threshold",), strategies=("uniform",), seed_counts=(2,))
        serial = run_experiment(prepare_dynamics(ladder), grid, runs=5, master_seed=2)
        with mock.patch("concurrent.futures.ProcessPoolExecutor", InlinePool):
            split = run_experiment(prepare_dynamics(ladder), grid, runs=5, master_seed=2, jobs=2)
        # one cell's five runs go to two workers, as runs 0-1 and 2-4
        assert [[run for _, run in part[4]] for part in parts] == [[0, 1], [2, 3, 4]]
        parallel = run_experiment(prepare_dynamics(ladder), grid, runs=5, master_seed=2, jobs=2)
        assert split == parallel == serial == per_run_records(prepare_dynamics(ladder), grid, 5, 2)

    def test_contagion_leaves_row_views_unbuilt(self, ladder):
        prepared = prepare_dynamics(ladder)
        grid = ExperimentGrid(variants=VARIANTS, strategies=("uniform",), seed_counts=(2,))
        run_experiment(prepared, grid, runs=2, master_seed=0)
        for variant in VARIANTS:
            first_runs(prepared, replace(grid, variants=(variant,)), 0)
        assert "edges" not in vars(ladder)
        for dag in (prepared.full_dag, prepared.adjacent_dag):
            assert "out_adj" not in vars(dag)
        for influence in prepared.influences.values():
            maps = [*influence.edges, *(influence.nodes or ())]
            assert all(isinstance(a, np.ndarray) for a in maps)


class TestFirstRuns:
    @pytest.mark.parametrize("variant", VARIANTS)
    @given(h=hypergraphs(max_edges=30), data=st.data())
    @settings(max_examples=10)
    def test_run_c_is_run_0_of_cell_c(self, variant, h, data):
        grid = data.draw(grids(h, (variant,)))
        prepared = prepare_dynamics(h)
        batch = first_runs(prepared, grid, 5)
        first = [rec for rec in run_experiment(prepared, grid, 2, 5) if rec.run == 0]
        assert batch.num_steps().tolist() == [rec.steps for rec in first]
        assert batch.final_active().tolist() == [rec.final_active for rec in first]
        for c in range(len(first)):
            assert batch.steps(c) == single_run(prepared, grid, c, 0, 5).steps(0)

    def test_one_spread_call(self, ladder):
        calls = []

        def counted(*args):
            calls.append(len(args[3]))
            return spread(*args)

        grid = replace(GRID, variants=("strict",))
        with mock.patch("hypernest.experiments.spread", counted):
            first_runs(prepare_dynamics(ladder), grid, 0)
        assert calls == [len(grid.cells())]

    def test_one_variant_only(self, ladder):
        with pytest.raises(ValueError):
            first_runs(prepare_dynamics(ladder), GRID, 0)


class TestSummaries:
    def test_mean_and_stderr(self, ladder):
        records = run_experiment(prepare_dynamics(ladder), GRID, runs=8, master_seed=2)
        for cell in summarize(records):
            props = [
                r.proportion
                for r in records
                if (r.variant, r.strategy, r.seeds) == (cell.variant, cell.strategy, cell.seeds)
            ]
            assert cell.runs == len(props)
            assert cell.mean_proportion == pytest.approx(sum(props) / len(props))
            assert cell.stderr >= 0.0

    def test_identical_runs_have_zero_variance(self, ladder):
        # smallest-first with every hyperedge seeded is the same draw each run
        grid = ExperimentGrid(strategies=("smallest-first",), seed_counts=(ladder.m,))
        (cell,) = summarize(run_experiment(prepare_dynamics(ladder), grid, runs=5, master_seed=0))
        assert cell.stderr == 0.0
        assert cell.mean_proportion == 1.0


class TestRandomizedComparison:
    def test_shape_and_determinism(self, ladder):
        grid = ExperimentGrid(strategies=("smallest-first",), seed_counts=(6,))
        records, comps = randomized_comparison(prepare_dynamics(ladder), grid, runs=3, samples=2, master_seed=4)
        records2, comps2 = randomized_comparison(prepare_dynamics(ladder), grid, runs=3, samples=2, master_seed=4)
        assert comps == comps2 and records == records2
        (comp,) = comps
        assert comp.difference == pytest.approx(comp.observed_mean - comp.randomized_mean)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_validation(self, ladder, samples):
        with pytest.raises(ValueError, match="samples"):
            randomized_comparison(prepare_dynamics(ladder), GRID, runs=1, samples=samples,
                                  master_seed=0)


class TestCsvExport:
    def test_columns_and_round_trip(self, ladder, tmp_path):
        records = run_experiment(prepare_dynamics(ladder), GRID, runs=2, master_seed=0, dataset="toy")
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
