from __future__ import annotations

import csv

import pytest

from hypernest import ExperimentGrid, Hypergraph, run_experiment, summarize
from hypernest.experiments import prepare_dynamics, randomized_comparison, write_records_csv


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


class TestCsvExport:
    def test_columns_and_round_trip(self, ladder, tmp_path):
        records = run_experiment(prepare_dynamics(ladder), GRID, runs=2, master_seed=0, dataset="toy")
        path = tmp_path / "results.csv"
        write_records_csv(records, path)
        rows = list(csv.DictReader(open(path)))
        assert list(rows[0]) == [
            "dataset", "variant", "strategy", "seeds", "tau", "run",
            "steps", "final_active", "non_seed_active", "proportion",
        ]
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert int(row["final_active"]) == rec.final_active
            assert float(row["proportion"]) == pytest.approx(rec.proportion)
