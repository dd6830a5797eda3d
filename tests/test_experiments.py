from __future__ import annotations

import csv
import tempfile
from dataclasses import replace
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import hypernest.cli as cli_mod
import hypernest.dynamics as dynamics_mod
import oracles
from conftest import final_active, hypergraphs
from hypernest import (DynamicsConfig, ExperimentGrid, GenerationError, Hypergraph, RnhmParams,
                       build_influence, cell_proportions, generate, spawn_rng, run_experiment,
                       summarize, write_plain)
from hypernest.cli import json_text, main
from hypernest.dynamics import STRATEGIES, VARIANTS, activation_proportion, spread, trajectory
from hypernest.experiments import (activations, pooled_cells, randomized_comparison,
                                   write_records_csv)
from hypernest.hypergraph import load_plain


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
        assert np.array_equal(a, b)

    def test_jobs_do_not_change_results(self, ladder):
        serial = experiment(ladder, GRID, runs=3, master_seed=1, jobs=1)
        parallel = experiment(ladder, GRID, runs=3, master_seed=1, jobs=2)
        assert np.array_equal(serial, parallel)

    def test_record_grid_coverage(self, ladder):
        outcomes = experiment(ladder, GRID, runs=2, master_seed=0)
        assert outcomes.shape == (2, len(GRID.cells()), 2)
        cells = summarize(GRID, cell_proportions(ladder, GRID, outcomes), "toy")["cells"]
        assert [(c["strategy"], c["seeds"]) for c in cells] == GRID.cells()
        assert all(c["dataset"] == "toy" and c["variant"] == "non-strict" and c["tau"] == 1
                   for c in cells)

    def test_all_seeded_reports_complete(self, ladder):
        grid = ExperimentGrid(strategies=("uniform",), seed_counts=(ladder.m,))
        outcomes = experiment(ladder, grid, runs=2, master_seed=0)
        assert outcomes[1].tolist() == [[ladder.m, ladder.m]]
        assert cell_proportions(ladder, grid, outcomes) == [[1.0, 1.0]]

    def test_proportion_definition(self, ladder):
        grid = ExperimentGrid(strategies=("smallest-first",), seed_counts=(6,))
        outcomes = experiment(ladder, grid, runs=1, master_seed=0)
        ((final,),) = outcomes[1].tolist()
        assert cell_proportions(ladder, grid, outcomes) == [[(final - 6) / (ladder.m - 6)]]

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
        assert np.array_equal(wide, serial)


def single_run(h, influence, grid, c, run, master_seed):
    """The activation row of run ``run`` of cell ``c`` of ``grid``, run alone
    as a batch of one, its seeds drawn from NumPy's own ``SeedSequence``
    stream of the run."""
    gen = oracles.seed_sequence_rng(master_seed, "seed-selection", c, run)
    return spread(h, influence, grid.config,
                  dynamics_mod.pick_seeds(h, *grid.cells()[c], [gen]))[0]


def results(h, grid, outcomes) -> tuple[list, list[list[float]]]:
    """``run_experiment``'s ``outcomes`` as lists, and their ``cell_proportions``."""
    return outcomes.tolist(), cell_proportions(h, grid, outcomes)


def per_run_results(h, grid, runs, master_seed) -> tuple[list, list[list[float]]]:
    """What ``results`` gives for ``run_experiment``, from one ``spread``
    call per run, each read from its run's steps and activation row alone;
    a proportion counts the seeds its run was given."""
    influence = build_influence(h, grid.config.variant)
    steps, finals, props = [], [], []
    for idx in range(len(grid.cells())):
        for lists in (steps, finals, props):
            lists.append([])
        for run in range(runs):
            row = single_run(h, influence, grid, idx, run, master_seed)
            rounds = trajectory(row)
            steps[-1].append(len(rounds) - 1)
            finals[-1].append(final_active(row))
            props[-1].append(activation_proportion(h.m, len(rounds[0]), finals[-1][-1]))
    return [steps, finals], props


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
            outcomes = experiment(h, grid, runs, seed)
        assert results(h, grid, outcomes) == per_run_results(h, grid, runs, seed)

    @pytest.mark.parametrize("jobs", [1, 2])
    @given(h=hypergraphs(max_edges=30), data=st.data())
    @settings(max_examples=8)
    def test_worker_parts_match_per_run_loop(self, jobs, h, data):
        grid = data.draw(grids(h, data.draw(st.sampled_from(VARIANTS))))
        outcomes = experiment(h, grid, 3, 11, jobs=jobs)
        assert results(h, grid, outcomes) == per_run_results(h, grid, 3, 11)

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
        assert (results(ladder, grid, split) == results(ladder, grid, parallel)
                == results(ladder, grid, serial) == per_run_results(ladder, grid, 5, 2))

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
            outcomes = experiment(ladder, grid, runs=2, master_seed=9, jobs=jobs)
        if jobs == 2:
            # six runs split as three and three: cell 1 goes to both workers
            assert [part[3] for part in parts] == [(0, 3), (3, 6)]
        assert results(ladder, grid, outcomes) == per_run_results(ladder, grid, 2, 9)

    def test_contagion_leaves_row_views_unbuilt(self, ladder):
        for variant in VARIANTS:
            grid = ExperimentGrid(DynamicsConfig(variant), ("uniform",), (2,))
            influence = build_influence(ladder, variant)
            run_experiment(ladder, influence, grid, runs=2, master_seed=0)
            list(activations(ladder, influence, grid, 1, 0))
            maps = [*influence.edges, *(influence.nodes or ())]
            assert all(isinstance(a, np.ndarray) for a in maps)
        assert "edges" not in vars(ladder)


def first_runs(h, influence, grid, master_seed) -> np.ndarray:
    """Row c: the activation row of run 0 of cell c, from ``activations``."""
    return np.concatenate(list(activations(h, influence, grid, 1, master_seed)))


class TestFirstRuns:
    @pytest.mark.parametrize("variant", VARIANTS)
    @given(h=hypergraphs(max_edges=30), data=st.data())
    @settings(max_examples=10)
    def test_run_c_is_run_0_of_cell_c(self, variant, h, data):
        grid = data.draw(grids(h, variant))
        influence = build_influence(h, variant)
        activated = first_runs(h, influence, grid, 5)
        steps, finals = run_experiment(h, influence, grid, 2, 5)[:, :, 0].tolist()
        assert activated.max(axis=1, initial=0).tolist() == steps
        assert [final_active(row) for row in activated] == finals
        for c in range(len(steps)):
            assert trajectory(activated[c]) == trajectory(single_run(h, influence, grid, c, 0, 5))

    def test_one_spread_call(self, ladder):
        calls = []

        def counted(*args):
            calls.append(len(args[3]))
            return spread(*args)

        with mock.patch("hypernest.experiments.spread", counted):
            first_runs(ladder, build_influence(ladder, "non-strict"), GRID, 0)
        assert calls == [len(GRID.cells())]


def simulate_argv(src: Path, grid: ExperimentGrid, seed: int, outdir: Path) -> list[str]:
    """``simulate`` of one run per cell of ``grid`` on the plain file ``src``,
    unfiltered, writing ``r.csv`` and ``t.json`` in ``outdir``."""
    config = grid.config
    return ["simulate", str(src), "--max-size", "0", "--variant", config.variant,
            "--tau", str(config.tau), "--max-steps", str(config.max_steps),
            "--comparison", config.comparison, "--strategy", ",".join(grid.strategies),
            "--seeds", ",".join(map(str, grid.seed_counts)), "--runs", "1", "--seed", str(seed),
            "--out", str(outdir / "r.csv"), "--trajectories", str(outdir / "t.json")]


class TestTrajectoryStream:
    """``simulate --trajectories`` writes run 0 of each cell one cell at a
    time, as ``activations`` yields it, while the file is being written."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(h=hypergraphs(max_edges=30), data=st.data(),
           budget=st.sampled_from([1, 64, dynamics_mod._BATCH_KEYS]))
    @settings(max_examples=10)
    def test_bytes_are_json_text_of_single_runs(self, variant, h, data, budget):
        grid, seed = data.draw(grids(h, variant)), data.draw(st.integers(0, 2**16))
        # "publish" once the files are being written, "spread" per engine call
        publish, events = cli_mod.publish, []

        def writing(*args, **kwargs):
            events.append("publish")
            return publish(*args, **kwargs)

        def counted(*args):
            events.append("spread")
            return spread(*args)

        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "h.txt"
            write_plain(h, src)
            with mock.patch.object(dynamics_mod, "_BATCH_KEYS", budget), \
                    mock.patch.object(cli_mod, "publish", writing), \
                    mock.patch("hypernest.experiments.spread", counted):
                assert main(simulate_argv(src, grid, seed, Path(tmp))) == 0
                written = (Path(tmp) / "t.json").read_text()
                loaded = load_plain(src)
                influence = build_influence(loaded, variant)
                batches = -(-len(grid.cells()) // influence.batch_runs(loaded))
        dumps = [{"variant": variant, "strategy": strategy, "seeds": count, "run": 0,
                  "steps": steps, "final_active": sum(map(len, steps))}
                 for c, (strategy, count) in enumerate(grid.cells())
                 for steps in [trajectory(single_run(loaded, influence, grid, c, 0, seed))]]
        assert written == json_text(dumps)
        # the trajectories' batches run while the file is written, none before
        assert events[events.index("publish") + 1:] == ["spread"] * batches

    @pytest.fixture
    def ladder_file(self, ladder, tmp_path) -> Path:
        write_plain(ladder, tmp_path / "ladder.txt")
        return tmp_path / "ladder.txt"

    def test_first_part_runs_one_batch(self, ladder_file, tmp_path, monkeypatch):
        written, calls = {}, []
        monkeypatch.setattr(cli_mod, "publish", lambda args, outputs: written.update(outputs))
        monkeypatch.setattr(dynamics_mod, "_BATCH_KEYS", 1)  # one run a batch
        monkeypatch.setattr("hypernest.experiments.spread",
                            lambda *args: calls.append(len(args[3])) or spread(*args))
        main(simulate_argv(ladder_file, GRID, 0, tmp_path))
        parts, before = iter(written[str(tmp_path / "t.json")]), len(calls)
        assert next(parts).startswith('[\n  {\n    "variant": "non-strict"')
        assert calls[before:] == [1]

    def test_failed_batch_leaves_nothing(self, ladder_file, tmp_path, monkeypatch, capsys):
        cells, seen = len(GRID.cells()), []

        def failing(*args):
            # the second batch of the trajectories, after run_experiment's four
            if len(seen) == cells + 1:
                seen.append(sorted(p.name for p in tmp_path.iterdir()))
                raise MemoryError("Unable to allocate 1.00 MiB")
            seen.append(None)
            return spread(*args)

        monkeypatch.setattr(dynamics_mod, "_BATCH_KEYS", 1)
        monkeypatch.setattr("hypernest.experiments.spread", failing)
        assert main(simulate_argv(ladder_file, GRID, 0, tmp_path)) == 2
        # the failure came while the files were being written
        assert seen[-1] == ["ladder.txt", "r.csv.tmp", "t.json.tmp"]
        assert [p.name for p in tmp_path.iterdir()] == ["ladder.txt"]
        assert capsys.readouterr().err.splitlines() == [
            "hypernest simulate: error: Unable to allocate 1.00 MiB"]


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

    def test_runs_and_hypergraphs_validated(self, ladder):
        with pytest.raises(ValueError, match="runs"):
            pooled_cells([ladder], ExperimentGrid(), 0, 0)
        with pytest.raises(ValueError, match="hypergraph"):
            pooled_cells([], ExperimentGrid(), 2, 0)


class TestSummaries:
    def test_mean_and_stderr(self, ladder):
        by_cell = dict(zip(GRID.cells(), cell_proportions(
            ladder, GRID, experiment(ladder, GRID, runs=8, master_seed=2))))
        for cell in summarize(GRID, list(by_cell.values()))["cells"]:
            props = by_cell[(cell["strategy"], cell["seeds"])]
            assert cell["runs"] == len(props) == 8
            assert cell["mean_proportion"] == pytest.approx(sum(props) / len(props))
            assert cell["stderr"] >= 0.0

    def test_identical_runs_have_zero_variance(self, ladder):
        # smallest-first with every hyperedge seeded is the same draw each run
        grid = ExperimentGrid(strategies=("smallest-first",), seed_counts=(ladder.m,))
        outcomes = experiment(ladder, grid, runs=5, master_seed=0)
        (cell,) = summarize(grid, cell_proportions(ladder, grid, outcomes))["cells"]
        assert cell["stderr"] == 0.0
        assert cell["mean_proportion"] == 1.0


def comparison(h, grid, runs, samples, master_seed, jobs=1):
    """The observed outcome array of ``grid`` on ``h`` and the
    ``randomized_comparison`` of its proportions."""
    outcomes = experiment(h, grid, runs, master_seed, jobs=jobs)
    return outcomes, randomized_comparison(h, grid, runs, cell_proportions(h, grid, outcomes),
                                           samples, master_seed, jobs=jobs)


class TestRandomizedComparison:
    def test_shape_and_determinism(self, ladder):
        grid = ExperimentGrid(strategies=("smallest-first",), seed_counts=(6,))
        outcomes, comps = comparison(ladder, grid, runs=3, samples=2, master_seed=4)
        outcomes2, comps2 = comparison(ladder, grid, runs=3, samples=2, master_seed=4)
        assert comps == comps2 and np.array_equal(outcomes, outcomes2)
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

        serial = comparison(ladder, GRID, runs=3, samples=2, master_seed=5)
        with mock.patch("concurrent.futures.ProcessPoolExecutor", InlinePool):
            split = comparison(ladder, GRID, runs=3, samples=2, master_seed=5, jobs=2)
        # twelve runs as six and six, on the observed grid and on each sample
        assert [part[3] for part in parts] == [(0, 6), (6, 12)] * 3
        assert np.array_equal(split[0], serial[0]) and split[1] == serial[1]

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_validation(self, ladder, samples):
        with pytest.raises(ValueError, match="samples"):
            randomized_comparison(ladder, GRID, 1, [[0.0]] * len(GRID.cells()), samples=samples,
                                  master_seed=0)


class TestCsvExport:
    def test_columns_and_round_trip(self, ladder, tmp_path):
        outcomes = experiment(ladder, GRID, runs=2, master_seed=0)
        props = cell_proportions(ladder, GRID, outcomes)
        path = tmp_path / "results.csv"
        write_records_csv(GRID, outcomes, props, path, dataset="toy")
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert list(rows[0]) == [
            "dataset", "variant", "strategy", "seeds", "tau", "run",
            "steps", "final_active", "non_seed_active", "proportion",
        ]
        assert len(rows) == outcomes[1].size
        for row, final, prop in zip(rows, outcomes[1].ravel().tolist(), sum(props, [])):
            assert int(row["final_active"]) == final
            assert float(row["proportion"]) == pytest.approx(prop)
