"""Seeded experiment grids over contagion configurations.

A grid crosses variants x seed strategies x seed counts; each cell is run
repeatedly with RNG streams derived from the master seed and the cell/run
index, so results are reproducible and independent of execution order or
worker count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from itertools import groupby, product
from math import sqrt
from pathlib import Path
from typing import Sequence

from .dynamics import (Batch, DynamicsConfig, PreparedDynamics, activation_proportion,
                       prepare_dynamics, select_seeds, spread)
from .hypergraph import Hypergraph
from .randomize import layer_samples
from .rng import spawn_rng


@dataclass(frozen=True)
class ExperimentGrid:
    variants: tuple[str, ...] = ("strict",)
    strategies: tuple[str, ...] = ("uniform",)
    seed_counts: tuple[int, ...] = (1,)
    tau: int = 1
    max_steps: int = 25
    comparison: str = ">="

    def cells(self) -> list[tuple[str, str, int]]:
        return list(product(self.variants, self.strategies, self.seed_counts))

    def config(self, variant: str) -> DynamicsConfig:
        return DynamicsConfig(
            variant=variant, tau=self.tau, max_steps=self.max_steps, comparison=self.comparison
        )


@dataclass(frozen=True)
class RunRecord:
    dataset: str
    variant: str
    strategy: str
    seeds: int
    tau: int
    run: int
    steps: int
    final_active: int
    non_seed_active: int
    proportion: float


@dataclass(frozen=True)
class CellSummary:
    dataset: str
    variant: str
    strategy: str
    seeds: int
    tau: int
    runs: int
    mean_proportion: float
    stderr: float


def _cell_seeds(h: Hypergraph, cell: tuple[str, str, int], cell_index: int, run: int,
                master_seed: int) -> list[int]:
    """The seeds of run ``run`` of a cell: its strategy and count, drawn from
    the seed-selection stream of (cell_index, run) under ``master_seed``."""
    _, strategy, seed_count = cell
    rng = spawn_rng(master_seed, "seed-selection", cell_index, run)
    return select_seeds(h, strategy, seed_count, rng)


def first_runs(prepared: PreparedDynamics, grid: ExperimentGrid, master_seed: int) -> Batch:
    """Run 0 of every cell of a one-variant ``grid`` (else ValueError), as one
    batch whose run c is cell c; ``run_experiment`` records the same runs."""
    (variant,), h = grid.variants, prepared.hypergraph
    return spread(h, prepared.influence(variant), grid.config(variant),
                  [_cell_seeds(h, cell, c, 0, master_seed) for c, cell in enumerate(grid.cells())])


def _run_tasks(args) -> list[RunRecord]:
    """Records of the (cell, run) ``tasks`` of one variant, in order, from
    ``spread`` calls of at most ``influence.batch_runs(h)`` runs each."""
    h, influence, grid, variant, tasks, master_seed, dataset = args
    cells, config = grid.cells(), grid.config(variant)
    per_batch = influence.batch_runs(h)
    records = []
    for start in range(0, len(tasks), per_batch):
        chunk = tasks[start:start + per_batch]
        batch = spread(h, influence, config,
                       [_cell_seeds(h, cells[c], c, run, master_seed) for c, run in chunk])
        for (c, run), steps, final, seeded in zip(chunk, batch.num_steps().tolist(),
                                                  batch.final_active().tolist(),
                                                  batch.seed_counts().tolist()):
            records.append(RunRecord(dataset, *cells[c], grid.tau, run, steps, final,
                                     final - seeded, activation_proportion(h.m, seeded, final)))
    return records


def run_experiment(
    prepared: PreparedDynamics,
    grid: ExperimentGrid,
    runs: int,
    master_seed: int,
    dataset: str = "",
    jobs: int = 1,
) -> list[RunRecord]:
    """All (cell, run) results on a prepared hypergraph, in deterministic
    cell-major order. Each variant's cells x runs go to the engine together,
    split into ``jobs`` contiguous parts run by as many worker processes."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    work = []
    for variant, block in groupby(enumerate(grid.cells()), key=lambda item: item[1][0]):
        tasks = [(c, run) for c, _ in block for run in range(runs)]
        parts = min(jobs, len(tasks))
        bounds = [len(tasks) * i // parts for i in range(parts + 1)]
        work += [(prepared.hypergraph, prepared.influence(variant), grid, variant, tasks[a:b],
                  master_seed, dataset) for a, b in zip(bounds, bounds[1:])]
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay its import

        # under fork every worker starts at the first submit, so ask for no
        # more workers than parts
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            parts_done = list(pool.map(_run_tasks, work))
    else:
        parts_done = map(_run_tasks, work)
    return [rec for part in parts_done for rec in part]


def mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard error of the mean (0.0 for a single value)."""
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, sqrt(var / n)


def summarize(records: Sequence[RunRecord]) -> list[CellSummary]:
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        key = (rec.dataset, rec.variant, rec.strategy, rec.seeds, rec.tau)
        groups.setdefault(key, []).append(rec.proportion)
    # a key lists the leading CellSummary fields, in order
    return [CellSummary(*key, len(props), *mean_stderr(props)) for key, props in groups.items()]


@dataclass(frozen=True)
class RandomizedComparison:
    """Per-cell mean activation on the observed hypergraph vs the average
    over layer-randomized samples, and their difference."""

    dataset: str
    variant: str
    strategy: str
    seeds: int
    tau: int
    observed_mean: float
    randomized_mean: float
    difference: float


def randomized_comparison(
    prepared: PreparedDynamics,
    grid: ExperimentGrid,
    runs: int,
    samples: int,
    master_seed: int,
    dataset: str = "",
    jobs: int = 1,
) -> tuple[list[RunRecord], list[RandomizedComparison]]:
    """Run the grid on the prepared observed hypergraph and on ``samples``
    layer randomizations; returns observed records plus per-cell comparisons."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    observed_records = run_experiment(
        prepared, grid, runs, master_seed, dataset=dataset, jobs=jobs
    )
    observed = {
        (s.variant, s.strategy, s.seeds): s.mean_proportion for s in summarize(observed_records)
    }
    randomized_sums: dict[tuple, float] = {key: 0.0 for key in observed}
    for i, randomized in enumerate(layer_samples(prepared.hypergraph, samples, master_seed)):
        records = run_experiment(
            prepare_dynamics(randomized), grid, runs, master_seed,
            dataset=f"{dataset}[rand{i}]", jobs=jobs,
        )
        for s in summarize(records):
            randomized_sums[(s.variant, s.strategy, s.seeds)] += s.mean_proportion
    comparisons = []
    for key in grid.cells():
        rand_mean = randomized_sums[key] / samples
        comparisons.append(RandomizedComparison(dataset, *key, grid.tau, observed[key], rand_mean,
                                                observed[key] - rand_mean))
    return observed_records, comparisons


def write_records_csv(records: Sequence[RunRecord], path: str | Path) -> None:
    """One row per record, columns in ``RunRecord`` field order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(RunRecord))
        for rec in records:
            writer.writerow(f"{v:.10g}" if isinstance(v, float) else v for v in vars(rec).values())
