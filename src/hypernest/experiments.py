"""Seeded experiment grids over one contagion configuration.

A grid crosses seed strategies x seed counts under one ``DynamicsConfig``
and runs on that variant's influence map (``dynamics.build_influence``);
each cell is run repeatedly with RNG streams derived from the master seed
and the cell/run index, so results are reproducible and independent of
execution order or worker count. A batch of runs draws each stretch of one
cell's runs with one ``dynamics.pick_seeds`` call, which checks the cell.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace
from itertools import product
from math import sqrt
from pathlib import Path
from typing import Sequence

import numpy as np

from .dynamics import (Batch, DynamicsConfig, Influence, activation_proportion, build_influence,
                       pick_seeds, spread)
from .hypergraph import Hypergraph
from .randomize import layer_samples
from .rng import spawn_rngs


@dataclass(frozen=True)
class ExperimentGrid:
    config: DynamicsConfig = DynamicsConfig()
    strategies: tuple[str, ...] = ("uniform",)
    seed_counts: tuple[int, ...] = (1,)

    def cells(self) -> list[tuple[str, int]]:
        return list(product(self.strategies, self.seed_counts))


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


def _spread_range(h: Hypergraph, influence: Influence, grid: ExperimentGrid, lo: int, hi: int,
                  runs: int, master_seed: int, streams: np.ndarray) -> Batch:
    """The flat run indices ``cell * runs + run`` from ``lo`` to ``hi`` as one
    batch, each run's seeds drawn from the seed-selection stream of
    (``streams[cell]``, run) under ``master_seed``: the streams in one
    derivation, each stretch of one cell's runs in one ``pick_seeds`` call."""
    cells = grid.cells()
    cell, run = np.divmod(np.arange(lo, hi), runs)
    gens = spawn_rngs(master_seed, "seed-selection", streams[cell], run)
    bounds = [*np.flatnonzero(np.diff(cell, prepend=-1)).tolist(), hi - lo]
    seeds = [row for a, b in zip(bounds, bounds[1:])
             for row in pick_seeds(h, *cells[cell[a]], gens[a:b])]
    return spread(h, influence, grid.config, seeds)


def first_runs(h: Hypergraph, influence: Influence, grid: ExperimentGrid,
               master_seed: int) -> Batch:
    """Run 0 of every cell as one batch whose run c is cell c;
    ``run_experiment`` records the same runs."""
    cells = len(grid.cells())
    return _spread_range(h, influence, grid, 0, cells, 1, master_seed, np.arange(cells))


def _run_tasks(args) -> np.ndarray:
    """Rounds that activated something and final active count (two rows) of
    the flat run indices ``start`` to ``stop``, from ``spread`` calls of at
    most ``influence.batch_runs(h)`` runs each."""
    h, influence, grid, (start, stop), runs, master_seed, streams = args
    per_batch = influence.batch_runs(h)
    outcomes = np.zeros((2, stop - start), dtype=np.int64)
    for lo in range(start, stop, per_batch):
        hi = min(lo + per_batch, stop)
        batch = _spread_range(h, influence, grid, lo, hi, runs, master_seed, streams)
        outcomes[:, lo - start:hi - start] = batch.num_steps(), batch.final_active()
    return outcomes


def run_experiment(h: Hypergraph, influence: Influence, grid: ExperimentGrid, runs: int,
                   master_seed: int, dataset: str = "", jobs: int = 1) -> list[RunRecord]:
    """All (cell, run) results on ``h`` under ``influence``, the map of the
    grid's variant, in deterministic cell-major order, run ``run`` of cell
    ``cell`` at the flat index ``cell * runs + run`` on the streams of its
    own cell index. The flat indices go to the engine together, split into
    ``jobs`` contiguous ranges run by as many worker processes."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells, config = grid.cells(), grid.config
    total = len(cells) * runs
    parts = min(jobs, total) or 1
    bounds = [total * i // parts for i in range(parts + 1)]
    work = [(h, influence, grid, span, runs, master_seed, np.arange(len(cells)))
            for span in zip(bounds, bounds[1:])]
    if parts > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay its import

        # under fork every worker starts at the first submit, so ask for no
        # more workers than parts
        with ProcessPoolExecutor(max_workers=parts) as pool:
            parts_done = list(pool.map(_run_tasks, work))
    else:
        parts_done = map(_run_tasks, work)
    steps, finals = np.concatenate(list(parts_done), axis=1).tolist()
    return [RunRecord(dataset, config.variant, strategy, seeded, config.tau, i % runs, steps[i],
                      final, final - seeded, activation_proportion(h.m, seeded, final))
            for i, final in enumerate(finals) for strategy, seeded in [cells[i // runs]]]


def mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard error of the mean (0.0 for a single value)."""
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, sqrt(var / n)


def pooled_cells(hypergraphs: Sequence[Hypergraph], grid: ExperimentGrid, runs: int,
                 master_seed: int) -> list[tuple[float, float]]:
    """Per cell of ``grid``, mean and standard error of the activation
    proportion over ``runs`` runs on each of ``hypergraphs`` in turn, the
    k-th under master seed ``master_seed + k`` with seed counts clamped to
    its m. Run r of every cell draws from ("seed-selection", 0, r), as a
    one-cell grid's does, so all cells x runs go to the engine as one range."""
    pooled = [[] for _ in grid.cells()]
    for k, h in enumerate(hypergraphs):
        clamped = replace(grid, seed_counts=tuple(min(c, h.m) for c in grid.seed_counts))
        cells = clamped.cells()
        finals = _run_tasks((h, build_influence(h, grid.config.variant), clamped,
                             (0, len(cells) * runs), runs, master_seed + k,
                             np.zeros(len(cells), dtype=np.int64)))[1].tolist()
        # realization-major, as the one-cell grids were pooled: the order
        # fixes the rounding of the mean and stderr sums
        for i, final in enumerate(finals):
            pooled[i // runs].append(activation_proportion(h.m, cells[i // runs][1], final))
    return [mean_stderr(values) for values in pooled]


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


def randomized_comparison(h: Hypergraph, influence: Influence, grid: ExperimentGrid, runs: int,
                          samples: int, master_seed: int, dataset: str = "", jobs: int = 1
                          ) -> tuple[list[RunRecord], list[RandomizedComparison]]:
    """Run the grid on the observed ``h`` (under ``influence``, the map of
    the grid's variant) and on ``samples`` layer randomizations, each under
    its own map; returns observed records plus per-cell comparisons."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    observed_records = run_experiment(h, influence, grid, runs, master_seed, dataset=dataset,
                                      jobs=jobs)
    observed = {(s.strategy, s.seeds): s.mean_proportion for s in summarize(observed_records)}
    randomized_sums: dict[tuple, float] = {key: 0.0 for key in observed}
    for randomized in layer_samples(h, samples, master_seed):
        records = run_experiment(randomized, build_influence(randomized, grid.config.variant),
                                 grid, runs, master_seed, jobs=jobs)
        for s in summarize(records):
            randomized_sums[(s.strategy, s.seeds)] += s.mean_proportion
    means = {key: total / samples for key, total in randomized_sums.items()}
    return observed_records, [
        RandomizedComparison(dataset, grid.config.variant, *key, grid.config.tau, observed[key],
                             means[key], observed[key] - means[key]) for key in grid.cells()]


def write_records_csv(records: Sequence[RunRecord], path: str | Path) -> None:
    """One row per record, columns in ``RunRecord`` field order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(RunRecord))
        for rec in records:
            writer.writerow(f"{v:.10g}" if isinstance(v, float) else v for v in vars(rec).values())
