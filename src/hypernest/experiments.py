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

from . import randomize
from .dynamics import (Batch, DynamicsConfig, Influence, activation_proportion, build_influence,
                       pick_seeds, spread)
from .hypergraph import Hypergraph
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
    """``Batch.num_steps`` and ``Batch.final_active`` (two rows) of the flat
    run indices ``start`` to ``stop``, from ``spread`` calls of at most
    ``influence.batch_runs(h)`` runs each."""
    h, influence, grid, (start, stop), runs, master_seed, streams = args
    per_batch = influence.batch_runs(h)
    outcomes = np.zeros((2, stop - start), dtype=np.int64)
    for lo in range(start, stop, per_batch):
        hi = min(lo + per_batch, stop)
        batch = _spread_range(h, influence, grid, lo, hi, runs, master_seed, streams)
        outcomes[:, lo - start:hi - start] = batch.num_steps, batch.final_active
    return outcomes


def _outcomes(h: Hypergraph, influence: Influence, grid: ExperimentGrid, runs: int,
              master_seed: int, streams: np.ndarray, jobs: int = 1) -> np.ndarray:
    """``_run_tasks`` of the flat run indices ``0 .. cells * runs``, split
    into at most ``jobs`` contiguous ranges run by as many worker processes."""
    total = len(grid.cells()) * runs
    parts = min(jobs, total) or 1
    bounds = [total * i // parts for i in range(parts + 1)]
    work = [(h, influence, grid, span, runs, master_seed, streams)
            for span in zip(bounds, bounds[1:])]
    if parts > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay its import

        # under fork every worker starts at the first submit, so ask for no
        # more workers than parts
        with ProcessPoolExecutor(max_workers=parts) as pool:
            parts_done = list(pool.map(_run_tasks, work))
    else:
        parts_done = map(_run_tasks, work)
    return np.concatenate(list(parts_done), axis=1)


def _cell_proportions(h: Hypergraph, grid: ExperimentGrid, runs: int,
                      finals: list[int]) -> list[list[float]]:
    """Per cell of ``grid``, the activation proportions of its runs in run
    order, from the cell-major final active counts ``finals``."""
    return [[activation_proportion(h.m, seeded, final)
             for final in finals[c * runs:(c + 1) * runs]]
            for c, (_, seeded) in enumerate(grid.cells())]


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
    steps, finals = _outcomes(h, influence, grid, runs, master_seed, np.arange(len(cells)),
                              jobs).tolist()
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
        finals = _outcomes(h, build_influence(h, grid.config.variant), clamped, runs,
                           master_seed + k, np.zeros(len(pooled), dtype=np.int64))[1].tolist()
        # realization-major, as the one-cell grids were pooled: the order
        # fixes the rounding of the mean and stderr sums
        for values, props in zip(pooled, _cell_proportions(h, clamped, runs, finals)):
            values += props
    return [mean_stderr(values) for values in pooled]


def summarize(records: Sequence[RunRecord]) -> dict:
    """``simulate``'s summary document: per (dataset, variant, strategy,
    seeds, tau) in first-seen order, the run count and the mean and standard
    error of the activation proportion."""
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        key = (rec.dataset, rec.variant, rec.strategy, rec.seeds, rec.tau)
        groups.setdefault(key, []).append(rec.proportion)
    names = ("dataset", "variant", "strategy", "seeds", "tau", "runs", "mean_proportion", "stderr")
    return {"cells": [dict(zip(names, (*key, len(props), *mean_stderr(props))))
                      for key, props in groups.items()]}


def randomized_comparison(h: Hypergraph, influence: Influence, grid: ExperimentGrid, runs: int,
                          samples: int, master_seed: int, dataset: str = "", jobs: int = 1
                          ) -> tuple[list[RunRecord], dict]:
    """Run the grid on the observed ``h`` (under ``influence``, the map of
    the grid's variant) and on ``samples`` layer randomizations, each under
    its own map; returns the observed records and ``simulate --randomize``'s
    summary document: per cell, the observed mean activation, the average
    over the samples of their mean, and the difference. A sample's runs
    build no records: its means come from the engine's outcome arrays."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    records = run_experiment(h, influence, grid, runs, master_seed, dataset=dataset, jobs=jobs)
    cells, config = grid.cells(), grid.config
    sums = [0.0] * len(cells)
    for randomized in randomize.layer_samples(h, samples, master_seed):
        finals = _outcomes(randomized, build_influence(randomized, config.variant), grid, runs,
                           master_seed, np.arange(len(cells)), jobs)[1].tolist()
        for c, props in enumerate(_cell_proportions(randomized, grid, runs, finals)):
            sums[c] += sum(props) / runs
    doc = []
    for c, (strategy, seeded) in enumerate(cells):
        observed = sum(rec.proportion for rec in records[c * runs:(c + 1) * runs]) / runs
        null = sums[c] / samples
        doc.append({"dataset": dataset, "variant": config.variant, "strategy": strategy,
                    "seeds": seeded, "tau": config.tau, "observed_mean": observed,
                    "randomized_mean": null, "difference": observed - null})
    return records, {"cells": doc, "randomize_samples": samples}


def write_records_csv(records: Sequence[RunRecord], path: str | Path) -> None:
    """One row per record, columns in ``RunRecord`` field order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(RunRecord))
        for rec in records:
            writer.writerow(f"{v:.10g}" if isinstance(v, float) else v for v in vars(rec).values())
