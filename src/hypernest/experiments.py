"""Seeded experiment grids over one contagion configuration.

A grid crosses seed strategies x seed counts under one ``DynamicsConfig``.
Every grid (observed, layer sample, sweep realization) runs on its variant's
influence map (``dynamics.build_influence``) through ``activations``, which
yields the engine's activation rows batch by batch: ``run_experiment`` reduces
them to steps and final counts, which ``cell_proportions`` turns into what every
document reads, and ``simulate --trajectories`` writes them one cell at a time.
Each run's RNG streams derive from the master seed and its cell/run index, so
results do not depend on execution order or worker count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import product
from math import sqrt
from pathlib import Path
from typing import Sequence

import numpy as np

from . import randomize
from .dynamics import (DynamicsConfig, Influence, activation_proportion, build_influence,
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


def activations(h: Hypergraph, influence: Influence, grid: ExperimentGrid, runs: int,
                master_seed: int, streams: np.ndarray | None = None, span: tuple | None = None):
    """Each ``spread`` batch's runs x m activation array, in flat-run order,
    over the flat run indices ``cell * runs + run`` in ``span`` (by default
    all of ``grid``), at most ``influence.batch_runs(h)`` runs a batch. Run
    ``run`` of ``cell`` draws its seeds from the stream ("seed-selection",
    ``streams[cell]``, run), by default its cell index: a batch's streams in
    one derivation, each stretch of one cell's runs in one ``pick_seeds`` call."""
    cells, per_batch = grid.cells(), influence.batch_runs(h)
    streams = np.arange(len(cells)) if streams is None else streams
    start, stop = (0, len(cells) * runs) if span is None else span
    for lo in range(start, stop, per_batch):
        cell, run = np.divmod(np.arange(lo, min(lo + per_batch, stop)), runs)
        gens = spawn_rngs(master_seed, "seed-selection", streams[cell], run)
        bounds = [*np.flatnonzero(np.diff(cell, prepend=-1)).tolist(), cell.size]
        seeds = np.concatenate([pick_seeds(h, *cells[cell[a]], gens[a:b])
                                for a, b in zip(bounds, bounds[1:])])
        yield spread(h, influence, grid.config, seeds)


def _run_tasks(args) -> np.ndarray:
    """Per flat run index of ``span``, its steps (last activating
    round) and final active count (two rows), from ``activations``."""
    h, influence, grid, span, runs, master_seed, streams = args
    # allocated before any batch runs: a grid too large for it fails at once
    outcomes = np.zeros((2, span[1] - span[0]), dtype=np.int64)
    at = 0
    for activated in activations(h, influence, grid, runs, master_seed, streams, span):
        outcomes[:, at:at + len(activated)] = (activated.max(axis=1, initial=0),
                                               np.count_nonzero(activated >= 0, axis=1))
        at += len(activated)
    return outcomes


def run_experiment(h: Hypergraph, influence: Influence, grid: ExperimentGrid, runs: int,
                   master_seed: int, jobs: int = 1, streams: np.ndarray | None = None
                   ) -> np.ndarray:
    """The steps (last activating round) and final active count of every
    (cell, run) of ``grid`` on ``h`` under ``influence``, the map of the
    grid's variant, as a 2 x cells x runs int array. Run ``run`` of cell
    ``cell`` is the flat index ``cell * runs + run`` and draws its seeds
    from the stream of (``streams[cell]``, run), by default its own cell
    index. The flat indices go to the engine together, split into at most
    ``jobs`` contiguous ranges run by as many worker processes."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = len(grid.cells())
    total = cells * runs
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
    return np.concatenate(list(parts_done), axis=1).reshape(2, cells, runs)


def cell_proportions(h: Hypergraph, grid: ExperimentGrid, outcomes: np.ndarray
                     ) -> list[list[float]]:
    """Per cell of ``grid``, the activation proportions of its runs in run
    order, from the final active counts of ``run_experiment``'s
    ``outcomes`` on ``h``."""
    return [[activation_proportion(h.m, seeded, final) for final in finals]
            for (_, seeded), finals in zip(grid.cells(), outcomes[1].tolist())]


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
    if not hypergraphs:
        raise ValueError("pooled_cells needs at least one hypergraph")
    pooled = [[] for _ in grid.cells()]
    for k, h in enumerate(hypergraphs):
        clamped = replace(grid, seed_counts=tuple(min(c, h.m) for c in grid.seed_counts))
        outcomes = run_experiment(h, build_influence(h, grid.config.variant), clamped, runs,
                                  master_seed + k, streams=np.zeros(len(pooled), dtype=np.int64))
        # realization-major, as the one-cell grids were pooled: the order
        # fixes the rounding of the mean and stderr sums
        for values, props in zip(pooled, cell_proportions(h, clamped, outcomes)):
            values += props
    return [mean_stderr(values) for values in pooled]


def _cell_keys(grid: ExperimentGrid, dataset: str) -> list[dict]:
    """The dataset, variant, strategy, seeds and tau of each cell of ``grid``."""
    config = grid.config
    return [{"dataset": dataset, "variant": config.variant, "strategy": strategy,
             "seeds": seeded, "tau": config.tau} for strategy, seeded in grid.cells()]


def summarize(grid: ExperimentGrid, proportions: list[list[float]], dataset: str = "") -> dict:
    """``simulate``'s summary document: per cell of ``grid``, in grid order,
    its run count and the mean and standard error of its ``proportions``
    (``cell_proportions``)."""
    return {"cells": [{**key, "runs": len(props), "mean_proportion": mean, "stderr": stderr}
                      for key, props in zip(_cell_keys(grid, dataset), proportions)
                      for mean, stderr in [mean_stderr(props)]]}


def randomized_comparison(h: Hypergraph, grid: ExperimentGrid, runs: int,
                          observed: list[list[float]], samples: int, master_seed: int,
                          dataset: str = "", jobs: int = 1) -> dict:
    """``simulate --randomize``'s summary document: per cell of ``grid``,
    the mean of its ``observed`` proportions (``cell_proportions`` of its
    ``runs`` runs on ``h``), the average over ``samples`` layer
    randomizations of ``h``, each run under its own map, of their mean, and
    the difference."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    sums = [0.0] * len(observed)
    for randomized in randomize.layer_samples(h, samples, master_seed):
        outcomes = run_experiment(randomized, build_influence(randomized, grid.config.variant),
                                  grid, runs, master_seed, jobs)
        for c, props in enumerate(cell_proportions(randomized, grid, outcomes)):
            sums[c] += sum(props) / runs
    return {"cells": [{**key, "observed_mean": mean, "randomized_mean": null,
                       "difference": mean - null}
                      for key, props, total in zip(_cell_keys(grid, dataset), observed, sums)
                      for mean, null in [(sum(props) / runs, total / samples)]],
            "randomize_samples": samples}


def write_records_csv(grid: ExperimentGrid, outcomes: np.ndarray, proportions: list[list[float]],
                      path: str | Path, dataset: str = "") -> None:
    """One row per run of ``grid``, cell-major: its cell, its steps and final
    active count from ``run_experiment``'s ``outcomes``, and its proportion."""
    config = grid.config
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("dataset", "variant", "strategy", "seeds", "tau", "run", "steps",
                         "final_active", "non_seed_active", "proportion"))
        for (strategy, seeded), steps, finals, props in zip(grid.cells(), *outcomes.tolist(),
                                                             proportions):
            for run, (step, final, prop) in enumerate(zip(steps, finals, props)):
                writer.writerow((dataset, config.variant, strategy, seeded, config.tau, run, step,
                                 final, final - seeded, f"{prop:.10g}"))
