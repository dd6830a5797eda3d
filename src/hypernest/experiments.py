"""Seeded experiment grids over contagion configurations.

A grid crosses variants x seed strategies x seed counts; each cell is run
repeatedly with RNG streams derived from the master seed and the cell/run
index, so results are reproducible and independent of execution order or
worker count.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import product
from math import sqrt
from pathlib import Path
from typing import Sequence

from .dynamics import DynamicsConfig, Influence, Trajectory, build_influence, select_seeds, spread
from .hypergraph import Hypergraph
from .linegraph import HyperedgeDag, adjacent_layer_dag, build_encapsulation_dag
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


@dataclass
class PreparedDynamics:
    """Line-graph structures shared by every cell run on one hypergraph,
    with each variant's influence map built on first use."""

    hypergraph: Hypergraph
    full_dag: HyperedgeDag
    adjacent_dag: HyperedgeDag
    influences: dict[str, Influence] = field(default_factory=dict, repr=False)

    def influence(self, variant: str) -> Influence:
        if variant not in self.influences:
            self.influences[variant] = build_influence(
                self.hypergraph, variant, self.full_dag, self.adjacent_dag
            )
        return self.influences[variant]


def prepare_dynamics(h: Hypergraph) -> PreparedDynamics:
    dag = build_encapsulation_dag(h)
    return PreparedDynamics(hypergraph=h, full_dag=dag, adjacent_dag=adjacent_layer_dag(dag, h))


def run_dynamics(
    prepared: PreparedDynamics,
    config: DynamicsConfig,
    seeds: Sequence[int],
    seed_nodes: Sequence[int] = (),
) -> Trajectory:
    """One contagion run of ``config.variant`` from the seed hyperedges (and
    optionally pre-activated nodes) on a prepared hypergraph."""
    return spread(
        prepared.hypergraph, prepared.influence(config.variant), config, seeds, seed_nodes
    )


def cell_trajectory(
    prepared: PreparedDynamics, grid: ExperimentGrid, cell_index: int, run: int, master_seed: int
) -> Trajectory:
    """Run ``run`` of cell ``cell_index`` of ``grid``, seeded from the
    seed-selection stream of (cell_index, run) under ``master_seed``."""
    variant, strategy, seed_count = grid.cells()[cell_index]
    rng = spawn_rng(master_seed, "seed-selection", cell_index, run)
    seeds = select_seeds(prepared.hypergraph, strategy, seed_count, rng)
    return run_dynamics(prepared, grid.config(variant), seeds)


def _run_cell(args) -> list[RunRecord]:
    prepared, grid, cell_index, runs, master_seed, dataset = args
    variant, strategy, seed_count = grid.cells()[cell_index]
    records = []
    for run in range(runs):
        traj = cell_trajectory(prepared, grid, cell_index, run, master_seed)
        records.append(RunRecord(dataset, variant, strategy, seed_count, grid.tau, run,
                                 traj.num_steps, traj.final_active, traj.non_seed_active,
                                 traj.activation_proportion()))
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
    cell-major order."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    tasks = [
        (prepared, grid, idx, runs, master_seed, dataset) for idx in range(len(grid.cells()))
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(_run_cell, tasks))
    else:
        per_cell = [_run_cell(t) for t in tasks]
    return [rec for cell_records in per_cell for rec in cell_records]


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
