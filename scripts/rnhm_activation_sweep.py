#!/usr/bin/env python3
"""Activation sweep on random nested hypergraphs.

For each keep-probability combination, generate `--realizations`
hypergraphs, run every (seeding strategy, seed count) cell `--runs` times
on each through the `hypernest.experiments` harness (a seed count above a
realization's hyperedge count is clamped to it), and write one CSV row per
cell with the mean and standard error of the non-seed activation
proportion over all realizations and runs.

Usage:
    python scripts/rnhm_activation_sweep.py --out rnhm_sweep.csv
    python scripts/rnhm_activation_sweep.py --nodes 20 --max-size 4 \
        --max-edges 5 --seed-counts 1,5,10,20,35 --eps-grid 0,1 --out out.csv
"""

from __future__ import annotations

import csv
from itertools import product

from hypernest import ExperimentGrid, RnhmParams, generate, spawn_rng
from hypernest.cli import Parser, at_least, grid_values, run_script, warn_self_activation
from hypernest.dynamics import STRATEGIES, VARIANTS, DynamicsConfig, build_influence
from hypernest.experiments import mean_stderr, run_experiment


def main():
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=20)
    ap.add_argument("--max-size", type=int, default=4)
    ap.add_argument("--max-edges", type=int, default=5)
    ap.add_argument("--eps-grid", default="0,1", help="keep probabilities tried for every size")
    ap.add_argument("--strategies", default="uniform,smallest-first")
    ap.add_argument("--seed-counts", default="1,5,10,20,35")
    ap.add_argument("--variant", default="strict", choices=VARIANTS)
    ap.add_argument("--tau", type=int, default=1)
    ap.add_argument("--realizations", type=at_least(1), default=25)
    ap.add_argument("--runs", type=at_least(1), default=50)
    ap.add_argument("--seed", type=at_least(0), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    eps_values = grid_values("--eps-grid", args.eps_grid, float)
    strategies = grid_values("--strategies", args.strategies, STRATEGIES)
    seed_counts = grid_values("--seed-counts", args.seed_counts)
    config = DynamicsConfig(args.variant, args.tau)

    rows = []
    for eps2, eps3 in product(eps_values, eps_values):
        params = RnhmParams(
            num_nodes=args.nodes,
            max_size=args.max_size,
            num_max_edges=args.max_edges,
            keep_probs={s: (eps2 if s == 2 else eps3) for s in range(2, args.max_size)},
            include_singletons=True,
        )
        realizations = []
        for r in range(args.realizations):
            h = generate(params, spawn_rng(args.seed + r, "rnhm")).hypergraph
            realizations.append((h, build_influence(h, args.variant)))
        if not rows:  # once: every realization holds 1-node hyperedges
            warn_self_activation(ap.prog, realizations[0][0], config)
        for strategy, seed_count in product(strategies, seed_counts):
            # one-cell grid per realization, pooled realization-major: the order
            # fixes the rounding of the mean and stderr sums
            proportions = [
                rec.proportion
                for r, (h, influence) in enumerate(realizations)
                for rec in run_experiment(
                    h, influence,
                    ExperimentGrid(config, (strategy,), (min(seed_count, h.m),)),
                    args.runs,
                    args.seed + r,
                )
            ]
            mean, stderr = mean_stderr(proportions)
            rows.append([eps2, eps3, strategy, seed_count, f"{mean:.6f}", f"{stderr:.6f}"])
            print(
                f"eps2={eps2} eps3={eps3} {strategy:>14} seeds={seed_count:>4} "
                f"-> {mean:.4f} +/- {stderr:.4f}"
            )
    # written only once every cell has run, so a data error leaves no file
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps2", "eps3", "strategy", "seeds", "mean_proportion", "stderr"])
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    run_script(main)
