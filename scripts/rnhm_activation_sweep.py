#!/usr/bin/env python3
"""Activation sweep on random nested hypergraphs.

For each keep-probability combination and each seeding strategy, generate
`--realizations` hypergraphs, run `--runs` contagion simulations per
realization at every seed count, and write one CSV row per cell with the
mean and standard error of the non-seed activation proportion.

Usage:
    python scripts/rnhm_activation_sweep.py --out rnhm_sweep.csv
    python scripts/rnhm_activation_sweep.py --nodes 20 --max-size 4 \
        --max-edges 5 --seed-counts 1,5,10,20,35 --eps-grid 0,1 --out out.csv
"""

from __future__ import annotations

import argparse
import csv
from itertools import product
from math import sqrt

from hypernest import DynamicsConfig, RnhmParams, generate, select_seeds, spawn_rng
from hypernest.cli import at_least
from hypernest.experiments import prepare_dynamics, run_dynamics


def sweep_cell(args, eps2, eps3, strategy, seed_count):
    proportions = []
    for realization in range(args.realizations):
        params = RnhmParams(
            num_nodes=args.nodes,
            max_size=args.max_size,
            num_max_edges=args.max_edges,
            keep_probs={s: (eps2 if s == 2 else eps3) for s in range(2, args.max_size)},
            include_singletons=True,
        )
        sample = generate(params, spawn_rng(args.seed + realization, "rnhm"))
        h = sample.hypergraph
        prepared = prepare_dynamics(h)
        config = DynamicsConfig(variant=args.variant, tau=args.tau)
        for run in range(args.runs):
            rng = spawn_rng(args.seed + realization, "seed-selection", 0, run)
            seeds = select_seeds(h, strategy, min(seed_count, h.m), rng)
            proportions.append(run_dynamics(prepared, config, seeds).activation_proportion())
    mean = sum(proportions) / len(proportions)
    if len(proportions) > 1:
        var = sum((p - mean) ** 2 for p in proportions) / (len(proportions) - 1)
        stderr = sqrt(var / len(proportions))
    else:
        stderr = 0.0
    return mean, stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=20)
    ap.add_argument("--max-size", type=int, default=4)
    ap.add_argument("--max-edges", type=int, default=5)
    ap.add_argument("--eps-grid", default="0,1", help="keep probabilities tried for every size")
    ap.add_argument("--strategies", default="uniform,smallest-first")
    ap.add_argument("--seed-counts", default="1,5,10,20,35")
    ap.add_argument("--variant", default="strict")
    ap.add_argument("--tau", type=int, default=1)
    ap.add_argument("--realizations", type=at_least(1), default=25)
    ap.add_argument("--runs", type=at_least(1), default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    eps_values = [float(v) for v in args.eps_grid.split(",")]
    strategies = args.strategies.split(",")
    seed_counts = [int(v) for v in args.seed_counts.split(",")]

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps2", "eps3", "strategy", "seeds", "mean_proportion", "stderr"])
        for eps2, eps3, strategy, seed_count in product(
            eps_values, eps_values, strategies, seed_counts
        ):
            mean, stderr = sweep_cell(args, eps2, eps3, strategy, seed_count)
            writer.writerow([eps2, eps3, strategy, seed_count, f"{mean:.6f}", f"{stderr:.6f}"])
            print(
                f"eps2={eps2} eps3={eps3} {strategy:>14} seeds={seed_count:>4} "
                f"-> {mean:.4f} +/- {stderr:.4f}"
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
