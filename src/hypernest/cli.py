"""Command-line entry point.

Subcommands: stats | encapsulation | heights | randomize | rnhm | simulate.
Every run that writes files also writes a ``<file>.manifest.json`` with the
full parameter set, RNG seed, and output checksums, so any result can be
reproduced byte for byte by replaying the recorded argv. Exit codes: 0
success, 1 usage error, 2 data or generation error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .dagpaths import rooted_heights
from .dynamics import STRATEGIES, VARIANTS
from .experiments import (
    ExperimentGrid,
    cell_trajectory,
    prepare_dynamics,
    randomized_comparison,
    run_experiment,
    summarize,
    write_records_csv,
)
from .hypergraph import (
    FormatError,
    Hypergraph,
    load_plain,
    load_simplex_dataset,
    load_auto,
    preprocess,
    write_plain,
)
from .linegraph import build_encapsulation_dag, compute_dataset_stats, encapsulation_counts
from .randomize import layer_samples, retention_report
from .rng import spawn_rng
from .rnhm import GenerationError, RnhmParams, generate


# exceptions that report bad data or a failed generation: exit 2, one line
DATA_ERRORS = (FormatError, OSError, GenerationError, ValueError)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def at_least(minimum: int):
    """argparse type for a count of at least ``minimum``."""

    def count(text: str) -> int:
        if not text.lstrip("-").isdigit() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)

    return count


def run_script(script_main) -> None:
    """Run a script's ``main()``; a data error exits 2 with one line on stderr."""
    try:
        script_main()
    except DATA_ERRORS as exc:
        sys.stderr.write(f"{Path(sys.argv[0]).name}: error: {exc}\n")
        raise SystemExit(2)


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="dataset path (plain file, or simplex-format prefix/directory)")
    p.add_argument("--format", choices=("auto", "plain", "simplex"), default="auto",
                   help="input format (default: detect from path)")
    p.add_argument("--max-size", type=int, default=25, metavar="K",
                   help="drop hyperedges larger than K before analysis; 0 disables (default 25)")
    p.add_argument("--lcc", action="store_true", help="restrict to the largest connected component")


def load_input(args: argparse.Namespace) -> Hypergraph:
    path = Path(args.input)
    is_prefix = (path.parent / (path.name + "-nverts.txt")).is_file()
    if not path.exists() and not is_prefix:
        raise FormatError(f"input not found: {path}")
    if args.max_size < 0:
        raise ValueError(f"--max-size must be >= 0 (0 disables the filter), got {args.max_size}")
    load = {"plain": load_plain, "simplex": load_simplex_dataset, "auto": load_auto}[args.format]
    return preprocess(load(path), max_size=args.max_size or None, lcc=args.lcc)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_manifest(args: argparse.Namespace, outputs: list[Path], extra: dict | None = None) -> Path:
    """Record everything needed to replay this run next to its first output."""
    params = {
        k: v for k, v in vars(args).items() if k not in ("func", "command") and not callable(v)
    }
    manifest = {
        "command": args.command,
        "argv": list(getattr(args, "_argv", [])),
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "parameters": params,
        "inputs": {},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    if getattr(args, "input", None) is not None and Path(args.input).is_file():
        manifest["inputs"][str(args.input)] = _sha256(Path(args.input))
    if extra:
        manifest.update(extra)
    manifest_path = outputs[0].with_name(outputs[0].name + ".manifest.json")
    _atomic_write_text(manifest_path, json.dumps(manifest, indent=2, default=str) + "\n")
    return manifest_path


def _emit(args: argparse.Namespace, text: str, extra_outputs: list[Path] | None = None,
          manifest_extra: dict | None = None) -> None:
    """Write the main payload to --out (plus manifest) or print it."""
    if getattr(args, "out", None):
        out = Path(args.out)
        _atomic_write_text(out, text)
        write_manifest(args, [out] + (extra_outputs or []), manifest_extra)
    else:
        sys.stdout.write(text)


def cmd_stats(args: argparse.Namespace) -> int:
    h = load_input(args)
    if h.n < 2:
        raise FormatError(f"dataset has {h.n} node(s); need at least 2 for density")
    computed = compute_dataset_stats(h)
    stats = {"n": computed.n, "m": computed.m, "projected_density": computed.projected_density,
             "dag_edges": computed.dag_edge_count}
    if args.out:
        _emit(args, json.dumps(stats, indent=2) + "\n")
        print(f"wrote {args.out}")
    elif args.json:
        print(json.dumps(stats, indent=2))
    else:
        print("n={n} m={m} projected_density={projected_density:.4f} dag_edges={dag_edges}"
              .format(**stats))
    return 0


def cmd_encapsulation(args: argparse.Namespace) -> int:
    h = load_input(args)
    dag = build_encapsulation_dag(h)
    counts = encapsulation_counts(h, dag)
    doc: dict = {
        "observed": counts.to_json_dict(normalized=args.normalized, histograms=args.histograms)
    }
    if args.randomize:
        pair_sums: dict[str, float] = {}
        for randomized in layer_samples(h, args.randomize, args.seed):
            rdag = build_encapsulation_dag(randomized)
            rcounts = encapsulation_counts(randomized, rdag)
            for (n, m_), c in rcounts.pair_counts.items():
                pair_sums[f"{n},{m_}"] = pair_sums.get(f"{n},{m_}", 0.0) + c
        doc["randomized"] = {
            "samples": args.randomize,
            "seed": args.seed,
            "mean_pair_counts": {k: v / args.randomize for k, v in sorted(pair_sums.items())},
        }
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_heights(args: argparse.Namespace) -> int:
    h = load_input(args)
    report = rooted_heights(build_encapsulation_dag(h), h)
    summary: dict = {
        "observed": {
            "roots": len(report.records),
            "height_distribution": {str(k): v for k, v in report.height_distribution().items()},
            "max_height": report.max_height(),
        }
    }
    if args.randomize:
        sample_max = []
        sample_dists = []
        for randomized in layer_samples(h, args.randomize, args.seed):
            rreport = rooted_heights(build_encapsulation_dag(randomized), randomized)
            sample_max.append(rreport.max_height())
            sample_dists.append({str(k): v for k, v in rreport.height_distribution().items()})
        summary["randomized"] = {
            "samples": args.randomize,
            "seed": args.seed,
            "per_sample_max_height": sample_max,
            "mean_max_height": sum(sample_max) / len(sample_max),
            "height_distributions": sample_dists,
        }
    outputs = []
    if args.out:
        report.write_csv(args.out)
        outputs.append(Path(args.out))
    if args.summary_out:
        _atomic_write_text(Path(args.summary_out), json.dumps(summary, indent=2) + "\n")
        outputs.append(Path(args.summary_out))
    if outputs:
        write_manifest(args, outputs)
        print(f"wrote {', '.join(str(p) for p in outputs)}")
    else:
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_randomize(args: argparse.Namespace) -> int:
    h = load_input(args)
    report = retention_report(h, args.samples, args.seed)
    extra_outputs: list[Path] = []
    if args.emit_samples:
        outdir = Path(args.emit_samples)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, randomized in enumerate(report.randomized):
            sample_path = outdir / f"sample_{i:03d}.txt"
            write_plain(randomized, sample_path)
            extra_outputs.append(sample_path)
    _emit(args, json.dumps(report.to_json_dict(), indent=2) + "\n", extra_outputs)
    return 0


def _parse_eps(spec: str, max_size: int) -> dict[int, float]:
    """Either positional 'v2,v3,…' covering sizes 2..max_size-1, or
    explicit 'size=value' pairs separated by commas."""
    spec = spec.strip()
    if not spec:
        return {}
    entries = spec.split(",")
    eps: dict[int, float] = {}
    if all("=" in e for e in entries):
        for e in entries:
            size_s, _, val = e.partition("=")
            eps[int(size_s)] = float(val)
        return eps
    values = [float(e) for e in entries]
    expected = max(0, max_size - 2)
    if len(values) != expected:
        raise ValueError(
            f"--eps needs {expected} values for sizes 2..{max_size - 1}, got {len(values)}"
        )
    return {s: v for s, v in zip(range(2, max_size), values)}


def cmd_rnhm(args: argparse.Namespace) -> int:
    params = RnhmParams(
        num_nodes=args.nodes,
        max_size=args.max_size,
        num_max_edges=args.max_edges,
        keep_probs=_parse_eps(args.eps, args.max_size),
        include_singletons=args.singletons,
    )
    sample = generate(params, spawn_rng(args.seed, "rnhm"))
    out = Path(args.out)
    write_plain(sample.hypergraph, out)
    write_manifest(
        args,
        [out],
        extra={
            "rnhm": {
                **vars(params),
                "keep_probs": {str(k): v for k, v in sorted(params.keep_probs.items())},
                "rewired_edges": sample.rewired_edges,
                "connectivity_rejections": sample.connectivity_rejections,
                "rewire_rejections": sample.rewire_rejections,
            }
        },
    )
    print(
        f"wrote {out}: n={sample.hypergraph.n} m={sample.hypergraph.m} "
        f"rewired={sample.rewired_edges} rejections={sample.connectivity_rejections}"
    )
    return 0


def _parse_csv_list(value: str, cast) -> tuple:
    return tuple(cast(tok) for tok in value.split(",") if tok)


def cmd_simulate(args: argparse.Namespace) -> int:
    h = load_input(args)
    strategies = _parse_csv_list(args.strategy, str)
    seed_counts = _parse_csv_list(args.seeds, int)
    if not strategies or not seed_counts:
        raise ValueError("--strategy and --seeds must each list at least one value")
    for strat in strategies:
        if strat not in STRATEGIES:
            raise ValueError(f"unknown strategy {strat!r}; choose from {', '.join(STRATEGIES)}")
    for count in seed_counts:
        if count > h.m:
            raise ValueError(f"seed count {count} exceeds hyperedge count {h.m}")
    grid = ExperimentGrid(
        variants=(args.variant,),
        strategies=strategies,
        seed_counts=seed_counts,
        tau=args.tau,
        max_steps=args.max_steps,
        comparison=args.comparison,
    )
    dataset = args.dataset or Path(args.input).name
    prepared = prepare_dynamics(h)
    if args.randomize:
        records, comparisons = randomized_comparison(
            prepared, grid, args.runs, args.randomize, args.seed, dataset=dataset, jobs=args.jobs
        )
        summary_doc = {
            "cells": [vars(c) for c in comparisons],
            "randomize_samples": args.randomize,
        }
    else:
        records = run_experiment(prepared, grid, args.runs, args.seed, dataset=dataset, jobs=args.jobs)
        summary_doc = {"cells": [vars(s) for s in summarize(records)]}
    out = Path(args.out)
    write_records_csv(records, out)
    outputs = [out]
    if args.summary_out:
        _atomic_write_text(Path(args.summary_out), json.dumps(summary_doc, indent=2) + "\n")
        outputs.append(Path(args.summary_out))
    if args.trajectories:
        dumps = []
        for idx, (variant, strategy, seed_count) in enumerate(grid.cells()):
            traj = cell_trajectory(prepared, grid, idx, 0, args.seed)
            dumps.append(
                {"variant": variant, "strategy": strategy, "seeds": seed_count, "run": 0}
                | traj.to_json_dict()
            )
        _atomic_write_text(Path(args.trajectories), json.dumps(dumps, indent=2) + "\n")
        outputs.append(Path(args.trajectories))
    write_manifest(args, outputs)
    print(f"wrote {', '.join(str(p) for p in outputs)}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hypernest", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hypernest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("stats", help="node/hyperedge counts, projected density, containment edges")
    _add_input_options(p)
    p.add_argument("--json", action="store_true", help="print JSON instead of a text line")
    p.add_argument("--out", help="write JSON stats here (with manifest)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("encapsulation", help="per-size-pair containment counts and histograms")
    _add_input_options(p)
    p.add_argument("--normalized", action="store_true", help="include per-size-n-hyperedge rates")
    p.add_argument("--histograms", action="store_true", help="include per-hyperedge normalized histograms")
    p.add_argument("--randomize", type=at_least(0), default=0, metavar="K", help="add mean counts over K layer randomizations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write JSON here (with manifest)")
    p.set_defaults(func=cmd_encapsulation)

    p = sub.add_parser("heights", help="rooted path heights of the containment DAG")
    _add_input_options(p)
    p.add_argument("--randomize", type=at_least(0), default=0, metavar="K", help="also report K layer randomizations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write per-root CSV here")
    p.add_argument("--summary-out", help="write distribution summary JSON here")
    p.set_defaults(func=cmd_heights)

    p = sub.add_parser("randomize", help="layer randomization retention report")
    _add_input_options(p)
    p.add_argument("--samples", type=at_least(1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write JSON report here (with manifest)")
    p.add_argument("--emit-samples", metavar="DIR", help="also write each randomized hypergraph")
    p.set_defaults(func=cmd_randomize)

    p = sub.add_parser("rnhm", help="generate a random nested hypergraph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--max-edges", type=int, required=True, help="number of maximum-size hyperedges")
    p.add_argument(
        "--eps",
        default="",
        help="keep probabilities: 'v2,v3,…' for sizes 2..max-size-1, or 'size=v' pairs (default all 1)",
    )
    p.add_argument("--singletons", action="store_true", help="include each appearing node as a 1-node hyperedge")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="write the hypergraph here, one hyperedge per line")
    p.set_defaults(func=cmd_rnhm)

    p = sub.add_parser("simulate", help="run contagion experiments over a seed/strategy grid")
    _add_input_options(p)
    p.add_argument("--variant", choices=VARIANTS, default="strict")
    p.add_argument("--strategy", default="uniform", help="comma-separated seed strategies")
    p.add_argument("--seeds", default="1", help="comma-separated seed counts")
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--runs", type=at_least(1), default=10)
    p.add_argument("--max-steps", type=int, default=25)
    p.add_argument("--comparison", choices=(">=", ">"), default=">=")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--randomize", type=at_least(0), default=0, metavar="K", help="compare against K layer randomizations")
    p.add_argument("--jobs", type=at_least(1), default=1)
    p.add_argument("--dataset", default="", help="dataset name for the results table")
    p.add_argument("--out", required=True, help="write per-run results CSV here")
    p.add_argument("--summary-out", help="write per-cell summary JSON here")
    p.add_argument("--trajectories", help="write first-run trajectories JSON here")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        sys.stderr.write(f"hypernest {args.command}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
