"""Command-line entry point.

Subcommands: stats | encapsulation | heights | randomize | rnhm | simulate |
rnhm-sweep.
Every run that writes files writes all of them or none, and with them one
``<first file>.manifest.json`` with the full parameter set, RNG seed, and
input and output checksums, so any result can be reproduced byte for byte
by replaying the recorded argv. Exit codes: 0 success, 1 usage error, 2
data or generation error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import json
import os
import platform
import sys
from functools import partial
from itertools import chain, product, takewhile
from pathlib import Path

import numpy

# The package registers its modules lazily, so a module executes on its first
# attribute use. Names are imported only from the package and the module that
# load_input and publish execute anyway; the others are reached as attributes
# where they are called, so a command executes only the modules it runs.
from . import (STRATEGIES, VARIANTS, __version__, dagpaths, dynamics, experiments, linegraph,
               randomize, rng, rnhm)
from .hypergraph import (
    FormatError,
    Hypergraph,
    dataset_files,
    load_auto,
    preprocess,
    projected_density,
    write_plain,
)


class Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is for data errors
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


def grid_values(option: str, text: str, kind: tuple[str, ...] | type = int) -> tuple:
    """The comma-separated values of a grid option: seed strategies out of
    ``kind`` if it is a tuple, else numbers of type ``kind``, an int being a
    seed count. A ValueError naming the option if the list is empty, holds
    an unknown strategy, a malformed number or a count below 0, or repeats a
    value (its cell would be run twice)."""
    tokens = [tok for tok in text.split(",") if tok]
    if not tokens:
        raise ValueError(f"{option} must list at least one value")
    if isinstance(kind, tuple):
        if unknown := [tok for tok in tokens if tok not in kind]:
            raise ValueError(f"{option}: unknown strategy {unknown[0]!r}; "
                             f"choose from {', '.join(kind)}")
        values = tuple(tokens)
    else:
        if kind is int and not all(tok.strip().isdecimal() for tok in tokens):
            raise ValueError(f"{option} must list counts >= 0, got {text!r}")
        try:
            values = tuple(map(kind, tokens))
        except ValueError:
            raise ValueError(f"{option} must list numbers, got {text!r}") from None
    if len(set(values)) < len(values):
        raise ValueError(f"{option} lists a value twice: {','.join(tokens)}")
    return values


def warn_self_activation(prog: str, h: Hypergraph, config: dynamics.DynamicsConfig) -> None:
    """One stderr line when the threshold process's ``tau`` is at least the
    smallest hyperedge size of ``h``: hyperedges of at most ``tau`` nodes
    then self-activate. Layer samples keep every size, so the check on an
    observed hypergraph covers its samples."""
    if config.variant == "threshold" and h.m and config.tau >= (smallest := int(h.sizes.min())):
        sys.stderr.write(f"{prog}: warning: tau={config.tau} >= smallest hyperedge size "
                         f"{smallest}: such hyperedges self-activate with no active nodes\n")


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="dataset path (plain file, or simplex-format prefix/directory)")
    p.add_argument("--format", choices=("auto", "plain", "simplex"), default="auto",
                   help="input format (default: detect from path)")
    p.add_argument("--max-size", type=int, default=25, metavar="K",
                   help="drop hyperedges larger than K before analysis; 0 disables (default 25)")
    p.add_argument("--lcc", action="store_true", help="restrict to the largest connected component")


def load_input(args: argparse.Namespace) -> Hypergraph:
    """The preprocessed input of ``args``; the digest of each file's bytes,
    as they were parsed, goes to ``args._inputs`` for the manifest (a pipe
    cannot be read a second time)."""
    path = Path(args.input)
    if not path.exists() and not dataset_files(path, args.format)[0].is_file():
        raise FormatError(f"input not found: {path}")
    if args.max_size < 0:
        raise ValueError(f"--max-size must be >= 0 (0 disables the filter), got {args.max_size}")
    args._inputs = {}

    def read(file: Path) -> bytes:
        data = file.read_bytes()
        args._inputs[str(file)] = "sha256:" + hashlib.sha256(data).hexdigest()
        return data

    return preprocess(load_auto(path, args.format, read), max_size=args.max_size or None,
                      lcc=args.lcc)


def json_text(obj, default=None) -> str:
    """``json.dumps(obj, indent=2, default=default)`` and a newline, byte for
    byte. ``indent`` sends everything through the pure-Python encoder; here
    each flat list of numbers, the bulk of a document, goes through the C
    encoder, and only the structure around it is laid out in Python."""
    return _indented(obj, "\n", default) + "\n"


def _indented(obj, newline: str, default) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` lays it out at the depth
    whose line break and indent is ``newline``."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        if not all(isinstance(key, str) for key in obj):  # keys that json converts
            return json.dumps(obj, indent=2, default=default).replace("\n", newline)
        return "{" + inner + ("," + inner).join(
            f"{json.dumps(key)}: {_indented(value, inner, default)}"
            for key, value in obj.items()) + newline + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if not isinstance(obj[0], (dict, list, tuple)):  # else it is not flat
            text = json.dumps(obj, default=default)
            # numbers, true, false and null hold no quote, no bracket and no ", "
            if not ('"' in text or "{" in text or "[" in text[1:]):
                return "[" + inner + text[1:-1].replace(", ", "," + inner) + newline + "]"
        return "[" + inner + ("," + inner).join(
            _indented(item, inner, default) for item in obj) + newline + "]"
    if obj is None or isinstance(obj, (str, int, float, dict, list, tuple)) or default is None:
        return json.dumps(obj)
    return _indented(default(obj), newline, default)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def check_outputs(args: argparse.Namespace, outputs: list[Path], directory: Path | None = None):
    """The paths a run writes (``outputs``, then a manifest next to the
    first) and their ``.tmp`` files. An OSError or ValueError unless each
    path's directory exists (or is ``directory``, which the run makes), a
    path that exists is a regular file (renaming over a FIFO or a device
    would replace it), and no two paths, nor a path and an input file,
    resolve to the same file."""
    paths = [*outputs, outputs[0].with_name(outputs[0].name + ".manifest.json")]
    temps = [path.with_name(path.name + ".tmp") for path in paths]
    source = getattr(args, "input", None)
    inputs = [] if source is None else dataset_files(source, args.format)
    seen = {p.resolve(): "the input" for p in inputs}
    for path in paths + temps:
        if (key := path.resolve()) in seen:
            raise ValueError(f"output path {path} would overwrite {seen[key]}")
        if path.is_dir():
            raise ValueError(f"output path {path} is a directory")
        if path.exists() and not path.is_file():
            raise ValueError(f"output path {path} is not a regular file")
        if not path.parent.is_dir() and path.parent != directory:
            code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), str(path))
        seen[key] = "another output"
    return paths, temps


def publish(args: argparse.Namespace, outputs, document: str | None = None,
            extra: dict | None = None, directory: Path | None = None) -> int:
    """Finish a command, all or nothing: write ``outputs``, (path, text, text
    parts or path writer) pairs in order, those with no path skipped, then a
    manifest next to the first. Each file goes to ``<path>.tmp`` and is
    renamed into place only once every one is written; on failure the
    temporaries, and whatever of ``directory`` (made once the paths are
    checked) this run made, are deleted and the error re-raised, naming the
    user's path. Then print ``document``, or else one ``wrote`` line."""
    named = [(Path(path), content) for path, content in outputs if path]
    if named:
        paths, temps = check_outputs(args, [path for path, _ in named], directory)
        made = [] if directory is None else list(
            takewhile(lambda d: not d.exists(), (directory, *directory.parents)))
        started = []
        try:
            if directory is not None:
                directory.mkdir(parents=True, exist_ok=True)
            for (_, content), tmp in zip(named, temps):
                started.append(tmp)
                if callable(content):
                    content(tmp)
                else:
                    with open(tmp, "w") as fh:
                        fh.writelines([content] if isinstance(content, str) else content)
            manifest = {
                "command": args.command,
                "argv": args._argv,
                "version": __version__,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "seed": getattr(args, "seed", None),
                "parameters": {k: v for k, v in vars(args).items()
                               if k not in ("func", "command", "_argv", "_inputs")},
                "inputs": getattr(args, "_inputs", {}),
                "outputs": {str(p): _sha256(t) for p, t in zip(paths, temps[:-1])},
                **(extra or {}),
            }
            started.append(temps[-1])
            temps[-1].write_text(json_text(manifest, default=str))
            for tmp, path in zip(temps, paths):
                os.replace(tmp, path)
        except BaseException as exc:
            for tmp in started:
                tmp.unlink(missing_ok=True)
            for made_dir in filter(Path.is_dir, made):
                made_dir.rmdir()
            if isinstance(exc, OSError) and exc.filename2 is None:
                real = {str(tmp): str(path) for tmp, path in zip(temps, paths)}
                exc.filename = real.get(exc.filename, exc.filename)
            raise
    if document is not None:
        sys.stdout.write(document)
    elif named:
        print(f"wrote {', '.join(str(path) for path, _ in named)}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    h = load_input(args)
    stats = {"n": h.n, "m": h.m, "projected_density": projected_density(h),
             "dag_edges": linegraph.build_encapsulation_dag(h).edge_count}
    text = json_text(stats)
    line = "n={n} m={m} projected_density={projected_density:.4f} dag_edges={dag_edges}\n"
    return publish(args, [(args.out, text)],
                   None if args.out else text if args.json else line.format(**stats))


def cmd_encapsulation(args: argparse.Namespace) -> int:
    h = load_input(args)
    dag = linegraph.build_encapsulation_dag(h)
    doc: dict = {"observed": linegraph.encapsulation_counts(
        h, dag, normalized=args.normalized, histograms=args.histograms)}
    if args.randomize:
        pair_sums: dict[str, float] = {}
        for randomized in randomize.layer_samples(h, args.randomize, args.seed):
            sample = linegraph.encapsulation_counts(
                randomized, linegraph.build_encapsulation_dag(randomized))
            for key, entry in sample["pairs"].items():
                pair_sums[key] = pair_sums.get(key, 0.0) + entry["count"]
        doc["randomized"] = {
            "samples": args.randomize,
            "seed": args.seed,
            "mean_pair_counts": {k: v / args.randomize for k, v in sorted(pair_sums.items())},
        }
    text = json_text(doc)
    return publish(args, [(args.out, text)], None if args.out else text)


def cmd_heights(args: argparse.Namespace) -> int:
    h = load_input(args)
    report = dagpaths.rooted_heights(linegraph.build_encapsulation_dag(h), h)
    summary: dict = {
        "observed": {
            "roots": report.num_roots,
            "height_distribution": {str(k): v for k, v in report.height_distribution().items()},
            "max_height": report.max_height(),
        }
    }
    # the summary goes to --summary-out, or to stdout without --out; else nowhere
    if args.randomize and (args.summary_out or not args.out):
        sample_max = []
        sample_dists = []
        for randomized in randomize.layer_samples(h, args.randomize, args.seed):
            rdag = linegraph.build_encapsulation_dag(randomized)
            rreport = dagpaths.rooted_heights(rdag, randomized)
            sample_max.append(rreport.max_height())
            sample_dists.append({str(k): v for k, v in rreport.height_distribution().items()})
        summary["randomized"] = {
            "samples": args.randomize,
            "seed": args.seed,
            "per_sample_max_height": sample_max,
            "mean_max_height": sum(sample_max) / len(sample_max),
            "height_distributions": sample_dists,
        }
    text = json_text(summary)
    return publish(args, [(args.out, report.write_csv), (args.summary_out, text)],
                   None if args.out or args.summary_out else text)


def cmd_randomize(args: argparse.Namespace) -> int:
    h = load_input(args)
    outdir = Path(args.emit_samples) if args.emit_samples else None
    drawn = randomize.layer_samples(h, args.samples, args.seed)
    if outdir is not None:  # held only when written; otherwise one at a time
        drawn = list(drawn)
    text = json_text(randomize.retention_report(h, drawn, args.seed))
    samples = [] if outdir is None else [
        (outdir / f"sample_{i:03d}.txt", partial(write_plain, randomized))
        for i, randomized in enumerate(drawn)]
    return publish(args, [(args.out, text), *samples], None if args.out else text,
                   directory=outdir)


def _parse_eps(spec: str, max_size: int) -> dict[int, float]:
    """Either positional 'v2,v3,…' covering sizes 2..max_size-1, or
    explicit 'size=value' pairs separated by commas."""
    spec = spec.strip()
    if not spec:
        return {}
    entries = spec.split(",")
    paired = all("=" in e for e in entries)
    try:
        values = [float(e.partition("=")[2] if paired else e) for e in entries]
        sizes = [int(e.partition("=")[0]) for e in entries] if paired else range(2, max_size)
    except ValueError:
        raise ValueError(f"--eps must list numbers or size=number pairs, got {spec!r}") from None
    if not paired and len(values) != (expected := max(0, max_size - 2)):
        raise ValueError(
            f"--eps needs {expected} values for sizes 2..{max_size - 1}, got {len(values)}"
        )
    eps: dict[int, float] = {}
    for size, value in zip(sizes, values):
        if size in eps:
            raise ValueError(f"--eps gives size {size} twice")
        eps[size] = value
    return eps


def cmd_rnhm(args: argparse.Namespace) -> int:
    params = rnhm.RnhmParams(
        num_nodes=args.nodes,
        max_size=args.max_size,
        num_max_edges=args.max_edges,
        keep_probs=_parse_eps(args.eps, args.max_size),
        include_singletons=args.singletons,
    )
    sample = rnhm.generate(params, rng.spawn_rng(args.seed, "rnhm"))
    publish(args, [(args.out, partial(write_plain, sample.hypergraph))], extra={"rnhm": {
        **vars(params),
        "keep_probs": {str(k): v for k, v in sorted(params.keep_probs.items())},
        "rewired_edges": sample.rewired_edges,
        "connectivity_rejections": sample.connectivity_rejections,
        "rewire_rejections": sample.rewire_rejections,
    }})
    print(f"n={sample.hypergraph.n} m={sample.hypergraph.m} "
          f"rewired={sample.rewired_edges} rejections={sample.connectivity_rejections} "
          f"rewire_rejections={sample.rewire_rejections}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    strategies = grid_values("--strategy", args.strategy, STRATEGIES)
    seed_counts = grid_values("--seeds", args.seeds)
    h = load_input(args)
    for count in seed_counts:
        if count > h.m:
            raise ValueError(f"seed count {count} exceeds hyperedge count {h.m}")
    config = dynamics.DynamicsConfig(args.variant, args.tau, args.max_steps, args.comparison)
    grid = experiments.ExperimentGrid(config, strategies, seed_counts)
    warn_self_activation(f"hypernest {args.command}", h, config)
    dataset = args.dataset or Path(args.input).name
    influence = dynamics.build_influence(h, args.variant)
    outcomes = experiments.run_experiment(h, influence, grid, args.runs, args.seed, args.jobs)
    props = experiments.cell_proportions(h, grid, outcomes)
    summary_doc = (experiments.randomized_comparison(h, grid, args.runs, props, args.randomize,
                                                     args.seed, dataset, args.jobs)
                   if args.randomize else experiments.summarize(grid, props, dataset))
    # run 0 of each cell, written one cell at a time as json_text lays out their list
    first = chain.from_iterable(experiments.activations(h, influence, grid, 1, args.seed))
    trajectories = chain((("," if c else "[") + "\n  " + _indented(
        {"variant": args.variant, "strategy": strategy, "seeds": seed_count, "run": 0,
         "steps": steps, "final_active": sum(map(len, steps))}, "\n  ", None)
        for c, ((strategy, seed_count), row) in enumerate(zip(grid.cells(), first))
        for steps in [dynamics.trajectory(row)]), ["\n]\n"])
    return publish(args, [(args.out, partial(experiments.write_records_csv, grid, outcomes, props,
                                             dataset=dataset)),
                          (args.summary_out, json_text(summary_doc)),
                          (args.trajectories, trajectories)])


def cmd_rnhm_sweep(args: argparse.Namespace) -> int:
    """Activation sweep on random nested hypergraphs. For each pair of keep
    probabilities (eps2, eps3) from ``--eps-grid``, generate
    ``--realizations`` hypergraphs with singletons, run every (strategy,
    seed count) cell ``--runs`` times on each (a seed count above a
    realization's hyperedge count is clamped to it), and write one CSV row
    per cell with the mean and standard error of the non-seed activation
    proportion over all realizations and runs."""
    eps_values = grid_values("--eps-grid", args.eps_grid, float)
    strategies = grid_values("--strategies", args.strategies, STRATEGIES)
    seed_counts = grid_values("--seed-counts", args.seed_counts)
    config = dynamics.DynamicsConfig(args.variant, args.tau)
    grid = experiments.ExperimentGrid(config, strategies, seed_counts)
    rows = [["eps2", "eps3", "strategy", "seeds", "mean_proportion", "stderr"]]
    pairs = [(eps2, eps3, rnhm.RnhmParams(args.nodes, args.max_size, args.max_edges, {
        s: (eps2 if s == 2 else eps3) for s in range(2, args.max_size)}, include_singletons=True))
        for eps2, eps3 in product(eps_values, eps_values)]
    for eps2, eps3, params in pairs:
        realizations = [rnhm.generate(params, rng.spawn_rng(args.seed + r, "rnhm")).hypergraph
                        for r in range(args.realizations)]
        if len(rows) == 1:  # once: every realization holds 1-node hyperedges
            warn_self_activation(f"hypernest {args.command}", realizations[0], config)
        for (strategy, seed_count), (mean, stderr) in zip(grid.cells(), experiments.pooled_cells(
                realizations, grid, args.runs, args.seed)):
            rows.append([eps2, eps3, strategy, seed_count, f"{mean:.6f}", f"{stderr:.6f}"])
            print(f"eps2={eps2} eps3={eps3} {strategy:>14} seeds={seed_count:>4} "
                  f"-> {mean:.4f} +/- {stderr:.4f}")
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return publish(args, [(args.out, text.getvalue())])


def build_parser() -> Parser:
    parser = Parser(prog="hypernest", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hypernest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

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
    p.add_argument("--seed", type=at_least(0), default=0)
    p.add_argument("--out", help="write JSON here (with manifest)")
    p.set_defaults(func=cmd_encapsulation)

    p = sub.add_parser("heights", help="rooted path heights of the containment DAG")
    _add_input_options(p)
    p.add_argument("--randomize", type=at_least(0), default=0, metavar="K", help="also report K layer randomizations")
    p.add_argument("--seed", type=at_least(0), default=0)
    p.add_argument("--out", help="write per-root CSV here")
    p.add_argument("--summary-out", help="write distribution summary JSON here")
    p.set_defaults(func=cmd_heights)

    p = sub.add_parser("randomize", help="layer randomization retention report")
    _add_input_options(p)
    p.add_argument("--samples", type=at_least(1), default=5)
    p.add_argument("--seed", type=at_least(0), default=0)
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
    p.add_argument("--seed", type=at_least(0), default=0)
    p.add_argument("--out", required=True, help="write the hypergraph here, one hyperedge per line")
    p.set_defaults(func=cmd_rnhm)

    p = sub.add_parser("simulate", help="run contagion experiments over a seed/strategy grid")
    _add_input_options(p)
    p.add_argument("--variant", choices=VARIANTS, default="strict")
    p.add_argument("--strategy", default="uniform", help="comma-separated seed strategies")
    p.add_argument("--seeds", default="1", help="comma-separated seed counts")
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--runs", type=at_least(1), default=10)
    p.add_argument("--max-steps", type=at_least(1), default=25)
    p.add_argument("--comparison", choices=(">=", ">"), default=">=")
    p.add_argument("--seed", type=at_least(0), default=0)
    p.add_argument("--randomize", type=at_least(0), default=0, metavar="K", help="compare against K layer randomizations")
    p.add_argument("--jobs", type=at_least(1), default=1)
    p.add_argument("--dataset", default="", help="dataset name for the results table")
    p.add_argument("--out", required=True, help="write per-run results CSV here")
    p.add_argument("--summary-out", help="write per-cell summary JSON here")
    p.add_argument("--trajectories", help="write first-run trajectories JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rnhm-sweep", help="activation over RNHM keep probabilities and seedings",
                       description=cmd_rnhm_sweep.__doc__)
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--max-edges", type=int, default=5)
    p.add_argument("--eps-grid", default="0,1", help="keep probabilities tried for every size")
    p.add_argument("--strategies", default="uniform,smallest-first")
    p.add_argument("--seed-counts", default="1,5,10,20,35")
    p.add_argument("--variant", default="strict", choices=VARIANTS)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--realizations", type=at_least(1), default=25)
    p.add_argument("--runs", type=at_least(1), default=50)
    p.add_argument("--seed", type=at_least(0), default=0)
    p.add_argument("--out", required=True, help="write per-cell CSV here")
    p.set_defaults(func=cmd_rnhm_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # a bad output path fails before the work, not after it
        named = [Path(path) for key in ("out", "summary_out", "trajectories")
                 if (path := getattr(args, key, None))]
        if named:
            samples = getattr(args, "emit_samples", None)
            check_outputs(args, named, samples and Path(samples))
        return args.func(args)
    # bad data, a failed generation or a grid too large to allocate: exit 2,
    # one line; the tuple is read only when an exception arrives, so a run
    # that succeeds executes rnhm only if its command uses it
    except (OSError, ValueError, MemoryError, rnhm.GenerationError) as exc:
        sys.stderr.write(f"hypernest {args.command}: error: {str(exc) or 'out of memory'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
