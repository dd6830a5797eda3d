"""Benchmark workloads: seeded inputs and the command list each one runs.

Both workloads run the same commands on a generated input; they differ in
the input's shape:

* ``email-dense``: the ROADMAP open-items recipe at one sixth of its scale
  (175 node ids, windows of 44 ids, 4,375 lines), which keeps its node
  degrees, so containment-candidate gathering in ``linegraph`` dominates.
* ``coauth-sparse``: the same generator over 4,200 node ids with smaller
  hyperedges: about the same m, but ~13x less DAG work per hyperedge, so
  per-edge and per-node Python overhead dominates.

The ``rnhm`` command and the RNHM activation sweep do not read the input, so
they run at one fixed size in both: an RNHM sample of ~2.8k hyperedges with
deep, closed containment, and the sweep at two realizations per cell.

The host runs at a speed that changes from second to second (one sample of a
command varies by 10-25%), so a metric is steady only as the median of many
samples. The inputs are a sixth of the ROADMAP's email-Eu scale, and each
command makes one randomized sample (two dynamics runs per cell), so that a
pass takes 5-9 s and a 60 s run holds six to twelve of them.

A workload seed picks one of ``VARIANTS`` inputs (``seed % VARIANTS``); each
variant has a recorded fingerprint and reference results in
``reference.json``, produced at the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VARIANTS = 8
INPUT = "input.txt"
SIM_VARIANTS = ("strict", "non-strict", "empirical-adjacent", "threshold")
SWEEP_SCRIPT = "scripts/rnhm_activation_sweep.py"
SETUP_CODE = ("import sys\nfrom hypernest.hypergraph import load_auto, preprocess\n"
              "preprocess(load_auto(sys.argv[1]), max_size=25, lcc=True)\n")

# (raw node ids, raw lines, window width, geometric p) per workload
GENERATED = {
    "email-dense": (175, 4_375, 44, 0.35),
    "coauth-sparse": (4_200, 4_375, 250, 0.5),
}
RNHM_ARGS = ("--nodes", "400", "--max-size", "8", "--max-edges", "10",
             "--eps", ",".join(["0.9"] * 6), "--singletons")
WORKLOADS = tuple(GENERATED)


@dataclass(frozen=True)
class Op:
    """One command of a pass; ``name`` is its metric stem. ``kind`` says what
    ``argv`` follows: ``cli`` runs ``python3 -m hypernest.cli ARGV``,
    ``script`` runs ``python3 ARGV`` with ``ARGV[0]`` a repository script
    relative to the checkout, ``python`` runs ``python3 ARGV``."""

    name: str
    argv: tuple[str, ...]
    kind: str = "cli"


def window_hyperedges(seed: int, n_nodes: int, n_lines: int, window: int, p: float,
                      cap: int = 25) -> list[list[int]]:
    """Raw hyperedges: size 1+Geometric(p) capped at ``cap``, drawn from a
    random window of ``window`` consecutive node ids; half of the hyperedges
    larger than 2 are followed by a random proper subset (size 1..k-1)."""
    rng = np.random.default_rng(seed)
    lines: list[list[int]] = []
    while len(lines) < n_lines:
        size = min(1 + int(rng.geometric(p)), cap)
        start = int(rng.integers(0, n_nodes - window + 1))
        edge = start + rng.choice(window, size=size, replace=False)
        lines.append(edge.tolist())
        if size > 2 and rng.random() < 0.5 and len(lines) < n_lines:
            k = int(rng.integers(1, size))
            lines.append(rng.choice(edge, size=k, replace=False).tolist())
    return lines


def write_generated_input(workload: str, variant: int, path: Path) -> None:
    lines = window_hyperedges(variant, *GENERATED[workload])
    path.write_text("".join(" ".join(map(str, e)) + "\n" for e in lines))


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ops(workload: str, variant: int) -> list[Op]:
    """The commands of one pass, in order; paths are relative to the
    pass's work directory, except the script's, relative to the checkout."""
    seed = str(variant)
    common = ("--lcc", "--seed", seed)
    result = [
        Op("rnhm", ("rnhm", *RNHM_ARGS, "--seed", seed, "--out", "rnhm.txt")),
        # a fresh process that loads and preprocesses the input, as every
        # subcommand does before its analysis
        Op("setup", ("-c", SETUP_CODE, INPUT), kind="python"),
        Op("stats", ("stats", INPUT, "--lcc", "--json")),
        Op("encapsulation", ("encapsulation", INPUT, *common, "--normalized", "--histograms",
                             "--randomize", "1", "--out", "encapsulation.json")),
        Op("heights", ("heights", INPUT, *common, "--randomize", "1",
                       "--out", "heights.csv", "--summary-out", "heights.json")),
        Op("randomize", ("randomize", INPUT, *common, "--samples", "1",
                         "--out", "randomize.json", "--emit-samples", "samples")),
    ]
    for v in SIM_VARIANTS:
        result.append(Op(f"simulate.{v}", (
            "simulate", INPUT, *common, "--variant", v, "--strategy", "uniform,smallest-first",
            "--seeds", "1,10", "--runs", "2", "--randomize", "1", "--jobs", "1",
            "--out", f"simulate-{v}.csv", "--summary-out", f"simulate-{v}.json")))
    result.append(Op("sweep", (SWEEP_SCRIPT, "--seed", seed, "--realizations", "2",
                               "--out", "sweep.csv"), kind="script"))
    return result
