#!/usr/bin/env python3
"""Record ``reference.json``: each workload input's fingerprint and the
parsed results of every command, for every seed variant.

Run from the root of a checkout at the commit whose results are the
reference (the benchmark was defined against it)::

    python3 benchmarks/make_reference.py [WORKLOAD ...]

Workloads named on the command line are re-recorded; the others keep their
entries. This overwrites the reference, so re-record only when a change of
output is deliberate and recorded in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

from run import HERE, BenchError, Workload
import workloads


def fingerprint(path: Path) -> dict:
    """The preprocessed input as every command sees it (max size 25, LCC)."""
    from hypernest import build_encapsulation_dag
    from hypernest.hypergraph import load_auto, preprocess

    h = preprocess(load_auto(path), max_size=25, lcc=True)
    degree = Counter(u for edge in h.edges for u in edge)
    return {
        "sha256": workloads.file_sha256(path),
        "n": h.n,
        "m": h.m,
        "dag_edges": build_encapsulation_dag(h).edge_count,
        "sum_deg_sq": sum(d * d for d in degree.values()),
        "max_degree": max(degree.values()),
        "size_histogram": {str(k): v for k, v in sorted(Counter(h.sizes.tolist()).items())},
    }


def record(name: str, root: Path) -> dict:
    entries = {}
    for variant in range(workloads.VARIANTS):
        workdir = root / ".bench_work" / f"reference-{name}-{os.getpid()}"
        try:
            workdir.mkdir(parents=True)
            w = Workload(name, variant, root, workdir, reference=None)
            w.prepare_input()
            w.timed(0, [], min_passes=1)
            entries[str(variant)] = {
                "fingerprint": fingerprint(workdir / "pass-1" / workloads.INPUT),
                "ops": w.collected,
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name} variant {variant}: {entries[str(variant)]['fingerprint']}", flush=True)
    return entries


def main(argv: list[str]) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in argv or workloads.WORKLOADS:
        try:
            reference[name] = record(name, root)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
