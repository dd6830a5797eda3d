"""Correctness check of one command's outputs against the reference results.

Outputs are parsed into named parts (stats fields, pair counts, height
distributions, retention means, per-run CSV rows, RNHM edges, sweep rows) and
each part is compared by value, never by raw bytes, and never through the
``*.manifest.json`` files: a later change may add or drop manifest fields or
keys outside these parts (such as ``collapsed_edges``) without failing here.
Floats are compared at 10 significant digits. A part whose canonical JSON is
long is stored in the reference as a digest of that JSON.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DIGEST_OVER = 160
QUANTITIES = ("dag_edges", "overlap_edges", "overlap_weight")


def _canon(value):
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def summarize(value):
    """Reference form of a part: the canonical value, or a digest of it."""
    text = json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))
    if len(text) <= DIGEST_OVER:
        return json.loads(text)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _number(tok: str):
    for cast in (int, float):
        try:
            return cast(tok)
        except ValueError:
            pass
    return tok


def _edges(path: Path) -> list[list]:
    return [[_number(t) for t in line.split()] for line in path.read_text().splitlines()]


def _csv_rows(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        return [[_number(t) for t in row] for row in csv.reader(fh)]


def _json(path: Path):
    return json.loads(path.read_text())


def parse(name: str, argv, workdir: Path, stdout: str) -> dict:
    """Named result parts of one finished command."""
    if name == "setup":
        return {}
    if name == "rnhm":
        return {"edges": _edges(workdir / _arg(argv, "--out"))}
    if name == "stats":
        return json.loads(stdout)
    if name == "encapsulation":
        doc = _json(workdir / _arg(argv, "--out"))
        pairs = doc["observed"]["pairs"]
        return {
            "sizes": doc["observed"]["sizes"],
            "pair_counts": {k: [v["count"], v["size_n_edges"], v["per_size_n_edge"]]
                            for k, v in pairs.items()},
            "histograms": {k: v["histogram"] for k, v in pairs.items()},
            "randomized_pair_counts": doc["randomized"]["mean_pair_counts"],
        }
    if name == "heights":
        summary = _json(workdir / _arg(argv, "--summary-out"))
        return {
            "observed": summary["observed"],
            "randomized": summary["randomized"],
            "roots": _csv_rows(workdir / _arg(argv, "--out")),
        }
    if name == "randomize":
        doc = _json(workdir / _arg(argv, "--out"))
        samples_dir = workdir / _arg(argv, "--emit-samples")
        return {
            "observed": doc["observed"],
            "means": doc["means"],
            "samples": [{q: row[q] for q in QUANTITIES} for row in doc["samples"]],
            "emitted": [_edges(p) for p in sorted(samples_dir.glob("sample_*.txt"))],
        }
    if name.startswith("simulate."):
        return {
            "rows": _csv_rows(workdir / _arg(argv, "--out")),
            "cells": _json(workdir / _arg(argv, "--summary-out"))["cells"],
        }
    if name == "sweep":
        return {"rows": _csv_rows(workdir / _arg(argv, "--out"))}
    raise KeyError(f"no parser for {name!r}")


def reference_parts(name: str, argv, workdir: Path, stdout: str) -> dict:
    return {part: summarize(value) for part, value in parse(name, argv, workdir, stdout).items()}


def mismatches(expected: dict, name: str, argv, workdir: Path, stdout: str) -> list[str]:
    """Parts that differ from ``expected``; a parse failure is one mismatch."""
    try:
        got = parse(name, argv, workdir, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
    bad = []
    for part, ref in expected.items():
        if part not in got:
            bad.append(f"{part}: missing")
        elif summarize(got[part]) != ref:
            bad.append(f"{part}: differs from reference")
    return bad
