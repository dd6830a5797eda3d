"""Whole commands against the brute-force oracles: each test draws a small
hypergraph, writes it in the plain format (and the simplex format where the
command's own reading is under test), runs the command with ``--lcc`` and a
drawn ``--max-size`` and compares what it prints with a document built only
from ``tests/oracles.py`` and brute-force counting.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from hypernest import VARIANTS
from hypernest.cli import main

# repeated and reordered rows, singletons and several components are all likely
raw_rows = st.lists(st.lists(st.integers(0, 14), min_size=1, max_size=7, unique=True),
                    min_size=1, max_size=14)
max_sizes = st.sampled_from([0, 1, 2, 3, 4, 7])
OPTIONS = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_both_formats(rows: list[list[int]], directory: Path) -> list[Path]:
    """``rows`` as a plain file and as a simplex dataset; the two inputs."""
    plain = directory / "rows.txt"
    plain.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    (directory / "rows-nverts.txt").write_text("".join(f"{len(row)}\n" for row in rows))
    (directory / "rows-simplices.txt").write_text("".join(f"{u}\n" for row in rows for u in row))
    return [plain, directory / "rows"]


def run(argv: list) -> tuple[int, str]:
    """Exit code and stdout of one command run in process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def expected_lcc(rows: list[list[int]], max_size: int) -> SimpleNamespace | None:
    """The hypergraph ``--max-size max_size --lcc`` must analyse: distinct
    rows in first-appearance order, none above ``max_size`` (0 keeps all),
    restricted to the largest node component, a tie going to the component
    with the smallest label: ``n``, ``m`` and ``edges`` (node ids of first
    appearance, hyperedges keeping their relative order), or None if no
    hyperedge is left."""
    labels, edges = oracles.label_rows(rows)
    edges = [e for e in edges if not max_size or len(e) <= max_size]
    if not edges:
        return None
    present = set().union(*edges)
    comps = [c for c in oracles.components(SimpleNamespace(n=len(labels), edges=edges))
             if c <= present]
    best = min(comps, key=lambda c: (-len(c), min(labels[u] for u in c)))
    kept = [e for e in edges if e[0] in best]
    return SimpleNamespace(n=len(best), m=len(kept), edges=kept)


def out_adjacency(h: SimpleNamespace) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(h.m)]
    for i, j in sorted(oracles.encapsulation_edges(h)):
        rows[i].append(j)
    return rows


@OPTIONS
@given(rows=raw_rows, max_size=max_sizes)
def test_stats_matches_the_oracles(rows, max_size, tmp_path):
    h = expected_lcc(rows, max_size)
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    for source in write_both_formats(rows, directory):
        code, out = run(["stats", source, "--lcc", "--max-size", max_size, "--json"])
        if h is None or h.n < 2:
            assert (code, out) == (2, "")
            continue
        pairs = {p for e in h.edges for p in combinations(e, 2)}
        assert code == 0
        assert json.loads(out) == {"n": h.n, "m": h.m,
                                   "projected_density": len(pairs) / comb(h.n, 2),
                                   "dag_edges": len(oracles.encapsulation_edges(h))}


@OPTIONS
@given(rows=raw_rows, max_size=max_sizes)
def test_heights_matches_the_oracles(rows, max_size, tmp_path):
    h = expected_lcc(rows, max_size)
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    for source in write_both_formats(rows, directory):
        csv_path, summary_path = directory / "heights.csv", directory / "heights.json"
        code, _ = run(["heights", source, "--lcc", "--max-size", max_size,
                       "--out", csv_path, "--summary-out", summary_path])
        if h is None:
            assert code == 2
            continue
        assert code == 0
        out_adj = out_adjacency(h)
        children = {j for row in out_adj for j in row}
        roots = [i for i in range(h.m) if out_adj[i] and i not in children]
        singletons = any(len(e) == 1 for e in h.edges)
        expected, heights = [], []
        for r in roots:
            size, degree = len(h.edges[r]), len(out_adj[r])
            height = oracles.longest_path_from(out_adj, r)
            heights.append(height)
            bound = 2**size - 2 - (0 if singletons else size)
            expected.append([str(r), str(size), str(degree), str(height),
                             f"{degree / bound:.6g}", f"{height / (size - 1):.6g}"])
        with open(csv_path, newline="") as fh:
            assert list(csv.reader(fh)) == [["root_id", "size", "dag_degree", "max_height",
                                             "norm_degree", "norm_height"], *expected]
        distribution = {str(k): heights.count(k) for k in sorted(set(heights))}
        assert json.loads(summary_path.read_text()) == {"observed": {
            "roots": len(roots), "height_distribution": distribution,
            "max_height": max(heights, default=0)}}


@OPTIONS
@given(rows=raw_rows, max_size=max_sizes, normalized=st.booleans(), histograms=st.booleans())
def test_encapsulation_matches_the_oracles(rows, max_size, normalized, histograms, tmp_path):
    h = expected_lcc(rows, max_size)
    source = write_both_formats(rows, Path(tempfile.mkdtemp(dir=tmp_path)))[0]
    flags = ["--normalized"] * normalized + ["--histograms"] * histograms
    code, out = run(["encapsulation", source, "--lcc", "--max-size", max_size, *flags])
    if h is None:
        assert (code, out) == (2, "")
        return
    sizes = [len(e) for e in h.edges]
    present = sorted(set(sizes))
    # per hyperedge i and size m, the size-m hyperedges i contains
    contained = Counter((i, len(h.edges[j])) for i, j in oracles.encapsulation_edges(h))
    pairs = {}
    # every pair of present sizes, zero counts included, by (n, m) as integers
    for n in present:
        for m_ in [s for s in present if s < n]:
            column = [contained[i, m_] for i in range(h.m) if sizes[i] == n]
            entry: dict = {"count": sum(column), "size_n_edges": sizes.count(n)}
            if normalized:
                entry["per_size_n_edge"] = sum(column) / sizes.count(n)
            if histograms:
                entry["histogram"] = [c / comb(n, m_) for c in column]
            pairs[f"{n},{m_}"] = entry
    expected = {"observed": {"sizes": {str(n): sizes.count(n) for n in present},
                             "pairs": pairs}}
    # the printed text, so the key order of sizes, pairs and fields is checked too
    assert code == 0
    assert out == json.dumps(expected, indent=2) + "\n"


@OPTIONS
@given(rows=raw_rows, max_size=max_sizes, variant=st.sampled_from(VARIANTS), data=st.data())
def test_simulate_matches_the_oracles(rows, max_size, variant, data, tmp_path):
    h = expected_lcc(rows, max_size)
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    source = write_both_formats(rows, directory)[0]
    counts = data.draw(st.lists(st.integers(0, h.m if h else 3), min_size=1, max_size=3,
                                unique=True))
    config = SimpleNamespace(variant=variant,
                             tau=data.draw(st.integers(variant != "threshold", 2)),
                             max_steps=data.draw(st.sampled_from([1, 3, 25])),
                             comparison=data.draw(st.sampled_from([">=", ">"])))
    strategies, master_seed = ("uniform", "smallest-first"), data.draw(st.integers(0, 9))
    csv_path = directory / "runs.csv"
    code, _ = run(["simulate", source, "--lcc", "--max-size", max_size, "--variant", variant,
                   "--strategy", ",".join(strategies), "--seeds", ",".join(map(str, counts)),
                   "--runs", 2, "--tau", config.tau, "--max-steps", config.max_steps,
                   "--comparison", config.comparison, "--seed", master_seed, "--out", csv_path])
    if h is None:
        assert code == 2
        return
    assert code == 0
    h.sizes = np.array([len(e) for e in h.edges])
    expected = []
    for cell, (strategy, count) in enumerate((s, c) for s in strategies for c in counts):
        for r in range(2):
            gen = oracles.seed_sequence_rng(master_seed, "seed-selection", cell, r)
            steps = oracles.contagion_steps(h, config, oracles.sorted_seeds(h, strategy, count,
                                                                             gen))
            final = sum(map(len, steps))
            proportion = (final - count) / (h.m - count) if h.m > count else 1.0
            expected.append(["rows.txt", variant, strategy, str(count), str(config.tau), str(r),
                             str(len(steps) - 1), str(final), str(final - count),
                             f"{proportion:.10g}"])
    with open(csv_path, newline="") as fh:
        assert list(csv.reader(fh))[1:] == expected
