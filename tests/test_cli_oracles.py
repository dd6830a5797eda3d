"""Whole commands against the brute-force oracles: each test draws a small
hypergraph, writes it in the plain and the simplex format, runs the command
with ``--lcc`` and a drawn ``--max-size`` and compares what it prints with a
document built only from ``tests/oracles.py`` and brute-force counting.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from pathlib import Path
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
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
