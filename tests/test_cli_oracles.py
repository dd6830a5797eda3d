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
from math import comb, sqrt
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
# words alone, or words and integers, which do not compare with each other
text_rows = st.sampled_from([list("abcdefghijklmno"), [*"abcdefgh", *range(7)]]).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=7, unique=True),
                          min_size=1, max_size=14))
max_sizes = st.sampled_from([0, 1, 2, 3, 4, 7])
OPTIONS = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_plain(rows: list[list], directory: Path) -> Path:
    plain = directory / "rows.txt"
    plain.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    return plain


def write_both_formats(rows: list[list[int]], directory: Path) -> list[Path]:
    """``rows`` as a plain file and as a simplex dataset; the two inputs."""
    (directory / "rows-nverts.txt").write_text("".join(f"{len(row)}\n" for row in rows))
    (directory / "rows-simplices.txt").write_text("".join(f"{u}\n" for row in rows for u in row))
    return [write_plain(rows, directory), directory / "rows"]


def run(argv: list) -> tuple[int, str]:
    """Exit code and stdout of one command run in process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def relabelled(labels: tuple, edges: list[tuple[int, ...]]) -> tuple[tuple, tuple]:
    """(labels, edges) of the sub-hypergraph that keeps ``edges``: nodes
    renumbered by first appearance over the rows, each read in label order,
    or in id order when its labels do not compare."""
    def ordered(edge: tuple[int, ...]) -> list:
        row = [labels[u] for u in edge]
        try:
            return sorted(row)
        except TypeError:
            return row
    return oracles.label_rows(map(ordered, edges))


def expected_lcc(rows: list[list], max_size: int) -> SimpleNamespace | None:
    """The hypergraph ``--max-size max_size --lcc`` must analyse: distinct
    rows in first-appearance order, none above ``max_size`` (0 keeps all),
    restricted to the largest node component, a tie going to the component
    with the smallest label, integers before strings: ``n``, ``m``,
    ``labels`` and ``edges`` (hyperedges keeping their relative order), or
    None if no hyperedge is left. Node ids follow first appearance in the
    file; a step that drops a row renumbers them over the rows it keeps."""
    labels, edges = oracles.label_rows(rows)
    if max_size and any(len(e) > max_size for e in edges):
        labels, edges = relabelled(labels, [e for e in edges if len(e) <= max_size])
    if not edges:
        return None
    best = min(oracles.components(SimpleNamespace(n=len(labels), edges=edges)),
               key=lambda c: (-len(c), min((isinstance(labels[u], str), labels[u]) for u in c)))
    kept = [e for e in edges if e[0] in best]
    if len(kept) < len(edges):
        labels, kept = relabelled(labels, kept)
    return SimpleNamespace(n=len(labels), m=len(kept), labels=labels, edges=kept)


def out_adjacency(h: SimpleNamespace) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(h.m)]
    for i, j in sorted(oracles.encapsulation_edges(h)):
        rows[i].append(j)
    return rows


def check_stats(h: SimpleNamespace | None, source: Path, max_size: int) -> None:
    code, out = run(["stats", source, "--lcc", "--max-size", max_size, "--json"])
    if h is None or h.n < 2:
        assert (code, out) == (2, "")
        return
    pairs = {p for e in h.edges for p in combinations(e, 2)}
    assert code == 0
    assert json.loads(out) == {"n": h.n, "m": h.m,
                               "projected_density": len(pairs) / comb(h.n, 2),
                               "dag_edges": len(oracles.encapsulation_edges(h))}


def check_heights(h: SimpleNamespace | None, source: Path, max_size: int) -> None:
    csv_path, summary_path = source.parent / "heights.csv", source.parent / "heights.json"
    code, _ = run(["heights", source, "--lcc", "--max-size", max_size,
                   "--out", csv_path, "--summary-out", summary_path])
    if h is None:
        assert code == 2
        return
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


def check_encapsulation(h: SimpleNamespace | None, source: Path, max_size: int,
                        normalized: bool, histograms: bool) -> None:
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
@given(rows=raw_rows, max_size=max_sizes)
def test_stats_matches_the_oracles(rows, max_size, tmp_path):
    h = expected_lcc(rows, max_size)
    for source in write_both_formats(rows, Path(tempfile.mkdtemp(dir=tmp_path))):
        check_stats(h, source, max_size)


@OPTIONS
@given(rows=raw_rows, max_size=max_sizes)
def test_heights_matches_the_oracles(rows, max_size, tmp_path):
    h = expected_lcc(rows, max_size)
    for source in write_both_formats(rows, Path(tempfile.mkdtemp(dir=tmp_path))):
        check_heights(h, source, max_size)


@OPTIONS
@given(rows=raw_rows, max_size=max_sizes, normalized=st.booleans(), histograms=st.booleans())
def test_encapsulation_matches_the_oracles(rows, max_size, normalized, histograms, tmp_path):
    source = write_plain(rows, Path(tempfile.mkdtemp(dir=tmp_path)))
    check_encapsulation(expected_lcc(rows, max_size), source, max_size, normalized, histograms)


@OPTIONS
@given(rows=text_rows, max_size=max_sizes, normalized=st.booleans(), histograms=st.booleans())
def test_labels_that_are_not_integers(rows, max_size, normalized, histograms, tmp_path):
    # plain files only: the simplex format admits only integers
    h = expected_lcc(rows, max_size)
    source = write_plain(rows, Path(tempfile.mkdtemp(dir=tmp_path)))
    check_stats(h, source, max_size)
    check_heights(h, source, max_size)
    check_encapsulation(h, source, max_size, normalized, histograms)


def line_graph_quantities(h: SimpleNamespace) -> dict[str, float]:
    weights = oracles.overlap_weights(h)
    return {"dag_edges": float(len(oracles.encapsulation_edges(h))),
            "overlap_edges": float(len(weights)), "overlap_weight": float(sum(weights.values()))}


@OPTIONS
@given(rows=raw_rows, max_size=max_sizes, seed=st.integers(0, 9))
def test_randomize_matches_the_oracles(rows, max_size, seed, tmp_path):
    h = expected_lcc(rows, max_size)
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    if h is not None:
        h.sizes = np.array([len(e) for e in h.edges])
        observed = line_graph_quantities(h)
        drawn = [oracles.layer_randomize(h, oracles.seed_sequence_rng(seed, "layer-randomization",
                                                                      i)) for i in range(2)]
        # 0/0 reads 1.0 and is listed as degenerate
        samples = [{name: value / observed[name] if observed[name] else 1.0
                    for name, value in line_graph_quantities(
                        SimpleNamespace(m=len(edges), edges=edges)).items()}
                   for _, edges in drawn]
        report = {"observed": observed, "samples": samples,
                  "means": {name: sum(s[name] for s in samples) / 2 for name in observed},
                  "seed": seed,
                  "degenerate_ratios": sorted(name for name in observed if not observed[name])}
    for k, source in enumerate(write_both_formats(rows, directory)):
        outdir = directory / f"samples-{k}"
        code, out = run(["randomize", source, "--lcc", "--max-size", max_size, "--samples", 2,
                         "--seed", seed, "--emit-samples", outdir])
        if h is None:
            assert (code, out) == (2, "")
            continue
        assert code == 0
        assert out == json.dumps(report, indent=2) + "\n"
        for i, (labels, edges) in enumerate(drawn):
            # one line per hyperedge, in id order, its labels in label order
            text = "".join(" ".join(map(str, sorted(labels[u] for u in e))) + "\n" for e in edges)
            assert (outdir / f"sample_{i:03d}.txt").read_text() == text


def mean_stderr(values: list[float]) -> tuple[float, float]:
    """Mean and standard error of the mean (0.0 for one value), summed in
    list order."""
    mean = sum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0
    return mean, sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1) / len(values))


def proportions(h: SimpleNamespace, config: SimpleNamespace, cells: list[tuple[str, int]],
                master_seed: int) -> list[list[tuple[int, int, float]]]:
    """Per cell, (steps, final active, proportion) of its two runs on ``h``,
    run r of cell c seeded from the stream ("seed-selection", c, r)."""
    h.sizes = np.array([len(e) for e in h.edges])
    outcomes = []
    for cell, (strategy, count) in enumerate(cells):
        outcomes.append([])
        for r in range(2):
            gen = oracles.seed_sequence_rng(master_seed, "seed-selection", cell, r)
            steps = oracles.contagion_steps(h, config, oracles.sorted_seeds(h, strategy, count,
                                                                             gen))
            final = sum(map(len, steps))
            proportion = (final - count) / (h.m - count) if h.m > count else 1.0
            outcomes[-1].append((len(steps) - 1, final, proportion))
    return outcomes


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
    samples = data.draw(st.sampled_from([0, 2]))
    csv_path, summary_path = directory / "runs.csv", directory / "summary.json"
    code, _ = run(["simulate", source, "--lcc", "--max-size", max_size, "--variant", variant,
                   "--strategy", ",".join(strategies), "--seeds", ",".join(map(str, counts)),
                   "--runs", 2, "--tau", config.tau, "--max-steps", config.max_steps,
                   "--comparison", config.comparison, "--seed", master_seed,
                   "--randomize", samples, "--out", csv_path, "--summary-out", summary_path])
    if h is None:
        assert code == 2
        return
    assert code == 0
    cells = [(s, c) for s in strategies for c in counts]
    observed = proportions(h, config, cells, master_seed)
    expected = [["rows.txt", variant, strategy, str(count), str(config.tau), str(r), str(steps),
                 str(final), str(final - count), f"{proportion:.10g}"]
                for (strategy, count), runs in zip(cells, observed)
                for r, (steps, final, proportion) in enumerate(runs)]
    with open(csv_path, newline="") as fh:
        assert list(csv.reader(fh))[1:] == expected
    keys = [{"dataset": "rows.txt", "variant": variant, "strategy": strategy, "seeds": count,
             "tau": config.tau} for strategy, count in cells]
    means = [mean_stderr([p for _, _, p in runs]) for runs in observed]
    if samples:
        null = [0.0] * len(cells)
        for i in range(samples):
            labels, edges = oracles.layer_randomize(
                h, oracles.seed_sequence_rng(master_seed, "layer-randomization", i))
            sample = SimpleNamespace(n=len(labels), m=len(edges), labels=labels, edges=edges)
            for c, runs in enumerate(proportions(sample, config, cells, master_seed)):
                null[c] += mean_stderr([p for _, _, p in runs])[0]
        doc = {"cells": [{**key, "observed_mean": mean, "randomized_mean": total / samples,
                          "difference": mean - total / samples}
                         for key, (mean, _), total in zip(keys, means, null)],
               "randomize_samples": samples}
    else:
        doc = {"cells": [{**key, "runs": 2, "mean_proportion": mean, "stderr": stderr}
                         for key, (mean, stderr) in zip(keys, means)]}
    assert summary_path.read_text() == json.dumps(doc, indent=2) + "\n"
