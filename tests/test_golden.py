"""Golden outputs of ``hypernest``: every contagion variant of ``simulate``
and the ``stats``, ``encapsulation``, ``heights`` and ``randomize`` analyses
on one committed fixture, compared byte for byte with recorded files.

The fixture ``golden/nested.txt`` is an RNHM sample with singletons
(``hypernest rnhm --nodes 24 --max-size 5 --max-edges 6 --eps 0.6,0.7,0.8
--singletons --seed 7``) followed by size-gap hyperedges, so that
empirical-adjacent bridges gaps the other variants cannot: its first six
pairs each extended by two new nodes (the pair is the largest hyperedge
inside), a 4-node hyperedge whose only contained hyperedge is a pair, and a
5-node hyperedge containing a triple and a disjoint pair. The RNHM
activation sweep (``hypernest rnhm-sweep``, run through its alias
``scripts/rnhm_activation_sweep.py``) is recorded too, at a size whose seed
count 70 exceeds the hyperedge count of some realizations (m is 64-75
there) and is clamped in those only. A deliberate output change
regenerates the recorded files with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
from pathlib import Path
from unittest import mock

import pytest

from hypernest.cli import main
from hypernest.dynamics import VARIANTS

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "rnhm_activation_sweep.py"
FIXTURE = GOLDEN / "nested.txt"
OUTPUTS = ("csv", "summary.json", "traj.json")

CASES = {
    f"{variant}-ge": (
        "--variant", variant, "--strategy", "uniform,size-biased,inverse-size-biased,smallest-first",
        "--seeds", "1,5", "--runs", "3", "--comparison", ">=", "--seed", "11",
    )
    for variant in VARIANTS
} | {
    f"{variant}-gt": (
        "--variant", variant, "--strategy", "smallest-first,uniform", "--seeds", "5",
        "--runs", "3", "--comparison", ">", "--randomize", "1", "--seed", "4",
    )
    for variant in VARIANTS
}


def run_case(name: str, outdir: Path) -> list[Path]:
    paths = [outdir / f"{name}.{suffix}" for suffix in OUTPUTS]
    code = main([
        "simulate", str(FIXTURE), *CASES[name],
        "--out", str(paths[0]), "--summary-out", str(paths[1]), "--trajectories", str(paths[2]),
    ])
    assert code == 0
    return paths


# analysis command -> (options, output files relative to the output
# directory); a command without --out has its stdout recorded as its only file
ANALYSES = {
    "stats": (("--json",), ("stats.json",)),
    "encapsulation": (
        ("--normalized", "--histograms", "--randomize", "2", "--seed", "3"),
        ("encapsulation.json",),
    ),
    "heights": (
        ("--randomize", "2", "--seed", "3", "--out", "heights.csv",
         "--summary-out", "heights.summary.json"),
        ("heights.csv", "heights.summary.json"),
    ),
    "randomize": (
        ("--samples", "2", "--seed", "3", "--out", "randomize.json",
         "--emit-samples", "randomize-samples"),
        ("randomize.json", "randomize-samples/sample_000.txt", "randomize-samples/sample_001.txt"),
    ),
}


def run_analysis(name: str, outdir: Path) -> list[Path]:
    options, files = ANALYSES[name]
    stdout = io.StringIO()
    with contextlib.chdir(outdir), contextlib.redirect_stdout(stdout):
        code = main([name, str(FIXTURE), *options])
    assert code == 0
    paths = [outdir / f for f in files]
    if "--out" not in options:
        paths[0].write_text(stdout.getvalue())
    return paths


SWEEP_OPTIONS = ("--realizations", "3", "--runs", "4", "--seed-counts", "1,5,70", "--seed", "2")


def run_sweep(outdir: Path) -> Path:
    out = outdir / "rnhm-sweep.csv"
    argv = [SWEEP_SCRIPT.name, *SWEEP_OPTIONS, "--out", str(out)]
    with mock.patch.object(sys, "argv", argv), contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(SWEEP_SCRIPT), run_name="__main__")
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_matches_golden(name, tmp_path):
    for path in run_case(name, tmp_path):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_analysis_matches_golden(name, tmp_path):
    for path in run_analysis(name, tmp_path):
        relative = path.relative_to(tmp_path)
        assert path.read_bytes() == (GOLDEN / relative).read_bytes(), str(relative)


def test_rnhm_sweep_matches_golden(tmp_path):
    path = run_sweep(tmp_path)
    assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


if __name__ == "__main__":
    written = [p for case in sorted(CASES) for p in run_case(case, GOLDEN)]
    written += [p for name in sorted(ANALYSES) for p in run_analysis(name, GOLDEN)]
    written.append(run_sweep(GOLDEN))
    for path in written:
        path.with_name(path.name + ".manifest.json").unlink(missing_ok=True)
