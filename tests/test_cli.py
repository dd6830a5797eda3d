from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import runpy
import stat
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hypernest.cli as cli_mod
import hypernest.dynamics as dynamics_mod
import hypernest.experiments as experiments_mod
import hypernest.randomize as randomize_mod
import hypernest.rnhm as rnhm_mod
from hypernest import largest_connected_component, parse_plain
from hypernest.cli import main
from test_golden import GOLDEN, run_sweep

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def plain_file(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text("1 2 3\n1 2\n1\n2 4\n")
    return path


@pytest.fixture
def simplex_files(tmp_path):
    (tmp_path / "mini-nverts.txt").write_text("2\n3\n2\n")
    (tmp_path / "mini-simplices.txt").write_text("1\n2\n1\n2\n3\n2\n1\n")
    return tmp_path / "mini"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestStats:
    def test_plain(self, plain_file, capsys):
        assert run_cli("stats", plain_file) == 0
        out = capsys.readouterr().out
        assert "n=4 m=4" in out
        assert "dag_edges=3" in out

    def test_simplex_format(self, simplex_files, capsys):
        assert run_cli("stats", simplex_files) == 0
        assert "m=2" in capsys.readouterr().out

    def test_lcc_and_max_size(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("1 2\n2 3\n7 8\n1 2 3 4\n")
        assert run_cli("stats", path, "--lcc", "--max-size", "3") == 0
        assert "n=3 m=2" in capsys.readouterr().out

    def test_json_to_stdout(self, plain_file, capsys):
        assert run_cli("stats", plain_file, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 4

    def test_json_output_file(self, plain_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert run_cli("stats", plain_file, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 4 and doc["dag_edges"] == 3
        manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
        assert manifest["command"] == "stats"
        assert str(out) in manifest["outputs"]

    @pytest.mark.parametrize("as_directory", [False, True])
    def test_manifest_checksums_simplex_inputs(self, simplex_files, tmp_path, as_directory):
        source = tmp_path if as_directory else simplex_files
        out = tmp_path / "stats.json"
        assert run_cli("stats", source, "--out", out) == 0
        manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
        files = [tmp_path / "mini-nverts.txt", tmp_path / "mini-simplices.txt"]
        assert manifest["inputs"] == {str(f): cli_mod._sha256(f) for f in files}
        assert manifest["argv"] == ["stats", str(source), "--out", str(out)]
        assert "_argv" not in manifest["parameters"]

    def test_missing_input_is_data_error(self, tmp_path):
        assert run_cli("stats", tmp_path / "absent.txt") == 2

    def test_empty_input_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert run_cli("stats", empty) == 2

    def test_one_node_is_data_error(self, tmp_path, capsys):
        # projected density needs two nodes
        one = tmp_path / "one.txt"
        one.write_text("1\n")
        assert run_cli("stats", one) == 2
        assert capsys.readouterr().err.splitlines() == [
            "hypernest stats: error: projected density needs at least 2 nodes, got 1"]

    def test_unwritable_output_is_data_error(self, plain_file, tmp_path, capsys):
        blocker = tmp_path / "somefile"
        blocker.write_text("")
        assert run_cli("stats", plain_file, "--out", blocker / "out.json") == 2
        assert "hypernest stats: error:" in capsys.readouterr().err

    def test_lcc_tie_between_int_and_str_labels(self, tmp_path, capsys):
        path = tmp_path / "mixed.txt"
        path.write_text("a b\n1 2\n")
        assert run_cli("stats", path, "--lcc") == 0
        assert "n=2 m=1" in capsys.readouterr().out
        # int labels win a tie; uniform label types keep the smallest label
        assert largest_connected_component(parse_plain(["a b", "1 2"])).labels == (1, 2)
        assert largest_connected_component(parse_plain(["c d", "a b"])).labels == ("a", "b")
        assert largest_connected_component(parse_plain(["3 4", "1 2"])).labels == (1, 2)

    def test_usage_error_exit_code(self, plain_file):
        with pytest.raises(SystemExit) as err:
            run_cli("stats", plain_file, "--no-such-flag")
        assert err.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("heights", "--randomize", "-1"),
        ("encapsulation", "--randomize", "-2"),
        ("simulate", "--jobs", "-3"),
        ("simulate", "--runs", "0"),
        ("simulate", "--max-steps", "0"),
        ("randomize", "--samples", "-1"),
        ("randomize", "--samples", "two"),
        ("simulate", "--seed", "-1"),
        ("heights", "--seed", "-1"),
        ("simulate", "--jobs", "0"),
    ],
)
def test_bad_count_is_usage_error(plain_file, tmp_path, argv, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli(argv[0], plain_file, *argv[1:], "--out", out)
    assert err.value.code == 1
    assert "expected an integer >=" in capsys.readouterr().err
    assert not out.exists()


# every script takes --runs, so a script added later is held to exit 1 too
@pytest.mark.parametrize(
    "script,option",
    [("rnhm_activation_sweep.py", "--realizations")]
    + [(path.name, "--runs") for path in sorted(SCRIPTS.glob("*.py"))],
)
def test_script_count_below_one_is_usage_error(script, option, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [script, option, "0", "--out", str(out)])
    with pytest.raises(SystemExit) as err:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert err.value.code == 1
    err_text = capsys.readouterr().err
    assert "expected an integer >= 1" in err_text and "Traceback" not in err_text
    assert not out.exists()


@pytest.mark.parametrize(
    "script,argv",
    [
        ("rnhm_activation_sweep.py", ("--eps-grid", "x")),
        ("rnhm_activation_sweep.py", ("--eps-grid", "2")),
        ("rnhm_activation_sweep.py", ("--seed-counts", "-1")),
        ("rnhm_activation_sweep.py", ("--seed-counts", "x")),
        ("rnhm_activation_sweep.py", ("--nodes", "3")),
        ("rnhm_activation_sweep.py", ("--strategies", "nope")),
        ("rnhm_activation_sweep.py", ("--tau", "0")),
        # the observed-vs-randomized sweep is a `hypernest simulate` run
        ("hypernest simulate", ("missing.txt",)),
        ("hypernest simulate", ("{input}", "--seeds", "x")),
        ("hypernest simulate", ("{input}", "--tau", "-1")),
        # a repeated value would list one cell twice
        ("rnhm_activation_sweep.py", ("--strategies", "uniform,uniform", "--seed-counts", "1,1")),
        ("rnhm_activation_sweep.py", ("--seed-counts", "5,1,5")),
    ],
)
def test_script_data_error_exits_2(script, argv, plain_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.csv"
    argv = [a.format(input=plain_file) for a in argv] + ["--runs", "1", "--out", str(out)]
    monkeypatch.chdir(tmp_path)
    if script.startswith("hypernest "):
        code = main([script.split()[1], *argv])
    else:
        monkeypatch.setattr(sys, "argv", [script, *argv])
        with pytest.raises(SystemExit) as err:
            runpy.run_path(str(SCRIPTS / script), run_name="__main__")
        code = err.value.code
    assert code == 2
    # the script is an alias of `hypernest rnhm-sweep`, which reports its errors
    command = script if script.startswith("hypernest ") else "hypernest rnhm-sweep"
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command}: error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "rnhm-sweep"])
def test_grid_too_large_to_allocate_is_data_error(command, plain_file, tmp_path, capsys):
    # the outcomes of 10^15 runs (16 PB) fail to allocate at once, before any file is written
    argv = [plain_file] if command == "simulate" else ["--realizations", "1", "--eps-grid", "1"]
    assert run_cli(command, *argv, "--runs", "1000000000000000",
                   "--out", tmp_path / "out.csv") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"hypernest {command}: error: Unable to")
    assert [path.name for path in tmp_path.iterdir()] == [plain_file.name]


def test_rnhm_sweep_variant_choices(tmp_path, monkeypatch, capsys):
    script = "rnhm_activation_sweep.py"
    monkeypatch.setattr(sys, "argv", [script, "--variant", "bogus", "--out", str(tmp_path / "o")])
    with pytest.raises(SystemExit) as err:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert err.value.code == 1
    err_text = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err_text and "Traceback" not in err_text


@pytest.mark.parametrize("option,value,message", [
    ("--strategies", "nope", "{}: unknown strategy 'nope'; choose from "
                             "uniform, size-biased, inverse-size-biased, smallest-first"),
    ("--seed-counts", "-1", "{} must list counts >= 0, got '-1'"),
], ids=["strategy", "count"])
def test_rnhm_sweep_checks_its_grid_before_generating(option, value, message, plain_file,
                                                      tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("generation started")

    monkeypatch.setattr(rnhm_mod, "generate", never)
    script = "rnhm_activation_sweep.py"
    monkeypatch.setattr(sys, "argv", [script, option, value, "--out", str(tmp_path / "o")])
    with pytest.raises(SystemExit) as err:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"hypernest rnhm-sweep: error: {message.format(option)}"]
    # `hypernest simulate` gives the same message for its own option
    simulate_option = {"--strategies": "--strategy", "--seed-counts": "--seeds"}[option]
    assert run_cli("simulate", plain_file, simulate_option, value, "--out", tmp_path / "r") == 2
    assert capsys.readouterr().err.splitlines() == [
        f"hypernest simulate: error: {message.format(simulate_option)}"]


@pytest.mark.parametrize("value,message", [
    # a repeated keep probability would write each of its rows again
    ("1,1", "--eps-grid lists a value twice: 1,1"),
    ("0,1,0.0", "--eps-grid lists a value twice: 0,1,0.0"),
    ("", "--eps-grid must list at least one value"),
    ("0,x", "--eps-grid must list numbers, got '0,x'"),
    # every pair's keep probabilities are checked before the first pair runs
    ("0,2", "keep probability for size 3 must be in [0, 1], got 2.0"),
])
def test_rnhm_sweep_checks_its_eps_grid(value, message, tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("generation started")

    monkeypatch.setattr(rnhm_mod, "generate", never)
    script = "rnhm_activation_sweep.py"
    monkeypatch.setattr(sys, "argv", [script, "--eps-grid", value, "--out", str(tmp_path / "o")])
    with pytest.raises(SystemExit) as err:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"hypernest rnhm-sweep: error: {message}"]


@pytest.mark.parametrize("command", ["stats", "encapsulation", "heights", "randomize", "simulate"])
@pytest.mark.parametrize("source", ["filtered", "empty simplex"])
@pytest.mark.parametrize("lcc", [False, True])
def test_no_hyperedge_left_is_data_error(command, source, lcc, tmp_path, capsys):
    if source == "filtered":
        path, options = tmp_path / "triple.txt", ["--max-size", "2"]
        path.write_text("1 2 3\n")
    else:
        path, options = tmp_path / "empty", []
        for suffix in ("-nverts.txt", "-simplices.txt"):
            (tmp_path / f"empty{suffix}").write_text("")
    inputs = sorted(tmp_path.iterdir())
    code = run_cli(command, path, *options, *["--lcc"] * lcc, "--out", tmp_path / "out")
    assert code == 2
    limit = 2 if source == "filtered" else 25
    assert capsys.readouterr().err.splitlines() == [
        f"hypernest {command}: error: no hyperedges of at most {limit} nodes"]
    assert sorted(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("argv", [
    # an unwritable second output
    ("heights", "--out", "first", "--summary-out", "missing/second"),
    ("simulate", "--runs", "1", "--out", "first", "--summary-out", "missing/second"),
    ("simulate", "--runs", "1", "--out", "first", "--trajectories", "missing/second"),
    # one path named by two outputs
    ("heights", "--out", "first", "--summary-out", "first"),
    ("simulate", "--runs", "1", "--out", "first", "--trajectories", "first"),
    ("heights", "--out", "first", "--summary-out", "first.manifest.json"),
    ("randomize", "--samples", "1", "--out", "first", "--emit-samples", "."),
    # a samples directory is made only after the path checks, and only kept
    # when every file is written
    ("randomize", "--samples", "1", "--out", "new/sample_000.txt", "--emit-samples", "new"),
    ("randomize", "--samples", "1", "--out", "missing/r.json", "--emit-samples", "new/dir"),
    # an output that is an existing directory, checked before anything is
    # written, so no earlier output is renamed over an existing file
    ("heights", "--out", "first", "--summary-out", "outdir"),
    ("randomize", "--samples", "1", "--out", "first", "--emit-samples", "em"),
])
def test_failed_write_leaves_no_file(argv, plain_file, tmp_path, monkeypatch, capsys):
    # a run writes all of its files and their manifest, or none of them
    monkeypatch.chdir(tmp_path)
    first = tmp_path / "first"
    first.write_text("kept\n")
    if "." in argv:  # a link to an output names that output
        (tmp_path / "sample_000.txt").symlink_to(first)
    (tmp_path / "outdir").mkdir()
    (tmp_path / "em" / "sample_000.txt").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(argv[0], plain_file, *argv[1:]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"hypernest {argv[0]}: error: ")
    assert ".tmp" not in lines[0]
    assert first.read_text() == "kept\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("out,message", [
    ("missing/s.csv", "[Errno 2] No such file or directory: 'missing/s.csv'"),
    ("outdir", "output path outdir is a directory"),
])
def test_rnhm_sweep_failed_write_leaves_no_file(out, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    code = run_cli("rnhm-sweep", "--realizations", "1", "--runs", "1", "--eps-grid", "1",
                   "--out", out)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"hypernest rnhm-sweep: error: {message}"]
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "outdir"]


def test_failed_write_names_the_users_path(plain_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("heights", plain_file, "--out", "o/h.csv") == 2
    assert capsys.readouterr().err.splitlines() == [
        "hypernest heights: error: [Errno 2] No such file or directory: 'o/h.csv'"]


@pytest.mark.parametrize("command,source,options,clash", [
    ("stats", "a.txt", ("--out", "a.txt"), "a.txt"),
    ("stats", "sx/d", ("--out", "sx/d-simplices.txt"), "sx/d-simplices.txt"),
    ("encapsulation", "a.txt", ("--out", "a.txt"), "a.txt"),
    ("heights", "a.txt", ("--out", "h.csv", "--summary-out", "a.txt"), "a.txt"),
    ("heights", "h.csv.manifest.json", ("--out", "h.csv"), "h.csv.manifest.json"),
    ("randomize", "a.txt", ("--samples", "1", "--out", "a.txt"), "a.txt"),
    ("randomize", "s/sample_000.txt", ("--samples", "1", "--emit-samples", "s"),
     "s/sample_000.txt"),
    ("simulate", "c.txt", ("--runs", "1", "--out", "c.txt"), "c.txt"),
    ("simulate", "c.csv.tmp", ("--runs", "1", "--out", "c.csv"), "c.csv.tmp"),
])
def test_output_never_overwrites_the_input(command, source, options, clash, plain_file,
                                           simplex_files, tmp_path, monkeypatch, capsys):
    # a manifest listing one file as input and output could not be replayed
    monkeypatch.chdir(tmp_path)
    (tmp_path / Path(source).parent).mkdir(exist_ok=True)
    if source == "sx/d":
        for suffix in ("-nverts.txt", "-simplices.txt"):
            (simplex_files.parent / f"mini{suffix}").rename(tmp_path / f"sx/d{suffix}")
    else:
        plain_file.rename(tmp_path / source)
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert run_cli(command, source, *options) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"hypernest {command}: error: output path {clash} would overwrite the input"]
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files


@pytest.mark.parametrize("argv", [
    ("rnhm-sweep", "--realizations", "1", "--runs", "1", "--out", "missing/s.csv"),
    ("rnhm-sweep", "--realizations", "1", "--runs", "1", "--out", "outdir"),
    ("simulate", "{input}", "--runs", "1", "--out", "missing/r.csv"),
    ("simulate", "{input}", "--runs", "1", "--out", "r.csv", "--summary-out", "outdir"),
    ("simulate", "{input}", "--runs", "1", "--out", "r.csv", "--trajectories", "r.csv"),
])
def test_bad_output_path_fails_before_the_work(argv, plain_file, tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the work started")

    monkeypatch.setattr(rnhm_mod, "generate", never)
    monkeypatch.setattr(cli_mod, "load_input", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*(arg.format(input=plain_file) for arg in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_out_may_go_in_the_samples_directory(plain_file, tmp_path, monkeypatch):
    # the checks before the work know that the run makes --emit-samples DIR
    monkeypatch.chdir(tmp_path)
    assert run_cli("randomize", plain_file, "--samples", "1", "--out", "new/r.json",
                   "--emit-samples", "new") == 0
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == [
        "r.json", "r.json.manifest.json", "sample_000.txt"]


@pytest.mark.parametrize("command,options", [
    ("stats", ()), ("encapsulation", ()), ("heights", ()), ("randomize", ("--samples", "1")),
    ("simulate", ("--runs", "1")),
])
def test_out_prints_one_wrote_line(command, options, plain_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(command, plain_file, *options, "--out", out) == 0
    assert capsys.readouterr().out.splitlines() == [f"wrote {out}"]


def test_rnhm_sweep_generates_each_realization_once(tmp_path, monkeypatch, capsys):
    # default grid: 2x2 eps pairs, 2 strategies x 5 seed counts per pair
    calls = []
    generate = rnhm_mod.generate
    monkeypatch.setattr(rnhm_mod, "generate", lambda *a: calls.append(a) or generate(*a))
    script = "rnhm_activation_sweep.py"
    monkeypatch.setattr(
        sys, "argv", [script, "--realizations", "3", "--runs", "1", "--out", str(tmp_path / "o")]
    )
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert len(calls) == 4 * 3


def count_spread_runs(monkeypatch) -> list[int]:
    """The runs of each contagion engine call the experiment harness makes."""
    calls, spread = [], experiments_mod.spread

    def counted(h, influence, config, seeds, *rest):
        calls.append(len(seeds))
        return spread(h, influence, config, seeds, *rest)

    monkeypatch.setattr(experiments_mod, "spread", counted)
    return calls


def test_rnhm_sweep_runs_each_realization_in_one_batch(tmp_path, monkeypatch, capsys):
    # default grid: 2x2 eps pairs, 10 cells of 3 runs, one spread call per
    # realization (one per cell and realization, 40 x 2, before batching)
    calls = count_spread_runs(monkeypatch)
    assert run_cli("rnhm-sweep", "--realizations", "2", "--runs", "3",
                   "--out", tmp_path / "o.csv") == 0
    assert calls == [10 * 3] * 4 * 2


@pytest.mark.parametrize("budget", [1, 700])
def test_rnhm_sweep_batches_ending_inside_cells_match_golden(tmp_path, monkeypatch, budget):
    # runs of one cell split across batches draw the same seeds
    calls = count_spread_runs(monkeypatch)
    monkeypatch.setattr(dynamics_mod, "_BATCH_KEYS", budget)
    path = run_sweep(tmp_path)
    assert path.read_bytes() == (GOLDEN / path.name).read_bytes()
    assert max(calls) < 3 * 4 and any(runs % 4 for runs in calls)


class TestEncapsulation:
    def test_counts_json(self, plain_file, capsys):
        assert run_cli("encapsulation", plain_file, "--normalized", "--histograms") == 0
        doc = json.loads(capsys.readouterr().out)
        pairs = doc["observed"]["pairs"]
        assert pairs["3,2"]["count"] == 1
        assert pairs["3,1"]["count"] == 1
        assert pairs["2,1"]["count"] == 1
        assert pairs["2,1"]["per_size_n_edge"] == 0.5
        assert pairs["3,2"]["histogram"] == [1 / 3]

    def test_randomized_series(self, plain_file, capsys):
        assert run_cli("encapsulation", plain_file, "--randomize", "3", "--seed", "5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["randomized"]["samples"] == 3
        assert "3,2" in doc["randomized"]["mean_pair_counts"]

    def test_pair_key_orders_at_two_digit_sizes(self, tmp_path, capsys):
        # observed pairs go by (n, m) as numbers, the randomized means by key text
        path = tmp_path / "wide.txt"
        rows = [range(11), range(10), range(9), [0, 1], [0], range(20, 31), [20, 21]]
        path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
        assert run_cli("encapsulation", path, "--randomize", "2", "--seed", "1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["observed"]["pairs"]) == (
            "2,1 9,1 9,2 10,1 10,2 10,9 11,1 11,2 11,9 11,10".split())
        assert list(doc["randomized"]["mean_pair_counts"]) == (
            "10,1 10,2 10,9 11,1 11,10 11,2 11,9 2,1 9,1 9,2".split())


class TestHeights:
    def test_csv_and_summary(self, plain_file, tmp_path, capsys):
        out = tmp_path / "heights.csv"
        summary = tmp_path / "summary.json"
        code = run_cli(
            "heights", plain_file, "--out", out, "--summary-out", summary,
            "--randomize", "2", "--seed", "1",
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {row["root_id"] for row in rows} == {"0"}
        doc = json.loads(summary.read_text())
        assert doc["observed"]["max_height"] == 2
        assert len(doc["randomized"]["per_sample_max_height"]) == 2

    def test_stdout_summary(self, plain_file, capsys):
        assert run_cli("heights", plain_file) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["observed"]["roots"] == 1

    def test_unshown_randomizations_are_not_drawn(self, plain_file, tmp_path, monkeypatch):
        # with --out alone the summary goes nowhere, so no sample is drawn
        plain = tmp_path / "plain.csv"
        assert run_cli("heights", plain_file, "--out", plain) == 0
        calls = []
        monkeypatch.setattr(randomize_mod, "layer_randomize", lambda *args: calls.append(args))
        out = tmp_path / "roots.csv"
        assert run_cli("heights", plain_file, "--randomize", "3", "--out", out) == 0
        assert calls == []
        assert out.read_bytes() == plain.read_bytes()


class TestRandomize:
    def test_report_and_samples(self, plain_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        samples = tmp_path / "samples"
        code = run_cli(
            "randomize", plain_file, "--samples", "2", "--seed", "3",
            "--out", report, "--emit-samples", samples,
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc["samples"]) == 2
        assert doc["seed"] == 3
        assert (samples / "sample_000.txt").exists()
        assert (samples / "sample_001.txt").exists()

    def test_samples_alone_keep_stdout_json(self, plain_file, tmp_path, capsys):
        samples = tmp_path / "samples"
        code = run_cli("randomize", plain_file, "--samples", "2", "--emit-samples", samples)
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 0
        manifest = json.loads((samples / "sample_000.txt.manifest.json").read_text())
        assert list(manifest["outputs"]) == [str(samples / f"sample_00{i}.txt") for i in range(2)]
        assert sorted(p.name for p in samples.iterdir()) == [
            "sample_000.txt", "sample_000.txt.manifest.json", "sample_001.txt"]

    def test_each_sample_is_drawn_once(self, plain_file, tmp_path, monkeypatch):
        calls = []
        original = randomize_mod.layer_randomize

        def counted(h, rng):
            calls.append(h)
            return original(h, rng)

        monkeypatch.setattr(randomize_mod, "layer_randomize", counted)
        code = run_cli(
            "randomize", plain_file, "--samples", "3", "--out", tmp_path / "report.json",
            "--emit-samples", tmp_path / "samples",
        )
        assert code == 0
        assert len(calls) == 3
        assert len(list((tmp_path / "samples").iterdir())) == 3

    def test_report_same_with_and_without_samples(self, plain_file, tmp_path):
        # the samples are held as a list only when --emit-samples writes them
        runs = {"alone": (), "with-samples": ("--emit-samples", tmp_path / "samples")}
        for name, extra in runs.items():
            assert run_cli("randomize", plain_file, "--samples", "3", "--seed", "2",
                           "--out", tmp_path / f"{name}.json", *extra) == 0
        alone, written = ((tmp_path / f"{name}.json").read_bytes() for name in runs)
        assert alone == written
        assert len(json.loads(alone)["samples"]) == 3


class TestRnhm:
    def test_generates_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "nested.txt"
        code = run_cli(
            "rnhm", "--nodes", "20", "--max-size", "4", "--max-edges", "5",
            "--eps", "1,1", "--singletons", "--seed", "7", "--out", out,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "nested.txt.manifest.json").read_text())
        assert manifest["rnhm"]["num_max_edges"] == 5
        assert manifest["rnhm"]["keep_probs"] == {"2": 1.0, "3": 1.0}
        lines = [ln for ln in out.read_text().splitlines() if ln]
        assert any(len(ln.split()) == 4 for ln in lines)

    def test_eps_pairs_syntax(self, tmp_path):
        out = tmp_path / "nested.txt"
        assert run_cli(
            "rnhm", "--nodes", "15", "--max-size", "4", "--max-edges", "3",
            "--eps", "3=0.5,2=1.0", "--seed", "1", "--out", out,
        ) == 0

    def test_bad_eps_length(self, tmp_path):
        code = run_cli(
            "rnhm", "--nodes", "15", "--max-size", "4", "--max-edges", "3",
            "--eps", "1,1,1", "--seed", "1", "--out", tmp_path / "x.txt",
        )
        assert code == 2

    def test_exponential_subset_count_is_data_error(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("generation started")

        monkeypatch.setattr(rnhm_mod, "generate", never)
        out = tmp_path / "r.txt"
        code = run_cli("rnhm", "--nodes", "50", "--max-size", "30", "--max-edges", "3",
                       "--out", out)
        assert code == 2
        assert "subsets" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_eps_size_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = run_cli(
            "rnhm", "--nodes", "15", "--max-size", "4", "--max-edges", "3",
            "--eps", "2=0.5,2=0.7", "--seed", "1", "--out", out,
        )
        assert code == 2
        assert "size 2 twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["2=0.5,0.3", "x=1", "=0.5", "2=x", "0.5,"])
    def test_malformed_eps_is_one_line_naming_it(self, eps, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = run_cli("rnhm", "--nodes", "15", "--max-size", "4", "--max-edges", "3",
                       "--eps", eps, "--out", out)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"hypernest rnhm: error: --eps must list numbers or size=number pairs, got {eps!r}"]
        assert not out.exists()

    def test_replay_byte_identical(self, tmp_path):
        args = [
            "rnhm", "--nodes", "18", "--max-size", "4", "--max-edges", "4",
            "--eps", "0.5,0.8", "--singletons", "--seed", "11",
        ]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestRnhmSweep:
    def test_replay_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli("rnhm-sweep", "--realizations", "2", "--runs", "3", "--seed", "5",
                       "--strategies", "uniform,size-biased", "--out", out) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["command"] == "rnhm-sweep" and manifest["seed"] == 5
        out.unlink()
        assert main(manifest["argv"]) == 0
        assert manifest["outputs"] == {str(out): cli_mod._sha256(out)}


class TestSimulate:
    def test_results_csv(self, plain_file, tmp_path):
        out = tmp_path / "results.csv"
        code = run_cli(
            "simulate", plain_file, "--variant", "strict",
            "--strategy", "smallest-first,uniform", "--seeds", "1,2",
            "--runs", "3", "--seed", "5", "--out", out,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2 * 2 * 3
        assert {row["strategy"] for row in rows} == {"smallest-first", "uniform"}

    def test_summary_and_trajectories(self, plain_file, tmp_path):
        out = tmp_path / "results.csv"
        summary = tmp_path / "summary.json"
        traj = tmp_path / "traj.json"
        code = run_cli(
            "simulate", plain_file, "--variant", "non-strict",
            "--strategy", "smallest-first", "--seeds", "2", "--runs", "2",
            "--seed", "0", "--out", out, "--summary-out", summary, "--trajectories", traj,
        )
        assert code == 0
        cells = json.loads(summary.read_text())["cells"]
        assert cells[0]["mean_proportion"] >= 0.0
        dumps = json.loads(traj.read_text())
        assert dumps[0]["steps"][0] != []

    @staticmethod
    def _count_line_graph_builds(monkeypatch) -> dict[str, int]:
        """Counts, by kind, the containment DAGs built through the CLI and
        the contagion engine: the full DAG or the adjacent-layer DAG."""
        calls = {"full": 0, "adjacent": 0}
        builds = (("full", "build_encapsulation_dag"), ("adjacent", "adjacent_layer_dag"))
        for kind, name in builds:
            def counted(h, kind=kind, original=getattr(dynamics_mod, name)):
                calls[kind] += 1
                return original(h)
            for module in (cli_mod, dynamics_mod):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return calls

    def test_trajectories_build_the_dag_once(self, plain_file, tmp_path, monkeypatch):
        calls = self._count_line_graph_builds(monkeypatch)
        code = run_cli(
            "simulate", plain_file, "--runs", "1", "--out", tmp_path / "r.csv",
            "--trajectories", tmp_path / "t.json",
        )
        assert code == 0
        assert calls == {"full": 0, "adjacent": 1}

    @pytest.mark.parametrize("variant,randomize,builds", [
        ("threshold", 0, 0), ("threshold", 2, 0), ("strict", 0, 1), ("strict", 2, 3),
        ("non-strict", 0, 1), ("empirical-adjacent", 0, 1),
    ])
    def test_dag_builds_follow_the_variant(self, plain_file, tmp_path, monkeypatch, variant,
                                           randomize, builds):
        # one line graph per hypergraph for the containment variants: the
        # adjacent-layer DAG for strict and non-strict, the full DAG for
        # empirical-adjacent; none for the threshold process, which reads
        # only memberships
        calls = self._count_line_graph_builds(monkeypatch)
        code = run_cli("simulate", plain_file, "--variant", variant, "--runs", "2",
                       "--randomize", randomize, "--out", tmp_path / "r.csv",
                       "--trajectories", tmp_path / "t.json")
        assert code == 0
        kind = "full" if variant == "empirical-adjacent" else "adjacent"
        assert calls == {"full": 0, "adjacent": 0, kind: builds}

    def test_randomized_comparison_summary(self, plain_file, tmp_path):
        out = tmp_path / "results.csv"
        summary = tmp_path / "summary.json"
        code = run_cli(
            "simulate", plain_file, "--variant", "strict",
            "--strategy", "uniform", "--seeds", "1", "--runs", "2",
            "--randomize", "2", "--seed", "1", "--out", out, "--summary-out", summary,
        )
        assert code == 0
        cell = json.loads(summary.read_text())["cells"][0]
        assert "observed_mean" in cell and "difference" in cell

    def test_tau_beyond_int64_runs_as_tau_at_max_size(self, plain_file, tmp_path):
        # the threshold process needs size - tau active nodes: every need is
        # <= 0 once tau reaches the largest size (3 here), however large tau is
        rows = {}
        for tau in ("3", str(2**63)):
            out = tmp_path / f"tau-{tau}.csv"
            assert run_cli("simulate", plain_file, "--variant", "threshold", "--tau", tau,
                           "--strategy", "uniform,smallest-first", "--seeds", "0,1",
                           "--runs", "2", "--out", out) == 0
            rows[tau] = [{**row, "tau": None}
                         for row in csv.DictReader(out.read_text().splitlines())]
        assert rows["3"] == rows[str(2**63)]
        assert all(row["final_active"] == "4" for row in rows["3"])

    @pytest.mark.parametrize("variant", ["empirical-adjacent", "threshold"])
    def test_other_variants_run(self, plain_file, tmp_path, variant):
        out = tmp_path / "r.csv"
        code = run_cli(
            "simulate", plain_file, "--variant", variant, "--strategy", "smallest-first",
            "--seeds", "2", "--runs", "2", "--tau", "1", "--seed", "0", "--out", out,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2 and rows[0]["variant"] == variant

    @pytest.mark.parametrize("parallel", [("--jobs", "1"), ("--jobs", "2", "--randomize", "2")])
    def test_threshold_warning_is_one_line(self, plain_file, tmp_path, parallel, capfd):
        # tau=1 reaches the 1-node hyperedge; capfd also reads what workers write
        code = run_cli("simulate", plain_file, "--variant", "threshold", "--tau", "1",
                       "--runs", "2", *parallel, "--out", tmp_path / "r.csv")
        assert code == 0
        assert capfd.readouterr().err.splitlines() == [
            "hypernest simulate: warning: tau=1 >= smallest hyperedge size 1: "
            "such hyperedges self-activate with no active nodes"]

    def test_jobs_flag_matches_serial(self, plain_file, tmp_path):
        argv = [
            "simulate", plain_file, "--variant", "strict",
            "--strategy", "uniform,smallest-first", "--seeds", "1,2",
            "--runs", "3", "--seed", "8",
        ]
        assert run_cli(*argv, "--jobs", "1", "--out", tmp_path / "serial.csv") == 0
        assert run_cli(*argv, "--jobs", "2", "--out", tmp_path / "parallel.csv") == 0
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()

    def test_invalid_max_size_is_data_error(self, plain_file, tmp_path):
        assert run_cli("stats", plain_file, "--max-size", "-2") == 2

    @pytest.mark.parametrize("option,value", [("--seeds", ""), ("--strategy", ",")])
    def test_empty_grid_is_data_error(self, plain_file, tmp_path, option, value, capsys):
        out, summary = tmp_path / "r.csv", tmp_path / "s.json"
        code = run_cli("simulate", plain_file, option, value, "--out", out,
                       "--summary-out", summary)
        assert code == 2
        assert "at least one value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [plain_file]

    @pytest.mark.parametrize("option,value", [("--seeds", "1,1"), ("--seeds", "2,1,2"),
                                              ("--strategy", "uniform,uniform")])
    @pytest.mark.parametrize("randomize", ["0", "1"])
    def test_repeated_grid_value_is_data_error(self, plain_file, tmp_path, option, value,
                                               randomize, capsys):
        # a repeated value would list one cell twice: its runs twice in the
        # CSV, pooled into one summary cell, or two identical comparison rows
        code = run_cli("simulate", plain_file, option, value, "--runs", "2",
                       "--randomize", randomize, "--out", tmp_path / "r.csv",
                       "--summary-out", tmp_path / "s.json", "--trajectories", tmp_path / "t.json")
        assert code == 2
        assert f"{option} lists a value twice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [plain_file]

    def test_too_many_seeds_is_data_error(self, plain_file, tmp_path):
        code = run_cli(
            "simulate", plain_file, "--variant", "strict",
            "--strategy", "uniform", "--seeds", "99", "--runs", "1",
            "--out", tmp_path / "r.csv",
        )
        assert code == 2

    def test_replay_byte_identical(self, plain_file, tmp_path):
        argv = [
            "simulate", plain_file, "--variant", "strict",
            "--strategy", "smallest-first,size-biased", "--seeds", "1,3",
            "--runs", "4", "--seed", "21",
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(*argv, "--out", out1) == 0
        assert run_cli(*argv, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_records_argv(self, plain_file, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(
            "simulate", plain_file, "--variant", "strict", "--strategy", "uniform",
            "--seeds", "1", "--runs", "1", "--out", out,
        ) == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert "--variant" in manifest["argv"]
        assert str(plain_file) in manifest["inputs"]

    def test_manifest_replay_reproduces_checksums(self, plain_file, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(
            "simulate", plain_file, "--variant", "non-strict",
            "--strategy", "size-biased", "--seeds", "2", "--runs", "3",
            "--seed", "13", "--out", out,
        ) == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        out.unlink()
        assert main(manifest["argv"]) == 0
        from hypernest.cli import _sha256

        for path, checksum in manifest["outputs"].items():
            assert _sha256(Path(path)) == checksum


@pytest.mark.parametrize("argv", [
    ("stats", "{input}", "--out", "stats.json"),
    ("encapsulation", "{input}", "--out", "encapsulation.json"),
    ("heights", "{input}", "--out", "heights.csv"),
    ("randomize", "{input}", "--samples", "1", "--out", "randomize.json"),
    ("rnhm", "--nodes", "6", "--max-size", "3", "--max-edges", "2", "--out", "rnhm.txt"),
    ("simulate", "{input}", "--runs", "1", "--out", "runs.csv"),
    ("rnhm-sweep", "--nodes", "6", "--max-size", "3", "--max-edges", "2", "--eps-grid", "1",
     "--seed-counts", "1", "--realizations", "1", "--runs", "1", "--out", "sweep.csv"),
], ids=lambda argv: argv[0])
def test_every_manifest_records_python_and_numpy(plain_file, tmp_path, argv):
    # what a replay needs besides the argv: the interpreter and NumPy versions
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = [plain_file if a == "{input}" else a for a in argv]
    assert run_cli(*argv[:-1], outdir / argv[-1]) == 0
    (path,) = outdir.glob("*.manifest.json")
    manifest = json.loads(path.read_text())
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == numpy.__version__


# strings that the flat-list path must not split: separators, quotes, brackets
JSON_TEXT = st.lists(st.sampled_from([", ", ",", '"', "[", "]", "{", "}", ": ", "é", "a", "1", "\n"]),
                     max_size=4).map("".join)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), JSON_TEXT,
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]))
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.lists(st.one_of(st.integers(), st.floats()), max_size=8),
                            st.dictionaries(JSON_TEXT, inner, max_size=5)),
    max_leaves=40)


@given(JSON_DOCUMENTS)
@example(["a, b", "c"])  # a list of strings holding ", " is not a flat list of numbers
@example([1.5, "x, y"])
@example({"h": [0.1, 1e-300, math.nan, -math.inf, True, None, 7], "e": [], "d": {}})
@example([[1, 2], [], [[3]]])
def test_json_text_is_json_dumps_with_indent(doc):
    assert cli_mod.json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_json_text_applies_default_as_json_does():
    doc = {"path": Path("a/b"), "nested": [Path("c")], 3: "non-str key"}
    assert cli_mod.json_text(doc, default=str) == json.dumps(doc, indent=2, default=str) + "\n"


def run_in_subprocess(argv: list, cwd: Path, stdin: bytes | None = None):
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "hypernest.cli", *map(str, argv)], cwd=cwd,
                          input=stdin, capture_output=True, env=env, timeout=60)


@pytest.mark.parametrize("fifo", ["h.csv", "h.csv.manifest.json", "h.csv.tmp"])
def test_output_that_is_not_a_regular_file_is_refused(fifo, plain_file, tmp_path):
    # renaming over a FIFO or a device would replace it with a regular file;
    # run in a child, which opening a FIFO for writing would block
    os.mkfifo(tmp_path / fifo)
    result = run_in_subprocess(["heights", plain_file, "--out", "h.csv"], tmp_path)
    assert result.returncode == 2
    assert result.stderr.decode() == (
        f"hypernest heights: error: output path {fifo} is not a regular file\n")
    assert stat.S_ISFIFO((tmp_path / fifo).stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([plain_file.name, fifo])


def test_manifest_hashes_the_bytes_read_from_a_pipe(plain_file, tmp_path):
    # a pipe is drained by the reader; hashing it again would read no bytes
    data = plain_file.read_bytes()
    result = run_in_subprocess(["heights", "/dev/stdin", "--out", "h.csv"], tmp_path, data)
    assert result.returncode == 0, result.stderr
    manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
    assert manifest["inputs"] == {"/dev/stdin": "sha256:" + hashlib.sha256(data).hexdigest()}
    assert run_cli("heights", plain_file, "--out", tmp_path / "file.csv") == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "h.csv").read_bytes()


def test_sample_that_would_read_as_comments_is_refused(tmp_path, capsys):
    # "#a" sorts first in both rows, so each written line would be a comment
    source = tmp_path / "in.txt"
    source.write_text("b #a\nb c\n")
    code = run_cli("randomize", source, "--samples", "1", "--out", tmp_path / "r.json",
                   "--emit-samples", tmp_path / "s")
    assert code == 2
    assert capsys.readouterr().err == (
        "hypernest randomize: error: cannot write the plain format: label '#a' would start a "
        "line, which reads back as a comment\n")
    assert sorted(tmp_path.iterdir()) == [source]
    # a "#" after a label's first character is no comment
    source.write_text("b a#\nb c\n")
    assert run_cli("randomize", source, "--samples", "1", "--emit-samples", tmp_path / "s") == 0
    capsys.readouterr()
    assert run_cli("stats", tmp_path / "s" / "sample_000.txt", "--json") == 0
    assert json.loads(capsys.readouterr().out)["m"] == 2
