"""Tests of the benchmark itself; run with ``python3 -m pytest benchmarks -q``
from the root of the repository."""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = "1 2 3\n1 2\n2 3\n3 4 5\n4 5\n1\n5\n8 9\n"


def _simulate_op(tmp_path: Path) -> workloads.Op:
    op = next(o for o in workloads.ops("email-dense", 0) if o.name == "simulate.strict")
    (tmp_path / "simulate-strict.csv").write_text(
        "dataset,variant,strategy,seeds,tau,run,steps,final_active,non_seed_active,proportion\n"
        "input.txt,strict,uniform,1,1,0,2,5,4,0.5\n"
        "input.txt,strict,uniform,1,1,1,1,3,2,0.25\n")
    (tmp_path / "simulate-strict.json").write_text(json.dumps(
        {"cells": [{"observed_mean": 0.375, "randomized_mean": 0.1}]}))
    return op


def test_perturbed_result_value_is_a_failed_op(tmp_path, capsys):
    op = _simulate_op(tmp_path)
    expected = check.reference_parts(op.name, op.argv, tmp_path, "")
    w = run.Workload("email-dense", 0, ROOT, tmp_path, {"ops": {op.name: expected}})
    for name in ("simulate.strict.out", "simulate.strict.err"):
        (tmp_path / name).write_text("")
    w.record(op, tmp_path, 0)
    assert (w.attempted, w.failed) == (1, 0)

    csv_path = tmp_path / "simulate-strict.csv"
    csv_path.write_text(csv_path.read_text().replace("0.25", "0.2500001"))
    w.record(op, tmp_path, 0)
    assert (w.attempted, w.failed) == (2, 1)
    assert "rows: differs from reference" in capsys.readouterr().err


def test_exit_code_and_traceback_fail_but_warnings_do_not(tmp_path):
    op = _simulate_op(tmp_path)
    expected = check.reference_parts(op.name, op.argv, tmp_path, "")
    assert run.op_failures(op, expected, tmp_path, 2, "", "") == ["exit code 2"]
    assert run.op_failures(op, expected, tmp_path, 0, "", "Traceback (most recent call last)")
    warning = "UserWarning: tau=1 >= smallest hyperedge size 1"
    assert run.op_failures(op, expected, tmp_path, 0, "", warning) == []


def test_parts_outside_the_reference_are_ignored(tmp_path):
    op = next(o for o in workloads.ops("email-dense", 0) if o.name == "randomize")
    doc = {"observed": {"dag_edges": 4.0}, "means": {"dag_edges": 0.5},
           "samples": [{"dag_edges": 0.5, "overlap_edges": 1.0, "overlap_weight": 1.0,
                        "collapsed_edges": 0.0}], "seed": 0}
    (tmp_path / "randomize.json").write_text(json.dumps(doc))
    (tmp_path / "samples").mkdir()
    (tmp_path / "samples" / "sample_000.txt").write_text("1 2\n2 3\n")
    expected = check.reference_parts(op.name, op.argv, tmp_path, "")
    del doc["samples"][0]["collapsed_edges"]
    doc["timings"] = {"total_s": 1.0}
    (tmp_path / "randomize.json").write_text(json.dumps(doc))
    assert check.mismatches(expected, op.name, op.argv, tmp_path, "") == []
    (tmp_path / "samples" / "sample_000.txt").write_text("1 2\n2 4\n")
    assert check.mismatches(expected, op.name, op.argv, tmp_path, "") == [
        "emitted: differs from reference"]


def test_drifted_input_is_an_error_not_a_measurement(tmp_path):
    w = run.Workload("coauth-sparse", 0, ROOT, tmp_path, {"fingerprint": {"sha256": "0" * 64}})
    with pytest.raises(run.BenchError, match="drifted"):
        w.prepare_input()


def test_peak_rss_is_per_child(tmp_path):
    big = [sys.executable, "-c", "b = bytearray(200 * 2**20); b[::4096] = b'x' * len(b[::4096])"]
    small = [sys.executable, "-c", "pass"]
    _, code_big, rss_big = run.run_child(big, tmp_path, {}, tmp_path / "big")
    _, code_small, rss_small = run.run_child(small, tmp_path, {}, tmp_path / "small")
    assert code_big == code_small == 0
    assert rss_big > 200 > rss_small


def test_time_limit_kills_the_running_child(tmp_path):
    def expire(signum, frame):
        raise run.BenchError("time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    start = time.perf_counter()
    try:
        with pytest.raises(run.BenchError):
            run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, {},
                          tmp_path / "slow")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 10


def test_scaling_uses_the_probes_around_each_sample():
    ref, window = run.PROBE_REF_S, run.PROBE_WINDOW
    # the host ran at half speed for the first half of the run
    probes = [2 * ref] * 4 + [ref] * (2 * window + 4)
    walls = [2.0] * 4 + [1.0] * (len(probes) - 5)
    out = run.scaled(walls, probes)
    assert out[0] == pytest.approx(1.0)
    assert out[-1] == pytest.approx(1.0)
    # a sample whose window straddles the change is scaled by the mean
    assert out[3] == pytest.approx(2.0 * ref / statistics.fmean(probes[1:7]))


def test_self_time_subtracts_child_spans():
    spans = [("op:x", 0.0, 10.0, -1, 0), ("a", 1.0, 5.0, 0, 0), ("b", 2.0, 3.0, 1, 0),
             ("b", 6.0, 7.0, 0, 0)]
    assert tracer.self_times(spans) == {"op:x": 5.0, "a": 3.0, "b": 2.0}


def test_traced_pass_nests_spans_at_every_import_site(tmp_path):
    (tmp_path / "input.txt").write_text(TINY)
    ops = [{"name": "randomize", "argv": ["randomize", "input.txt", "--lcc", "--samples", "1"]},
           {"name": "simulate", "argv": ["simulate", "input.txt", "--runs", "2",
                                         "--out", "sim.csv"]}]
    for op in ops:
        op.update(kind="cli", stdout=str(tmp_path / f"{op['name']}.out"),
                  stderr=str(tmp_path / f"{op['name']}.err"))
    (tmp_path / "plan.json").write_text(json.dumps({"cwd": str(tmp_path), "ops": ops}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), "plan.json", "result.json", "--wrap", "1"],
        cwd=tmp_path, env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert [o["exit"] for o in result["ops"]] == [0, 0]
    spans = result["spans"]
    names = {s[0] for s in spans}
    assert {"randomize.retention_report", "linegraph.adjacent_layer_dag",
            "dynamics.strict", "hypergraph.load"} <= names
    by_index = dict(enumerate(spans))
    parents = {(s[0], by_index[s[3]][0]) for s in spans if s[3] >= 0}
    assert ("linegraph.build_encapsulation_dag", "randomize.retention_report") in parents
    assert ("linegraph.adjacent_layer_dag", "experiments.prepare_dynamics") in parents
    assert result["counters"]["dynamics.strict.runs"] == 2
    # the fingerprint is the first fully preprocessed input: "8 9" is outside the LCC
    assert result["fingerprint"]["hypergraph.m"] == 7


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "email-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
