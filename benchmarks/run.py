#!/usr/bin/env python3
"""hypernest benchmark: CLI commands end to end, or a traced per-module pass.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload email-dense --seed 3 --seconds 60 --trace 0

``--trace 0`` runs each command of the workload (see ``workloads.py``) as its
own child process, one at a time on one CPU, in whole passes (at least three,
more while another fits in ``--seconds``), and reports per-command wall time
(median over passes of each time scaled by the probes around it, see
``scaled``; ``setup_s`` is a fresh load + preprocess process) and the largest
per-child peak RSS. ``--trace 1`` runs one
untraced and one traced in-process pass (``tracer.py``) and reports
per-module self times and counters. Every command's outputs are checked
against ``reference.json``; a failed command counts in ``failed``. The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. An input that drifts from its recorded fingerprint, or a
directory that is not a hypernest checkout, is an error: exit 2, no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# one sample of a command varies by 10-25% on a shared host, so each metric
# is the median of at least three passes
MIN_PASSES = 3
# The shared host's speed drifts over seconds by up to ~2x. A fixed probe loop
# runs in this process before and after every command, and each command's
# wall time is scaled by PROBE_REF_S over the mean of the PROBE_WINDOW probes
# on either side of it: a time at the speed where the probe takes PROBE_REF_S
# (its median on the 2-core host the benchmark was defined on).
PROBE_REF_S = 0.04
PROBE_WINDOW = 3
# The program does no linear algebra, but NumPy's OpenBLAS starts a thread per
# core at import; on a 2-core host those threads compete with the measured
# process and add ~80 ms of noisy start-up to every command.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# a run must end within 180 s; a program that slow is an error, not a result
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The run cannot give a measurement: no checkout, drifted input, a
    crashed tracer or the time limit."""


def _stop(signum, frame):
    raise BenchError(f"stopped by signal {signal.Signals(signum).name} "
                     f"(the time limit is {TIME_LIMIT_S} s)")


def run_child(cmd: list[str], cwd: Path, env: dict, log: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB).

    The RSS comes from ``os.wait4`` on this child alone; ``RUSAGE_CHILDREN``
    would report the largest of all earlier children instead.
    """
    with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # time limit or interrupt: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe() -> float:
    """Seconds of a fixed pure-Python loop of dict updates, the kind of work
    the program's set and dict code does."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return time.perf_counter() - start


def scaled(walls: list[float], probes: list[float]) -> list[float]:
    """Each wall time scaled to the probe's reference speed; ``probes[k]``
    ran just before ``walls[k]`` and ``probes[k + 1]`` just after it."""
    out = []
    for k, wall in enumerate(walls):
        near = probes[max(0, k - PROBE_WINDOW + 1):k + PROBE_WINDOW + 1]
        out.append(wall * PROBE_REF_S / statistics.fmean(near))
    return out


def op_failures(op: workloads.Op, expected: dict, cwd: Path, code: int, stdout: str,
                stderr: str) -> list[str]:
    """Why one finished op failed; empty when it passed."""
    if code != 0:
        return [f"exit code {code}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    return check.mismatches(expected, op.name, op.argv, cwd, stdout)


class Workload:
    """One workload at one seed, run inside ``workdir`` of the checkout.

    With ``reference`` None the outputs are not checked but collected into
    ``collected``, which is how ``make_reference.py`` records them.
    """

    def __init__(self, name: str, seed: int, root: Path, workdir: Path,
                 reference: dict | None):
        self.name = name
        self.variant = seed % workloads.VARIANTS
        self.root = root
        self.workdir = workdir
        self.ops = workloads.ops(name, self.variant)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **SINGLE_THREADED)
        self.reference = reference
        self.collected: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def command(self, op: workloads.Op) -> list[str]:
        if op.kind == "cli":
            return [sys.executable, "-m", "hypernest.cli", *op.argv]
        if op.kind == "script":
            return [sys.executable, str(self.root / op.argv[0]), *op.argv[1:]]
        return [sys.executable, *op.argv]

    def new_pass_dir(self) -> Path:
        """A fresh directory per pass, so no output of an earlier pass can
        stand in for one a later pass failed to write."""
        self.passes += 1
        cwd = self.workdir / f"pass-{self.passes}"
        cwd.mkdir(parents=True)
        shutil.copyfile(self.workdir / workloads.INPUT, cwd / workloads.INPUT)
        return cwd

    def prepare_input(self) -> None:
        """Generate the workload's input and check its fingerprint."""
        path = self.workdir / workloads.INPUT
        workloads.write_generated_input(self.name, self.variant, path)
        if (self.reference is not None
                and workloads.file_sha256(path) != self.reference["fingerprint"]["sha256"]):
            raise BenchError(f"{self.name} input for seed variant {self.variant} drifted from "
                             f"its recorded fingerprint in reference.json")

    def record(self, op: workloads.Op, cwd: Path, code: int) -> None:
        self.attempted += 1
        stdout = Path(f"{cwd / op.name}.out").read_text()
        stderr = Path(f"{cwd / op.name}.err").read_text()
        if self.reference is None:
            if code != 0 or "Traceback" in stderr:
                raise BenchError(f"{op.name} failed while recording references:\n{stderr}")
            self.collected[op.name] = check.reference_parts(op.name, op.argv, cwd, stdout)
            return
        bad = op_failures(op, self.reference["ops"][op.name], cwd, code, stdout, stderr)
        if bad:
            self.failed += 1
            print(f"FAILED {op.name}: {'; '.join(bad)}", file=sys.stderr)

    def timed(self, seconds: float, names: list[str], min_passes: int = MIN_PASSES
              ) -> dict[str, float]:
        """End-to-end metrics: whole passes of child processes, one at a time,
        at least ``min_passes`` and more while another fits in ``seconds``.
        A time metric is the median of its command's samples, each scaled by
        the probes around it (see ``scaled``)."""
        names_run: list[str] = []
        walls: list[float] = []
        peak_rss = 0.0
        # untimed warm-up: in a fresh checkout the first import compiles the
        # program's bytecode, which no later command pays
        run_child([sys.executable, "-c", "import hypernest.cli"], self.workdir, self.env,
                  self.workdir / "warm-up")
        start = time.perf_counter()
        probes = [probe()]
        while True:
            pass_start = time.perf_counter()
            cwd = self.new_pass_dir()
            for op in self.ops:
                wall, code, rss = run_child(self.command(op), cwd, self.env, cwd / op.name)
                probes.append(probe())
                names_run.append(op.name)
                walls.append(wall)
                peak_rss = max(peak_rss, rss)
                self.record(op, cwd, code)
            pass_s = time.perf_counter() - pass_start
            if self.passes >= min_passes and time.perf_counter() - start + pass_s > seconds:
                break
        times: dict[str, list[float]] = {op.name: [] for op in self.ops}
        for name, t in zip(names_run, scaled(walls, probes)):
            times[name].append(t)
        values = {f"{name}_s": statistics.median(v) for name, v in times.items()}
        values["peak_rss_mb"] = peak_rss
        return {name: values[name] for name in names}

    def traced(self, names: list[str]) -> dict[str, float]:
        """Per-layer metrics: an untraced then a traced in-process pass of
        the CLI and script ops (``setup`` is the traced load and preprocess)."""
        passes = {}
        ops = [op for op in self.ops if op.kind != "python"]
        for wrap in (0, 1):
            cwd = self.new_pass_dir()
            plan = {"cwd": str(cwd), "ops": [
                {"name": op.name,
                 "argv": [str(self.root / op.argv[0]), *op.argv[1:]]
                 if op.kind == "script" else list(op.argv),
                 "kind": op.kind, "stdout": f"{cwd / op.name}.out",
                 "stderr": f"{cwd / op.name}.err"}
                for op in ops]}
            plan_path = cwd / "plan.json"
            plan_path.write_text(json.dumps(plan))
            result_path = cwd / "trace-result.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(plan_path), str(result_path),
                   "--wrap", str(wrap)]
            _, code, _ = run_child(cmd, cwd, self.env, cwd / "tracer")
            if code != 0:
                err = Path(f"{cwd / 'tracer'}.err").read_text()[-2000:]
                raise BenchError(f"tracer exited {code}:\n{err}")
            passes[wrap] = json.loads(result_path.read_text())
            for op, res in zip(ops, passes[wrap]["ops"]):
                self.record(op, cwd, res["exit"])
        traced = passes[1]
        values = dict(traced["counters"])
        values.update(traced["fingerprint"])
        for span, secs in tracer.self_times([tuple(s) for s in traced["spans"]]).items():
            values[f"{span}_s"] = secs
        visits = values.get("linegraph.candidate_visits", 0)
        values["linegraph.dag_edges_per_visit"] = (
            values.get("linegraph.dag_edges", 0) / visits if visits else 0.0)
        values["process.import_s"] = statistics.median(p["import_s"] for p in passes.values())
        values["trace.overhead_s"] = (sum(o["wall_s"] for o in traced["ops"])
                                      - sum(o["wall_s"] for o in passes[0]["ops"]))
        if traced["skipped"]:
            print(f"not traced (absent): {', '.join(traced['skipped'])}", file=sys.stderr)
        return {name: float(values.get(name, 0.0)) for name in names}


def result_line(metrics: dict[str, float], units: dict[str, str], attempted: int,
                failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "hypernest" / "cli.py", root / workloads.SWEEP_SCRIPT]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a hypernest checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metric_list = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_list}
    reference = json.loads((HERE / "reference.json").read_text())
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    # one CPU for this process and, by inheritance, every child: the probes
    # then see the speed of the CPU the commands run on (the two CPUs of the
    # host drift independently)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(TIME_LIMIT_S)
    try:
        workdir.mkdir(parents=True)
        w = Workload(args.workload, args.seed, root, workdir,
                     reference[args.workload][str(args.seed % workloads.VARIANTS)])
        w.prepare_input()
        metrics = w.traced(list(units)) if args.trace else w.timed(args.seconds, list(units))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's work directory is still there
            pass
    print(result_line(metrics, units, w.attempted, w.failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
