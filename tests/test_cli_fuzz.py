"""Fuzz ``hypernest.cli.main`` over argv drawn from each subcommand's options.

Every argv must end in a result (0), a usage error (``SystemExit(1)``) or a
data error (2), and never print a traceback. Values are drawn from small
ints, zero, negatives, ints past int64, empty and malformed lists and
unknown flags, on the golden RNHM fixture, on a 3-line input and on
malformed inputs. Every RNHM sample that passes validation has at most 20
nodes, and a sweep runs at most 2 realizations x 2 runs per cell, so every
example is fast.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypernest.cli import main

FIXTURE = Path(__file__).resolve().parent / "golden" / "nested.txt"

# argparse accepts the values of an option's first list and rejects those of
# its second; a drawn argv uses only accepted values unless it is "noisy"
INTS = (["0", "1", "2", "3", "-1", "-7", "99"], ["", "x", "1.5"])
# past int64 and past uint64
HUGE = [str(2**63), str(10**20)]
SEEDS = (["0", "1", "2", "3", "99", *HUGE], ["-1", "-7", "", "x", "1.5"])
# 2**63 overflows int64; as a threshold tau it is as any tau >= the largest size
TAUS = (INTS[0] + [str(2**63)], INTS[1])
COUNTS = (["0", "1", "2"], ["-1", "", "x"])
LISTS = (["", ",", ",,", "1", "2,1", "1,,3", "0", "-1", "x", "1;2", "99"], [])
STRATEGY_LISTS = (
    ["", ",", "uniform", "uniform,smallest-first", "largest-first,", "nope", "uniform,nope"], []
)
EPS = (["", ",", "1", "0.5,0.5", "3=0.5", "2=1.5", "9=1", "x", "1,1,1,1,1,1"], [])
FLAG = None  # an option that takes no value
OUT = "out"  # an option that takes a path under the work directory

INPUT_OPTIONS = {
    "--format": (["auto", "plain", "simplex"], ["bogus"]),
    "--max-size": (INTS[0] + HUGE, INTS[1]),
    "--lcc": FLAG,
}
OPTIONS = {
    "stats": INPUT_OPTIONS | {"--json": FLAG, "--out": OUT},
    "encapsulation": INPUT_OPTIONS | {
        "--normalized": FLAG, "--histograms": FLAG, "--randomize": COUNTS, "--seed": SEEDS,
        "--out": OUT,
    },
    "heights": INPUT_OPTIONS | {
        "--randomize": COUNTS, "--seed": SEEDS, "--out": OUT, "--summary-out": OUT,
    },
    "randomize": INPUT_OPTIONS | {
        "--samples": (["1", "2"], ["0", "-1", "x"]), "--seed": SEEDS, "--out": OUT,
        "--emit-samples": OUT,
    },
    "rnhm": {
        "--nodes": (["0", "1", "3", "5", "8", "-2", *HUGE], ["x"]),
        "--max-size": (["0", "1", "2", "3", "5", "8", "-1", *HUGE], ["", "x"]),
        "--max-edges": (["0", "1", "2", "3", "-1", *HUGE], ["x"]),
        "--eps": EPS, "--singletons": FLAG, "--seed": SEEDS, "--out": OUT,
    },
    "rnhm-sweep": {
        "--nodes": (["0", "1", "3", "5", "8", "-2"], ["x"]),
        "--max-size": (["0", "1", "2", "3", "5", "-1"], ["", "x"]),
        "--max-edges": (["0", "1", "2", "3", "-1"], ["x"]),
        "--eps-grid": (["", ",", "0", "1", "0,1", "1,0.5,0", "0,0", "2", "-1", "x"], []),
        "--strategies": STRATEGY_LISTS, "--seed-counts": LISTS,
        "--variant": (["strict", "non-strict", "empirical-adjacent", "threshold"], ["bogus"]),
        "--tau": TAUS, "--realizations": (["1", "2"], []), "--runs": (["1", "2"], []),
        "--seed": SEEDS, "--out": OUT,
    },
    "simulate": INPUT_OPTIONS | {
        "--variant": (["strict", "non-strict", "empirical-adjacent", "threshold"], ["bogus"]),
        "--strategy": STRATEGY_LISTS, "--seeds": LISTS, "--tau": TAUS,
        "--runs": (["1", "2"], ["0", "-1", "x"]), "--max-steps": (INTS[0] + HUGE, INTS[1]),
        "--comparison": ([">=", ">"], ["=="]), "--seed": SEEDS, "--randomize": COUNTS,
        "--jobs": (["1"], ["0", "-1", "x"]), "--dataset": (["", "name"], []),
        "--out": OUT, "--summary-out": OUT, "--trajectories": OUT,
    },
}
REQUIRED = {"rnhm": ("--nodes", "--max-size", "--max-edges", "--out"), "rnhm-sweep": ("--out",),
            "simulate": ("--out",)}
# given even in a noisy argv: the defaults of 25 realizations x 50 runs take seconds
ALWAYS = {"rnhm-sweep": ("--realizations", "--runs")}
UNKNOWN = ["--bogus", "-z", "--seed=", "--out"]
# inputs that are data errors (a repeated node, no hyperedge) or odd but
# valid (int and str labels on one line, in one component)
MALFORMED = {
    "repeat.txt": "1 2 3\n2 3 2\n",
    "mixed.txt": "a 1 b\n2 a\n1 2 c\nb 3\n",
    "comments.txt": "# only\n\n  # comments\n",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz")
    (root / "three.txt").write_text("1 2 3\n2 3\n3 4\n")
    for name, text in MALFORMED.items():
        (root / name).write_text(text)
    return root


@st.composite
def argvs(draw, workdir: Path) -> list[str]:
    command = draw(st.sampled_from(sorted(OPTIONS)))
    noisy = draw(st.booleans())
    argv = [command]
    if command not in ("rnhm", "rnhm-sweep"):
        inputs = [FIXTURE, workdir / "three.txt", *(workdir / name for name in MALFORMED)]
        inputs += [workdir / "missing.txt"] * noisy
        argv.append(str(draw(st.sampled_from(inputs))))
    options = OPTIONS[command]
    names = draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=6))
    if not noisy:
        names += [name for name in REQUIRED.get(command, ()) if name not in names]
    names += [name for name in ALWAYS.get(command, ()) if name not in names]
    for name in names:
        spec = options[name]
        if spec is FLAG:
            argv.append(name)
        elif spec is OUT:
            argv += [name, str(workdir / name.lstrip("-"))]
        else:
            accepted, rejected = spec
            argv += [name, draw(st.sampled_from(accepted + rejected * noisy))]
    if noisy and draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(UNKNOWN)))
    return argv


@settings(max_examples=200)
@given(data=st.data())
def test_every_argv_ends_in_an_exit_code(workdir, data):
    argv = data.draw(argvs(workdir))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    assert code in (0, 2, ("exit", 1)), (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv
