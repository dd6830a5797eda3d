from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypernest

ROOT = Path(__file__).resolve().parents[1]

# the modules ``import hypernest`` registers lazily, each executed on first use
SUBMODULES = ["dagpaths", "dynamics", "experiments", "hypergraph", "linegraph", "randomize",
              "rng", "rnhm"]
GOLDEN = ROOT / "tests" / "golden" / "nested.txt"

REPORT = """
import json, sys, types
ours = {n.removeprefix("hypernest."): m for n, m in sys.modules.items()
        if n.startswith("hypernest.")}
print(json.dumps({
    "registered": sorted(ours),
    # a lazy module not yet used is a subclass; executing it makes it a module
    "executed": sorted(n for n, m in ours.items() if type(m) is types.ModuleType),
    "pool": "concurrent.futures" in sys.modules,
}))
"""


def modules_after(code: str) -> dict:
    """Which ``hypernest.*`` modules a fresh interpreter holds after running
    ``code``, which of them executed, and whether it imported a process pool."""
    src = str(Path(hypernest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code + REPORT], capture_output=True,
                            text=True, env=env, check=True, timeout=60)
    return json.loads(result.stdout.splitlines()[-1])


def test_every_public_name_resolves():
    # the tracer wraps the modules in sys.modules after the import, so each
    # is registered there, yet none executes before its first use
    assert modules_after("import hypernest") == {
        "registered": SUBMODULES, "executed": [], "pool": False}
    assert hypernest.__all__ == sorted(hypernest._OWNER)
    missing = [name for name in hypernest.__all__ if not hasattr(hypernest, name)]
    assert missing == []
    assert set(hypernest.__all__) <= set(dir(hypernest))
    namespace: dict = {}
    exec("from hypernest import *", namespace)
    assert set(hypernest.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        hypernest.no_such_name


@pytest.mark.parametrize("code,executed", [
    ("from hypernest.hypergraph import load_auto", ["hypergraph"]),
    ("from hypernest.cli import main; main(['stats', {golden!r}])",
     ["cli", "hypergraph", "linegraph"]),
    ("from hypernest.cli import main; main(['encapsulation', {golden!r}, '--randomize', '1'])",
     ["cli", "hypergraph", "linegraph", "randomize", "rng"]),
    ("from hypernest.cli import main; main(['heights', {golden!r}])",
     ["cli", "dagpaths", "hypergraph", "linegraph"]),
    ("from hypernest.cli import main; main(['randomize', {golden!r}, '--samples', '1'])",
     ["cli", "hypergraph", "linegraph", "randomize", "rng"]),
    ("from hypernest.cli import main; main(['simulate', {golden!r}, '--runs', '1',"
     " '--out', {out!r}])",
     ["cli", "dynamics", "experiments", "hypergraph", "linegraph", "rng"]),
    ("from hypernest.cli import main; main(['rnhm', '--nodes', '6', '--max-size', '3',"
     " '--max-edges', '2', '--out', {out!r}])",
     ["cli", "hypergraph", "rng", "rnhm"]),
    ("from hypernest.cli import main; main(['rnhm-sweep', '--realizations', '1', '--runs', '1',"
     " '--eps-grid', '1', '--seed-counts', '1', '--out', {out!r}])",
     ["cli", "dynamics", "experiments", "hypergraph", "linegraph", "rng", "rnhm"]),
], ids=["load_auto", "stats", "encapsulation", "heights", "randomize", "simulate", "rnhm",
        "rnhm-sweep"])
def test_commands_execute_only_the_modules_they_run(code, executed, tmp_path):
    # each module costs a process its compile and execution; only
    # `run_experiment(jobs > 1)` needs concurrent.futures, whose import (with
    # multiprocessing, logging and socket) would cost every command
    code = code.format(golden=str(GOLDEN), out=str(tmp_path / "out"))
    found = modules_after(code)
    assert (found["executed"], found["pool"]) == (executed, False)


def unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_unused_imports():
    sources = [*sorted((ROOT / "src" / "hypernest").glob("*.py")),
               *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    assert len(sources) > 2
    unused = {str(p.relative_to(ROOT)): names for p in sources if (names := unused_imports(p))}
    assert unused == {}


def writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` renames or writes a file: ``os.replace``/``os.rename``,
    a ``write_*`` function or method (``write_text``, the library's path
    writers such as ``write_plain``), or an ``open`` whose mode is not a
    read-only literal."""
    name = ast.unparse(call.func)
    if name in ("os.replace", "os.rename") or name.rpartition(".")[2].startswith("write_"):
        return True
    if name == "open" or name.endswith(".open"):
        # the mode is open()'s second argument, Path.open()'s first
        modes = call.args[1:2] if name == "open" else call.args[:1]
        modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
        return any(not isinstance(m, ast.Constant) or set(m.value) - set("rbt") for m in modes)
    return False


def file_writers(path: Path) -> set[str]:
    """The top-level definitions of ``path`` (or ``line N`` statements)
    that call a file writer."""
    tree = ast.parse(path.read_text())
    return {getattr(top, "name", f"line {top.lineno}") for top in tree.body
            for node in ast.walk(top) if isinstance(node, ast.Call) and writes_a_file(node)}


def test_cli_writes_files_in_one_function():
    # `publish` writes all of a run's files and its manifest or none of them;
    # a subcommand or a script that wrote a file itself would bypass that
    assert file_writers(ROOT / "src" / "hypernest" / "cli.py") == {"publish"}
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    assert {p.name: names for p in scripts if (names := file_writers(p))} == {}


RNG_CONSTRUCTORS = {"SeedSequence", "default_rng", "PCG64", "Generator"}


def rng_constructions(path: Path) -> list[str]:
    """The calls in ``path`` that construct a NumPy seed sequence, bit
    generator or generator, by name or attribute."""
    tree = ast.parse(path.read_text())
    return sorted(ast.unparse(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func).rpartition(".")[2] in RNG_CONSTRUCTORS)


def test_streams_come_from_rng_alone():
    # one derivation of streams: any other generator would not be reproducible
    # from the master seed and a path
    sources = [*sorted((ROOT / "src" / "hypernest").glob("*.py")),
               *sorted((ROOT / "scripts").glob("*.py"))]
    assert (ROOT / "src" / "hypernest" / "rng.py") in sources
    found = {str(p.relative_to(ROOT)): calls for p in sources
             if p.name != "rng.py" and (calls := rng_constructions(p))}
    assert found == {}
    assert rng_constructions(ROOT / "src" / "hypernest" / "rng.py")


def imported_modules(path: Path) -> set[str]:
    """The modules ``path`` imports or imports names from, as absolute
    ``hypernest.*`` names (every relative import is inside the package),
    with each imported name also taken as a possible submodule."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["hypernest" if node.level else "", node.module]))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_seeds_become_generators_only_at_the_edges():
    # library functions that draw take a Generator; only the command line,
    # the layer-sample source and the contagion batches turn a seed into one
    sources = [p for p in sorted((ROOT / "src" / "hypernest").glob("*.py"))
               if p.name not in ("__init__.py", "rng.py")] + sorted((ROOT / "scripts").glob("*.py"))
    importers = {p.name for p in sources if "hypernest.rng" in imported_modules(p)}
    assert importers == {"cli.py", "randomize.py", "experiments.py"}
