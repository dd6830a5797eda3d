from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import hypernest


def test_every_public_name_resolves():
    missing = [name for name in hypernest.__all__ if not hasattr(hypernest, name)]
    assert missing == []
    namespace: dict = {}
    exec("from hypernest import *", namespace)
    assert set(hypernest.__all__) <= set(namespace)


def test_import_loads_no_process_pool():
    # only `run_experiment(jobs > 1)` needs concurrent.futures; importing it
    # (with multiprocessing, logging and socket) would cost every command
    code = "import sys, hypernest.cli; print('concurrent.futures' in sys.modules)"
    src = str(Path(hypernest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    assert result.stdout.strip() == "False"
