#!/usr/bin/env python3
"""Alias of ``hypernest rnhm-sweep``, the activation sweep on random nested
hypergraphs: ``python scripts/rnhm_activation_sweep.py --out rnhm_sweep.csv``."""

import sys

from hypernest.cli import main

if __name__ == "__main__":
    if code := main(["rnhm-sweep", *sys.argv[1:]]):
        raise SystemExit(code)
