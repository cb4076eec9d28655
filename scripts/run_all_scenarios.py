#!/usr/bin/env python3
"""Run every example scenario into results/ (CSV data, plotter-agnostic)."""

import pathlib
import sys

from epsensor.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


if __name__ == "__main__":
    paths = sorted(str(p) for p in (ROOT / "scenarios").glob("*.scn"))
    if not paths:
        print("no scenario files found", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(["run", *paths, "--out", str(ROOT / "results")]))
