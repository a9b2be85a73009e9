"""Entry point: ``python3 benchmarks/perf/__main__.py`` or ``python3 -m benchmarks.perf``."""

import sys

if not __package__:
    # Run as a file: Python put this directory first on the path, where
    # our module names (``stats``, ``spans``, ...) would shadow others.
    # Put the repository root there instead and import as the package.
    import pathlib

    sys.path[0] = str(pathlib.Path(__file__).resolve().parents[2])

from benchmarks.perf.cli import main

if __name__ == "__main__":
    sys.exit(main())
