"""Process environment: BLAS pins, the ``src`` path, scratch space, fingerprint.

:func:`prepare` must run before anything imports ``numpy`` — BLAS reads
its thread count once, at load.  The pins live in ``os.environ`` so the
daemon subprocess and the pool workers inherit them.
"""

from __future__ import annotations

import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from typing import Any, Dict, Iterator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

#: everything a run writes (spool, artifact, checkpoints) goes under here
#: and is removed when the run ends; the root ``.gitignore`` names it
SCRATCH_ROOT = REPO_ROOT / ".perfbench_tmp"

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkUnavailable(RuntimeError):
    """The program under test is not there to be measured."""


def prepare() -> None:
    """Pin BLAS to one thread and make ``repro`` importable.

    Raises :class:`BenchmarkUnavailable` when the checkout holds the
    benchmark but not the program (``src/repro``): there is nothing to
    measure, and the caller exits non-zero without printing a result.
    """
    if "numpy" in sys.modules:
        raise BenchmarkUnavailable(
            "numpy was imported before the BLAS thread pins were set"
        )
    for name in THREAD_PINS:
        os.environ[name] = "1"
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise BenchmarkUnavailable(f"no program to measure: {SRC_DIR}/repro is missing")
    src = str(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
    # The daemon subprocess is started with ``python -m repro``.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")


@contextmanager
def scratch_dir() -> Iterator[pathlib.Path]:
    """A private directory for one run, removed on the way out.

    Inside the checkout, because a run may write nowhere else; removal
    runs on success, failure and Ctrl-C alike, and takes the shared
    parent with it once the last run has left.
    """
    SCRATCH_ROOT.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


def _commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build() -> str:
    """Name and version of the BLAS numpy was built against."""
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 prints instead of returning
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def fingerprint() -> Dict[str, Any]:
    """What a run's numbers depend on besides the code.

    Everything but :data:`VOLATILE_KEYS` must match for two outputs to
    be comparable (:mod:`benchmarks.perf.compare`).
    """
    import numpy

    from repro.core.engine.backends import process_start_method

    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_build(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        # $REPRO_BACKEND, $REPRO_TAPE, ... change what the defaults mean
        "repro_env": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.startswith("REPRO_")
        },
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "start_method": process_start_method(),
        "loadavg_at_start": load,
    }


#: fingerprint keys that may differ between two comparable outputs
VOLATILE_KEYS = ("commit", "loadavg_at_start")


def incomparable(first: Dict[str, Any], second: Dict[str, Any]) -> Dict[str, Any]:
    """Keys on which two fingerprints disagree (empty: comparable)."""
    keys = (set(first) | set(second)) - set(VOLATILE_KEYS)
    return {
        key: (first.get(key), second.get(key))
        for key in sorted(keys)
        if first.get(key) != second.get(key)
    }
