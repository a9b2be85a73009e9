"""The reachability ledger's recorder (``tools/ledger.py``): a function
counts as reached when its code ran, whether or not its call returned."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

LEDGER = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ledger.py"

PROGRAM = textwrap.dedent(
    """\
    import os, sys, threading

    def blocked(ready):
        ready.set()
        threading.Event().wait()

    def leave():
        os._exit(0)

    def returns():
        return 1

    ready = threading.Event()
    threading.Thread(target=blocked, args=(ready,), daemon=True).start()
    ready.wait()
    returns()
    if sys.argv[1] == "os._exit":
        leave()
    """
)


def load_ledger():
    spec = importlib.util.spec_from_file_location("ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("exit_by", ["os._exit", "return"])
def test_recorder_counts_calls_still_on_a_stack(tmp_path, exit_by):
    """A daemon thread blocked for good inside ``blocked`` and a call to
    ``leave`` that ends the process from inside it never return; both
    are recorded, whether the process ends by ``os._exit`` or by running
    off the end of its main module."""
    recorder, root, out = (tmp_path / name for name in ("recorder", "root", "out"))
    for directory in (recorder, root, out):
        directory.mkdir()
    (recorder / "sitecustomize.py").write_text(load_ledger().RECORDER)
    (root / "program.py").write_text(PROGRAM)
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=str(recorder), LEDGER_OUT=str(out), LEDGER_ROOT=str(root) + os.sep)
    subprocess.run(
        [sys.executable, str(root / "program.py"), exit_by], env=env, check=True, timeout=60
    )
    (record,) = out.glob("*.json")
    recorded = {name for path, _line, name in json.loads(record.read_text()) if path == "program.py"}
    expected = {"<module>", "blocked", "returns"} | ({"leave"} if exit_by == "os._exit" else set())
    assert recorded == expected
