"""DESIGN.md's invariants table names the tests that pin each row.

A row whose test was renamed or deleted would keep promising something
nothing checks any more: every node id in the table must still collect.
"""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
NODE_ID = re.compile(r"`(tests/[\w/]+\.py::[\w:\[\]-]+)`")


def invariant_rows():
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 16. Invariants\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if re.match(r"\| \d+ \|", line)]


def test_every_invariant_names_a_test_that_collects():
    rows = invariant_rows()
    assert len(rows) >= 10
    node_ids = []
    for row in rows:
        named = NODE_ID.findall(row.split("|")[-2])
        assert named, f"invariant row names no test: {row[:60]}"
        node_ids += named
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert collected.returncode == 0, collected.stdout[-2000:] + collected.stderr[-2000:]
    for node_id in node_ids:  # parametrized ids print as ``node_id[param]``
        assert re.search(re.escape(node_id) + r"(\[|$)", collected.stdout, re.M), node_id
