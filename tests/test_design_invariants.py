"""DESIGN.md's tables that name things in the code must keep naming them.

A row of the invariants table (§16) whose test was renamed or deleted
would keep promising something nothing checks any more: every node id
in it must still collect.  The reachability ledger (§17) must classify
every public name, so a new one is counted before it lands.
"""

import importlib
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


def ledger_classified():
    """``(package, name)`` pairs §17 lists, reached by product or not."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 17. Appendix: the reachability ledger\n", 1)[1]
    reached, _, table = section.partition("### Public names product traffic does not reach")
    classified = set(re.findall(r"^\| `([\w.]+)` \| `(\w+)` \|", table, re.M))
    for package, names in re.findall(r"^- `([\w.]+)` \(\d+\): (.*(?:\n  .*)*)", reached, re.M):
        classified.update((package, name) for name in re.findall(r"`(\w+)`", names))
    return classified


def test_every_public_name_is_classified_by_the_ledger():
    """Adding a name to a package's ``__all__`` means running
    ``python tools/ledger.py``, which classifies it (and, if product
    traffic does not reach it, asks for a line naming its user)."""
    classified = ledger_classified()
    assert len(classified) >= 300
    unclassified = []
    for init in sorted((ROOT / "src" / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(ROOT / "src").parts)
        for name in importlib.import_module(package).__all__:
            if (package, name) not in classified:
                unclassified.append(f"{package}.{name}")
    assert not unclassified, f"not in DESIGN.md §17: {unclassified}"
