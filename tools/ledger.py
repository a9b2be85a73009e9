"""The reachability ledger: what in ``src/repro`` only the tests reach.

Usage::

    python tools/ledger.py           # run the traffic, rewrite DESIGN.md §17
    python tools/ledger.py --check   # run the traffic, exit 1 if §17 is stale

Two kinds of traffic are recorded, each in processes of its own:

* *product traffic* — what a user of the repository runs: the four
  ``BENCHMARK.json`` workloads, every ``examples/`` script, each CLI verb
  once, every paper-shape script's ``run()`` (called directly: under
  pytest-benchmark's ``pedantic`` the profile hook is switched off
  around the timed call) and the five mechanism benches;
* *test traffic* — the tier-1 suite, ``python -m pytest -q tests``.

A ``sitecustomize`` on ``PYTHONPATH`` starts the interpreter's profile
hook (``cProfile``'s recorder, the C implementation of ``sys.setprofile``)
in every process the traffic starts — forked pool workers, the
``repro serve`` daemon, ``repro worker`` — and in every thread, and each
process writes the code objects it ran when it ends (forked workers
through ``os._exit``).  Everything is stdlib.

A function is *reached* when its code ran.  A class is reached when one
of its own methods ran or reached code loads its name; any other public
name when reached code loads it (an import alone is not a load).  The
public names are the ``__all__`` of every package under ``src/repro``.
DESIGN.md §17 lists the counts, the public names product traffic
reaches, and every public name it does not, each with a line naming its
user; that last column is written by hand and kept across rewrites.
``tests/test_design_invariants.py`` fails when a package's ``__all__``
gains a name §17 does not classify.
"""

from __future__ import annotations

import argparse
import ast
import collections
import importlib
import inspect
import json
import os
import pathlib
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import textwrap
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DESIGN = ROOT / "DESIGN.md"
HEADING = "## 17. Appendix: the reachability ledger"

#: (relative path, first line, name): how a code object is recorded
Key = Tuple[str, int, str]

RECORDER = '''
import atexit, cProfile, json, os, sys, tempfile, threading

_out = os.environ.get("LEDGER_OUT")
if _out:
    _root = os.environ["LEDGER_ROOT"]
    _profiles = []

    def _start():
        profile = cProfile.Profile()
        profile.enable()
        _profiles.append(profile)

    def _in_new_thread(frame, event, arg):
        sys.setprofile(None)
        _start()

    def _dump():
        seen = set()
        for profile in list(_profiles):
            for entry in profile.getstats():
                code = entry.code
                if not isinstance(code, str) and code.co_filename.startswith(_root):
                    seen.add((code.co_filename[len(_root):], code.co_firstlineno, code.co_name))
        handle, path = tempfile.mkstemp(dir=_out, suffix=".json")
        with os.fdopen(handle, "w") as sink:
            json.dump(sorted(seen), sink)

    _exit = os._exit

    def _dump_and_exit(code):
        try:
            _dump()
        finally:
            _exit(code)

    os._exit = _dump_and_exit
    atexit.register(_dump)
    threading.setprofile(_in_new_thread)
    _start()
'''

#: Calls a benchmark script's entry point with its results redirected,
#: so the checked-in ``benchmarks/results`` never move.  A timing
#: contract need not hold under the profiler: an assertion is reported,
#: not fatal — the traffic before it was recorded.
SCRIPT_RUNNER = '''
import importlib, pathlib, sys, tempfile, traceback
sys.path.insert(0, sys.argv[1])
from benchmarks import common
common.RESULTS_DIR = pathlib.Path(tempfile.mkdtemp())
module = importlib.import_module("benchmarks." + sys.argv[2])
fn = getattr(module, sys.argv[3])
try:
    fn(*([pathlib.Path(tempfile.mkdtemp())] if "tmp_path" in fn.__code__.co_varnames[:fn.__code__.co_argcount] else []))
except AssertionError:
    traceback.print_exc()
    print("ledger: assertion failed under the profiler (traffic recorded)")
'''

WORKLOADS = ("search_train", "specialize_fleet", "search_pooled", "service_jobs")
MECHANISM_BENCHES = (
    ("bench_checkpoint", "test_bench_checkpoint_overhead"),
    ("bench_elastic", "test_specialization_amortizes_fleet"),
    ("bench_eval_runtime", "run"),
    ("bench_eval_runtime", "run_pricing"),
    ("bench_service", "run"),
    ("bench_telemetry", "test_bench_telemetry_overhead"),
)


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class Traffic:
    """Runs commands under the recorder; ``keys()`` is what they ran."""

    def __init__(self, name: str, temp: pathlib.Path, recorder_dir: pathlib.Path):
        self.name = name
        self.out = temp / f"records-{name}"
        self.out.mkdir()
        self.work = temp / f"work-{name}"
        self.work.mkdir()
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("REPRO_", "LEDGER_", "PYTHON"))
        }
        self.env.update(
            PYTHONPATH=os.pathsep.join([str(recorder_dir), str(SRC)]),
            LEDGER_OUT=str(self.out),
            LEDGER_ROOT=str(ROOT) + os.sep,
        )
        self.failures: List[str] = []

    def run(self, label: str, argv: Sequence[str], timeout: float = 1800.0, **env: str) -> str:
        log(f"[{self.name}] {label}")
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, *argv],
            cwd=self.work,
            env={**self.env, **env},
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        log(f"    exit {done.returncode} in {time.monotonic() - started:.0f} s")
        if done.returncode != 0 or "ledger: assertion failed" in done.stdout:
            self.failures.append(f"{label}: exit {done.returncode}")
            log(textwrap.indent((done.stdout + done.stderr)[-1500:], "    | "))
        return done.stdout

    def start(self, argv: Sequence[str], **env: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, *argv],
            cwd=self.work,
            env={**self.env, **env},
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def keys(self) -> Set[Key]:
        keys: Set[Key] = set()
        for path in self.out.glob("*.json"):
            try:
                keys.update(tuple(entry) for entry in json.loads(path.read_text()))
            except ValueError:  # a process killed mid-dump
                continue
        return keys


def run_product(traffic: Traffic) -> None:
    perf = str(ROOT / "benchmarks" / "perf" / "__main__.py")
    for workload in WORKLOADS:
        traffic.run(
            f"benchmark workload {workload}",
            [perf, "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", "1"],
        )
    for example in sorted((ROOT / "examples").glob("*.py")):
        traffic.run(f"example {example.name}", [str(example)])
    scripts = sorted(
        path.stem
        for pattern in ("bench_fig*.py", "bench_table*.py", "bench_ablation*.py")
        for path in (ROOT / "benchmarks").glob(pattern)
    )
    for module, entry in [(name, "run") for name in scripts] + list(MECHANISM_BENCHES):
        traffic.run(f"{module}.{entry}()", ["-c", SCRIPT_RUNNER, str(ROOT), module, entry])
    run_cli_verbs(traffic)


def run_cli_verbs(traffic: Traffic) -> None:
    """Each of the CLI's verbs once, the way its help text suggests."""
    work = traffic.work

    def repro(label: str, *argv: str, **env: str) -> str:
        return traffic.run(f"repro {label}", ["-m", "repro", *argv], **env)

    for verb in (["spaces"], ["platforms"], ["roofline"], ["cost"]):
        repro(verb[0], *verb)
    repro(
        "search",
        "search", "--steps", "6", "--checkpoint-dir", "ckpt", "--checkpoint-every", "3",
        "--telemetry-dir", "telemetry",
    )
    repro(
        "search supervise",
        "search", "supervise", "--steps", "6", "--checkpoint-dir", "supervised",
        "--checkpoint-every", "2", "--inject-crash-at", "3",
    )
    repro("report telemetry", "report", "telemetry", "telemetry")
    repro("perfmodel", "perfmodel", "--samples", "200", "--tables", "2", "--epochs", "3")
    repro("elastic-train", "elastic-train", "--steps", "6", "--artifact-dir", "artifact")
    repro("specialize", "specialize", "--artifact", "artifact", "--platform", "tpu_v4", "--steps", "4")
    repro("fleet", "fleet", "--artifact", "artifact", "--steps", "3")

    # worker: a search bound for external workers, and two that dial in
    # (the search is long enough for the second to link before it ends)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % probe.getsockname()[1]

    def parse_address(text: str) -> Tuple[str, int]:
        host, port = text.rsplit(":", 1)
        return host, int(port)

    log("[product] repro worker (x2, against a distributed search)")
    controller = traffic.start(
        ["-m", "repro", "search", "--steps", "60", "--backend", "distributed", "--workers", "2"],
        REPRO_DIST_BIND=address,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:  # until the search listens
        try:
            socket.create_connection(parse_address(address), timeout=1.0).close()
            break
        except OSError:
            time.sleep(0.1)
    workers = [traffic.start(["-m", "repro", "worker", "--connect", address]) for _ in range(2)]
    for process in [controller, *workers]:
        if process.wait(timeout=600) != 0:
            traffic.failures.append(f"repro worker/distributed search: exit {process.returncode}")

    # the service verbs, against one daemon
    spool = work / "spool"
    daemon = traffic.start(["-m", "repro", "serve", "--spool", str(spool), "--max-concurrent", "1"])
    try:
        deadline = time.monotonic() + 60.0
        while not (spool / "daemon.sock").exists() and time.monotonic() < deadline:
            time.sleep(0.1)
        done = json.loads(repro("submit", "submit", "--spool", str(spool), "--steps", "4", "--wait"))
        # train once, then specialize the job's own artifact, both as daemon jobs
        trained = json.loads(
            repro("submit --kind elastic_train", "submit", "--spool", str(spool),
                  "--kind", "elastic_train", "--steps", "4", "--wait")
        )
        repro("submit --kind specialize", "submit", "--spool", str(spool), "--kind", "specialize",
              "--artifact", str(spool / "runs" / trained["job_id"] / "artifact"),
              "--platform", "tpu_v4", "--steps", "3", "--wait")
        slow = json.loads(
            repro("submit (to cancel)", "submit", "--spool", str(spool), "--steps", "50",
                  "--step-sleep-s", "0.05")
        )
        repro("status", "status", "--spool", str(spool), slow["job_id"])
        repro("cancel", "cancel", "--spool", str(spool), slow["job_id"])
        repro("results", "results", "--spool", str(spool), done["job_id"])
        repro("jobs", "jobs", "--spool", str(spool))
        repro("drain", "drain", "--spool", str(spool))
        daemon.wait(timeout=120)
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=60)


def run_tests(traffic: Traffic) -> None:
    traffic.run(
        "tier-1 suite",
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
        timeout=7200.0,
    )


# ----------------------------------------------------------------------
# Source index
# ----------------------------------------------------------------------
def first_line(node: ast.AST) -> int:
    """``co_firstlineno`` of a def or class: its first decorator's line."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def source_files(*parts: str) -> Iterable[Tuple[str, ast.Module]]:
    for part in parts:
        for path in sorted((ROOT / part).rglob("*.py")):
            rel = str(path.relative_to(ROOT))
            yield rel, ast.parse(path.read_text(), filename=rel)


def functions(trees) -> Dict[Key, Tuple[int, int]]:
    """Every def in ``trees``: key -> (first line, last line)."""
    found = {}
    for rel, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = first_line(node)
                found[(rel, first, node.name)] = (first, node.end_lineno)
    return found


def loads(trees) -> Dict[Key, Set[str]]:
    """The names each scope loads — ``Name`` loads and attribute names —
    keyed like the code object that runs it.  Imports, annotations and
    nested defs and classes (scopes of their own) are not part of it;
    decorators, defaults and bases are, being evaluated there.  The
    module and class bodies of ``src`` run at import, which reaches
    nothing: what they load is not counted."""
    scopes: Dict[Key, Set[str]] = {}

    def scope(rel: str, key: Key, body: List[ast.AST], counted: bool) -> None:
        names = scopes.setdefault(key, set()) if counted else set()
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_class = isinstance(node, ast.ClassDef)
                counted_inner = not (is_class and rel.startswith("src"))
                scope(rel, (rel, first_line(node), node.name), node.body, counted_inner)
                stack.extend(node.decorator_list)
                if is_class:
                    stack.extend(node.bases)
                    stack.extend(keyword.value for keyword in node.keywords)
                else:
                    stack.extend(node.args.defaults)
                    stack.extend(d for d in node.args.kw_defaults if d is not None)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom, ast.arg)):
                continue
            if isinstance(node, ast.AnnAssign):
                stack.append(node.target)
                if node.value is not None:
                    stack.append(node.value)
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))

    for rel, tree in trees:
        scope(rel, (rel, 1, "<module>"), tree.body, not rel.startswith("src"))
    return scopes


def line_count(keys: Iterable[Key], spans: Dict[Key, Tuple[int, int]]) -> int:
    """Distinct source lines inside the defs ``keys`` name."""
    lines = set()
    for key in keys:
        first, last = spans[key]
        lines.update((key[0], line) for line in range(first, last + 1))
    return len(lines)


# ----------------------------------------------------------------------
# Public names
# ----------------------------------------------------------------------
def packages() -> List[str]:
    return sorted(
        ".".join(path.parent.relative_to(SRC).parts)
        for path in (SRC / "repro").rglob("__init__.py")
    )


def public_names() -> Dict[str, List[str]]:
    sys.path.insert(0, str(SRC))
    return {package: sorted(importlib.import_module(package).__all__) for package in packages()}


def own_method_keys(cls: type, trees: Dict[str, ast.Module]) -> Optional[Set[Key]]:
    """Keys of every def in ``cls``'s body, or ``None`` for a class not
    defined in ``src`` (a typing construct, a builtin)."""
    try:
        rel = str(pathlib.Path(inspect.getsourcefile(cls)).resolve().relative_to(ROOT))
    except (TypeError, ValueError):
        return None
    tree, parts = trees.get(rel), cls.__qualname__.split(".")
    node = tree
    for part in parts:
        node = next(
            (n for n in getattr(node, "body", []) if isinstance(n, ast.ClassDef) and n.name == part),
            None,
        )
        if node is None:
            return None
    return {
        (rel, first_line(n), n.name)
        for n in ast.walk(node)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def reached(obj, name: str, ran: Set[Key], loaded: Set[str], trees) -> bool:
    obj = inspect.unwrap(obj) if inspect.isfunction(obj) else obj
    if inspect.isfunction(obj):
        code = obj.__code__
        rel = str(pathlib.Path(code.co_filename).resolve().relative_to(ROOT))
        return (rel, code.co_firstlineno, code.co_name) in ran
    if inspect.isclass(obj):
        methods = own_method_keys(obj, trees)
        if methods and methods & ran:
            return True
    return name in loaded


# ----------------------------------------------------------------------
# The appendix
# ----------------------------------------------------------------------
def classify(product: Set[Key], tests: Set[Key]) -> dict:
    src_trees = list(source_files("src/repro"))
    spans = functions(src_trees)
    scopes = loads(src_trees + list(source_files("examples", "benchmarks", "tools", "tests")))

    def loaded_by(ran: Set[Key]) -> Set[str]:
        return set().union(*(scopes.get(key, set()) for key in ran))

    product_loads, test_loads = loaded_by(product), loaded_by(tests | product)
    by_rel = dict(src_trees)
    names = {}
    for package, exported in public_names().items():
        module = importlib.import_module(package)
        for name in exported:
            obj = getattr(module, name)
            if reached(obj, name, product, product_loads, by_rel):
                names[(package, name)] = "product"
            elif reached(obj, name, tests | product, test_loads, by_rel):
                names[(package, name)] = "tests"
            else:
                names[(package, name)] = "none"
    defs = set(spans)
    test_only = (defs & tests) - product
    neither = defs - tests - product
    return {
        "functions": len(defs),
        "product": len(defs & product),
        "test_only": sorted(test_only),
        "test_only_lines": line_count(test_only, spans),
        "neither": sorted(neither),
        "neither_lines": line_count(neither, spans),
        "names": names,
    }


def current_appendix() -> str:
    text = DESIGN.read_text()
    return text.split(f"\n{HEADING}\n", 1)[1] if f"\n{HEADING}\n" in text else ""


def user_lines(appendix: str) -> Dict[Tuple[str, str], str]:
    """The hand-written *user* column of §17's table."""
    users = {}
    for row in re.findall(r"^\| `([\w.]+)` \| `(\w+)` \| \w+ \| (.*) \|$", appendix, re.M):
        users[(row[0], row[1])] = row[2].strip()
    return users


def render(result: dict, users: Dict[Tuple[str, str], str]) -> str:
    names = result["names"]
    count = collections.Counter(names.values())
    lines = [
        "",
        "Generated by `python tools/ledger.py` from the traffic it records",
        "(its docstring says how); only the *user* column is written by hand.",
        "`python tools/ledger.py --check` re-runs the traffic and fails when a",
        "public name product traffic does not reach has no row here, or a row",
        "here names one it does reach; `tests/test_design_invariants.py`",
        "fails when a package's `__all__` gains a name this section does not",
        "classify.  Product traffic: the four `BENCHMARK.json` workloads, the",
        "`examples/` scripts, each CLI verb once, every paper-shape script's",
        "`run()` and the five mechanism benches.  Test traffic: the tier-1",
        "suite.",
        "",
        f"- functions in `src/repro`: {result['functions']}",
        f"- reached by product traffic: {result['product']}",
        f"- reached only by the tier-1 suite: {len(result['test_only'])} "
        f"({result['test_only_lines']} lines)",
        f"- reached by neither: {len(result['neither'])} ({result['neither_lines']} lines)",
        f"- public names (the packages' `__all__`): {len(names)}, of which product "
        f"traffic reaches {count['product']}, only tests {count['tests']}, neither {count['none']}",
        "",
        "### Public names product traffic reaches",
        "",
    ]
    by_package = collections.defaultdict(list)
    for (package, name), reach in sorted(names.items()):
        if reach == "product":
            by_package[package].append(f"`{name}`")
    for package, listed in sorted(by_package.items()):
        lines.extend(
            textwrap.wrap(
                f"- `{package}` ({len(listed)}): " + ", ".join(listed),
                width=72,
                subsequent_indent="  ",
                break_on_hyphens=False,
            )
        )
    lines += [
        "",
        "### Public names product traffic does not reach",
        "",
        "| package | name | reached by | user |",
        "|---|---|---|---|",
    ]
    for (package, name), reach in sorted(names.items()):
        if reach != "product":
            user = users.get((package, name), "TODO: name its user")
            lines.append(f"| `{package}` | `{name}` | {reach} | {user} |")
    return "\n".join(lines) + "\n"


def problems(result: dict, appendix: str) -> List[str]:
    users = user_lines(appendix)
    found = []
    for (package, name), reach in sorted(result["names"].items()):
        listed = (package, name) in users
        if reach != "product" and not listed:
            found.append(f"{package}.{name}: product traffic does not reach it and §17 has no row")
        elif reach != "product" and users[(package, name)].startswith("TODO"):
            found.append(f"{package}.{name}: its §17 row names no user")
        elif reach == "product" and listed:
            found.append(f"{package}.{name}: product traffic reaches it; §17 says it does not")
    return found


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="do not rewrite DESIGN.md; exit 1 if its §17 is out of date",
    )
    args = parser.parse_args(argv)
    temp = pathlib.Path(tempfile.mkdtemp(prefix="ledger-"))
    try:
        recorder_dir = temp / "recorder"
        recorder_dir.mkdir()
        (recorder_dir / "sitecustomize.py").write_text(RECORDER)
        product, tests = Traffic("product", temp, recorder_dir), Traffic("tests", temp, recorder_dir)
        run_product(product)
        run_tests(tests)
        result = classify(product.keys(), tests.keys())
    finally:
        shutil.rmtree(temp, ignore_errors=True)
    for failure in product.failures + tests.failures:
        log(f"traffic failed: {failure}")
    log(f"{len(result['test_only'])} functions only the tier-1 suite reaches:")
    for rel, line, name in result["test_only"]:
        log(f"  {rel}:{line} {name}")
    appendix = current_appendix()
    if args.check:
        found = problems(result, appendix)
        for problem in found:
            log(problem)
        return 1 if found else 0
    text = DESIGN.read_text()
    body = render(result, user_lines(appendix))
    if f"\n{HEADING}\n" in text:
        text = text.split(f"\n{HEADING}\n", 1)[0]
    DESIGN.write_text(text.rstrip("\n") + f"\n\n{HEADING}\n{body}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
