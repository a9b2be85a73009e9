"""The reachability ledger: what in ``src/repro`` only the tests reach,
and which of its knobs only the tests set.

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
The knob census is static: it reads the call sites in the scopes each
traffic ran (``census`` says what a knob is and when a call sets it), so
it adds no recorder and no run time.

DESIGN.md §17 lists the counts, the public names product traffic
reaches, and every public name it does not, each with a line naming its
user; the knobs product traffic sets, and every knob it does not, each
with its kept reason; and the functions only the tests reach or neither
traffic reaches.  The *user* and *reason* columns are written by hand
and kept across rewrites, as are the knob counts of earlier commits and
the closing list of the test-only functions kept, with the reason each
is kept.  ``--check`` fails when §17 differs from what a rewrite would
write, or when a row lacks its user or kept reason.
``tests/test_design_invariants.py`` fails when a package's ``__all__``
gains a name, or a configuration dataclass, a constructor or ``cli.py``
a knob, that §17 does not classify.
"""

from __future__ import annotations

import argparse
import ast
import collections
import difflib
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
KEPT = "### Test-only functions kept"

#: (relative path, first line, name): how a code object is recorded
Key = Tuple[str, int, str]

RECORDER = '''
import atexit, cProfile, json, os, sys, tempfile, threading

_out = os.environ.get("LEDGER_OUT")
if _out:
    _root = os.environ["LEDGER_ROOT"]
    _pid = os.getpid()
    _profiles = []

    def _start():
        profile = cProfile.Profile()
        profile.enable()
        _profiles.append(profile)

    def _in_new_thread(frame, event, arg):
        sys.setprofile(None)
        _start()

    def _dump():
        # a run whose main thread stopped recording would classify what
        # it ran afterwards as unreached: say so, so the run is not trusted
        if os.getpid() == _pid and threading.current_thread() is threading.main_thread() and (
            sys.getprofile() is not _profiles[0]
        ):
            sys.stderr.write("ledger: the main thread's profile hook was replaced\\n")
        # getstats() counts a call only once it returns: what is still on
        # a thread's stack (a daemon thread's loop, the caller of
        # os._exit) is read from the frames themselves
        codes = [entry.code for profile in list(_profiles) for entry in profile.getstats()]
        for frame in sys._current_frames().values():
            while frame is not None:
                codes.append(frame.f_code)
                frame = frame.f_back
        seen = set()
        for code in codes:
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
        for line in done.stderr.splitlines():
            if line.startswith("ledger:"):
                self.failures.append(f"{label}: {line}")
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

    # worker: a specialization of the artifact above bound for external
    # workers, and two that dial in.  It scores remotely (a training
    # search computes in process and would never wait for a worker), and
    # is long enough for the second to link before it ends.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % probe.getsockname()[1]

    def parse_address(text: str) -> Tuple[str, int]:
        host, port = text.rsplit(":", 1)
        return host, int(port)

    log("[product] repro worker (x2, against a distributed specialization)")
    controller = traffic.start(
        ["-m", "repro", "specialize", "--artifact", "artifact", "--platform", "tpu_v4",
         "--steps", "60", "--backend", "distributed", "--workers", "2"],
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
            traffic.failures.append(
                f"repro worker/distributed specialization: exit {process.returncode}"
            )

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
        # cancel a job once it has stepped, so the cancel always stops a
        # running search
        slow = json.loads(
            repro("submit (to cancel)", "submit", "--spool", str(spool), "--steps", "200",
                  "--step-sleep-s", "0.05")
        )
        deadline = time.monotonic() + 120.0
        while True:
            record = json.loads(repro("status", "status", "--spool", str(spool), slow["job_id"]))
            if record["state"] == "running" and record["progress"] >= 1:
                break
            if time.monotonic() > deadline:
                traffic.failures.append(f"status: {slow['job_id']} did not start stepping")
                break
            time.sleep(0.2)
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


class Scope:
    """What one code object runs: its nodes (a nested def or class body
    is a scope of its own; its decorators, defaults and bases are
    evaluated here), whether it is a function, and the class whose
    methods it sits in (``cls``, ``super()`` and ``self`` resolve to it).
    """

    def __init__(self, owner: Optional[str], is_def: bool):
        self.owner = owner
        self.is_def = is_def
        self.nodes: List[ast.AST] = []


def scopes(trees) -> Dict[Key, Scope]:
    """Every scope of ``trees``, keyed like the code object that runs
    it.  Imports and annotations are no part of any."""
    found: Dict[Key, Scope] = {}

    def walk(key: Key, body: List[ast.AST], owner: Optional[str], is_def: bool) -> None:
        scope = found.setdefault(key, Scope(owner, is_def))
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_class = isinstance(node, ast.ClassDef)
                inner = (key[0], first_line(node), node.name)
                walk(inner, node.body, node.name if is_class else owner, not is_class)
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
            scope.nodes.append(node)
            if isinstance(node, ast.AnnAssign):
                stack.append(node.target)
                if node.value is not None:
                    stack.append(node.value)
                continue
            stack.extend(ast.iter_child_nodes(node))

    for rel, tree in trees:
        walk((rel, 1, "<module>"), tree.body, None, False)
    return found


def loads(trees) -> Dict[Key, Set[str]]:
    """The names each scope loads — ``Name`` loads and attribute names.
    The module and class bodies of ``src`` run at import, which reaches
    nothing: what they load is not counted."""
    return {
        key: {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in scope.nodes
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)
        }
        for key, scope in scopes(trees).items()
        if scope.is_def or not key[0].startswith("src")
    }


def line_count(keys: Iterable[Key], spans: Dict[Key, Tuple[int, int]]) -> int:
    """Distinct source lines inside the defs ``keys`` name."""
    lines = set()
    for key in keys:
        first, last = spans[key]
        lines.update((key[0], line) for line in range(first, last + 1))
    return len(lines)


# ----------------------------------------------------------------------
# Knob census
# ----------------------------------------------------------------------
#: The kinds of knob, in the order §17 lists them.
KNOB_KINDS = ("field", "init", "flag", "env", "verb", "message", "metric")
#: What a knob product traffic does not set may be kept for: the first
#: word of its §17 reason.
KNOB_REASONS = ("deployment", "shape", "fake", "reported", "open item")
#: A dataclass named so (or ``JobSpec``) is configuration; any other is
#: a record, whose fields are data.
CONFIG_SUFFIXES = ("Config", "Policy", "Calibration")
#: The service job link's message types (``service/jobs.py``), which no
#: table declares.
JOB_LINK_MESSAGES = ("step", "done", "stopped", "failed", "stop")
METRIC_CALLS = ("counter", "gauge", "histogram", "event", "span")
ENV_VAR = re.compile(r"REPRO_[A-Z][A-Z0-9_]*")

#: ``(kind, name)``: ``("field", "SearchConfig.steps")``, ``("flag", "--seed")``
Knob = Tuple[str, str]
#: One constructor parameter: name, whether a positional argument
#: reaches it, and the knob it sets (``None``: it has no default, or it
#: is a record's field).
Param = Tuple[str, bool, Optional[Knob]]


def _named(node: ast.AST) -> Optional[str]:
    """``X`` for ``X`` and ``a.b.X``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _named(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _fields(node: ast.ClassDef) -> List[Tuple[str, bool]]:
    """A dataclass body's ``__init__`` fields: (name, has a default)."""
    found = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _named(value.func) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if isinstance(options.get("init"), ast.Constant) and not options["init"].value:
                continue
            found.append((item.target.id, "default" in options or "default_factory" in options))
        else:
            found.append((item.target.id, value is not None))
    return found


class Constructors:
    """Every class in ``src``: how a call to it maps its arguments to
    knobs.  A defaulted field of a configuration dataclass is a knob, and
    so is a defaulted ``__init__`` parameter of any other class; a class
    with neither its own fields nor its own ``__init__`` takes its first
    base's."""

    def __init__(self, src_trees):
        self.bases: Dict[str, List[str]] = {}
        self._own: Dict[str, Optional[List[Param]]] = {}
        self.dataclasses: Set[str] = set()
        for _rel, tree in src_trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self._index(node)

    def _index(self, node: ast.ClassDef) -> None:
        name = node.name
        self.bases[name] = [b for b in map(_named, node.bases) if b]
        init = next(
            (n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
            None,
        )
        if init is not None:
            args = init.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
            params = [
                (arg.arg, True, ("init", f"{name}.{arg.arg}") if default is not None else None)
                for arg, default in zip(positional[1:], defaults[1:])
            ] + [
                (arg.arg, False, ("init", f"{name}.{arg.arg}") if default is not None else None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            ]
        elif _is_dataclass(node):
            self.dataclasses.add(name)
            config = name.endswith(CONFIG_SUFFIXES) or name == "JobSpec"
            params = [
                (field, True, ("field", f"{name}.{field}") if config and default else None)
                for field, default in _fields(node)
            ]
        else:
            params = None
        self._own[name] = params

    def params(self, name: str, seen: Tuple[str, ...] = ()) -> List[Param]:
        """``name``'s constructor parameters in call order (a dataclass's
        inherited fields first)."""
        own = self._own.get(name)
        if name in seen or name not in self._own:
            return []
        inherited = [p for base in self.bases[name][:1] for p in self.params(base, seen + (name,))]
        if own is None:
            return inherited
        if name in self.dataclasses:
            names = {p[0] for p in own}
            return [p for p in inherited if p[0] not in names] + own
        return own

    def knobs(self) -> Set[Knob]:
        return {p[2] for name in self._own for p in self._own[name] or () if p[2]}

    def fields_named(self, field: str) -> Set[Knob]:
        """``field`` on every dataclass that has it."""
        return {p[2] for name in self.dataclasses for p in self.params(name) if p[0] == field and p[2]}


def _constructed(call: ast.Call, owner: Optional[str], classes: Constructors):
    """``(class, leading arguments that are not its parameters)`` for a
    call that constructs or initialises a class in ``src``."""
    func = call.func
    name = _named(func)
    if name in classes.bases:
        return name, 0
    if owner is not None and (
        name == "cls"
        or (isinstance(func, ast.Call) and _named(func.func) == "type")  # type(self)(...)
    ):
        return owner, 0
    if name == "__init__" and isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Call) and _named(value.func) == "super" and owner is not None:
            return next(iter(classes.bases.get(owner, [])), None), 0
        if _named(value) in classes.bases:
            return _named(value), 1  # Base.__init__(self, ...)
    return None, 0


def _passed(call: ast.Call, params: List[Param], skip: int) -> Set[Optional[Knob]]:
    """The knobs a call passes, by position, keyword or ``**mapping``."""
    positional = [p for p in params if p[1]]
    passed = set()
    for index, arg in enumerate(call.args[skip:]):
        if isinstance(arg, ast.Starred):
            passed.update(p[2] for p in positional[index:])
            break
        if index < len(positional):
            passed.add(positional[index][2])
    for keyword in call.keywords:
        passed.update(p[2] for p in params if keyword.arg is None or p[0] == keyword.arg)
    return passed


def _is_replace(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Name) and func.id == "replace") or (
        isinstance(func, ast.Attribute)
        and func.attr == "replace"
        and _named(func.value) == "dataclasses"
    )


def _cli_flags(tree: ast.Module) -> Set[str]:
    """Every flag ``cli.py`` declares: ``add_argument`` calls and the
    keys of ``SPEC_FLAGS``."""
    flags = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _named(node.func) == "add_argument":
            flags.update(
                arg.value for arg in node.args
                if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
            )
        elif isinstance(node, ast.Assign) and any(_named(t) == "SPEC_FLAGS" for t in node.targets):
            flags.update(key.value for key in node.value.keys)
    return flags


def _declared(tree: ast.Module, names: Sequence[str]) -> Set[str]:
    """The string elements (or keys) of the module constants ``names``."""
    found = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(_named(t) in names for t in targets if t is not None) and node.value is not None:
            elements = node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts
            found.update(e.value for e in elements if isinstance(e, ast.Constant))
    return found


def _strings(nodes: Iterable[ast.AST]) -> Set[str]:
    return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _flags_in(strings: Iterable[str], flags: Set[str]) -> Set[str]:
    """The flags of ``flags`` that argv ``strings`` pass (``--x=1`` passes
    ``--x``, and ``--no-x`` a boolean ``--x``)."""
    passed = set()
    for text in strings:
        flag = text.split("=", 1)[0]
        if flag.startswith("--no-") and flag not in flags:
            flag = "--" + flag[len("--no-"):]
        if flag in flags:
            passed.add(flag)
    return passed


def _is_metric_call(node: ast.Call) -> bool:
    """A ``counter`` / ``gauge`` / ``histogram`` / ``event`` / ``span`` /
    ``trace.record`` call with a first argument."""
    func = node.func
    return bool(node.args) and isinstance(func, ast.Attribute) and (
        func.attr in METRIC_CALLS or (func.attr == "record" and _named(func.value) == "trace")
    )


def _metric_wrappers(trees) -> Set[str]:
    """Functions that pass their first parameter (after ``self``) on as a
    metric call's first argument: ``def _count(self, name): ...
    telemetry.counter(name)``.  A call to one names a metric too."""
    wrappers = set()
    for _rel, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            params = params[1:] if params[:1] in (["self"], ["cls"]) else params
            if params and any(
                isinstance(call, ast.Call) and _is_metric_call(call)
                and _named(call.args[0]) == params[0] and isinstance(call.args[0], ast.Name)
                for call in ast.walk(node)
            ):
                wrappers.add(node.name)
    return wrappers


def _metric_names(nodes: Iterable[ast.AST], wrappers: Set[str] = frozenset()) -> Set[str]:
    """Literal first arguments of metric calls (:func:`_is_metric_call`)
    and of calls to the one-level ``wrappers`` around them."""
    found = set()
    for node in nodes:
        if not (isinstance(node, ast.Call) and node.args):
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue
        if _is_metric_call(node) or _named(node.func) in wrappers:
            found.add(first.value)
    return found


def census(
    src_trees,
    other_trees,
    product: Set[Key],
    tests: Set[Key],
    product_argv: Iterable[str] = (),
) -> Dict[Knob, str]:
    """Every knob in ``src_trees`` -> ``"product"``, ``"tests"`` or
    ``"none"``: which traffic sets it.

    A traffic sets a field or ``__init__`` knob when a scope it ran
    passes it to the constructor — by keyword, by position, through
    ``**mapping`` (every parameter) or through ``dataclasses.replace``
    (the field on every dataclass that has it).  It sets a flag when a
    scope it ran outside ``cli.py`` holds the flag's literal (product
    traffic also passes ``product_argv``), and an environment variable,
    verb, message type or metric name (a metric call's, or a one-level
    wrapper's, first argument) when a function in ``src`` it ran holds
    the literal, or names the module constant bound to it.  A ``JobSpec``
    field that ``SPEC_FLAGS`` gives a flag is set by product traffic only
    when it sets that flag: ``cli.py`` builds the spec from every flag a
    verb declares, passed or not.
    """
    classes = Constructors(src_trees)
    by_rel = collections.defaultdict(lambda: ast.Module(body=[], type_ignores=[]), src_trees)
    knobs: Set[Knob] = set(classes.knobs())
    flags = _cli_flags(by_rel["src/repro/cli.py"])
    knobs.update(("flag", flag) for flag in flags)
    literal_kinds = {
        "verb": _declared(by_rel["src/repro/service/protocol.py"], ["VERBS"]),
        "message": _declared(
            by_rel["src/repro/core/engine/transport.py"], ["TO_WORKER", "TO_CONTROLLER"]
        ) | set(JOB_LINK_MESSAGES),
        "env": set(),
        "metric": set(),
    }
    aliases: Dict[str, str] = {}  # module constant -> the env var it holds
    all_scopes = scopes(list(src_trees) + list(other_trees))
    wrappers = _metric_wrappers(src_trees)
    for key, scope in all_scopes.items():
        if not key[0].startswith("src"):
            continue
        literal_kinds["metric"] |= _metric_names(scope.nodes, wrappers)
        for text in _strings(scope.nodes):
            if ENV_VAR.fullmatch(text):
                literal_kinds["env"].add(text)
        if key[2] == "<module>":
            for node in scope.nodes:
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str) and ENV_VAR.fullmatch(node.value.value)):
                    aliases.update((_named(t), node.value.value) for t in node.targets if _named(t))
    for kind, names in literal_kinds.items():
        knobs.update((kind, name) for name in names)

    def set_in(key: Key, scope: Scope) -> Set[Knob]:
        found: Set[Optional[Knob]] = set()
        for node in scope.nodes:
            if not isinstance(node, ast.Call):
                continue
            if _is_replace(node):
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        found |= classes.fields_named(keyword.arg)
                    elif node.args and _named(node.args[0]) == "self" and scope.owner:
                        found.update(p[2] for p in classes.params(scope.owner))
                continue
            name, skip = _constructed(node, scope.owner, classes)
            if name is not None:
                found |= _passed(node, classes.params(name), skip)
        strings = _strings(scope.nodes)
        if key[0] != "src/repro/cli.py":
            declared = _strings(  # another parser's flags of the same name
                arg for node in scope.nodes
                if isinstance(node, ast.Call) and _named(node.func) == "add_argument"
                for arg in node.args
            )
            found.update(("flag", flag) for flag in _flags_in(strings - declared, flags))
        if key[0].startswith("src") and scope.is_def:
            strings |= {aliases[_named(n)] for n in scope.nodes if _named(n) in aliases}
            for kind in ("env", "verb", "message", "metric"):
                found.update((kind, text) for text in strings & literal_kinds[kind])
        return {knob for knob in found if knob in knobs}

    def set_by(ran: Set[Key]) -> Set[Knob]:
        return set().union(*(set_in(key, all_scopes[key]) for key in ran if key in all_scopes))

    by_product = set_by(product) | {("flag", flag) for flag in _flags_in(product_argv, flags)}
    spec_flags = _declared(by_rel["src/repro/cli.py"], ["SPEC_FLAGS"])
    by_product -= {
        ("field", f"JobSpec.{flag[2:].replace('-', '_')}")
        for flag in spec_flags
        if ("flag", flag) not in by_product
    }
    by_tests = set_by(tests) | by_product
    return {
        knob: "product" if knob in by_product else "tests" if knob in by_tests else "none"
        for knob in knobs
    }


def cli_argv() -> Set[str]:
    """The string literals of this file's ``run_cli_verbs``: the product
    traffic's argv."""
    tree = ast.parse(pathlib.Path(__file__).read_text())
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_cli_verbs")
    return _strings(ast.walk(body))


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
def qualnames(trees) -> Dict[Key, str]:
    """Every def's dotted name in its module: ``Class.method``."""
    found = {}

    def walk(rel: str, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    found[(rel, first_line(child), child.name)] = prefix + child.name
                walk(rel, child, prefix + child.name + ".")
            else:
                walk(rel, child, prefix)

    for rel, tree in trees:
        walk(rel, tree, "")
    return found


def classify(product: Set[Key], tests: Set[Key]) -> dict:
    src_trees = list(source_files("src/repro"))
    other_trees = list(source_files("examples", "benchmarks", "tools", "tests"))
    spans = functions(src_trees)
    scopes = loads(src_trees + other_trees)

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
    dotted = qualnames(src_trees)
    return {
        "functions": len(defs),
        "product": len(defs & product),
        "test_only": [(key, dotted[key]) for key in sorted(test_only)],
        "test_only_lines": line_count(test_only, spans),
        "neither": [(key, dotted[key]) for key in sorted(neither)],
        "neither_lines": line_count(neither, spans),
        "names": names,
        "knobs": census(src_trees, other_trees, product, tests, cli_argv()),
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


def knob_reasons(appendix: str) -> Dict[Knob, str]:
    """The hand-written *reason* column of §17's knob table."""
    kinds = "|".join(KNOB_KINDS)
    return {
        (kind, name): reason.strip()
        for kind, name, reason in re.findall(
            rf"^\| ({kinds}) \| `([^`]+)` \| \w+ \| (.*) \|$", appendix, re.M
        )
    }


def knob_history(appendix: str) -> List[str]:
    """The hand-written count lines of earlier commits (``- at `abc1234` …``)."""
    return re.findall(r"^- at `[0-9a-f]+`.*$", appendix, re.M)


def has_reason(reason: str) -> bool:
    return reason.startswith(KNOB_REASONS)


def wrapped(label: str, listed: Sequence[str]) -> List[str]:
    return textwrap.wrap(
        f"- {label} ({len(listed)}): " + ", ".join(listed),
        width=72,
        subsequent_indent="  ",
        break_on_hyphens=False,
    )


def render(result: dict, appendix: str) -> str:
    """§17 from ``result``, with the hand-written parts of ``appendix``."""
    users, reasons = user_lines(appendix), knob_reasons(appendix)
    names, knobs = result["names"], result["knobs"]
    count = collections.Counter(names.values())
    lines = [
        "",
        "Generated by `python tools/ledger.py` from the traffic it records",
        "(its docstring says how); only the *user* and *reason* columns, the",
        "knob counts of earlier commits and the closing list of test-only",
        "functions kept are written by hand.",
        "`python tools/ledger.py --check` re-runs the traffic and fails when",
        "this section is not what it would write, or when a public name",
        "product traffic does not reach has no user or a knob it does not",
        "set has no kept reason; `tests/test_design_invariants.py` fails when",
        "a package's `__all__` gains a name, or a configuration dataclass, a",
        "constructor or `cli.py` a knob, this section does not classify.",
        "Product traffic: the four `BENCHMARK.json` workloads, the",
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
        lines.extend(wrapped(f"`{package}`", listed))
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

    order = {kind: index for index, kind in enumerate(KNOB_KINDS)}
    ordered = sorted(knobs.items(), key=lambda item: (order[item[0][0]], item[0][1]))
    kinds = collections.Counter(kind for kind, _ in knobs)
    reach = collections.Counter(knobs.values())
    lines += [
        "",
        "### Knobs",
        "",
        "A knob is a value a user can set: a defaulted field of a `*Config`,",
        "`*Policy` or `*Calibration` dataclass or of `JobSpec` (*field*); a",
        "defaulted `__init__` parameter of any other class (*init*); a",
        "`cli.py` flag; a `REPRO_*` environment variable (*env*); a service",
        "verb; a wire message type; a telemetry metric name (a metric call's",
        "first argument, or that of a one-level wrapper around one).  A",
        "traffic sets a field or parameter when a scope it ran passes it (by",
        "keyword, by position, through `**mapping` or",
        "`dataclasses.replace`), except that product traffic sets a `JobSpec`",
        "field with a `SPEC_FLAGS` flag only by setting that flag; a flag",
        "when a scope it ran, or the product traffic's argv, holds it; any",
        "other knob when a function it ran holds its literal.  A knob product",
        "traffic does not set is a constant unless its row gives a kept",
        "reason, whose first word is one of: *deployment* (a path, socket,",
        "address, quota, or a timeout toward another process), *shape* (the",
        "shape, size or seed of what is searched, trained or simulated),",
        "*fake* (a test substitutes it for code that stays), *reported* (a",
        "flag, verb, message type or metric name, which goes only with what",
        "it drives), *open item* (left to a ROADMAP item).",
        "",
        f"- knobs in `src/repro`: {len(knobs)} ("
        + ", ".join(f"{kind} {kinds[kind]}" for kind in KNOB_KINDS) + ")",
        f"- set by product traffic: {reach['product']}; only by the tier-1 suite: "
        f"{reach['tests']}; by neither: {reach['none']}",
        *knob_history(appendix),
        "",
        "#### Knobs product traffic sets",
        "",
    ]
    for kind in KNOB_KINDS:
        listed = [f"`{name}`" for (k, name), r in ordered if k == kind and r == "product"]
        lines.extend(wrapped(kind, listed) if listed else [])
    lines += [
        "",
        "#### Knobs product traffic does not set",
        "",
        "| kind | knob | set by | reason |",
        "|---|---|---|---|",
    ]
    for (kind, name), r in ordered:
        if r != "product":
            reason = reasons.get((kind, name), "TODO: give a kept reason")
            lines.append(f"| {kind} | `{name}` | {r} | {reason} |")

    for heading, found in (("Functions only the tier-1 suite reaches", result["test_only"]),
                           ("Functions neither traffic reaches", result["neither"])):
        lines += ["", f"### {heading}", ""]
        by_file = collections.defaultdict(list)
        for key, dotted in found:
            by_file[key[0]].append(f"`{dotted}`")
        for rel, listed in sorted(by_file.items()):
            lines.extend(wrapped(f"`{rel[len('src/repro/'):]}`", listed))
    body = "\n".join(lines) + "\n"
    if KEPT in appendix:
        body += "\n" + appendix[appendix.index(KEPT):]
    return body


def problems(result: dict, appendix: str) -> List[str]:
    """What ``--check`` fails on, besides a §17 that is not current."""
    users, reasons = user_lines(appendix), knob_reasons(appendix)
    found = []
    for (package, name), reach in sorted(result["names"].items()):
        user = users.get((package, name))
        if reach != "product" and (user is None or user.startswith("TODO")):
            found.append(f"{package}.{name}: product traffic does not reach it; §17 names no user")
    for (kind, name), reach in sorted(result["knobs"].items()):
        if reach != "product" and not has_reason(reasons.get((kind, name), "")):
            found.append(f"{kind} {name}: product traffic does not set it; §17 gives no kept reason")
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
    for label, keys in (("only the tier-1 suite reaches", result["test_only"]),
                        ("neither traffic reaches", result["neither"])):
        log(f"{len(keys)} functions {label}:")
        for (rel, line, _name), dotted in keys:
            log(f"  {rel}:{line} {dotted}")
    appendix = current_appendix()
    found = problems(result, appendix)
    body = render(result, appendix)
    if args.check:
        stale = list(difflib.unified_diff(
            appendix.splitlines(), body.splitlines(), "DESIGN.md §17", "current", lineterm="", n=0
        ))
        found += ["§17 is not current:"] + stale[:60] if stale else []
        for problem in found:
            log(problem)
        return 1 if found else 0
    for problem in found:
        log(problem)
    text = DESIGN.read_text()
    if f"\n{HEADING}\n" in text:
        text = text.split(f"\n{HEADING}\n", 1)[0]
    DESIGN.write_text(text.rstrip("\n") + f"\n\n{HEADING}\n{body}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
