"""The reachability ledger (``tools/ledger.py``): its recorder counts a
function as reached when its code ran, whether or not its call returned,
and its knob census counts a knob as set by the traffic that ran a call
passing it."""

import ast
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


# ----------------------------------------------------------------------
# Knob census
# ----------------------------------------------------------------------
CENSUS_SRC = textwrap.dedent(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ToyConfig:
        size: int
        rate: float = 0.1
        depth: int = 2
        width: int = 3

    @dataclass
    class ToyRecord:
        value: float = 0.0

    class Engine:
        def __init__(self, config, seed=0, clock=None):
            self.config = config
    """
)


def census(caller: str, ran_by: str = "product"):
    """The census of ``CENSUS_SRC`` when the traffic ``ran_by`` ran one
    function, ``caller``'s body, in a benchmark script."""
    ledger = load_ledger()
    source = "from dataclasses import replace\n\ndef caller(values, config):\n    " + caller
    trees = [("src/repro/toy.py", ast.parse(CENSUS_SRC))]
    other = [("benchmarks/script.py", ast.parse(source))]
    ran = {("benchmarks/script.py", 3, "caller")}
    product, tests = (ran, set()) if ran_by == "product" else (set(), ran)
    return {knob: reach for knob, reach in ledger.census(trees, other, product, tests).items()
            if knob[0] in ("field", "init")}


@pytest.mark.parametrize(
    "caller, set_knobs",
    [
        ("ToyConfig(1, rate=0.2)", {"ToyConfig.rate"}),
        ("ToyConfig(1, 0.2, 4)", {"ToyConfig.rate", "ToyConfig.depth"}),
        ("Engine(**values)", {"Engine.seed", "Engine.clock"}),
        ("replace(config, width=5)", {"ToyConfig.width"}),
    ],
    ids=["keyword", "positional", "mapping", "replace"],
)
def test_a_call_sets_the_knobs_it_passes(caller, set_knobs):
    found = census(caller)
    assert {name for (_, name), reach in found.items() if reach == "product"} == set_knobs
    assert set(found.values()) <= {"product", "none"}


def test_a_call_only_tests_ran_sets_its_knobs_for_tests():
    found = census("Engine(config, seed=3)", ran_by="tests")
    assert found[("init", "Engine.seed")] == "tests"
    assert found[("init", "Engine.clock")] == "none"


def test_a_record_dataclass_is_no_knob():
    found = census("ToyRecord(value=1.0)")
    assert not any(name.startswith("ToyRecord.") for _, name in found)
    assert {name for _, name in found} == {
        "ToyConfig.rate", "ToyConfig.depth", "ToyConfig.width", "Engine.seed", "Engine.clock",
    }


def test_a_knob_product_traffic_does_not_set_needs_a_kept_reason():
    ledger = load_ledger()
    knobs = {
        ("init", "Engine.seed"): "product",
        ("init", "Engine.clock"): "tests",
        ("field", "ToyConfig.rate"): "none",
        ("field", "ToyConfig.depth"): "none",
    }
    appendix = "\n".join([
        "| kind | knob | set by | reason |",
        "|---|---|---|---|",
        "| init | `Engine.clock` | tests | fake: a test substitutes a frozen clock |",
        "| field | `ToyConfig.rate` | none | TODO: give a kept reason |",
    ])
    found = ledger.problems({"names": {}, "knobs": knobs}, appendix)
    assert found == [
        "field ToyConfig.depth: product traffic does not set it; §17 gives no kept reason",
        "field ToyConfig.rate: product traffic does not set it; §17 gives no kept reason",
    ]


LITERAL_CLI = textwrap.dedent(
    """
    def main(parser):
        parser.add_argument("--toy-steps", type=int)
        parser.add_argument("--toy-seed", type=int)
        parser.add_argument("--toy-cache", action="store_true")
    """
)

LITERAL_SRC = textwrap.dedent(
    """
    import os

    TOY_ENV = "REPRO_TOY"

    def run(telemetry, trace):
        telemetry.counter("toy.steps").inc()
        trace.record("toy.trace", 1.0)
        return os.environ.get(TOY_ENV)

    def idle(telemetry):
        telemetry.gauge("toy.depth").set(1)
        return os.environ.get("REPRO_IDLE")
    """
)


def literal_census(product_fns, product_argv=(), test_fns=()):
    """The flag, env and metric knobs of ``LITERAL_CLI`` / ``LITERAL_SRC``
    when product traffic ran ``product_fns`` of ``toy.py`` and passed
    ``product_argv``, and the tests ran ``test_fns``."""
    ledger = load_ledger()
    trees = [
        ("src/repro/cli.py", ast.parse(LITERAL_CLI)),
        ("src/repro/toy.py", ast.parse(LITERAL_SRC)),
    ]
    lines = {node.name: ledger.first_line(node) for node in trees[1][1].body
             if isinstance(node, ast.FunctionDef)}
    product = {("src/repro/toy.py", lines[name], name) for name in product_fns}
    tests = {("src/repro/toy.py", lines[name], name) for name in test_fns}
    found = ledger.census(trees, [], product, tests, product_argv)
    return {knob: reach for knob, reach in found.items() if knob[0] in ("flag", "env", "metric")}


def test_a_flag_is_set_by_the_argv_that_passes_it():
    """``--x=1`` passes ``--x`` and ``--no-x`` passes a boolean ``--x``;
    a flag no argv passes is set by nobody."""
    found = literal_census([], product_argv=["--toy-steps=3", "--no-toy-cache", "serve"])
    assert {name: reach for (kind, name), reach in found.items() if kind == "flag"} == {
        "--toy-steps": "product", "--toy-cache": "product", "--toy-seed": "none",
    }


def test_a_metric_or_env_literal_is_set_by_the_traffic_that_ran_it():
    """A metric name or ``REPRO_*`` variable counts as set by a traffic
    when a function it ran holds the literal, or the module constant
    bound to it."""
    found = literal_census(["run"], test_fns=["idle"])
    assert {knob: reach for knob, reach in found.items() if knob[0] != "flag"} == {
        ("metric", "toy.steps"): "product",
        ("metric", "toy.trace"): "product",
        ("env", "REPRO_TOY"): "product",
        ("metric", "toy.depth"): "tests",
        ("env", "REPRO_IDLE"): "tests",
    }


def ledger_result(test_only, neither):
    """A ``classify`` result over one file's functions, with one public
    name and two knobs product traffic does not reach or set."""
    rel = "src/repro/toy.py"
    return {
        "functions": 5,
        "product": 5 - len(test_only) - len(neither),
        "test_only": [((rel, line, name), name) for line, name in test_only],
        "test_only_lines": 2 * len(test_only),
        "neither": [((rel, line, name), name) for line, name in neither],
        "neither_lines": 2 * len(neither),
        "names": {("repro.toy", "Engine"): "product", ("repro.toy", "helper"): "tests"},
        "knobs": {
            ("field", "ToyConfig.rate"): "product",
            ("field", "ToyConfig.depth"): "none",
            ("init", "Engine.clock"): "tests",
        },
    }


def test_a_rewrite_keeps_the_hand_written_columns():
    """Rendering §17 over its own output changes nothing: the *user* and
    *reason* columns, the earlier commits' counts and the kept list are
    carried over, and a row nobody wrote yet asks for one."""
    ledger = load_ledger()
    result = ledger_result(test_only=[(3, "helper")], neither=[(9, "unused")])
    first = ledger.render(result, "")
    assert "| `repro.toy` | `helper` | tests | TODO: name its user |" in first
    assert "| field | `ToyConfig.depth` | none | TODO: give a kept reason |" in first
    written = (
        first.replace("TODO: name its user", "a test's fixture")
        .replace("`ToyConfig.depth` | none | TODO: give a kept reason",
                 "`ToyConfig.depth` | none | shape: the toy's depth")
        .replace("- set by product traffic:", "- at `abc1234`: 4 knobs\n- set by product traffic:")
        + f"\n{ledger.KEPT}\n\n- `helper`: the fixture's builder.\n"
    )
    second = ledger.render(result, written)
    assert "| `repro.toy` | `helper` | tests | a test's fixture |" in second
    assert "| field | `ToyConfig.depth` | none | shape: the toy's depth |" in second
    assert "| init | `Engine.clock` | tests | TODO: give a kept reason |" in second
    assert second == ledger.render(result, second)
    assert second.endswith(f"{ledger.KEPT}\n\n- `helper`: the fixture's builder.\n")
    assert "- at `abc1234`: 4 knobs" in second


def test_a_stale_function_list_is_not_what_the_ledger_writes():
    """``--check`` fails on a §17 that is not what ``render`` writes, so a
    function that moved between the test-only and neither lists, or a
    changed count, makes it fail."""
    ledger = load_ledger()
    before = ledger.render(ledger_result(test_only=[(3, "helper")], neither=[(9, "unused")]), "")
    after = ledger.render(ledger_result(test_only=[], neither=[(3, "helper"), (9, "unused")]), "")
    assert "- reached only by the tier-1 suite: 1 (2 lines)" in before
    assert "- reached only by the tier-1 suite: 0 (0 lines)" in after
    assert "- `toy.py` (1): `helper`" in before
    assert "- `toy.py` (2): `helper`, `unused`" in after
    assert before != after
