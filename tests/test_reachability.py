"""Every function and method that ``src/convlab/`` defines runs on a CLI path,
or an entry of ``ALLOWED`` names it with a reason.

A fresh ``python -S`` interpreter sets ``sys.setprofile`` before it imports
convlab, so calls made at import time count and no cache of a warm process
hides a call.  It then runs ``cli.main`` in process on each argument list of
``cli_runs``, with its output discarded, and prints the file, first line and
name of every code object called under ``src/convlab/``.  ``ast`` maps each
call to a qualified name such as ``cube.CubeSample.sequence``: the
``co_firstlineno`` of a decorated def is its first decorator's line, and
Python 3.10 has no ``co_qualname``.  A lambda or a comprehension matches no
def, and a def nested in a function is covered by the def that encloses it.

A def that ``perfbench/tracing.py`` wraps may go unreached without an entry,
since the benchmark calls it by name; the tracer also wraps defs that the CLI
reaches, so a wrapped name is never stale.  Each entry gives one of five
reasons, with evidence that ``test_every_reason_holds`` checks:

- ``benchmark``: a wrapped name through which the benchmark reads the def;
- ``README API``: a phrase of README.md that names it;
- ``planned caller``: the open ROADMAP item that will call it;
- ``failure path`` and ``immutability or repr``: a test that reaches it, as
  ``tests/<file>.py::<name>``, which that file must define.

The gate fails on a def that no run reaches and nothing allows, on an entry
that names no def, and on an entry whose def a run reaches: such an entry is
stale and must be deleted.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import convlab
from convlab.algebra import Carrier
from convlab.convergence import Convergence, lambda_ls
from convlab.topology import synthesize_O_lambda

from test_layering import TRACING, traced_names

SOURCES = Path(convlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

CRITERION_10_FAILURE = "tests/test_cube.py::TestCriterionFailure::test_tampered_law_is_named_with_a_witness"
VALUE_TYPES = "tests/test_algebra.py::TestValueTypes::test_value_semantics"
REPRS = "tests/test_reachability.py::test_repr"
QUERY_MIX = "convergence.Convergence.__call__"

# qualified name -> (reason, evidence)
ALLOWED = {
    # query-mix reads a limit query's frozenset of Element
    "algebra.Element.__init__": ("benchmark", QUERY_MIX),
    "algebra.Element.__repr__": ("benchmark", QUERY_MIX),
    "algebra.Carrier.subset_from_mask": ("benchmark", QUERY_MIX),
    "__init__.__getattr__": ("README API", "`import convlab` reads its topology names from `convlab.topology` on first use"),
    "algebra.liminf": ("README API", "`liminf` and `limsup` return the AND and the OR of the period"),
    "algebra.limsup": ("README API", "`liminf` and `limsup` return the AND and the OR of the period"),
    "algebra.Carrier.up_masks": ("README API", "`Carrier.up_masks`"),
    "algebra.Carrier.down_masks": ("README API", "`Carrier.down_masks`"),
    "seqclass.representative": ("README API", "`representative` lists its set bits as a period"),
    "convergence.Convergence.__init__": ("README API", "`Convergence(carrier, lim1, exceptions=())`"),
    "convergence.Convergence.lim1": ("README API", "`lim1[s]` is the limit set of the singleton class {s}"),
    "topology.discrete": ("README API", "`discrete`, `generate` (from a subbase of open masks)"),
    "convergence._avoiding": ("planned caller", "ROADMAP item 3"),
    "submeasure.ball": ("planned caller", "ROADMAP item 9"),
    "submeasure.halfball_opens": ("planned caller", "ROADMAP item 9"),
    "cube.FCSeq.__init__": ("planned caller", "ROADMAP item 9"),
    "cube.lim_alexandrov_dual": ("planned caller", "ROADMAP item 9"),
    "cube.lim_cantor": ("planned caller", "ROADMAP item 9"),
    "cube.fc_support": ("failure path", CRITERION_10_FAILURE),
    "cube.fc_repr": ("failure path", CRITERION_10_FAILURE),
    "cube._tuple_repr": ("failure path", CRITERION_10_FAILURE),
    "cube.FCSeq.__repr__": ("failure path", CRITERION_10_FAILURE),
    "cube.CubeSample.at": ("failure path", CRITERION_10_FAILURE),
    "cube.CubeSample.sequence": ("failure path", CRITERION_10_FAILURE),
    "report.RelationViolation.__init__": (
        "failure path", "tests/test_acceptance.py::TestRowCriteria::test_tampered_node_names_row_n_and_witness"
    ),
    "algebra.Frozen.__setattr__": ("immutability or repr", VALUE_TYPES),
    "algebra.EPSeq.__repr__": ("immutability or repr", VALUE_TYPES),
    "algebra.Carrier.__repr__": ("immutability or repr", REPRS),
    "convergence.Convergence.__repr__": ("immutability or repr", REPRS),
    "topology.Topology.__repr__": ("immutability or repr", REPRS),
}

# Sets up the profiler, imports the CLI and runs it on each argument list of
# the JSON in the second argument; prints each run's exit code, then one
# "file first-line name" line per code object called under the directory of
# the first argument.
PROBE = """
import contextlib, io, json, sys
source, runs = sys.argv[1], json.loads(sys.argv[2])
calls = set()
def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(source):
        calls.add((code.co_filename[len(source):], code.co_firstlineno, code.co_name))
sys.setprofile(record)
from convlab.cli import main
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(*codes)
for call in sorted(calls):
    print(*call)
"""


def cli_runs(tables: Path) -> list[tuple[int, list[str]]]:
    """(exit code, argument list) of every run, with submeasure tables of
    P(2) written to ``tables``: ``converge`` with each law and ``diagram`` in
    each format at n = 1..3, ``verify`` with and without a loaded table, the
    usage errors of a sequence literal and of an unreadable table, and help."""
    positive, not_monotone = tables / "positive.txt", tables / "not-monotone.txt"
    positive.write_text("0 0\n1 1/2\n2 1\n3 1\n", encoding="utf-8")
    not_monotone.write_text("0 0\n1 1\n2 1\n3 1/2\n", encoding="utf-8")
    runs = [
        (0, ["converge", "--atoms", str(n), "--seq", "[{0};{0},{}]", "--law", law])
        for law in ("ls", "li", "s")
        for n in (1, 2, 3)
    ]
    runs += [(0, ["diagram", "--atoms", str(n), "--format", fmt]) for n in (1, 2, 3) for fmt in ("table", "json", "dot")]
    return runs + [
        (0, ["verify", "--atoms", "3", "--samples", "20"]),
        (0, ["verify", "--atoms", "2", "--submeasure", str(positive)]),
        (1, ["verify", "--atoms", "2", "--submeasure", str(not_monotone)]),
        (2, ["converge", "--atoms", "2", "--seq", "[;{0},]"]),
        (2, ["converge", "--atoms", "2", "--seq", "[;{5}]"]),
        (2, ["verify", "--atoms", "1", "--submeasure", str(tables)]),
        (0, ["--help"]),
        (0, ["converge", "--help"]),
    ]


def source_defs(path: Path) -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualified name of each def in the module
    at ``path`` that no function encloses, its first line the first
    decorator's when it has one."""
    found = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path.name, first, child.name] = f"{prefix}{child.name}"
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def gate(defs: dict[str, str], reached: set[str], allowed: dict, wrapped: set[str]) -> list[str]:
    """The gate's failures, given each def's qualified name -> ``file:line``,
    the names a run reached, the allow-list and the wrapped names."""
    failures = [
        f"{where}: {name} runs on no CLI path and no allow-list entry names it"
        for name, where in defs.items()
        if name not in reached and name not in allowed and name not in wrapped
    ]
    failures += [f"allow-list entry {name} names no def" for name in allowed if name not in defs]
    failures += [f"allow-list entry {name} is stale: a CLI run reaches it" for name in allowed if name in reached]
    return failures


def wrapped_names() -> set[str]:
    """The qualified names of the defs that ``perfbench/tracing.py`` wraps."""
    functions, methods, _ = traced_names(TRACING.read_text(encoding="utf-8"))
    return {f"{m}.{a}" for m, a in functions} | {f"{m}.{cls}.{a}" for m, cls, a in methods}


@pytest.fixture(scope="module")
def reachability(tmp_path_factory):
    """Every def as qualified name -> ``file:line``, and the names the runs
    reached."""
    index = {}
    for path in sorted(SOURCES.glob("*.py")):
        index.update(source_defs(path))
    runs = cli_runs(tmp_path_factory.mktemp("tables"))
    env = dict(os.environ, PYTHONPATH=str(SOURCES.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SOURCES) + os.sep, json.dumps([argv for _, argv in runs])],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    codes, *calls = done.stdout.splitlines()
    assert codes.split() == [str(code) for code, _ in runs]
    reached = set()
    for line in calls:
        name, first, function = line.split()
        if (name, int(first), function) in index:
            reached.add(index[name, int(first), function])
    defs = {qualified: f"src/convlab/{name}:{first}" for (name, first, _), qualified in index.items()}
    return defs, reached


def test_every_def_runs_on_a_cli_path_or_is_allowed(reachability):
    defs, reached = reachability
    assert gate(defs, reached, ALLOWED, wrapped_names()) == []


@pytest.mark.parametrize(
    "change, failure",
    [
        ("unreached def", "src/convlab/cube.py:999: cube.unreached runs on no CLI path and no allow-list entry names it"),
        ("entry without a def", "allow-list entry cube.deleted names no def"),
        ("stale entry", "allow-list entry cli.main is stale: a CLI run reaches it"),
    ],
)
def test_gate_fails(reachability, change, failure):
    defs, reached = reachability
    defs, allowed = dict(defs), dict(ALLOWED)
    if change == "unreached def":
        defs["cube.unreached"] = "src/convlab/cube.py:999"
    elif change == "entry without a def":
        allowed["cube.deleted"] = ("planned caller", "ROADMAP item 9")
    else:
        allowed["cli.main"] = ("README API", "`convlab` entry point")
    assert gate(defs, reached, allowed, wrapped_names()) == [failure]


def test_source_defs_reads_first_lines_and_nesting(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f():\n    def inner():\n        pass\n"
        "class C:\n    @property\n    @staticmethod\n    def g():\n        pass\n"
        "    class D:\n        def h(self):\n            pass\n"
        "if True:\n    k = lambda: 0\n    def m():\n        pass\n",
        encoding="utf-8",
    )
    assert source_defs(path) == {
        ("mod.py", 1, "f"): "mod.f",
        ("mod.py", 5, "g"): "mod.C.g",
        ("mod.py", 10, "h"): "mod.C.D.h",
        ("mod.py", 14, "m"): "mod.m",
    }


def defines(test: str) -> bool:
    """Whether the file of ``tests/<file>.py::<name>[::<name>]`` defines
    that name, a class and then a function in it."""
    path, *names = test.split("::")
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def unmet(allowed: dict, readme: str, roadmap: str, wrapped: set[str]) -> list[str]:
    """The allow-list entries whose evidence does not hold."""
    readme = " ".join(readme.split())
    open_items = set(re.findall(r"^### (\d+)\. ", roadmap, re.M))
    checks = {
        "benchmark": lambda evidence: evidence in wrapped,
        "README API": lambda evidence: evidence in readme,
        "planned caller": lambda evidence: evidence.removeprefix("ROADMAP item ") in open_items,
        "failure path": defines,
        "immutability or repr": defines,
    }
    return [name for name, (reason, evidence) in allowed.items() if not checks.get(reason, lambda _: False)(evidence)]


def test_every_reason_holds():
    readme, roadmap = ((ROOT / name).read_text(encoding="utf-8") for name in ("README.md", "ROADMAP.md"))
    assert unmet(ALLOWED, readme, roadmap, wrapped_names()) == []
    broken = {
        "a": ("benchmark", "cube.unwrapped"),
        "b": ("README API", "`not_in_readme`"),
        "c": ("planned caller", "ROADMAP item 2"),
        "d": ("failure path", "tests/test_cube.py::TestCriterionFailure::test_absent"),
        "e": ("immutability or repr", "tests/test_reachability.py::test_absent"),
        "f": ("test only", REPRS),
    }
    assert unmet(broken, readme, roadmap, wrapped_names()) == list(broken)


@pytest.mark.parametrize(
    "value, text",
    [
        (Carrier(2), "Carrier(P(2))"),
        (lambda_ls(Carrier(2)), "Convergence(lambda_ls, P(2))"),
        (Convergence(Carrier(1), [1, 2]), "Convergence(anonymous, P(1))"),
        (synthesize_O_lambda(lambda_ls(Carrier(2))), "Topology(P(2), 6 opens)"),
    ],
    ids=["Carrier", "Convergence", "anonymous", "Topology"],
)
def test_repr(value, text):
    assert repr(value) == text
