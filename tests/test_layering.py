"""The kernel modules never import the diagram builder, the checker or the CLI,
and none but ``topology`` imports a private name of ``topology``.  The checker
builds no diagram node itself: ``report.figure_nodes`` is the one builder of
the nodes it reads.

Imports are read from each module's source with ``ast``, so an import inside
a function counts as well as one at the top.

Each CLI subcommand, run in a fresh interpreter, loads only its own layer:
``converge`` and every ``--help`` no more than the CLI and the kernel below
the limit laws.  The package binds its topology names on first use, from
``convlab.topology``.  No run, ``diagram`` and ``verify`` included, loads any of
``dataclasses``, ``inspect``, ``typing``, ``fractions`` and ``decimal``, and no
module imports ``dataclasses``, ``typing`` or ``click``: the records are
namedtuples and ``algebra.Frozen`` values, a submeasure is an integer table,
and the CLI runs on the standard library alone.

A point is an int mask everywhere: ``Element`` is named only where it is
defined and where a limit query returns it, and no module defines or imports
the deleted API of a second point type.

Every function and method that ``perfbench/tracing.py`` wraps by name
resolves under ``convlab``, and its criterion layers name exactly the
criteria of ``verify.CRITERIA``; the tracer's source is read with ``ast``,
not imported.
"""

import ast
import importlib
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import convlab
from convlab import cli, convergence, seqclass

KERNEL = ("algebra", "seqclass", "convergence", "topology", "cube", "submeasure")
UPPER = {"report", "verify", "cli"}
SOURCES = Path(convlab.__file__).parent


def convlab_imports(source: str) -> set[str]:
    """The convlab modules that a convlab module's source imports, relative
    (``from .report import x``, ``from . import report``) or absolute
    (``import convlab.report``, ``from convlab import report``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("convlab."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level and parts[0] != "convlab":
                continue
            if not node.level:
                parts = parts[1:]
            found.update([parts[0]] if parts and parts[0] else [a.name for a in node.names])
    return found


def names_from(source: str, module: str) -> set[str]:
    """The names a convlab module's source imports from the convlab module
    ``module``, relative (``from .topology import x``) or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == (module if node.level else f"convlab.{module}"):
            found.update(a.name for a in node.names)
    return found


def private_names_from(source: str, module: str) -> set[str]:
    """The underscore names among ``names_from(source, module)``."""
    return {name for name in names_from(source, module) if name.startswith("_")}


@pytest.mark.parametrize(
    "source, modules",
    [
        ("from .report import figure_nodes", {"report"}),
        ("from . import verify", {"verify"}),
        ("import convlab.cli", {"cli"}),
        ("from convlab.report import KINDS", {"report"}),
        ("from convlab import report", {"report"}),
        ("def f():\n    from .cli import main", {"cli"}),
        ("from .algebra import Carrier\nimport re\nfrom fractions import Fraction", {"algebra"}),
    ],
)
def test_every_import_form_is_read(source, modules):
    assert convlab_imports(source) == modules


@pytest.mark.parametrize("name", KERNEL)
def test_kernel_imports_no_upper_layer(name):
    source = (Path(convlab.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    assert convlab_imports(source) & UPPER == set()


@pytest.mark.parametrize(
    "source, names",
    [
        ("from .topology import Topology, _synthesized", {"_synthesized"}),
        ("def f():\n    from convlab.topology import _generated", {"_generated"}),
        ("from .topology import synthesize_O_lambda\nfrom .algebra import _x", set()),
    ],
)
def test_every_private_import_is_read(source, names):
    assert private_names_from(source, "topology") == names


@pytest.mark.parametrize("name", [m for m in KERNEL if m != "topology"])
def test_kernel_imports_no_private_name_of_topology(name):
    source = (Path(convlab.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    assert private_names_from(source, "topology") == set()


@pytest.mark.parametrize("name", sorted(convlab._TOPOLOGY_NAMES))
def test_topology_names_resolve_on_first_use(name):
    # not bound by the package's import, so the lookup runs __getattr__
    from convlab import topology

    assert name not in vars(convlab)
    assert getattr(convlab, name) is getattr(topology, name)


def test_unknown_package_name_raises():
    with pytest.raises(AttributeError, match="^module 'convlab' has no attribute 'nope'$"):
        convlab.nope


def test_verify_builds_no_diagram_node():
    # the laws' O_lam and the limit operators verify reads come from
    # figure_nodes, and it draws no topology from a subbase
    source = (Path(convlab.__file__).parent / "verify.py").read_text(encoding="utf-8")
    built = {"synthesize_O_lambda", "lim_of_topology_as_convergence", "_generated"}
    assert names_from(source, "topology") & built == set()


# The API of points as objects, deleted when points became masks, and the
# cube's own lim inf and lim sup, deleted when it read the algebra's: module
# functions, and methods by class.
DELETED_FUNCTIONS = {
    "meet", "join", "complement", "leq", "_check_same", "_points", "check_halfball_opens", "fc_liminf", "fc_limsup"
}
DELETED_METHODS = {
    "Carrier": {"element", "_element", "elements", "bottom", "top", "subset_mask"},
    "InfClass": {"values"},
    "Submeasure": {"__call__", "distance", "_check_carrier"},
}
# module -> the functions that may name Element: None for the whole module
ELEMENT_NAMERS = {"algebra": None, "convergence": {"__call__"}, "topology": {"lim_topo"}}


def deleted_api(source: str) -> set[str]:
    """The deleted names a module's source defines, as ``name`` or
    ``Class.method``, or imports."""
    tree, found = ast.parse(source), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in DELETED_FUNCTIONS:
            found.add(node.name)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name in DELETED_METHODS.get(node.name, ()):
                        found.add(f"{node.name}.{item.name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.split(".")[-1] for a in node.names if a.name.split(".")[-1] in DELETED_FUNCTIONS)
    return found


def element_namers(source: str) -> set[str]:
    """The functions of a module's source whose bodies or signatures name
    ``Element``, with ``"<import>"`` for an import of it and ``""`` for any
    other name outside every function."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == "Element":
                found.add(scope)
            if not isinstance(node, ast.ClassDef):
                scope = node.name
        named = (
            isinstance(node, ast.Name) and node.id == "Element"
            or isinstance(node, ast.Attribute) and node.attr == "Element"
        )
        if named:
            found.add(scope)
        if isinstance(node, ast.alias) and node.name.split(".")[-1] == "Element":
            found.add("<import>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize(
    "source, names",
    [
        ("from .algebra import meet, iter_bits", {"meet"}),
        ("import convlab.algebra.join", {"join"}),
        ("def f():\n    def complement(a):\n        pass", {"complement"}),
        ("class Carrier:\n    @property\n    def top(self):\n        pass", {"Carrier.top"}),
        ("class Submeasure:\n    def __call__(self, a):\n        pass", {"Submeasure.__call__"}),
        ("class Convergence:\n    def __call__(self, s):\n        pass", set()),
        ("class Carrier:\n    def subset_from_mask(self, m):\n        pass", set()),
        ("from .cube import fc_liminf, lim_cantor\ndef fc_limsup(x):\n    pass", {"fc_liminf", "fc_limsup"}),
    ],
)
def test_every_deleted_definition_is_read(source, names):
    assert deleted_api(source) == names


@pytest.mark.parametrize(
    "source, scopes",
    [
        ("from .algebra import Element", {"<import>"}),
        ("def f():\n    from convlab.algebra import Element", {"<import>"}),
        ("X = Element", {""}),
        ("def f(x) -> frozenset[Element]:\n    pass", {"f"}),
        ("class C:\n    def g(self):\n        return algebra.Element(0, 1)", {"g"}),
        ("def h():\n    return Element\ndef k():\n    pass", {"h"}),
        ("class Element:\n    pass", {""}),
        ("x = 'Element'", set()),
    ],
)
def test_every_element_use_is_read(source, scopes):
    assert element_namers(source) == scopes


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda path: path.stem)
def test_no_second_point_type(path):
    assert deleted_api(path.read_text(encoding="utf-8")) == set()


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda path: path.stem)
def test_element_only_where_a_limit_query_returns_it(path):
    namers = element_namers(path.read_text(encoding="utf-8"))
    if path.stem not in ELEMENT_NAMERS:
        assert namers == set()
    elif ELEMENT_NAMERS[path.stem] is not None:
        assert namers <= ELEMENT_NAMERS[path.stem] | {"<import>"}
        assert ELEMENT_NAMERS[path.stem] <= namers


def top_level_imports(source: str) -> set[str]:
    """The top-level packages that a module's source imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add((node.module or "").split(".")[0])
    return found


def test_top_level_imports_reads_every_form():
    source = "import os.path, typing as t\nfrom dataclasses import field\nfrom . import typing\nfrom .click import x\n"
    assert top_level_imports(source) == {"os", "typing", "dataclasses"}


def test_no_module_imports_click():
    for path in SOURCES.glob("*.py"):
        assert "click" not in top_level_imports(path.read_text(encoding="utf-8")), path.name


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_dataclasses_or_typing(path):
    assert top_level_imports(path.read_text(encoding="utf-8")) & {"dataclasses", "typing"} == set()


# Runs the CLI with the arguments after the first, then prints its exit code
# and the convlab modules the process loaded, without the package prefix, and
# then which of the comma-separated modules of the first argument it loaded,
# as the last two lines of stdout.
PROBE = """
import sys
from convlab.cli import main
code = None
try:
    main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m.removeprefix("convlab.") for m in sys.modules if m.split(".")[0] == "convlab"))
print("loaded:", *sorted(m for m in sys.argv[1].split(",") if m in sys.modules))
"""

QUERY = {"convlab", "algebra", "convergence", "seqclass", "cli"}
EVERY_MODULE = {"convlab"} | {path.stem for path in SOURCES.glob("*.py")} - {"__init__"}
# what every run does without: click, and the standard library modules that
# cost most to import; fractions, which imports decimal, only reads a given
# or loaded submeasure table
HEAVY = ("click", "dataclasses", "decimal", "fractions", "inspect", "typing")


@cache
def loaded_modules(*args: str) -> tuple[set[str], set[str]]:
    """The convlab modules and the modules of HEAVY that a fresh ``convlab
    *args`` loads; it must exit 0.  The interpreter runs with ``-S``, so that
    no site hook loads a module before convlab does."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCES.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, ",".join(HEAVY), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    (code, *modules), (_, *heavy) = (line.split() for line in done.stdout.splitlines()[-2:])
    assert code == "0", done.stdout + done.stderr
    return set(modules), set(heavy)


# converge and every --help: the runs that load no more than QUERY
QUERY_RUNS = [
    ["converge", "--atoms", "2", "--seq", "[;{0}]"],
    ["--help"],
    ["converge", "--help"],
    ["diagram", "--help"],
    ["verify", "--help"],
]


@pytest.mark.parametrize(
    "args, modules",
    [(args, QUERY) for args in QUERY_RUNS] + [
        (["diagram", "--atoms", "2"], QUERY | {"topology", "report"}),
        (["verify", "--atoms", "1"], EVERY_MODULE),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_subcommand_loads_its_layer(args, modules):
    assert loaded_modules(*args)[0] == modules


@pytest.mark.parametrize("args", QUERY_RUNS + [["diagram", "--atoms", "2"], ["verify", "--atoms", "1"]], ids=" ".join)
def test_query_path_loads_no_heavy_module(args):
    assert loaded_modules(*args)[1] == set()


def test_run_all_builds_no_fraction():
    # every criterion at n = 1..4, with the counting and truncated tables of
    # criteria 5 and 11 built as integers
    probe = (
        "import sys\n"
        "from convlab.verify import VerifyContext, run_all\n"
        "assert all(r.passed for r in run_all(VerifyContext(atoms=4)))\n"
        "print(*sorted(m for m in ('decimal', 'fractions') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCES.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


@pytest.mark.parametrize(
    "name, owner",
    [
        ("parse_seq_literal", cli),
        ("lambda_ls", convergence),
        ("lambda_li", convergence),
        ("lambda_s", convergence),
        ("inf_class", seqclass),
    ],
)
def test_query_names_stay_on_cli(name, owner):
    # the benchmark's query-mix calls these through convlab.cli, and its
    # tracer rebinds them there
    assert getattr(cli, name) is getattr(owner, name)


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names(source: str) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]], list[str]]:
    """What a tracer's source wraps, read without importing it: the
    ``(module, attribute)`` of each row of ``FUNCTIONS``, the ``(module,
    class, attribute)`` of each row of ``METHODS`` and the keys of
    ``CRITERION_SLUGS``."""
    assigned = {
        node.targets[0].id: node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    functions = [(row.elts[0].id, row.elts[1].value) for row in assigned["FUNCTIONS"].elts]
    methods = [(row.elts[0].value.id, row.elts[0].attr, row.elts[1].value) for row in assigned["METHODS"].elts]
    return functions, methods, [key.value for key in assigned["CRITERION_SLUGS"].keys]


def convlab_module(name: str):
    """The module ``convlab.<name>``, or None when there is none."""
    try:
        return importlib.import_module(f"convlab.{name}")
    except ModuleNotFoundError:
        return None


def unresolved(source: str) -> list[str]:
    """The names a tracer's source wraps that convlab does not define."""
    functions, methods, _ = traced_names(source)
    missing = [f"{m}.{a}" for m, a in functions if not callable(getattr(convlab_module(m), a, None))]
    for m, cls, a in methods:
        owner = getattr(convlab_module(m), cls, None)
        if not isinstance(owner, type) or a not in vars(owner):
            missing.append(f"{m}.{cls}.{a}")
    return missing


def test_unresolved_reads_every_row():
    source = (
        "FUNCTIONS = ((verify, 'brute_downsets', 'x'), (verify, 'extend', 'y'), (nowhere, 'f', 'z'))\n"
        "METHODS = ((algebra.Carrier, '__init__', 'x'), (algebra.Carrier, 'extend', 'y'))\n"
        "CRITERION_SLUGS = {'a': 'b'}\n"
    )
    assert traced_names(source)[2] == ["a"]
    assert unresolved(source) == ["verify.extend", "nowhere.f", "algebra.Carrier.extend"]


def test_every_traced_name_resolves():
    # the benchmark's per-layer run rebinds these by name; a renamed or
    # deleted one would fail only when the tracer installs
    source = TRACING.read_text(encoding="utf-8")
    assert unresolved(source) == []
    assert traced_names(source)[2] == [name for name, _ in convlab_module("verify").CRITERIA]
