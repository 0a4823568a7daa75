"""The kernel modules never import the diagram builder, the checker or the CLI,
and none but ``topology`` imports a private name of ``topology``.  The checker
builds no diagram node itself: ``report.figure_nodes`` is the one builder of
the nodes it reads.

Imports are read from each module's source with ``ast``, so an import inside
a function counts as well as one at the top.

Each CLI subcommand, run in a fresh interpreter, loads only its own layer:
``converge`` and every ``--help`` no more than the CLI and the kernel below
the limit laws.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convlab
from convlab import cli, convergence, seqclass

KERNEL = ("algebra", "seqclass", "convergence", "topology", "cube", "submeasure")
UPPER = {"report", "verify", "cli"}


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


def test_verify_builds_no_diagram_node():
    # the laws' O_lam and the limit operators verify reads come from
    # figure_nodes, and it draws no topology from a subbase
    source = (Path(convlab.__file__).parent / "verify.py").read_text(encoding="utf-8")
    built = {"synthesize_O_lambda", "lim_of_topology_as_convergence", "_generated"}
    assert names_from(source, "topology") & built == set()


# Runs the CLI with the arguments given, then prints its exit code and the
# convlab modules the process loaded, without the package prefix, as the
# last line of stdout.
PROBE = """
import sys
from convlab.cli import main
code = None
try:
    main(sys.argv[1:], prog_name="convlab")
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m.removeprefix("convlab.") for m in sys.modules if m.split(".")[0] == "convlab"))
"""

SOURCES = Path(convlab.__file__).parent
QUERY = {"convlab", "algebra", "convergence", "seqclass", "cli"}
EVERY_MODULE = {"convlab"} | {path.stem for path in SOURCES.glob("*.py")} - {"__init__"}


def loaded_modules(*args: str) -> set[str]:
    """The convlab modules a fresh ``convlab *args`` loads; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCES.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stdout + done.stderr
    return set(modules)


@pytest.mark.parametrize(
    "args, modules",
    [
        (["converge", "--atoms", "2", "--seq", "[;{0}]"], QUERY),
        (["--help"], QUERY),
        (["converge", "--help"], QUERY),
        (["diagram", "--help"], QUERY),
        (["verify", "--help"], QUERY),
        (["diagram", "--atoms", "2"], QUERY | {"topology", "report"}),
        (["verify", "--atoms", "1"], EVERY_MODULE),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_subcommand_loads_its_layer(args, modules):
    assert loaded_modules(*args) == modules


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
