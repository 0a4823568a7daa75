"""`convlab diagram`, `convlab verify` and `convlab converge` output is
byte-identical to the committed goldens.

The diagram goldens for n = 1..4 in perfbench/goldens/ were captured on the
seed commit; those for n = 5 in tests/goldens/ were captured before the
relation table replaced the hand-written checks. The verify goldens in
tests/goldens/ were captured before the suite read its nodes from the diagram
builder, apart from line 6, captured again when the limit intersection law
went from sampled sequences to all classes, and lines 9 and 11, captured again
when the antitone adjunction and the triangle inequality went from n = 1..3 to
every atom count. The converge golden was captured before sequences held
their points as masks: each ``$ converge ...`` line is followed by its output.
The tests read the goldens and never rewrite them.
"""

from pathlib import Path

import pytest

from convlab.cli import main

from cli_runner import CliRunner

ROOT = Path(__file__).resolve().parent.parent


def golden(atoms: int, fmt: str) -> Path:
    folder = ROOT / "tests" / "goldens" if atoms == 5 else ROOT / "perfbench" / "goldens"
    return folder / f"n{atoms}.{fmt}"


@pytest.mark.parametrize("fmt", ["table", "json", "dot"])
@pytest.mark.parametrize("atoms", [1, 2, 3, 4, 5])
def test_diagram_matches_golden(atoms, fmt):
    result = CliRunner().invoke(main, ["diagram", "--atoms", str(atoms), "--format", fmt])
    assert result.exit_code == 0
    assert result.stdout_bytes == golden(atoms, fmt).read_bytes()


@pytest.mark.parametrize(
    "args, name",
    [(["--atoms", "4"], "verify-n4.txt"), (["--atoms", "5", "--samples", "20"], "verify-n5.txt")],
)
def test_verify_matches_golden(args, name):
    result = CliRunner().invoke(main, ["verify", *args])
    assert result.exit_code == 0
    assert result.stdout_bytes == (ROOT / "tests" / "goldens" / name).read_bytes()


def test_converge_matches_golden():
    expected = (ROOT / "tests" / "goldens" / "converge.txt").read_bytes()
    commands = [line[2:].split() for line in expected.decode().splitlines() if line.startswith("$ ")]
    out = []
    for args in commands:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, args
        out.append(b"$ " + " ".join(args).encode() + b"\n" + result.stdout_bytes)
    assert b"".join(out) == expected
