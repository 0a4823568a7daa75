"""`convlab diagram` output is byte-identical to the committed goldens.

The goldens in perfbench/goldens/ are read, never rewritten.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from convlab.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"


@pytest.mark.parametrize("fmt", ["table", "json", "dot"])
@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_diagram_matches_golden(atoms, fmt):
    result = CliRunner().invoke(main, ["diagram", "--atoms", str(atoms), "--format", fmt])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDENS / f"n{atoms}.{fmt}").read_bytes()
