"""Command-line front end: diagram builds, single-sequence limit queries, and
the full verification suite.

Each subcommand imports its own layer inside its body: ``diagram`` the
diagram builder, ``verify`` the checker and the submeasure reader.  A process
then loads and compiles only what its subcommand runs, so ``converge`` and
every ``--help`` load no more than ``algebra``, ``convergence`` and
``seqclass``.  ``parse_seq_literal``, ``lambda_ls``, ``lambda_li``,
``lambda_s`` and ``inf_class`` stay module attributes: the benchmark's
query-mix calls them through this module, and its tracer rebinds them here.
"""

from __future__ import annotations

import re
import sys
from functools import cache

import click

from .algebra import MAX_ATOMS, Carrier, EPSeq
from .convergence import lambda_li, lambda_ls, lambda_s
from .seqclass import inf_class


class SeqParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@cache
def _grammar(n: int) -> re.Pattern:
    """The literals over P(n): groups 1 and 2 are the preperiod and period
    items.  An atom is one ASCII digit below n after any leading zeros."""
    assert 1 <= n <= 10, "an atom index below n must be one digit"
    atom = f"0*[0-{n - 1}]"
    element = rf"\{{(?:{atom}(?:,{atom})*)?\}}"
    items = f"{element}(?:,{element})*"
    return re.compile(rf"\[({items})?;({items})\]")


# an atom's value is its last digit, so no int() call reads a digit run
_ATOM_BIT = {str(i): 1 << i for i in range(10)}


def _elements(items: str | None, carrier: Carrier) -> tuple:
    """The elements of items the grammar matched, ``{..},{..}`` or None."""
    if not items:
        return ()
    elements = []
    for atoms in items[1:-1].split("},{"):
        mask = 0
        if atoms:
            for atom in atoms.split(","):
                mask |= _ATOM_BIT[atom[-1]]
        elements.append(carrier._element(mask))
    return tuple(elements)


def parse_seq_literal(text: str, carrier: Carrier) -> EPSeq:
    """Parse ``[pre1,pre2;per1,per2]`` with elements as ``{i,j}`` atom lists.

    An atom is an index below n in ASCII digits, leading zeros allowed, and
    a repeated atom counts once.  The literal holds no whitespace, exactly one
    ``,`` separates neighbouring items and none follows the last, and the
    period is nonempty.  A literal that breaks any of this raises
    ``SeqParseError`` naming the position of the fault.
    """
    match = _grammar(carrier.n).fullmatch(text)
    if match is None:
        return _walk(text, carrier)
    pre, per = match.groups()
    return EPSeq(_elements(pre, carrier), _elements(per, carrier))


def _walk(text: str, carrier: Carrier) -> EPSeq:
    """``parse_seq_literal`` one character at a time: it reads any literal
    the grammar accepts alike, and finds where a refused one goes wrong."""
    pos, end = 0, len(text)

    def expect(ch: str) -> None:
        nonlocal pos
        if pos >= end or text[pos] != ch:
            raise SeqParseError(f"expected {ch!r}", pos)
        pos += 1

    def parse_items(parse_item) -> list:
        """Comma-separated items up to the next ``;``, ``]`` or ``}``."""
        nonlocal pos
        if pos >= end or text[pos] in ";]}":
            return []
        items = [parse_item()]
        while pos < end and text[pos] == ",":
            pos += 1
            if pos < end and text[pos] in ";]}":
                raise SeqParseError(f"',' before {text[pos]!r}", pos - 1)
            items.append(parse_item())
        return items

    def parse_atom() -> int:
        nonlocal pos
        start = pos
        while pos < end and "0" <= text[pos] <= "9":
            pos += 1
        if pos == start:
            raise SeqParseError("expected atom index", pos)
        digits = text[start:pos].lstrip("0") or "0"
        # length first: int() refuses digit runs past the interpreter's limit
        if len(digits) > len(str(carrier.n)) or int(digits) >= carrier.n:
            raise SeqParseError(f"atom index out of range for P({carrier.n})", start)
        return int(digits)

    def parse_element():
        expect("{")
        atoms = parse_items(parse_atom)
        expect("}")
        return carrier.element(atoms)

    expect("[")
    pre = parse_items(parse_element)
    expect(";")
    per = parse_items(parse_element)
    expect("]")
    if pos != end:
        raise SeqParseError("trailing input", pos)
    if not per:
        raise SeqParseError("period must be nonempty", pos - 1)
    return EPSeq(tuple(pre), tuple(per))


# `verify` holds all its cube samples in memory at once: about 41 bytes each at
# peak, by tracemalloc over criterion 10 at 100,000 samples
MAX_SAMPLES = 100_000

_INTEGER = re.compile(r"[+-]?[0-9]+")


class _AsciiInt(click.ParamType):
    """An optional sign, then ASCII digits: ``int()`` alone also takes other
    scripts' digits and ``_`` separators."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        if not _INTEGER.fullmatch(value):
            self.fail(f"{value!r} is not an integer in ASCII digits", param, ctx)
        try:
            return int(value)
        except ValueError:  # past the interpreter's limit on int() conversions
            self.fail(f"an integer of {len(value)} characters is too long", param, ctx)


def _carrier(atoms: int) -> Carrier:
    if not 1 <= atoms <= MAX_ATOMS:
        raise click.UsageError(f"--atoms must be in 1..{MAX_ATOMS}, got {atoms}")
    return Carrier(atoms)


@click.group()
def main() -> None:
    """Convergences, sequential topologies and submeasure metrics on P(n)."""


@main.command()
@click.option("--atoms", type=_AsciiInt(), default=3, show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["dot", "json", "table"]),
    default="table",
    show_default=True,
)
def diagram(atoms: int, fmt: str) -> None:
    """Build the convergence/topology diagram and verify its relations."""
    from .report import RelationViolation, build_figure1, emit

    carrier = _carrier(atoms)
    try:
        report = build_figure1(carrier)
    except RelationViolation as exc:
        click.echo(f"relation violated: {exc}", err=True)
        sys.exit(1)
    click.echo(emit(report, fmt), nl=False)


@main.command()
@click.option("--atoms", type=_AsciiInt(), default=2, show_default=True)
@click.option("--seq", required=True, help="sequence literal, e.g. '[{0,1};{0},{1}]'")
@click.option("--law", type=click.Choice(["ls", "li", "s"]), default="ls", show_default=True)
def converge(atoms: int, seq: str, law: str) -> None:
    """Print the limit set of an eventually periodic sequence."""
    carrier = _carrier(atoms)
    try:
        x = parse_seq_literal(seq, carrier)
    except SeqParseError as exc:
        raise click.UsageError(f"bad sequence literal: {exc}")
    builders = {"ls": lambda_ls, "li": lambda_li, "s": lambda_s}
    limits = builders[law](carrier)(inf_class(x))
    for e in sorted(limits, key=lambda e: e.mask):
        click.echo(f"mask={e.mask} atoms={e!r}")
    if not limits:
        click.echo("(no limits)")


@main.command()
@click.option("--atoms", type=_AsciiInt(), default=3, show_default=True)
@click.option("--seed", type=_AsciiInt(), default=0, show_default=True)
@click.option(
    "--samples",
    type=_AsciiInt(),
    default=1000,
    show_default=True,
    help="sequences the cube criterion (10) samples; the limit intersection law (6) checks every class",
)
@click.option(
    "--submeasure",
    "submeasure_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="extra submeasure table to validate (lines: mask num/den)",
)
def verify(atoms: int, seed: int, samples: int, submeasure_path) -> None:
    """Run every verification criterion at the requested scale."""
    from .submeasure import Submeasure, SubmeasureTableError
    from .verify import VerifyContext, format_results, run_all

    carrier = _carrier(atoms)
    if not 1 <= samples <= MAX_SAMPLES:
        raise click.UsageError(f"--samples must be in 1..{MAX_SAMPLES}, got {samples}")
    # random.Random seeds with the absolute value, so -s would repeat s's draws
    if seed < 0:
        raise click.UsageError(f"--seed must be >= 0, got {seed}")
    submeasure = None
    if submeasure_path is not None:
        try:
            submeasure = Submeasure.from_file(submeasure_path, carrier)
        except SubmeasureTableError as exc:
            raise click.UsageError(f"bad submeasure table: {exc}")
    ctx = VerifyContext(atoms=atoms, seed=seed, samples=samples, submeasure=submeasure)
    results = run_all(ctx)
    click.echo(format_results(results))
    sys.exit(0 if all(r.passed for r in results) else 1)


if __name__ == "__main__":
    main()
