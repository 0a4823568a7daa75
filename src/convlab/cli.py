"""Command-line front end: diagram builds, single-sequence limit queries, and
the full verification suite, on the standard library's ``argparse``.

Each subcommand imports its own layer inside its body: ``diagram`` the
diagram builder, ``verify`` the checker and the submeasure reader.  A process
then loads and compiles only what its subcommand runs, so ``converge`` and
every ``--help`` load no more than ``algebra``, ``convergence`` and
``seqclass``.  ``parse_seq_literal``, ``lambda_ls``, ``lambda_li``,
``lambda_s`` and ``inf_class`` stay module attributes: the benchmark's
query-mix calls them through this module, and its tracer rebinds them here.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache

from .algebra import MAX_ATOMS, Carrier, ConvlabError, EPSeq, atom_set, echo, iter_bits
from .convergence import lambda_li, lambda_ls, lambda_s
from .seqclass import inf_class


class SeqParseError(ConvlabError):
    prefix = "bad sequence literal: "

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@cache
def _grammar(n: int) -> re.Pattern:
    """The literals over P(n): groups 1 and 2 are the preperiod and period
    items.  An atom is one ASCII digit below n after any leading zeros."""
    assert 1 <= n <= 10, "an atom index below n must be one digit"
    atom = f"0*[0-{n - 1}]"
    point = rf"\{{(?:{atom}(?:,{atom})*)?\}}"
    items = f"{point}(?:,{point})*"
    return re.compile(rf"\[({items})?;({items})\]")


# an atom's value is its last digit, so no int() call reads a digit run
_ATOM_BIT = {str(i): 1 << i for i in range(10)}


def _masks(items: str | None) -> tuple[int, ...]:
    """The point masks of items the grammar matched, ``{..},{..}`` or None."""
    if not items:
        return ()
    points = []
    for atoms in items[1:-1].split("},{"):
        mask = 0
        if atoms:
            for atom in atoms.split(","):
                mask |= _ATOM_BIT[atom[-1]]
        points.append(mask)
    return tuple(points)


def parse_seq_literal(text: str, carrier: Carrier) -> EPSeq:
    """Parse ``[pre1,pre2;per1,per2]`` with points as ``{i,j}`` atom lists.

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
    return EPSeq(_masks(pre), _masks(per), carrier.n)


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

    def parse_point() -> int:
        expect("{")
        atoms = parse_items(parse_atom)
        expect("}")
        return sum(1 << i for i in set(atoms))

    expect("[")
    pre = parse_items(parse_point)
    expect(";")
    per = parse_items(parse_point)
    expect("]")
    if pos != end:
        raise SeqParseError("trailing input", pos)
    if not per:
        raise SeqParseError("period must be nonempty", pos - 1)
    return EPSeq(tuple(pre), tuple(per), carrier.n)


# `verify` holds all its cube samples in memory at once: about 41 bytes each at
# peak, by tracemalloc over criterion 10 at 100,000 samples
MAX_SAMPLES = 100_000

_INTEGER = re.compile(r"[+-]?[0-9]+")


def _ascii_int(value: str) -> int:
    """An optional sign, then ASCII digits: ``int()`` alone also takes other
    scripts' digits and ``_`` separators."""
    if not _INTEGER.fullmatch(value):
        raise argparse.ArgumentTypeError(f"{echo(value)} is not an integer in ASCII digits")
    try:
        return int(value)
    except ValueError:  # past the interpreter's limit on int() conversions
        raise argparse.ArgumentTypeError(f"an integer of {len(value)} characters is too long") from None


def _carrier(atoms: int) -> Carrier:
    if not 1 <= atoms <= MAX_ATOMS:
        raise ConvlabError(f"--atoms must be in 1..{MAX_ATOMS}, got {echo(str(atoms), str)}")
    return Carrier(atoms)


def diagram(atoms: int, fmt: str) -> int:
    """Build the convergence/topology diagram and verify its relations."""
    from .report import RelationViolation, build_figure1, emit

    carrier = _carrier(atoms)
    try:
        report = build_figure1(carrier)
    except RelationViolation as exc:
        print(f"relation violated: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit(report, fmt))
    return 0


def converge(atoms: int, seq: str, law: str) -> int:
    """Print the limit set of an eventually periodic sequence."""
    carrier = _carrier(atoms)
    x = parse_seq_literal(seq, carrier)
    builders = {"ls": lambda_ls, "li": lambda_li, "s": lambda_s}
    limits = builders[law](carrier).limit_mask(inf_class(x).mask)
    for p in iter_bits(limits):
        print(f"mask={p} atoms={atom_set(p)}")
    if not limits:
        print("(no limits)")
    return 0


def verify(atoms: int, seed: int, samples: int, submeasure: str | None) -> int:
    """Run every verification criterion at the requested scale."""
    from .submeasure import Submeasure
    from .verify import VerifyContext, format_results, run_all

    carrier = _carrier(atoms)
    if not 1 <= samples <= MAX_SAMPLES:
        raise ConvlabError(f"--samples must be in 1..{MAX_SAMPLES}, got {echo(str(samples), str)}")
    # random.Random seeds with the absolute value, so -s would repeat s's draws
    if seed < 0:
        raise ConvlabError(f"--seed must be >= 0, got {echo(str(seed), str)}")
    table = None if submeasure is None else Submeasure.from_file(submeasure, carrier)
    results = run_all(VerifyContext(atoms=atoms, seed=seed, samples=samples, submeasure=table))
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


# argparse's refusal of a value given to a flag that takes none, -h<value> or
# --help=<value>, made inside its own option parsing: the value's repr is last
_IGNORED = re.compile(r"(argument [^:]*: ignored explicit argument )(.*)", re.DOTALL)


class _Parser(argparse.ArgumentParser):
    """``argparse`` drops an ``OSError`` from writing help or a usage error,
    so help into a closed stdout would exit 0: here the write raises.  An
    invalid choice, and a value given to ``-h``, are echoed as every refusal
    is, by ``echo``."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)

    def error(self, message: str):
        if ignored := _IGNORED.fullmatch(message):
            from ast import literal_eval

            message = ignored[1] + echo(literal_eval(ignored[2]))
        super().error(message)

    def _check_value(self, action: argparse.Action, value: str) -> None:
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {echo(value)} (choose from {choices})")


def main(argv: list[str] | None = None) -> None:
    """Run the subcommand that ``argv``, by default ``sys.argv[1:]``, names and
    exit with its status: 0 or 1 by its result, 2 on a usage error, and 1 when
    stdout is closed, each without a traceback."""
    parser = _Parser(prog="convlab", allow_abbrev=False,
                     description="Convergences, sequential topologies and submeasure metrics on P(n).")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    option = {}
    for run, atoms in ((converge, 2), (diagram, 3), (verify, 3)):
        command = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        command.set_defaults(run=run, command=command)
        option[run] = command.add_argument
        option[run]("--atoms", type=_ascii_int, default=atoms, help="atom count n of P(n) (default: %(default)s)")
    option[converge]("--seq", required=True, help="sequence literal, e.g. '[{0,1};{0},{1}]' (required)")
    option[converge]("--law", choices=["ls", "li", "s"], default="ls", help="limit law (default: %(default)s)")
    option[diagram]("--format", dest="fmt", choices=["dot", "json", "table"], default="table",
                    help="output format (default: %(default)s)")
    option[verify]("--seed", type=_ascii_int, default=0, help="seed of the random draws (default: %(default)s)")
    option[verify]("--samples", type=_ascii_int, default=1000, help="sequences the cube criterion (10) samples; "
                   "the limit intersection law (6) checks every class (default: %(default)s)")
    option[verify]("--submeasure", metavar="FILE", help="extra submeasure table to validate (lines: mask num/den)")
    try:
        try:
            args, extra = parser.parse_known_args(argv)
            args = vars(args)
            run, command = args.pop("run"), args.pop("command")
            if extra:  # reported under the subcommand's usage, not the top level's
                command.error(f"unrecognized arguments: {echo(' '.join(extra), str)}")
            code = run(**args)
        finally:
            sys.stdout.flush()
    except ConvlabError as exc:
        command.error(exc.prefix + str(exc))
    except BrokenPipeError:
        # stdout is closed: point it at devnull, so that the flush at shutdown
        # reports no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
