"""The three benchmark workloads.

Each workload yields seeded inputs, runs one verdict per input through
convlab's public API, and checks the verdict against an independent answer.
convlab functions are looked up through their modules at call time, so the
traced run sees the same calls as the untraced one.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterator

from convlab import algebra, cli, report, verify

import oracle

GOLDENS = Path(__file__).resolve().parent / "goldens"
FORMATS = ("table", "json", "dot")


class DiagramN4:
    """`build_figure1(Carrier(4))` and `emit` in every format, compared byte
    for byte with the outputs captured from the seed commit."""

    name = "diagram-n4"
    atoms = (4,)

    def __init__(self, seed: int):
        del seed  # the diagram is deterministic
        self.goldens = {
            n: {fmt: (GOLDENS / f"n{n}.{fmt}").read_bytes() for fmt in FORMATS}
            for n in (1, 2, 3, 4)
        }

    def preflight(self) -> list[int]:
        """Smaller carriers checked once per run, outside the timed loop."""
        return [1, 2, 3]

    def inputs(self) -> Iterator[int]:
        while True:
            yield 4

    def run(self, n: int) -> dict[str, str]:
        built = report.build_figure1(algebra.Carrier(n))
        return {fmt: report.emit(built, fmt) for fmt in FORMATS}

    def check(self, n: int, out: dict[str, str]) -> bool:
        return all(out[fmt].encode("utf-8") == self.goldens[n][fmt] for fmt in FORMATS)


class VerifyN4:
    """`run_all(VerifyContext(atoms=4, seed=s, samples=1000))`; a verdict
    passes only if all twelve criteria pass. The context seeds `s` are a
    stream drawn from the workload seed: the sampled sequences and random
    topologies, and so the work, differ from one context seed to the next,
    and a run's median should not hang on one of them."""

    name = "verify-n4"
    atoms = (1, 2, 3, 4)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def preflight(self) -> list[int]:
        return []

    def inputs(self) -> Iterator[int]:
        while True:
            yield self.rng.randrange(1 << 32)

    def run(self, seed: int) -> list:
        return verify.run_all(verify.VerifyContext(atoms=4, seed=seed, samples=1000))

    def check(self, seed: int, out: list) -> bool:
        return len(out) == 12 and all(r.passed for r in out)


# Most queries take the table-free rule path at n = 5, so the median lands
# there; the n = 4 share builds a 65,536-entry table per query and sets p99.
# Queries come in seeded shuffles of one block of 75, so that every stretch
# of the stream has the same mix: per law, 22 queries at n = 5, 2 at n = 3
# and 1 at n = 4, that is 88%, 8% and 4%.
QUERY_ATOMS = {5: 22, 3: 2, 4: 1}
LAWS = ("ls", "li", "s")
QUERY_BLOCK = [(n, law) for n, count in QUERY_ATOMS.items() for law in LAWS for _ in range(count)]


class QueryMix:
    """A seeded stream of `converge` queries, each done the way the CLI does
    it: parse the literal, build the carrier and the law, ask for the limits."""

    name = "query-mix"
    atoms = tuple(QUERY_ATOMS)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def preflight(self) -> list:
        return []

    def inputs(self) -> Iterator[tuple[int, str, list[int], str]]:
        rng = self.rng
        block = list(QUERY_BLOCK)
        while True:
            rng.shuffle(block)
            for n, law in block:
                yield self._query(rng, n, law)

    @staticmethod
    def _query(rng: random.Random, n: int, law: str) -> tuple[int, str, list[int], str]:
        pre = [rng.randrange(1 << n) for _ in range(rng.randrange(0, 4))]
        period = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 5))]
        literal = "[" + ",".join(map(_element, pre)) + ";" + ",".join(map(_element, period)) + "]"
        return n, law, period, literal

    def run(self, query: tuple[int, str, list[int], str]):
        n, law, _, literal = query
        carrier = algebra.Carrier(n)
        x = cli.parse_seq_literal(literal, carrier)
        return getattr(cli, "lambda_" + law)(carrier)(cli.inf_class(x))

    def check(self, query: tuple[int, str, list[int], str], out) -> bool:
        n, law, period, _ = query
        return sorted(e.mask for e in out) == oracle.expected_limits(n, law, period)


def _element(mask: int) -> str:
    return "{" + ",".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


WORKLOADS = {w.name: w for w in (DiagramN4, VerifyN4, QueryMix)}
