"""A fixed pure-Python loop that gauges how fast the machine runs Python now.

The benchmark runs on shared hosts whose speed for the same Python code
drifts by a quarter or more over minutes. The gated verdict times are
therefore given in reference units: one unit is the time of one pass of this
loop, with passes run between verdicts all through the same run. The
loop imports nothing from convlab, so a change to convlab cannot move it. It
stays in the first-level cache: integer arithmetic, bit operations, tuple
building and stores into a small dict.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter

STEPS = 5000
# Reference time kept, as a share of verdict time, all through the run.
SHARE = 0.1


def unit() -> float:
    """Seconds one pass of the fixed loop takes."""
    seen, acc = {}, 1
    start = perf_counter()
    for i in range(STEPS):
        acc = (acc * 5 + i) & 0xFFFF
        seen[acc & 63] = (i, acc)
    return perf_counter() - start


def pass_seconds(units: array, span_s: float) -> float:
    """Reference pass time at the scale of a span, such as the median
    verdict: the passes are cut, in run order, into as many equal chunks as
    their total time holds spans (one pass at least per chunk), and this is
    the median over chunks of the mean pass time in the chunk. A short
    verdict is thus set against single passes, and a verdict longer than all
    passes together against their mean."""
    chunks = min(len(units), max(1, int(sum(units) // span_s)))
    bounds = [len(units) * i // chunks for i in range(chunks + 1)]
    return statistics.median(statistics.fmean(units[a:b]) for a, b in zip(bounds, bounds[1:]))


class Pacer:
    """Runs reference passes between verdicts, so that reference time keeps
    pace with verdict time and both sample the same machine conditions."""

    def __init__(self) -> None:
        self.units = array("d")
        self._spent = 0.0

    def keep_pace(self, verdict_s: float) -> None:
        """Run passes until reference time reaches SHARE of `verdict_s`,
        the verdict seconds so far."""
        while self._spent < SHARE * verdict_s:
            seconds = unit()
            self.units.append(seconds)
            self._spent += seconds
