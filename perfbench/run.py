"""Time-to-verdict benchmark for convlab.

Run from the root of a convlab checkout:

    python3 perfbench/run.py --workload diagram-n4 --seed 0 --seconds 35 --trace 0

Each run is one fresh process on one thread that drives one workload as a
closed loop with a single client: the next verdict starts when the previous
one returns. Every verdict is checked against an independent answer. With
--trace 0 the run reports the end-to-end metrics, with verdict times in
units of a reference loop timed in the same run (reference.py); with --trace 1 it
alternates traced and untraced blocks of verdicts and reports per-layer self
time and calls per verdict, plus the tracing overhead. The last line of
standard output is a JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
# With --trace 1, traced and untraced verdicts alternate in blocks of at
# least this many seconds, so both halves see the same machine conditions.
TRACE_BLOCK_S = 0.5


def load_convlab() -> None:
    """Import convlab from this checkout's src/, or exit without a result."""
    if not (SRC / "convlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'convlab'} is missing; run from the root of a convlab checkout")
    sys.path.insert(0, str(SRC))
    import convlab

    if SRC.resolve() not in Path(convlab.__file__).resolve().parents:
        raise SystemExit(f"error: imported convlab from {convlab.__file__}, not from {SRC}")


def setup_probe(atoms: tuple[int, ...]) -> float:
    """Seconds a fresh interpreter takes to import convlab and convlab.cli
    and build the carriers with the given numbers of atoms."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *map(str, atoms)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout)


def attempt(workload, item, tracer) -> float | None:
    """Seconds one verdict took, or None if it raised or was wrong."""
    start = time.perf_counter()
    try:
        out = workload.run(item) if tracer is None else tracer.verdict(workload.run, item)
    except Exception:
        traceback.print_exc()
        return None
    elapsed = time.perf_counter() - start
    if not workload.check(item, out):
        print(f"{workload.name}: wrong verdict for input {item!r}", file=sys.stderr)
        return None
    return elapsed


def timed_loop(workload, seconds: float, tracer, between=None) -> tuple[dict[bool, array], int, int]:
    """Verdict seconds keyed by whether the verdict was traced, verdicts
    attempted, verdicts failed. `between`, if given, is called after every
    verdict with the verdict seconds so far."""
    # Compact arrays, so that peak RSS does not grow with the verdict count.
    samples = {False: array("d"), True: array("d")}
    attempted = failed = 0
    verdict_s = 0.0
    items = workload.inputs()
    traced = tracer is not None  # toggled before the first block, which runs untraced
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        if tracer is not None:
            traced = not traced
            if traced:
                tracer.install()
        try:
            block_end = min(end, time.perf_counter() + TRACE_BLOCK_S) if tracer is not None else end
            while True:
                elapsed = attempt(workload, next(items), tracer if traced else None)
                attempted += 1
                if elapsed is None:
                    failed += 1
                else:
                    samples[traced].append(elapsed)
                    verdict_s += elapsed
                if between is not None:
                    between(verdict_s)
                if time.perf_counter() >= block_end:
                    break
        finally:
            if traced:
                tracer.uninstall()
    return samples, attempted, failed


def end_to_end(workload, seconds: float) -> tuple[dict, int, int]:
    import reference

    pacer = reference.Pacer()
    setup = array("d")

    def between(verdict_s: float) -> None:
        pacer.keep_pace(verdict_s)
        # Setup probes are spread over the run too, so that their median
        # sees the machine the verdicts saw and not one moment of it.
        if len(setup) < SETUP_PROBES and verdict_s >= len(setup) * seconds / (SETUP_PROBES + 1):
            setup.append(setup_probe(workload.atoms))

    samples, attempted, failed = timed_loop(workload, seconds, None, between)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload.atoms))
    # Read before the statistics below allocate their sorted copies.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = samples[False]
    if not times:
        return {}, attempted, failed
    p50 = statistics.median(times)
    p50_ref, mean_ref = reference.pass_seconds(pacer.units, p50), statistics.fmean(pacer.units)
    print(f"{len(times)} verdicts and {len(pacer.units)} reference passes timed; setup is the median of {SETUP_PROBES} fresh interpreters")
    print(f"{'reference_pass_s':<44} {mean_ref:.6g} s (mean), {p50_ref:.6g} s (at the scale of the median verdict)")
    print(f"{'verdict_s_p50':<44} {p50:.6g} s")
    print(f"{'verdicts_per_s':<44} {len(times) / sum(times):.6g} 1/s")
    # p99 is printed only where at least ten verdicts lie beyond it.
    if len(times) >= 1000:
        p99 = statistics.quantiles(times, n=100, method="inclusive")[98]
        print(f"{'verdict_s_p99':<44} {p99:.6g} s ({sum(t > p99 for t in times)} verdicts beyond it)")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_p50_ref": (p50 / p50_ref, "ref"),
        "verdicts_per_ref": (len(times) * mean_ref / sum(times), "1/ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, attempted, failed


def per_layer(workload, seconds: float, seed: int) -> tuple[dict, int, int]:
    import tracing

    tracer = tracing.Tracer()
    samples, attempted, failed = timed_loop(workload, seconds, tracer)
    tracer.write(HERE / "out" / f"spans-{workload.name}-{seed}.json")
    if not (samples[False] and samples[True]):
        return {}, attempted, failed
    verdicts = tracer.verdicts
    totals = tracer.layer_totals()
    metrics = {}
    for layer in tracing.LAYERS:
        self_s, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}.s"] = (self_s / verdicts, "s")
        metrics[f"{layer}.calls"] = (calls / verdicts, "count")
    untraced, traced = statistics.median(samples[False]), statistics.median(samples[True])
    verdict_s = sum(end - start for _, parent, _, _, start, end in tracer.spans if parent == 0)
    kernel_s = sum(s for layer, (s, _) in totals.items() if layer.startswith(("convergence.", "topology.")))
    metrics.update({
        "trace.untraced_p50_s": (untraced, "s"),
        "trace.traced_p50_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.convergence_topology_share": (kernel_s / verdict_s, "ratio"),
    })
    print(f"{len(samples[False])} untraced and {len(samples[True])} traced verdicts timed")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    load_convlab()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    attempted = failed = 0
    for item in workload.preflight():
        attempted += 1
        failed += attempt(workload, item, None) is None
    if args.trace:
        metrics, loop_attempted, loop_failed = per_layer(workload, args.seconds, args.seed)
    else:
        metrics, loop_attempted, loop_failed = end_to_end(workload, args.seconds)
    attempted += loop_attempted
    failed += loop_failed
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    print(f"{'failed_ratio':<44} {failed / attempted:.6g} ({failed} of {attempted} verdicts failed)")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
