"""Spans around convlab's public functions, for the per-layer run.

Each listed function is rebound at every convlab module attribute that holds
it, which is where callers look it up, so calls between convlab modules are
traced too. Two methods are wrapped on their class, and the criteria on
`verify.CRITERIA`. Per-element helpers (`meet`, `join`, `Element`) are left
alone: their spans would cost more than the work they measure.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from convlab import algebra, cli, convergence, cube, report, seqclass, submeasure, topology, verify


def _emit_layer(args: tuple, kwargs: dict) -> str:
    fmt = args[1] if len(args) > 1 else kwargs["fmt"]
    return f"report.emit.{fmt}"


# (owner, attribute, layer); a layer is a name or a function of the call's
# arguments that returns one.
FUNCTIONS = (
    (convergence, "star", "convergence.star"),
    (convergence, "sos_union", "convergence.sos_union"),
    (convergence, "leq_conv", "convergence.leq_conv"),
    (convergence, "meet_conv", "convergence.meet_conv"),
    (convergence, "check_L1", "convergence.check_L1_L2"),
    (convergence, "check_L2", "convergence.check_L1_L2"),
    (convergence, "lambda_ls", "convergence.lambda_build"),
    (convergence, "lambda_li", "convergence.lambda_build"),
    (convergence, "lambda_s", "convergence.lambda_build"),
    (seqclass, "inf_class", "seqclass.inf_class"),
    (cli, "parse_seq_literal", "cli.parse_seq_literal"),
    (topology, "synthesize_O_lambda", "topology.synthesize_O_lambda"),
    (topology, "join_topologies", "topology.join_topologies"),
    (topology, "generate", "topology.generate"),
    (topology, "lim_of_topology_as_convergence", "topology.lim_of_topology_as_convergence"),
    (topology, "is_sequential", "topology.is_sequential"),
    (topology, "lim_topo", "topology.lim_topo"),
    (topology, "check_closed_char", "topology.check_closed_char"),
    (report, "build_figure1", "report.build_figure1"),
    (report, "emit", _emit_layer),
    (verify, "brute_downsets", "verify.brute_downsets"),
    (cube, "check_T1235a", "cube.check_T1235a"),
    (cube, "lim_alexandrov", "cube.lim_alexandrov"),
    (submeasure, "validate_submeasure", "submeasure.validate_submeasure"),
    (submeasure, "metric_topology", "submeasure.metric_topology"),
)
METHODS = (
    (convergence.Convergence, "__call__", "convergence.limit_query"),
    (algebra.Carrier, "__init__", "algebra.Carrier"),
)
# Short, stable layer names for the twelve criteria, keyed by display name.
CRITERION_SLUGS = {
    "pointwise meet identity": "pointwise_meet",
    "star-closure fixed points": "star_fixed",
    "sequential topology open counts": "open_counts",
    "closed-set characterization": "closed_char",
    "join collapse to discrete/metric": "join_collapse",
    "limit intersection law": "limit_intersection",
    "strictness witnesses": "strictness",
    "complement homeomorphism and space properties": "homeo_props",
    "antitone adjunction": "galois",
    "coordinatewise cube limits": "cube",
    "submeasure axioms and metric": "submeasures",
    "subsequence-stable limsup condition": "hbar",
}

LAYERS = tuple(
    dict.fromkeys(
        [layer for _, _, layer in FUNCTIONS + METHODS if isinstance(layer, str)]
        + [f"report.emit.{fmt}" for fmt in ("table", "json", "dot")]
        + [f"verify.criterion.{slug}" for slug in CRITERION_SLUGS.values()]
    )
)


class Tracer:
    """Keeps one span per wrapped call in memory: its id, its parent's id
    (0 for a verdict), the verdict it belongs to, its layer, start and end."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.verdicts = 0
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []
        self._criteria: list | None = None

    def call(self, layer: str, fn, args: tuple, kwargs: dict):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.verdicts, layer, start, end))

    def verdict(self, fn, item):
        """Run one verdict under a root span that its layer spans hang from."""
        self.verdicts += 1
        return self.call("verdict", fn, (item,), {})

    def _wrap(self, fn, layer):
        call = self.call
        if callable(layer):
            def wrapper(*args, **kwargs):
                return call(layer(args, kwargs), fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(layer, fn, args, kwargs)
        return wrapper

    def _rebind(self, owner, attribute: str, value) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "convlab" or name.startswith("convlab.")]
        for owner, attribute, layer in FUNCTIONS:
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)
        for cls, attribute, layer in METHODS:
            self._rebind(cls, attribute, self._wrap(getattr(cls, attribute), layer))
        self._criteria = list(verify.CRITERIA)
        verify.CRITERIA[:] = [
            (name, self._wrap(fn, f"verify.criterion.{CRITERION_SLUGS[name]}"))
            for name, fn in self._criteria
        ]

    def uninstall(self) -> None:
        """Restore every binding that install replaced."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        if self._criteria is not None:
            verify.CRITERIA[:] = self._criteria
            self._criteria = None

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Self seconds and calls per layer. A span's self time is its
        duration minus its children's; calls nest, so children never overlap."""
        children = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            children[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for span_id, _, _, layer, start, end in self.spans:
            total = totals[layer]
            total[0] += end - start - children[span_id]
            total[1] += 1
        return {layer: (s, calls) for layer, (s, calls) in totals.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            json.dump({"fields": ["id", "parent", "verdict", "layer", "start_s", "end_s"], "spans": self.spans}, f)
