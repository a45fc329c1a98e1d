"""Span tracing of chainscope's layers from outside the library.

The library has no tracing of its own, so this module wraps the public
callables of each layer module (functions in ``__all__``, public methods of
the classes in ``__all__``, the ``cli`` entry points and the fixture claim
checks) and records one span per call: pass id, span id, parent span id,
layer, name, start and end.  Spans stay in memory until the run ends.

A layer's self time is the summed duration of its spans minus the
durations of their direct children; the benchmark's own time is the pass
wall time minus its top-level spans, so the layer self times and the
benchmark's time add up to the traced pass wall time.

Work counts are taken at the same boundaries: rows (``distances_from``),
``pairwise`` calls and elements, single ``distance`` calls, and
chain-graph builds with their (space, eps) keys and edge counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = (
    "metric", "chains", "sequences", "moduli", "approximation",
    "fixtures", "harness", "cli",
)

# O(1) accessors: wrapping them would cost more than the work they do, so
# their time stays with the caller.
UNWRAPPED_METHODS = frozenset({
    "check_index", "label_of", "index_of", "component_id", "neighbors",
    "component_members", "point", "key", "support",
})

# Constructors worth a span: space builds (with validation) and graph builds.
TRACED_CONSTRUCTORS = frozenset({"MetricSpace", "ChainGraph"})

PROFILE_SPANS = frozenset({"covering_profile", "ChainGraph.covering_profile"})

SPAN_FIELDS = ("pass", "id", "parent", "layer", "name", "start", "end")


class Tracer:
    """In-memory span recorder with per-pass work counters."""

    def __init__(self):
        self.spans = []  # one list per span, fields as in SPAN_FIELDS
        self._stack = [-1]  # open span ids; -1 marks "no parent"
        self.pass_id = 0
        self.active = False  # wrappers record only between begin/end_pass
        self.counts = Counter()
        self._spaces = {}  # id -> space, held so ids stay unique in a pass
        self._graph_keys = set()
        self._pass_start = 0
        self._pass_begin = 0.0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer, name, fn, count=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            rec = [self.pass_id, sid, stack[-1], layer, name, clock(), None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer's public callables in place, process-wide.

        The wrappers record nothing outside a pass begun with begin_pass.
        """
        modules = {layer: importlib.import_module(f"chainscope.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name in _public_names(layer, mod):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[obj] = self.wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        package = importlib.import_module("chainscope")
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replaced:
                            value[key] = replaced[item]

    def _wrap_class(self, layer, cls):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or attr in UNWRAPPED_METHODS:
                continue
            if attr == "__init__":
                if cls.__name__ not in TRACED_CONSTRUCTORS:
                    continue
            elif attr.startswith("_"):
                continue
            count = _COUNTERS.get((cls.__name__, attr))
            setattr(cls, attr,
                    self.wrap(layer, f"{cls.__name__}.{attr}", fn, count))

    # -- passes -----------------------------------------------------------

    def begin_pass(self):
        self.pass_id += 1
        self.counts = Counter()
        self._spaces = {}
        self._graph_keys = set()
        self._pass_start = len(self.spans)
        self.active = True
        self._pass_begin = time.perf_counter()

    def end_pass(self):
        """Per-layer metrics of the pass that just ended."""
        wall = time.perf_counter() - self._pass_begin
        self.active = False
        spans = self.spans[self._pass_start:]
        base = self._pass_start
        child = [0.0] * len(spans)
        top = 0.0
        for rec in spans:
            dur = rec[6] - rec[5]
            if rec[2] < base:
                top += dur
            else:
                child[rec[2] - base] += dur
        self_s = dict.fromkeys(LAYERS, 0.0)
        build_s = profile_s = discreteness_s = 0.0
        sequence_calls = 0
        for k, rec in enumerate(spans):
            dur = rec[6] - rec[5]
            self_s[rec[3]] += dur - child[k]
            name = rec[4]
            parent = spans[rec[2] - base][4] if rec[2] >= base else None
            if name == "MetricSpace.__init__":
                build_s += dur
            elif name in PROFILE_SPANS and parent not in PROFILE_SPANS:
                profile_s += dur
            elif name == "chain_discreteness":
                discreteness_s += dur
            if rec[3] == "sequences":
                sequence_calls += 1
        bench_s = wall - top
        total = sum(self_s.values()) + bench_s
        if abs(total - wall) > 1e-6 * max(wall, 1.0):
            raise RuntimeError(f"span self times sum to {total}, wall {wall}")

        c = self.counts
        pairs = sum(s.n * (s.n - 1) // 2 for s in self._spaces.values())
        builds = c["graph_builds"]
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "metric.rows": c["rows"],
            "metric.pairwise_calls": c["pairwise_calls"],
            "metric.dist_evals": c["dist_evals"],
            "metric.evals_per_pair": c["dist_evals"] / pairs if pairs else 0.0,
            "metric.build_s": build_s,
            "chains.graph_builds": builds,
            "chains.graph_reuse": (
                len(self._graph_keys) / builds if builds else 1.0
            ),
            "chains.edges": c["edges"],
            "chains.profile_s": profile_s,
            "chains.discreteness_s": discreteness_s,
            "sequences.calls": sequence_calls,
            "bench.self_s": bench_s,
            "traced.wall_s": wall,
        })
        self._spaces = {}
        self._graph_keys = set()
        return out

    def _touch(self, space):
        self._spaces[id(space)] = space

    def dump(self, path):
        """Write the field names, then every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _public_names(layer, mod):
    if layer == "cli":
        return [n for n in vars(mod) if n.startswith("cmd_")] + ["main"]
    names = list(mod.__all__)
    if layer == "fixtures":
        # claim checks are carried by Claim objects and called as claim.check
        names += [n for n in vars(mod) if n.startswith("_claim_")]
    return names


def _count_row(tracer, args, result):
    space = args[0]
    tracer.counts["rows"] += 1
    tracer.counts["dist_evals"] += space.n
    tracer._touch(space)


def _count_pairwise(tracer, args, result):
    tracer.counts["pairwise_calls"] += 1
    tracer.counts["dist_evals"] += result.size
    tracer._touch(args[0])


def _count_distance(tracer, args, result):
    tracer.counts["dist_evals"] += 1
    tracer._touch(args[0])


def _count_graph(tracer, args, result):
    graph = args[0]
    tracer.counts["graph_builds"] += 1
    tracer.counts["edges"] += sum(
        len(graph.neighbors(i)) for i in range(graph.n)
    ) // 2
    tracer._touch(graph.space)
    tracer._graph_keys.add((id(graph.space), graph.eps))


_COUNTERS = {
    ("MetricSpace", "distances_from"): _count_row,
    ("MetricSpace", "pairwise"): _count_pairwise,
    ("MetricSpace", "distance"): _count_distance,
    ("ChainGraph", "__init__"): _count_graph,
}
