"""Outside-in tracing of ``latreach`` by rebinding the names its modules use.

``Tracer.install`` swaps wrappers in for the functions that
``latreach.cli``, ``latreach.engine`` and ``latreach.layers`` call through
their module globals, so every call crosses a wrapper and nothing in the
package changes.  ``uninstall`` puts the originals back.

Calls at layer boundaries become spans (name, start, end, parent id, self
time).  Hot leaf calls that run hundreds of thousands of times per command
(``classify_vertices``, ``split_by_hyperplane``, ...) only add to a count
and a time sum, on the leaf and on the enclosing span, so the enclosing
span's self time stays exact without a span per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

perf_counter = time.perf_counter

# (module, attribute, span name): functions traced as spans
SPANS = [
    ("cli", "load_model", "model.load_model"),
    ("cli", "reach", "engine.reach"),
    ("cli", "result_to_dict", "engine.result_to_dict"),
    ("cli", "sets_from_dict", "engine.sets_from_dict"),
    ("cli", "backtrack", "engine.backtrack"),
    ("cli", "verify", "cli.verify"),
    ("cli", "falsify", "cli.falsify"),
    ("engine", "select_neurons", "engine.select_neurons"),
    ("engine", "affine_layer_reach", "layers.affine"),
    ("engine", "relu_layer_reach", "layers.relu"),
    ("engine", "maxpool_layer_reach", "layers.maxpool"),
]
# (module, attribute, leaf name): hot calls kept as counts and time sums
LEAVES = [
    ("layers", "split_by_hyperplane", "lattice.split"),
    ("layers", "classify_vertices", "lattice.classify"),
    ("layers", "affine_transform", "lattice.affine"),
    ("engine", "set_to_dict", "lattice.set_to_dict"),
    ("engine", "set_from_dict", "lattice.set_from_dict"),
    ("engine", "forward", "model.forward"),
    ("cli", "forward", "model.forward"),
    ("engine", "gradient", "model.gradient"),
    ("cli", "gradient", "model.gradient"),
]


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "counts",
                 "attrs")

    def __init__(self, sid, parent, name):
        self.id, self.parent, self.name = sid, parent, name
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts = defaultdict(int)
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def to_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "counts": dict(self.counts), "attrs": self.attrs}


class Tracer:
    """Spans and leaf aggregates of one traced batch, kept in memory."""

    def __init__(self, modules):
        self.modules = modules  # short name -> module object
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaf_calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.split_faces_in: list[int] = []
        self.split_faces_out: list[int] = []
        self._saved: list = []
        self._layer_cursor = 0
        self._net = None

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        for mod, attr, name in SPANS:
            self._swap(mod, attr, self._span_wrapper(name, getattr(
                self.modules[mod], attr)))
        for mod, attr, name in LEAVES:
            self._swap(mod, attr, self._leaf_wrapper(name, getattr(
                self.modules[mod], attr)))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _swap(self, mod, attr, wrapper):
        module = self.modules[mod]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # --- recording ---------------------------------------------------------

    def run_span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span; used for the CLI entry point too."""
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), parent.id if parent else None, name)
        self.spans.append(span)
        self._before(span, args)
        self.stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child_s += span.duration
                for key, n in span.counts.items():
                    parent.counts[key] += n
        self._after(span, args, result)
        return result

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.run_span(name, fn, *args, **kwargs)
        return wrapper

    def _leaf_wrapper(self, name, fn):
        calls, total = self.leaf_calls, self.leaf_s
        stack = self.stack
        is_split = name == "lattice.split"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            calls[name] += 1
            total[name] += dt
            if stack:
                top = stack[-1]
                top.child_s += dt
                top.counts[name] += 1
            if is_split:
                self.split_faces_in.append(args[0].lattice.n_faces)
                self.split_faces_out.append(sum(
                    r.lattice.n_faces for r in result if r is not None))
            return result
        return wrapper

    def _before(self, span, args):
        if span.name == "engine.reach":
            self._net = args[0]
            self._layer_cursor = 0
        elif span.name.startswith("layers."):
            kind = span.name.split(".", 1)[1]
            idx = self._layer_cursor
            if self._net is None or self._net.layers[idx].kind != kind:
                raise RuntimeError(f"layer order lost at {span.name}")
            self._layer_cursor = (idx + 1) % len(self._net.layers)
            span.attrs["layer"] = idx
            span.attrs["sets_in"] = len(args[0])
            stats = args[-1] if kind != "affine" else None
            span.attrs["stats_splits_before"] = (
                stats.get("splits", 0) if isinstance(stats, dict) else 0)

    def _after(self, span, args, result):
        if span.name == "engine.reach":
            span.attrs["counters"] = {
                "splits": result.counters.get("splits", 0),
                "sets_per_layer": list(result.counters["sets_per_layer"])}
            span.attrs["set_count"] = result.set_count
        elif span.name.startswith("layers."):
            kind = span.name.split(".", 1)[1]
            span.attrs["sets_out"] = len(result)
            span.attrs["faces_max"] = max(
                (s.lattice.n_faces for s in result), default=0)
            stats = args[-1] if kind != "affine" else None
            after = stats.get("splits", 0) if isinstance(stats, dict) else 0
            span.attrs["splits"] = after - span.attrs.pop("stats_splits_before")

    # --- output ------------------------------------------------------------

    def write(self, path) -> None:
        doc = {"spans": [s.to_dict() for s in self.spans],
               "leaves": {k: {"calls": self.leaf_calls[k], "s": self.leaf_s[k]}
                          for k in self.leaf_calls}}
        with open(path, "w") as f:
            json.dump(doc, f)

    def crosscheck(self) -> list:
        """Tracer counts against the program's own ``ReachResult.counters``.

        Per reach, the layer spans' ``sets_out`` must equal
        ``sets_per_layer`` and the split leaf calls must equal ``splits``.
        """
        fails = []
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        for r in self.spans:
            if r.name != "engine.reach":
                continue
            want = r.attrs["counters"]
            got = [0] * len(want["sets_per_layer"])
            for c in children[r.id]:
                if c.name.startswith("layers."):
                    got[c.attrs["layer"]] += c.attrs["sets_out"]
            if got != want["sets_per_layer"]:
                fails.append(f"reach span {r.id}: traced sets per layer {got}"
                             f" != counters {want['sets_per_layer']}")
            if r.counts["lattice.split"] != want["splits"]:
                fails.append(f"reach span {r.id}: traced splits "
                             f"{r.counts['lattice.split']} != counters "
                             f"{want['splits']}")
        return fails

    def summary(self) -> dict:
        """Per-layer metrics of the traced batch, keyed by metric name."""
        m: dict = defaultdict(float)

        def add_span(prefix, s):
            m[prefix + ".calls"] += 1
            m[prefix + ".s"] += s.duration
            m[prefix + ".self_s"] += s.self_s

        for s in self.spans:
            add_span(s.name, s)
            if s.name.startswith("layers."):
                kind = s.name.split(".", 1)[1]
                key = f"layers.L{s.attrs['layer']}.{kind}"
                m[key + ".s"] += s.duration
                m[key + ".sets_out"] += s.attrs["sets_out"]
                m[key + ".splits"] += s.attrs["splits"]
                m[key + ".faces_max"] = max(m[key + ".faces_max"],
                                            s.attrs["faces_max"])
                m[key + ".classify_calls"] += s.counts["lattice.classify"]
        for name, n in self.leaf_calls.items():
            m[name + ".calls"] = n
            m[name + ".s"] = self.leaf_s[name]
            m[name + ".self_s"] = self.leaf_s[name]
        n_split = self.leaf_calls.get("lattice.split", 0)
        if n_split:
            m["lattice.split.us_per_call"] = (
                1e6 * self.leaf_s["lattice.split"] / n_split)
            m["lattice.split.faces_in_mean"] = (
                sum(self.split_faces_in) / n_split)
            m["lattice.split.faces_in_max"] = max(self.split_faces_in)
            m["lattice.split.cut_ratio"] = (
                sum(self.split_faces_out) / sum(self.split_faces_in))
        return dict(m)
