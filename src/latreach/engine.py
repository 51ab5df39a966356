"""Whole-network reachability: exact/fast runs, partitioning, backtracking
and result dumps.

``reach`` folds a list of sets through the network layer by layer.  The
input box can be partitioned (repeated bisection of the widest perturbed
coordinate) and partitions run independently, in-process or on a process
pool; ``workers`` chooses only where they run, never the result.  A
partition stops once its deadline passes or more than ``max_sets`` of its
sets are alive (``layers._expired``, checked at every pop of the one walker
that runs ReLU and maxpool, after every maxpool split and after every
layer); the run checks its set count after each partition.  Completed
partitions are kept in order, the first truncated one ends the run, those
not yet started are cancelled, and the result is flagged truncated.
"""

from __future__ import annotations

import json
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .lattice import (LatticeSet, as_int, split_by_hyperplane, set_to_dict,
                      set_from_dict, sets_json)
from .layers import (NeuronSelection, affine_layer_reach, relu_layer_reach,
                     maxpool_layer_reach, _expired)
from .model import (Network, InputSpec, ModelError, Gradients, embed_box,
                    forward, gradient)

DEFAULT_MAX_SETS = 5_000_000


@dataclass(frozen=True)
class ReachConfig:
    """Analysis knobs.

    ``relaxation`` is ignored in exact mode.  ``workers`` > 1 distributes
    partitions over a process pool; 1 keeps everything in-process.
    """

    mode: str = "exact"
    relaxation: float = 1.0
    partitions: int = 1
    timeout: float | None = None
    max_sets: int = DEFAULT_MAX_SETS
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("exact", "fast"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in [0, 1]")
        for name in ("partitions", "max_sets", "workers"):
            # as_int raises LatticeError, a ValueError
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.partitions < 1 or self.workers < 1 or self.max_sets < 1:
            raise ValueError("partitions, workers and max_sets must be >= 1")
        if self.timeout is not None and not self.timeout > 0:  # nan too
            raise ValueError("timeout must be positive")


@dataclass
class ReachResult:
    """Output sets in logit space plus run accounting."""

    sets: list
    set_count: int
    wall_time: float
    partitions_done: int
    truncated: bool
    counters: dict = field(default_factory=dict)


def select_neurons(net: Network, spec: InputSpec, delta: float,
                   grads: Gradients | None = None) -> dict:
    """Gradient-ranked neuron selection for every nonlinear layer.

    Ranks by absolute gradient of the predicted-class logit at the baseline,
    descending, ties to the lower index.  Selects round(delta * n) neurons
    with a floor of one when delta > 0; delta = 0 selects none.  A caller
    that already holds that gradient passes it as ``grads``.
    """
    if grads is None:
        base = spec.baseline
        grads = gradient(net, base, int(np.argmax(forward(net, base))))
    selections = {}
    for idx, g in grads.wrt_layer.items():
        n = g.size
        if delta <= 0.0:
            m = 0
        else:
            m = min(n, max(1, int(np.floor(delta * n + 0.5))))
        order = np.lexsort((np.arange(n), -np.abs(g)))
        mask = np.zeros(n, dtype=bool)
        mask[order[:m]] = True
        selections[idx] = NeuronSelection(mask)
    return selections


def _partition_box(lo, hi, k):
    """Split [lo, hi] into k leaves by bisecting the widest coordinate.

    Always bisects the currently widest leaf; stops early when every leaf
    has zero width.  Leaves come back in spatial (left-to-right) order.
    """
    leaves = [(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))]
    while len(leaves) < k:
        widths = [float((h - l).max()) for l, h in leaves]
        i = int(np.argmax(widths))
        if widths[i] <= 0.0:
            break
        l, h = leaves[i]
        axis = int(np.argmax(h - l))
        mid = 0.5 * (l[axis] + h[axis])
        h1 = h.copy()
        h1[axis] = mid
        l2 = l.copy()
        l2[axis] = mid
        leaves[i:i + 1] = [(l, h1), (l2, h)]
    return leaves


def _propagate_partition(net, spec, selections, deadline, max_sets, box):
    """Run the input sub-box ``box = (lo, hi)`` through all layers.

    Returns (sets_or_None, stats); None means the budget (``_expired``)
    fired inside a layer or at the end of one.
    """
    stats = {"splits": 0, "sets_per_layer": [0] * len(net.layers),
             "deadline": deadline, "max_sets": max_sets}
    sets = [embed_box(spec, *box)]
    for i, layer in enumerate(net.layers):
        sel = selections.get(i) if selections else None
        if layer.kind == "affine":
            sets = affine_layer_reach(sets, layer.W, layer.b)
        elif layer.kind == "relu":
            sets = relu_layer_reach(sets, sel, stats)
        else:
            sets = maxpool_layer_reach(sets, layer, sel, stats)
        stats["sets_per_layer"][i] += len(sets)
        if _expired(stats, len(sets)):
            return None, stats
    return sets, stats


def reach(net: Network, spec: InputSpec, cfg: ReachConfig,
          grads: Gradients | None = None) -> ReachResult:
    """Reachable sets of the input box under the network.

    Exact mode: the union of outputs is the exact image and every set
    carries its linear region.  Fast mode: each output is a subset (a face)
    of some exact output; the union under-approximates the image.  Fast
    mode ranks neurons by ``grads``, the gradient of the baseline's
    predicted-class logit at the baseline, computed here when not given.
    """
    if spec.baseline.size != net.input_width:
        raise ModelError("input spec does not match network input width")
    t0 = time.perf_counter()
    deadline = (time.monotonic() + cfg.timeout if cfg.timeout is not None
                else np.inf)
    selections = (select_neurons(net, spec, cfg.relaxation, grads)
                  if cfg.mode == "fast" else None)

    centers = spec.baseline[list(spec.perturbed_coords)]
    parts = _partition_box(centers - spec.epsilon, centers + spec.epsilon,
                           cfg.partitions)
    run = partial(_propagate_partition, net, spec, selections, deadline,
                  cfg.max_sets)

    counters = {"splits": 0, "sets_per_layer": [0] * len(net.layers)}
    outs: list = []
    done = 0
    pool = ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else None
    try:
        for sets, stats in (pool.map if pool else map)(run, parts):
            counters["splits"] += stats["splits"]
            for i, n in enumerate(stats["sets_per_layer"]):
                counters["sets_per_layer"][i] += n
            if sets is None:
                break
            outs.extend(sets)
            done += 1
            if len(outs) > cfg.max_sets:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    truncated = done < len(parts) or len(outs) > cfg.max_sets
    del outs[cfg.max_sets:]
    return ReachResult(outs, len(outs), time.perf_counter() - t0, done,
                       truncated, counters)


def backtrack(result_set: LatticeSet, constraints) -> LatticeSet | None:
    """Input region (as a set) mapping into the given output halfspaces.

    Clips the output set by each constraint, keeping the ``a.x + b >= 0``
    side; region rows interpolate along.  The returned set lives in input
    space (vertices = surviving region vertices).  None when empty.
    """
    cur = result_set
    for h in constraints:
        cur, _ = split_by_hyperplane(cur, h, (True, False))
        if cur is None:
            return None
    return LatticeSet(cur.lattice, cur.region_vertices, cur.region_vertices)


def _pinned_scalars(result: ReachResult, mode: str, relaxation: float):
    """The pinned scalar keys of a result dump, in order: those before
    ``sets`` and those after it."""
    return ({"mode": mode, "relaxation": relaxation},
            {"set_count": result.set_count, "wall_time_s": result.wall_time,
             "truncated": result.truncated})


def result_to_dict(result: ReachResult, mode: str, relaxation: float) -> dict:
    """JSON form of a result; set records carry faces for later backtracking."""
    head, tail = _pinned_scalars(result, mode, relaxation)
    return {**head, "sets": [set_to_dict(s) for s in result.sets], **tail}


def write_result(f, result: ReachResult, mode: str, relaxation: float) -> None:
    """Write ``json.dumps(result_to_dict(...))`` to the text file ``f``.

    The set records are formatted straight from the lattice arrays, one
    chunk of consecutive sets at a time (``lattice.sets_json``), so only
    one chunk's text is held, never a record tree.
    """
    head, tail = _pinned_scalars(result, mode, relaxation)
    f.write(json.dumps(head)[:-1] + ', "sets": [')
    sep = ""
    for text in sets_json(result.sets):
        f.write(sep)
        f.write(text)
        sep = ", "
    f.write("], " + json.dumps(tail)[1:])


_BLANKS = re.compile(r"[ \t\n\r]*")
_CHUNK = 1 << 16  # characters read at a time by iter_set_records
_NUMBER_TAIL = "0123456789.eE+-"


class _Window:
    """The unread part of a text file, refilled on demand and consumed one
    JSON value or one structural character at a time."""

    def __init__(self, f):
        self.f, self.buf, self.pos, self.eof = f, "", 0, False
        self.decode = json.JSONDecoder().raw_decode

    def _fill(self) -> bool:
        """Drop what is consumed and read at least as much as is left, so a
        large value costs linear time; False at the end of the file."""
        more = self.f.read(max(_CHUNK, len(self.buf) - self.pos))
        self.buf, self.pos = self.buf[self.pos:] + more, 0
        self.eof = not more
        return not self.eof

    def fail(self, what: str):
        raise json.JSONDecodeError(f"Expecting {what}", self.buf, self.pos)

    def peek(self) -> str:
        """The next non-blank character, not consumed ('' at the end)."""
        while True:
            self.pos = _BLANKS.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if not self._fill():
                return ""

    def take(self, allowed: str, what: str) -> str:
        """Consume the next non-blank character, one of ``allowed``."""
        c = self.peek()
        if not c or c not in allowed:
            self.fail(what)
        self.pos += 1
        return c

    def value(self):
        """Decode the next value.  The window may end inside it, and a cut
        number still decodes, so a value counts only when the window holds
        a next character that cannot continue a number."""
        self.peek()
        while True:
            try:
                val, end = self.decode(self.buf, self.pos)
                if self.eof or self.buf[end:end + 1] not in _NUMBER_TAIL:
                    self.pos = end
                    return val
            except json.JSONDecodeError:
                if self.eof:
                    raise
            self._fill()

    def entries(self, close: str):
        """Step through a comma-separated sequence whose opening bracket is
        consumed: yield before each entry, consume ``close`` at the end."""
        if self.peek() == close:
            self.pos += 1
            return
        while True:
            yield
            if self.take("," + close, "',' delimiter") == close:
                return


def iter_set_records(path):
    """Yield the records of the ``sets`` array of a result dump one by one.

    The file is read in chunks and every other value is decoded and
    dropped, so memory holds one chunk and one record, never the whole
    document.  Keys may come in any order and with any whitespace.  Any
    malformed JSON raises the ``json.JSONDecodeError`` that ``json.loads``
    gives for the file; a document without ``sets`` raises KeyError.
    """
    found = False
    with open(path) as f:
        w = _Window(f)
        try:
            w.take("{", "'{'")
            for _ in w.entries("}"):
                key = w.value()
                if not isinstance(key, str):
                    w.fail("property name enclosed in double quotes")
                w.take(":", "':' delimiter")
                if key != "sets":
                    w.value()
                    continue
                found = True
                w.take("[", "'['")
                for _ in w.entries("]"):
                    yield w.value()
            if w.peek():
                w.fail("end of data")
        except json.JSONDecodeError:
            f.seek(0)
            json.loads(f.read())  # raises with json.loads' message, if any
            raise
    if not found:
        raise KeyError("sets")


def sets_from_dict(doc: dict) -> list:
    """Rebuild the LatticeSets stored by :func:`result_to_dict`."""
    return [set_from_dict(rec) for rec in doc["sets"]]
