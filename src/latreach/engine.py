"""Whole-network reachability: exact/fast runs, partitioning, backtracking
and result dumps.

``reach`` folds a list of sets through the network layer by layer.  The
input box can be partitioned (repeated bisection of the widest perturbed
coordinate, until the deadline passes) and partitions run independently,
in-process or on a process pool; ``workers`` chooses only where they run,
never the result.  Only a run that starts a pool imports it, and
``multiprocessing`` with it.  A partition stops once its deadline passes or
more than ``max_sets`` of its sets are alive (``layers._expired``, checked
at every pop of the one walker that runs ReLU and maxpool, before every
split and after every layer); the run checks its set count after each
partition.  Completed partitions are kept in order, the first truncated one
ends the run, those not yet started are cancelled, and the result is
flagged truncated.
"""

from __future__ import annotations

import heapq
import json
import re
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .lattice import (LatticeSet, as_int, record_grammar, set_from_dict,
                      set_to_dict, sets_json, split_by_hyperplane)
from .layers import (NeuronSelection, affine_layer_reach, relu_layer_reach,
                     maxpool_layer_reach, _expired)
from .model import (Network, InputSpec, ModelError, Gradients, mapped_box,
                    unmap_set, forward, gradient)

DEFAULT_MAX_SETS = 5_000_000


@dataclass(frozen=True)
class ReachConfig:
    """Analysis knobs.

    ``relaxation`` is ignored in exact mode.  ``workers`` > 1 runs
    partitions on a process pool, at most one worker per partition.
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


def _partition_box(lo, hi, k, deadline=np.inf):
    """Split [lo, hi] into k leaves by bisecting the widest coordinate.

    Always bisects the widest leaf, the leftmost of equally wide ones (one
    heap keyed by (-width, left/right path from the root)); stops early
    when every leaf has zero width or ``deadline`` (``time.monotonic``) has
    passed.  Leaves come back in spatial order.
    """
    def leaf(path, l, h):
        return -float((h - l).max()), path, l, h

    heap = [leaf((), np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))]
    while (len(heap) < k and heap[0][0] < 0.0
           and time.monotonic() <= deadline):
        _, path, l, h = heapq.heappop(heap)
        axis = int(np.argmax(h - l))
        mid = 0.5 * (l[axis] + h[axis])
        h1, l2 = h.copy(), l.copy()
        h1[axis] = l2[axis] = mid
        heapq.heappush(heap, leaf(path + (0,), l, h1))
        heapq.heappush(heap, leaf(path + (1,), l2, h))
    return [(l, h) for _, _, l, h in sorted(heap, key=lambda x: x[1])]


def _propagate_partition(net, spec, selections, deadline, max_sets, box):
    """Run the input sub-box ``box = (lo, hi)`` through all layers.

    The sets are MappedSets until the last layer; then each output is
    replaced in place by its LatticeSet, so the two forms never coexist in
    full.  Returns (sets_or_None, stats); None means the budget
    (``_expired``) fired inside a layer or at the end of one.
    """
    stats = {"splits": 0, "sets_per_layer": [0] * len(net.layers),
             "deadline": deadline, "max_sets": max_sets}
    sets = [mapped_box(spec, *box)]
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
    for i, s in enumerate(sets):
        sets[i] = unmap_set(spec, s)
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
                           cfg.partitions, deadline)
    run = partial(_propagate_partition, net, spec, selections, deadline,
                  cfg.max_sets)

    counters = {"splits": 0, "sets_per_layer": [0] * len(net.layers)}
    outs: list = []
    done = 0
    workers = min(cfg.workers, len(parts))
    pool = None
    if workers > 1:
        # imported here: multiprocessing costs every other run ~2 MB resident
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers)
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
# a decode error at most this many characters before the window's end may
# come from the cut: "-Infinit" fails at its "-"
_CUT = 8


def _trailing_comma(close: str) -> tuple[str, bool]:
    """The running ``json``'s error for a comma just before ``close``: its
    message, and whether it points at the comma (as from Python 3.13) rather
    than at ``close``."""
    text = "[0, ]" if close == "]" else '{"a": 0, }'
    try:
        json.loads(text)
    except json.JSONDecodeError as e:
        return e.msg, e.pos == text.index(",")


class _Window:
    """The unread part of a text file, refilled on demand and consumed one
    JSON value or one structural character at a time.

    ``start`` characters precede ``buf`` in the file, ``lines`` newlines
    among them, the last at ``newline`` (-1 if none), so an error names its
    place in the file as ``json.loads`` would.
    """

    def __init__(self, f):
        self.f, self.buf, self.pos, self.eof = f, "", 0, False
        self.start, self.lines, self.newline = 0, 0, -1
        self.decode = json.JSONDecoder().raw_decode

    def fill(self) -> bool:
        """Drop what is consumed and read at least as much as is left, so a
        large value costs linear time; False at the end of the file."""
        last = self.buf.rfind("\n", 0, self.pos)
        if last >= 0:
            self.lines += self.buf.count("\n", 0, self.pos)
            self.newline = self.start + last
        self.start += self.pos
        more = self.f.read(max(_CHUNK, len(self.buf) - self.pos))
        self.buf, self.pos = self.buf[self.pos:] + more, 0
        self.eof = not more
        return not self.eof

    def ready(self) -> None:
        """Hold at least ``_CHUNK`` unread characters or the rest of the
        file, so a value shorter than that is never cut."""
        if len(self.buf) - self.pos < _CHUNK and not self.eof:
            self.fill()

    def error(self, msg: str, at: int) -> json.JSONDecodeError:
        """``json.loads``' error for the whole file at ``buf[at]``."""
        e = json.JSONDecodeError(msg, self.buf, at)
        last = self.buf.rfind("\n", 0, at)
        e.pos = self.start + at
        e.lineno = self.lines + self.buf.count("\n", 0, at) + 1
        e.colno = e.pos - (self.start + last if last >= 0 else self.newline)
        e.args = (f"{msg}: line {e.lineno} column {e.colno} (char {e.pos})",)
        return e

    def fail(self, msg: str):
        raise self.error(msg, self.pos)

    def peek(self) -> str:
        """The next non-blank character, not consumed ('' at the end)."""
        while True:
            self.pos = _BLANKS.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if not self.fill():
                return ""

    def ahead(self, allowed: str, what: str) -> str:
        """The next non-blank character, one of ``allowed``, not consumed."""
        c = self.peek()
        if not c or c not in allowed:
            self.fail(f"Expecting {what}")
        return c

    def take(self, allowed: str, what: str) -> str:
        """Consume the next non-blank character, one of ``allowed``."""
        c = self.ahead(allowed, what)
        self.pos += 1
        return c

    def value(self, grammar=None):
        """Decode the next value; with a ``grammar``, only check it and
        return None, undecoded if the grammar matches it.  The window may
        end inside the value: a decode error within ``_CUT`` characters of
        the window's end or an unterminated string is retried on a larger
        window, and since a cut number still decodes, a value counts only
        when the window holds a next character that cannot continue a
        number."""
        self.peek()
        self.ready()
        m = grammar and grammar.match(self.buf, self.pos)
        if m:
            self.pos = m.end()
            return None
        while True:
            try:
                val, end = self.decode(self.buf, self.pos)
                if self.eof or self.buf[end:end + 1] not in _NUMBER_TAIL:
                    self.pos = end
                    return None if grammar else val
            except json.JSONDecodeError as e:
                if self.eof or (len(self.buf) - e.pos > _CUT and not
                                e.msg.startswith("Unterminated string")):
                    raise self.error(e.msg, e.pos) from None
            self.fill()

    def entries(self, close: str):
        """Step through a comma-separated sequence whose opening bracket is
        consumed: yield before each entry, consume ``close`` at the end."""
        if self.peek() == close:
            self.pos += 1
            return
        while True:
            yield
            if self.ahead("," + close, "',' delimiter") == close:
                self.pos += 1
                return
            # look past the comma, keeping it in the window for the error
            while (after := _BLANKS.match(self.buf, self.pos + 1).end()) \
                    == len(self.buf) and self.fill():
                pass
            if self.buf[after:after + 1] == close:
                msg, at_comma = _trailing_comma(close)
                raise self.error(msg, self.pos if at_comma else after)
            self.pos = after

    def end(self) -> None:
        if self.peek():
            self.fail("Extra data")


def iter_set_records(path, only: int | None = None):
    """Yield the records of the ``sets`` array of a result dump one by one.

    The file is read in chunks, so memory holds one chunk and one record,
    never the whole document.  Every record is decoded, or with ``only``
    just record ``only``: the others are checked against the grammar of
    the records this program writes (``lattice.record_grammar``), decoded
    only when it does not match, and come out as None.  Keys may come in
    any order and with any whitespace.  Malformed JSON raises the
    ``json.JSONDecodeError`` that ``json.loads`` gives for the file, as
    soon as the reader meets it, and a record is yielded only once the
    character after it is read; a well-formed document without exactly
    one ``sets`` key, or whose ``sets`` is not an array, raises ValueError
    at its end.
    """
    grammar = record_grammar() if only is not None else None
    keys, array = 0, False
    with open(path, newline="") as f:  # offsets count a \r\n as 2
        w = _Window(f)
        w.fill()
        if w.buf.startswith("\ufeff"):
            raise w.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        if w.peek() != "{":
            err = w.error("Expecting '{'", w.pos)
            w.value()  # json.loads' own error first, if the file has one
            w.end()
            raise err
        w.pos += 1
        for _ in w.entries("}"):
            if w.peek() != '"':
                w.fail("Expecting property name enclosed in double quotes")
            key = w.value()
            w.take(":", "':' delimiter")
            keys += key == "sets"
            if key != "sets" or keys > 1 or w.peek() != "[":
                w.value()
                continue
            array = True
            w.pos += 1
            for i, _ in enumerate(w.entries("]")):
                rec = w.value(None if i == only else grammar)
                w.ahead(",]", "',' delimiter")  # before the caller reads it
                yield rec
        w.end()
    if not keys:
        raise ValueError("result dump has no 'sets' array")
    if keys > 1:
        raise ValueError(f"result dump has {keys} 'sets' keys")
    if not array:
        raise ValueError("result dump's 'sets' value is not an array")


def sets_from_dict(doc: dict) -> list:
    """Rebuild the LatticeSets stored by :func:`result_to_dict`."""
    return [set_from_dict(rec) for rec in doc["sets"]]
