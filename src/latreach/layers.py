"""Layer-level set propagation: affine, ReLU, and maxpool layers.

Each function maps a list of LatticeSets to the list of their images under
one layer.  ReLU and maxpool are each one step on one set, run depth first
by one walker (``_walk``) that checks the budget at every pop.  Both split
through one helper (``_split``) on the cut ``(values, pos, neg)`` their own
sign pass gives, so no layer classifies a vertex; ``_split`` checks the
budget first, counts the splits and applies the fast-mode survivor rule.  A
ReLU step only branches on a neuron whose hyperplane crosses the set.  A
maxpool piece makes one pair-sign pass (``_pair_signs``) over the windows
of the pools it has not passed, read once by ``_pair_results``, the one
rule for comparison outcomes.  The reading settles every pool one
coordinate wins on every comparison; only the other pools enumerate the
linearity domains where one pool coordinate dominates the others, cutting
on that pass's columns.  In fast mode a NeuronSelection marks the neurons
treated exactly; a split on the rest keeps a single child, so fast outputs
are always faces of exact outputs rather than new geometry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .lattice import (LatticeError, as_int, sides, eliminate_dims, zero_dims,
                      affine_transform, split_by_hyperplane)
from .lattice import classify_vertices  # noqa: F401  (perfbench/tracer.py wraps it)


@dataclass(frozen=True)
class PoolSpec:
    """One maxpool window: input coordinates ``dims`` reduce to output ``out``."""

    dims: tuple
    out: int

    def __post_init__(self):
        dims = tuple(as_int(d, "pool coordinate") for d in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "out", as_int(self.out, "pool output"))
        if not 2 <= len(dims) <= 4:
            raise LatticeError("pool must cover 2 to 4 coordinates")
        if len(set(dims)) != len(dims):
            raise LatticeError("pool coordinates must be distinct")
        if min(dims) < 0 or self.out < 0:
            raise LatticeError("negative pool index")

    @property
    def window(self):
        """``dims`` padded to 4 with the last coordinate.  A repeat ties with
        that coordinate and loses, so a padded entry never crosses and never
        wins."""
        return self.dims + self.dims[-1:] * (4 - len(self.dims))


@dataclass(frozen=True)
class NeuronSelection:
    """Boolean mask over a layer's input coordinates: True = treated exactly."""

    selected: np.ndarray

    def __post_init__(self):
        sel = np.ascontiguousarray(self.selected, dtype=bool)
        sel.setflags(write=False)
        object.__setattr__(self, "selected", sel)

    @property
    def width(self) -> int:
        return self.selected.size


def _expired(stats, alive: int = 0) -> bool:
    """The one budget rule: ``stats`` expires for good once its ``deadline``
    has passed or more than its ``max_sets`` sets are ``alive``."""
    if stats is not None and "expired" not in stats and (
            alive > stats.get("max_sets", np.inf)
            or time.monotonic() > stats.get("deadline", np.inf)):
        stats["expired"] = True
    return stats is not None and "expired" in stats


def _walk(items, step, stats):
    """Depth first over ``items`` in input order, on one stack: ``step(*item)``
    returns a finished set (or None) and the items that set opens, which run
    next in the order given.  Stops at the first pop where ``_expired`` fires
    on the sets alive (finished plus waiting); returns those finished."""
    out, work = [], items[::-1]
    while work and not _expired(stats, len(out) + len(work)):
        done, opened = step(*work.pop())
        if done is not None:
            out.append(done)
        work += opened[::-1]
    return out


def affine_layer_reach(inputs, W, b):
    """Apply ``x -> Wx + b`` to every set; no combinatorial work."""
    return [affine_transform(s, W, b) for s in inputs]


def _check_selection(selection, inputs):
    if selection is not None and any(s.ambient_dim != selection.width
                                     for s in inputs):
        raise LatticeError("selection width does not match layer input")


def _split(s, cut, coords, wanted, selection, stats):
    """The one way a layer splits ``s``, on a ``cut`` that crosses it (as
    ``split_by_hyperplane`` takes it).  Returns ``(positive, negative)``:
    the children kept, None for a side dropped.  A ``wanted`` side survives
    when its coordinate in ``coords`` is selected (exact mode: all are);
    when neither is, only the side with more vertices (tie: positive), read
    from the cut's masks before any side is built: a side keeps the rows not
    strictly on the other, plus one per crossing edge.  Only survivors are
    built (none, or ``stats`` expired: no split), and a split adds 1 to
    ``stats["splits"]``."""
    if _expired(stats):
        return None, None
    sel = ((True, True) if selection is None
           else selection.selected[list(coords)].tolist())
    if not any(sel):
        big = cut[1].sum() >= cut[2].sum()
        sel = (big, not big)
    keep = [w and c for w, c in zip(wanted, sel)]
    if not any(keep):
        return None, None
    if stats is not None:
        stats["splits"] = stats.get("splits", 0) + 1
    return split_by_hyperplane(s, cut, keep)


def relu_layer_reach(inputs, selection: NeuronSelection | None = None,
                     stats: dict | None = None):
    """Propagate sets through an elementwise ReLU layer.

    One ``_walk`` step per (set, candidate neurons, neurons to zero) item:
    its sign pass projects the coordinates that never go positive to zero,
    with those it was handed, in one batch, and its labels split the set on
    the lowest crossing neuron (no second classify).  The split decides
    that neuron: the negative child zeroes it and the positive child keeps
    it, whatever the values of the new vertices round to, so no neuron is
    split twice.  The children, positive first, carry the other crossing
    neurons on.  Each child has a vertex strictly off the cut, so none is
    dropped as flat; ``_split`` keeps both unless a ``selection`` leaves the
    neuron unselected.  Budget as in ``_walk``.
    """
    _check_selection(selection, inputs)

    def step(s, candidates, dead):
        sub = s.columns(candidates)
        pos, neg = sides(sub, np.abs(sub))
        goes_pos, goes_neg = pos.any(axis=0), neg.any(axis=0)
        news = candidates[goes_pos & goes_neg]
        negs = candidates[~goes_pos].tolist() + dead
        if negs:
            s = zero_dims(s, negs)
        if news.size == 0:
            return s, ()

        k = int(news[0])
        j = int((goes_pos & goes_neg).argmax())  # k's column in the pass
        kids = _split(s, (sub[:, j], pos[:, j], neg[:, j]), (k, k),
                      (True, True), selection, stats)
        return None, [(c, news[1:], zero) for c, zero in zip(kids, ([], [k]))
                      if c is not None]

    return _walk([(s, np.arange(s.ambient_dim), []) for s in inputs], step,
                 stats)


_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]  # of a window


def _pair_signs(s, windows):
    """The cuts ``(d, pos, neg)`` of every pair ``(i, j)`` of ``_PAIRS`` in
    every 4-coordinate window (``PoolSpec.window``) of set ``s``:
    ``d = x[windows[..., i]] - x[windows[..., j]]`` at each vertex ``x``
    (``s.columns``) and its ``sides`` masks, as ``classify_vertices``
    gives the cut ``x_i - x_j``.  The pair axis is last."""
    lo, hi = zip(*_PAIRS)
    d = s.columns(windows[..., lo], windows[..., hi])
    return (d, *sides(d, np.abs(d)))


def _pair_results(pos, neg):
    """``(winner, loser)``: the window index that wins and the one that
    loses each ``_PAIRS`` pair, read from the ``sides`` masks ``pos`` and
    ``neg`` of a ``_pair_signs`` pass (vertex rows first, pairs last).  A
    pair's lower coordinate wins unless a vertex is negative; on a pair the
    piece crosses, both are -1."""
    has_pos, has_neg = pos.any(axis=0), neg.any(axis=0)
    lo, hi = zip(*_PAIRS)
    crossed = has_pos & has_neg
    return (np.where(crossed, -1, np.where(has_neg, hi, lo)),
            np.where(crossed, -1, np.where(has_neg, lo, hi)))


def _domain_chain(s, pool, k, selection, stats, signs, results):
    """Clip ``s`` to the domain where pool coordinate ``k`` is the maximum.

    Applies the comparison hyperplanes involving ``k`` in ``_PAIRS`` order
    and keeps the side where ``dims[k]`` wins.  Each cut is a column of the
    current piece's ``_pair_signs`` pass over ``pool.window``, and its
    ``_pair_results`` reading decides the comparisons the piece does not
    cross: ``signs`` and ``results`` on ``s`` (None: the chain makes them),
    then one new pass and reading per split piece a later cut needs.
    Returns None when the domain dies.
    """
    t = s
    for p, (i, j) in enumerate(_PAIRS):
        if k not in (i, j) or j >= len(pool.dims):
            continue
        if signs is None:
            signs = _pair_signs(t, np.array(pool.window))
            results = _pair_results(*signs[1:])
        if results[1][p] == k:  # k loses a comparison t does not cross
            return None
        if results[1][p] >= 0:  # k wins it
            continue
        want_pos, cut = i == k, tuple(a[:, p] for a in signs)
        pos, neg = _split(t, cut, (pool.dims[i], pool.dims[j]),
                          (want_pos, not want_pos), selection, stats)
        t, signs = pos if want_pos else neg, None
        if t is None:
            return None
    return t


def _pool_domains(s, pool, selection, stats, signs, results):
    """All nonempty (piece, winner) linearity domains of one pool over ``s``.
    Its chains share ``signs``, the ``_pair_signs`` pass on ``s`` over
    ``pool.window``, and ``results``, that pass's ``_pair_results``
    reading.  No chain runs for a coordinate that loses a pair ``s`` does
    not cross, since its domain is empty."""
    lost, doms = results[1].tolist(), []
    for k in range(len(pool.dims)):
        piece = None if k in lost else _domain_chain(s, pool, k, selection,
                                                     stats, signs, results)
        if piece is not None:
            doms.append((piece, k))
    if not doms and selection is not None:
        # the kill rules can starve every domain; keep the exact domain of
        # the centroid's winning coordinate so the pool never returns empty
        k = int(np.argmax(s.columns(list(pool.dims)).mean(axis=0)))
        piece = _domain_chain(s, pool, k, None, stats, signs, results)
        if piece is not None:
            doms.append((piece, k))
    return doms


def maxpool_pool_reach(inputs, pool: PoolSpec,
                       selection: NeuronSelection | None = None,
                       stats: dict | None = None):
    """Propagate sets through a single pool, with no walker: once ``stats``
    has expired, a set the pool does not cross still gives its one domain
    (no split), and a crossed set none.  Output columns are the unpooled
    coordinates with the winning pool coordinate inserted at ``pool.out``.
    """
    _check_selection(selection, inputs)
    out = []
    for s in inputs:
        if max(pool.dims) >= s.ambient_dim:
            raise LatticeError("pool coordinate out of range")
        signs = _pair_signs(s, np.array(pool.window))
        for piece, k in _pool_domains(s, pool, selection, stats, signs,
                                      _pair_results(*signs[1:])):
            keep = [c for c in range(piece.ambient_dim) if c not in pool.dims]
            keep.insert(min(pool.out, len(keep)), pool.dims[k])
            out.append(eliminate_dims(piece, keep))
    return out


def maxpool_layer_reach(inputs, layer,
                        selection: NeuronSelection | None = None,
                        stats: dict | None = None):
    """Propagate sets through a maxpool ``LayerDesc`` (checked when built).

    One ``_walk`` step per (piece, first pool not passed, output columns of
    the pools passed) item.  Each piece makes one ``_pair_signs`` pass over
    the pools it has not passed and reads it once (``_pair_results``); it
    settles every pool one coordinate wins, with no split, up to the first
    pool it leaves undecided, whose domains (``_pool_domains``, given that
    pool's columns of the pass and reading) open new pieces.  A pool in a
    tolerance cycle has no domain, so it kills the piece.  Output
    coordinate ``pool.out`` receives ``pool``'s winner, and outputs come in
    lexicographic order of the per-pool domains (pools in list order).
    Budget as in ``_walk``.
    """
    pools = layer.pools
    outs = np.array([p.out for p in pools], dtype=np.intp)
    idx = layer.pool_idx[outs]  # pool_idx rows are in out order
    slots = np.arange(len(pools))

    if any(s.ambient_dim != layer.width_in for s in inputs):
        raise LatticeError("set width does not match the maxpool input")
    _check_selection(selection, inputs)

    def step(t, pi, cols):
        signs = _pair_signs(t, idx[pi:])
        results = _pair_results(*signs[1:])
        # a pool's winner wins all three of its pairs, even where the piece
        # crosses the others'; else -1 (crossed, or a tolerance cycle)
        wins = (results[0][..., None] == np.arange(4)).sum(axis=-2)
        won = np.where(wins.max(axis=-1) == 3, wins.argmax(axis=-1), -1)
        open_ = np.flatnonzero(won < 0)
        n = int(open_[0]) if open_.size else won.size
        cols[outs[pi:pi + n]] = idx[np.arange(pi, pi + n), won[:n]]
        if n == won.size:
            return eliminate_dims(t, cols), ()
        pool = pools[pi + n]
        return None, [(piece, pi + n + 1,
                       np.where(slots == pool.out, pool.dims[k], cols))
                      for piece, k in _pool_domains(
                          t, pool, selection, stats, [a[:, n] for a in signs],
                          [a[n] for a in results])]

    return _walk([(s, 0, np.zeros_like(slots)) for s in inputs], step, stats)
