"""Layer-level set propagation: affine, ReLU, and maxpool layers.

Each function maps a list of LatticeSets to the list of their images under
one layer.  ReLU walks a worklist that only branches on neurons whose
hyperplane actually crosses a set.  Maxpool settles, in one array pass per
set, every pool whose comparison hyperplanes the set does not cross; only
crossed pools enumerate the linearity domains where one pool coordinate
dominates the others.  In fast mode a NeuronSelection marks the neurons
treated exactly; splits on the rest keep a single child, so fast outputs
are always faces of exact outputs rather than new geometry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .lattice import (LatticeError, LatticeSet, as_int, coord_hyperplane,
                      sides, classify_vertices, eliminate_dims,
                      affine_transform, split_by_hyperplane)


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

    def pairs(self):
        """Local index pairs (i, j), i < j, in fixed comparison order."""
        n = len(self.dims)
        return [(i, j) for j in range(1, n) for i in range(j)]


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


def _count_split(stats):
    if stats is not None:
        stats["splits"] = stats.get("splits", 0) + 1


def _expired(stats, alive: int = 0) -> bool:
    """The one budget rule: ``stats`` expires for good once its ``deadline``
    has passed or more than its ``max_sets`` sets are ``alive``."""
    if stats is not None and "expired" not in stats and (
            alive > stats.get("max_sets", np.inf)
            or time.monotonic() > stats.get("deadline", np.inf)):
        stats["expired"] = True
    return stats is not None and "expired" in stats


def _pruned_empty(s: LatticeSet | None) -> bool:
    # missing split children and those whose vertices all coincide (slivers
    # of measure zero) are dropped; genuine point sets (top_dim 0, e.g.
    # after projections) are kept.  Each coordinate's span is held to that
    # coordinate's own zero band, so one large coordinate elsewhere cannot
    # turn a real piece into a sliver
    if s is None or s.n_vertices == 0:
        return True
    if s.lattice.top_dim == 0:
        return False
    hi, lo = s.vertices.max(axis=0), s.vertices.min(axis=0)
    wide, _ = sides(hi - lo, np.maximum(hi, -lo))  # max(hi, -lo) = max |v|
    return not wide.any()


def affine_layer_reach(inputs, W, b):
    """Apply ``x -> Wx + b`` to every set; no combinatorial work."""
    return [affine_transform(s, W, b) for s in inputs]


def _check_selection(selection, inputs):
    if selection is not None and any(s.ambient_dim != selection.width
                                     for s in inputs):
        raise LatticeError("selection width does not match layer input")


def _survivors(pos, neg, sel_pos, sel_neg):
    """``(keep_pos, keep_neg)``: a split keeps each side whose winning
    coordinate is selected (exact mode: both); if neither is, only the child
    with more vertices (tie, or both missing: the positive child).
    """
    if sel_pos or sel_neg:
        return sel_pos, sel_neg
    pos_wins = (pos.n_vertices if pos is not None else -1) >= \
               (neg.n_vertices if neg is not None else -1)
    return pos_wins, not pos_wins


def relu_layer_reach(inputs, selection: NeuronSelection | None = None,
                     stats: dict | None = None):
    """Propagate sets through an elementwise ReLU layer.

    Per set, the neurons whose coordinate changes sign over the set are
    split on depth first (ascending index, positive child first);
    coordinates that never go positive are projected to zero in one batch.
    With a ``selection``, splits on unselected neurons keep one child
    (``_survivors``).  Stops at the first pop where ``_expired`` fires
    (finished plus waiting sets alive) and returns the sets finished so far.
    """
    _check_selection(selection, inputs)
    out = []
    # one explicit stack, popped in input order (a set can cross thousands
    # of neuron hyperplanes); every pop checks the budget
    work = [(s, np.arange(s.ambient_dim)) for s in reversed(inputs)]
    while work and not _expired(stats, len(out) + len(work)):
        s, candidates = work.pop()
        sub = s.vertices[:, candidates]
        goes_pos, goes_neg = (m.any(axis=0) for m in sides(sub, np.abs(sub)))
        news = candidates[goes_pos & goes_neg]
        negs = candidates[~goes_pos]

        if negs.size:
            v = s.vertices.copy()
            v[:, negs] = 0.0
            s = LatticeSet(s.lattice, v, s.region_vertices)
        if news.size == 0:
            out.append(s)
            continue

        k = int(news[0])
        h = coord_hyperplane(s.ambient_dim, k)
        pos_s, neg_s = split_by_hyperplane(s, h)
        _count_split(stats)
        pos_s, neg_s = (None if _pruned_empty(c) else c for c in (pos_s, neg_s))

        sel_k = selection is None or bool(selection.selected[k])
        keep_pos, keep_neg = _survivors(pos_s, neg_s, sel_k, sel_k)
        # the next sign pass zeroes k on the negative child and drops it on
        # the positive one.  Pushed in reverse so the positive child's
        # subtree comes out first.
        for c, kept in ((neg_s, keep_neg), (pos_s, keep_pos)):
            if kept and c is not None:
                work.append((c, news))
    return out


def _domain_chain(s, pool, k, selection, stats, cuts=None):
    """Clip ``s`` to the domain where pool coordinate ``k`` is the maximum.

    Applies the comparison hyperplanes involving ``k`` in pool pair order and
    keeps the side where ``dims[k]`` wins.  Comparisons that do not cross the
    set are decided by vertex signs (an all-tie comparison counts as won by
    the lower coordinate).  ``cuts`` keeps each pair's hyperplane and
    classification on ``s`` itself for the pool's other chains.  Returns
    None when the domain dies or ``stats`` expires, before or during the
    chain.
    """
    if _expired(stats):
        return None
    t, cuts = s, {} if cuts is None else cuts
    for i, j in pool.pairs():
        if k not in (i, j):
            continue
        if (i, j) not in cuts:
            h = coord_hyperplane(t.ambient_dim, pool.dims[i], pool.dims[j])
            cuts[i, j] = h, classify_vertices(t, h)
        h, cls = cuts[i, j]
        want_pos = i == k
        if not (cls.has_pos and cls.has_neg):
            if cls.has_neg == want_pos:
                return None
            continue
        sel_i, sel_j = ((True, True) if selection is None else
                        selection.selected[[pool.dims[i], pool.dims[j]]])
        # only the other coordinate is selected: _survivors keeps just its
        # side, so the wanted side need not be materialized; only when
        # neither is does _survivors compare both sides' vertex counts
        if sel_i != sel_j and sel_i != want_pos:
            return None
        both = not (sel_i or sel_j)
        p, n = split_by_hyperplane(t, h, (want_pos or both,
                                          not want_pos or both), cls)
        _count_split(stats)
        t, cuts = p if want_pos else n, {}  # the new piece's own cuts
        if not _survivors(p, n, sel_i, sel_j)[not want_pos] or \
                _pruned_empty(t) or _expired(stats):
            return None
    return t


def _pool_domains(s, pool, selection, stats):
    """All nonempty (piece, winner) linearity domains of one pool over ``s``."""
    doms, cuts = [], {}
    for k in range(len(pool.dims)):
        piece = _domain_chain(s, pool, k, selection, stats, cuts)
        if piece is not None:
            doms.append((piece, k))
    if not doms and selection is not None:
        # the kill rules can starve every domain; keep the exact domain of
        # the centroid's winning coordinate so the pool never returns empty
        centroid = s.vertices.mean(axis=0)
        k = int(np.argmax(centroid[list(pool.dims)]))
        piece = _domain_chain(s, pool, k, None, stats, cuts)
        if piece is not None:
            doms.append((piece, k))
    return doms


def maxpool_pool_reach(inputs, pool: PoolSpec,
                       selection: NeuronSelection | None = None,
                       stats: dict | None = None):
    """Propagate sets through a single pool.

    Output columns are the unpooled coordinates with the winning pool
    coordinate inserted at position ``pool.out``.
    """
    _check_selection(selection, inputs)
    out = []
    for s in inputs:
        if max(pool.dims) >= s.ambient_dim:
            raise LatticeError("pool coordinate out of range")
        for piece, k in _pool_domains(s, pool, selection, stats):
            keep = [c for c in range(piece.ambient_dim) if c not in pool.dims]
            keep.insert(min(pool.out, len(keep)), pool.dims[k])
            out.append(eliminate_dims(piece, keep))
    return out


_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]  # of a 4-window
_LO, _HI = np.array(_PAIRS).T


def _winner_table():
    """The settled winner of each pattern of pair outcomes, where bit p of
    the pattern is set when pair p's upper coordinate wins it: the window
    coordinate that wins all three of its pairs, -2 if there is none.
    Plain Python: numpy reductions at import would add to the memory of
    every process, also of those that never meet a maxpool layer."""
    table = []
    for code in range(64):
        wins = [0, 0, 0, 0]
        for p, (i, j) in enumerate(_PAIRS):
            wins[j if code >> p & 1 else i] += 1
        table.append(wins.index(3) if 3 in wins else -2)
    return np.array(table)


_WINNER = _winner_table()


def _settled_winners(v, idx):
    """Each pool's winner on a set with vertex rows ``v``, in one array pass.

    A pool whose comparisons the set does not cross is settled on the
    values ``v_i - v_j`` and the ``sides`` zero band that
    ``classify_vertices`` uses (a pair's lower coordinate wins unless a
    vertex is negative): its winner's window index, or -2 if no coordinate
    wins all its pairs.  A crossed pool gets -1.
    """
    d = v[:, idx[:, _LO]] - v[:, idx[:, _HI]]
    has_pos, has_neg = (m.any(axis=0) for m in sides(d, np.abs(d)))
    return np.where((has_pos & has_neg).any(axis=1), -1,
                    _WINNER[has_neg @ (1 << np.arange(6))])


def maxpool_layer_reach(inputs, layer,
                        selection: NeuronSelection | None = None,
                        stats: dict | None = None):
    """Propagate sets through a maxpool ``LayerDesc`` (checked when built).

    Each set is walked depth first over ``layer.pools`` in list order.  A
    piece settles all the pools it has not passed in one array pass
    (``_settled_winners``), with no split and no classify call, and jumps
    over them up to the next crossed pool, whose domains
    (``_pool_domains``) become new pieces; a pool that no coordinate wins
    kills the piece.  Output coordinate ``pool.out`` receives ``pool``'s
    winner, and outputs come in lexicographic order of the per-pool
    domains.  Stops, as ReLU does, at the first pop where ``_expired`` fires.
    """
    pools = layer.pools
    outs = np.array([p.out for p in pools], dtype=np.intp)
    idx = layer.pool_idx[outs]  # pool_idx rows are in out order

    if any(s.ambient_dim != layer.width_in for s in inputs):
        raise LatticeError("set width does not match the maxpool input")
    _check_selection(selection, inputs)
    out = []
    # (piece, first pool not passed, winners from there or None,
    #  output columns of the pools passed), one stack for every input
    work = [(s, 0, None, np.zeros(len(pools), dtype=np.intp))
            for s in reversed(inputs)]
    while work and not _expired(stats, len(out) + len(work)):
        t, pi, won, cols = work.pop()
        if won is None:
            won = _settled_winners(t.vertices, idx[pi:])
        open_ = np.flatnonzero(won < 0)
        n = int(open_[0]) if open_.size else won.size
        cols[outs[pi:pi + n]] = idx[np.arange(pi, pi + n), won[:n]]
        if n == won.size:
            out.append(eliminate_dims(t, cols))
            continue
        if won[n] == -2:
            continue
        pi += n
        pool = pools[pi]
        # pushed in reverse so the first domain's subtree comes out first
        for piece, k in reversed(_pool_domains(t, pool, selection, stats)):
            c2 = cols.copy()
            c2[pool.out] = pool.dims[k]
            work.append((piece, pi + 1,
                         won[n + 1:] if piece is t else None, c2))
    return out
