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

from dataclasses import dataclass

import numpy as np

from .lattice import (LatticeError, LatticeSet, Hyperplane, axis_hyperplane,
                      classify_vertices, eliminate_dims, affine_transform,
                      project_to_hyperplane, split_by_hyperplane, ZERO_TOL)


@dataclass(frozen=True)
class PoolSpec:
    """One maxpool window: input coordinates ``dims`` reduce to output ``out``."""

    dims: tuple
    out: int

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "out", int(self.out))
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


def _bump(stats, key, n=1):
    if stats is not None:
        stats[key] = stats.get(key, 0) + n


def _pruned_empty(s: LatticeSet) -> bool:
    # split children whose vertices all coincide are slivers of measure zero;
    # genuine point sets (top_dim 0, e.g. after projections) are kept
    if s.n_vertices == 0:
        return True
    if s.lattice.top_dim == 0:
        return False
    v = s.vertices
    scale = max(1.0, float(np.abs(v).max()))
    span = float((v.max(axis=0) - v.min(axis=0)).max())
    return span <= ZERO_TOL * scale


def affine_layer_reach(inputs, W, b):
    """Apply ``x -> Wx + b`` to every set; no combinatorial work."""
    return [affine_transform(s, W, b) for s in inputs]


def relu_layer_reach(inputs, selection: NeuronSelection | None = None,
                     stats: dict | None = None):
    """Propagate sets through an elementwise ReLU layer.

    Per set, the neurons whose coordinate changes sign over the set are
    split on depth first (ascending index, positive child first);
    coordinates that never go positive are projected to zero in one batch.
    With a ``selection``, splits on unselected neurons keep only the child
    with more vertices (tie: the positive child).
    """
    out = []
    for s in inputs:
        if selection is not None and selection.width != s.ambient_dim:
            raise LatticeError("selection width does not match layer input")
        out.extend(_relu_set(s, selection, stats))
    return out


def _relu_set(s, selection, stats):
    # explicit worklist: a set can cross thousands of neuron hyperplanes
    out = []
    work = [(s, np.arange(s.ambient_dim))]
    while work:
        s, candidates = work.pop()
        sub = s.vertices[:, candidates]
        tol = ZERO_TOL * np.maximum(1.0, np.abs(sub))
        goes_pos = (sub > tol).any(axis=0)
        goes_neg = (sub < -tol).any(axis=0)
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
        pos_s, neg_s = split_by_hyperplane(s, axis_hyperplane(s.ambient_dim, k))
        _bump(stats, "splits")
        # sliver pruning applies to the raw split children; the projection
        # below flattens the negative child on purpose and must not trigger it
        if pos_s is not None and _pruned_empty(pos_s):
            pos_s = None
        if neg_s is not None and _pruned_empty(neg_s):
            neg_s = None
        if neg_s is not None:
            neg_s = project_to_hyperplane(neg_s, k)

        if selection is None or selection.selected[k]:
            children = [pos_s, neg_s]
        elif pos_s is None or neg_s is None:
            children = [pos_s if neg_s is None else neg_s]
        else:
            children = [pos_s if pos_s.n_vertices >= neg_s.n_vertices
                        else neg_s]
        # pushed in reverse so the positive child's subtree comes out first
        work.extend((c, news[1:]) for c in reversed(children) if c is not None)
    return out


def _difference_hyperplane(m, ci, cj):
    a = np.zeros(m)
    a[ci] = 1.0
    a[cj] = -1.0
    return Hyperplane(a, 0.0)


def _domain_chain(s, pool, k, selection, stats):
    """Clip ``s`` to the domain where pool coordinate ``k`` is the maximum.

    Applies the comparison hyperplanes involving ``k`` in pool pair order and
    keeps the side where ``dims[k]`` wins.  Comparisons that do not cross the
    set are decided by vertex signs (an all-tie comparison counts as won by
    the lower coordinate).  Returns None when the domain dies.
    """
    cur = s
    m = s.ambient_dim
    for i, j in pool.pairs():
        if k not in (i, j):
            continue
        h = _difference_hyperplane(m, pool.dims[i], pool.dims[j])
        cls = classify_vertices(cur, h)
        want_pos = i == k
        if not cls.has_neg:
            if not want_pos:
                return None
            continue
        if not cls.has_pos:
            if want_pos:
                return None
            continue
        sel_i = sel_j = True
        if selection is not None:
            sel_i = bool(selection.selected[pool.dims[i]])
            sel_j = bool(selection.selected[pool.dims[j]])
            # a split on a non-selected coordinate discards the side where
            # that coordinate wins; no need to materialize it
            if sel_i and not sel_j and not want_pos:
                return None
            if sel_j and not sel_i and want_pos:
                return None
        p, n = split_by_hyperplane(cur, h)
        _bump(stats, "splits")
        if sel_i and sel_j:
            cur = p if want_pos else n
        elif sel_i != sel_j:
            cur = p if sel_i else n
        else:
            surv_pos = (p.n_vertices if p is not None else -1) >= \
                       (n.n_vertices if n is not None else -1)
            if surv_pos != want_pos:
                return None
            cur = p if surv_pos else n
        if cur is None or _pruned_empty(cur):
            return None
    return cur


def _pool_domains(s, pool, selection, stats):
    """All nonempty (piece, winner) linearity domains of one pool over ``s``."""
    doms = []
    for k in range(len(pool.dims)):
        piece = _domain_chain(s, pool, k, selection, stats)
        if piece is not None:
            doms.append((piece, k))
    if not doms and selection is not None:
        # the kill rules can starve every domain; keep the exact domain of
        # the centroid's winning coordinate so the pool never returns empty
        centroid = s.vertices.mean(axis=0)
        k = int(np.argmax(centroid[list(pool.dims)]))
        piece = _domain_chain(s, pool, k, None, stats)
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
    out = []
    for s in inputs:
        if max(pool.dims) >= s.ambient_dim:
            raise LatticeError("pool coordinate out of range")
        for piece, k in _pool_domains(s, pool, selection, stats):
            keep = [c for c in range(piece.ambient_dim) if c not in pool.dims]
            keep.insert(min(pool.out, len(keep)), pool.dims[k])
            out.append(eliminate_dims(piece, keep))
    return out


def pool_index(pools):
    """Pools grouped by window size, ascending: ``[(positions, dims), ...]``
    with ``dims`` the ``(P, w)`` window coordinates of the pools at
    ``positions`` in ``pools``."""
    groups = []
    for w in sorted({len(p.dims) for p in pools}):
        pos = [i for i, p in enumerate(pools) if len(p.dims) == w]
        groups.append((np.array(pos), np.array([pools[i].dims for i in pos])))
    return groups


def _settled_winners(v, groups, n_pools):
    """Each pool's winner on a set with vertex rows ``v``, in one array pass.

    A pool whose comparisons the set does not cross is settled with the
    ``classify_vertices`` zero band (a pair's lower coordinate wins unless a
    vertex is negative): its winner's window index, or -2 if no coordinate
    wins all its pairs.  A crossed pool gets -1, and so does every pool of a
    non-finite set, where ``v_i - v_j`` need not equal the classify value.
    """
    won = np.full(n_pools, -1)
    if not np.isfinite(v).all():
        return won
    for pos, dims in groups:
        w = dims.shape[1]
        i, j = np.triu_indices(w, 1)  # every pair; their order is moot here
        d = v[:, dims[:, i]] - v[:, dims[:, j]]
        tol = ZERO_TOL * np.maximum(1.0, np.abs(d))
        has_pos, has_neg = (d > tol).any(axis=0), (d < -tol).any(axis=0)
        pair_winner = np.where(has_neg, j, i)
        full = (pair_winner[:, :, None] == np.arange(w)).sum(axis=1) == w - 1
        settled = np.where(full.any(axis=1), full.argmax(axis=1), -2)
        won[pos] = np.where((has_pos & has_neg).any(axis=1), -1, settled)
    return won


def maxpool_layer_reach(inputs, pools,
                        selection: NeuronSelection | None = None,
                        stats: dict | None = None):
    """Propagate sets through a maxpool layer of disjoint pools.

    The pools must partition the input coordinates.  Every set, and every
    new piece a split creates, gets the winners of all its uncrossed pools
    in one array pass (``_settled_winners``), with no split and no classify
    call; only crossed pools enumerate their domains.  Output coordinate
    ``pool.out`` receives ``pool``'s winner, and outputs come in
    lexicographic order of the per-pool domains.
    """
    pools = list(pools)
    if not pools:
        raise LatticeError("maxpool layer needs at least one pool")
    groups = pool_index(pools)
    counts = np.bincount(np.concatenate([d.ravel() for _, d in groups]))
    if counts.max() > 1:
        raise LatticeError("pools overlap")
    if sorted(p.out for p in pools) != list(range(len(pools))):
        raise LatticeError("pool outputs must be a permutation of 0..n-1")
    # the only input width the pools cover, or -1 if they leave a gap
    width = counts.size if counts.all() else -1

    out = []
    for s in inputs:
        if s.ambient_dim != width:
            raise LatticeError("pools must cover the layer input coordinates")
        # (piece, winners of its settled pools or None, output columns)
        pending = [(s, None, [0] * len(pools))]
        for pi, pool in enumerate(pools):
            nxt = []
            for t, won, cols in pending:
                if won is None:
                    won = _settled_winners(t.vertices, groups, len(pools))
                k = int(won[pi])
                doms = (_pool_domains(t, pool, selection, stats) if k == -1
                        else [(t, k)] if k >= 0 else [])
                for piece, win in doms:
                    c2 = cols.copy()
                    c2[pool.out] = pool.dims[win]
                    nxt.append((piece, won if piece is t else None, c2))
            pending = nxt
        out.extend(eliminate_dims(piece, cols) for piece, _, cols in pending)
    return out
