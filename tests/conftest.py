"""Shared test oracles, independent of the production code paths.

Membership and face-count oracles are built on scipy/qhull; batch_forward is
a vectorized network evaluator written separately from model.forward.
"""

import itertools
import json

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from latreach import FaceLattice, LatticeSet


class VPolytope:
    """Membership oracle for conv(V) with degenerate (lower-dim) support.

    Points are projected on the affine hull (SVD basis); membership requires
    a small residual plus the projected point inside the projected hull.
    """

    def __init__(self, V):
        V = np.asarray(V, dtype=float)
        self.c = V.mean(axis=0)
        D = V - self.c
        if V.shape[0] == 1:
            self.rank = 0
            self.basis = np.zeros((0, V.shape[1]))
        else:
            _, S, Vt = np.linalg.svd(D, full_matrices=False)
            keep = S > 1e-9 * max(1.0, float(S.max(initial=0.0)))
            self.rank = int(keep.sum())
            self.basis = Vt[:self.rank]
        if self.rank >= 2:
            P = D @ self.basis.T
            try:
                hull = ConvexHull(P)
            except QhullError:
                hull = ConvexHull(P, qhull_options="QJ")
            self.A = hull.equations[:, :-1]
            self.b = hull.equations[:, -1]
        elif self.rank == 1:
            t = D @ self.basis[0]
            self.lo, self.hi = float(t.min()), float(t.max())

    def contains(self, X, tol):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Dx = X - self.c
        if self.rank == 0:
            return np.linalg.norm(Dx, axis=1) <= tol
        P = Dx @ self.basis.T
        resid = Dx - P @ self.basis
        ok = np.linalg.norm(resid, axis=1) <= tol
        if self.rank == 1:
            ok &= (P[:, 0] >= self.lo - tol) & (P[:, 0] <= self.hi + tol)
        else:
            ok &= (P @ self.A.T + self.b <= tol).all(axis=1)
        return ok


def in_union(sets, X, tol, use_region=False):
    """Which rows of X lie in the union of the sets' vertex hulls."""
    X = np.atleast_2d(X)
    hit = np.zeros(X.shape[0], dtype=bool)
    for s in sets:
        V = s.region_vertices if use_region else s.vertices
        rem = np.nonzero(~hit)[0]
        if rem.size == 0:
            break
        hit[rem] = VPolytope(V).contains(X[rem], tol)
    return hit


def children_of(lat, pos):
    """Child positions of the face at position ``pos`` of ``lat``."""
    return lat.child_idx[lat.child_ptr[pos]:lat.child_ptr[pos + 1]]


def counts_by_dim(lat):
    """Face counts {dim: count} of ``lat``."""
    ks, cs = np.unique(lat.dims, return_counts=True)
    return {int(k): int(c) for k, c in zip(ks, cs)}


def hull_face_counts_3d(points):
    """Face counts {dim: count} of a full-dimensional 3D hull via qhull.

    Facets are qhull simplices merged by their (normalized) plane equation;
    the edge count follows from Euler's relation V - E + F = 2.
    """
    hull = ConvexHull(np.asarray(points, dtype=float))
    nv = len(hull.vertices)
    nf = len(np.unique(np.round(hull.equations, 7), axis=0))
    return {0: nv, 1: nv + nf - 2, 2: nf, 3: 1}


def batch_forward(net, X):
    """Vectorized forward pass over rows of X (independent of model.forward)."""
    Y = np.atleast_2d(np.asarray(X, dtype=float))
    for layer in net.layers:
        if layer.kind == "affine":
            Y = Y @ layer.W.T + layer.b
        elif layer.kind == "relu":
            Y = np.maximum(Y, 0.0)
        else:
            out = np.empty((Y.shape[0], layer.width_out))
            for pool in layer.pools:
                out[:, pool.out] = Y[:, list(pool.dims)].max(axis=1)
            Y = out
    return Y


def check_soundness(net, spec, sets, n_samples, tol, rng):
    """Black-box soundness: sampled forward outputs covered by the union.

    A sample is covered when some set's linear region contains it and the
    set's affine map (least-squares fit region -> vertices) reproduces the
    forward output within tol.  Returns the boolean coverage mask.
    """
    lo = np.array(spec.baseline, dtype=float)
    hi = lo.copy()
    coords = list(spec.perturbed_coords)
    lo[coords] -= spec.epsilon
    hi[coords] += spec.epsilon
    X = rng.uniform(lo, hi, size=(n_samples, lo.size))
    Y = batch_forward(net, X)
    scale = max(1.0, float(np.abs(Y).max()), float(np.abs(X).max()))
    covered = np.zeros(n_samples, dtype=bool)
    for s in sets:
        rem = np.nonzero(~covered)[0]
        if rem.size == 0:
            break
        inside = VPolytope(s.region_vertices).contains(X[rem], tol * scale)
        if not inside.any():
            continue
        idx = rem[inside]
        R1 = np.column_stack([s.region_vertices, np.ones(s.n_vertices)])
        M, *_ = np.linalg.lstsq(R1, s.vertices, rcond=None)
        pred = np.column_stack([X[idx], np.ones(idx.size)]) @ M
        good = np.abs(pred - Y[idx]).max(axis=1) <= tol * scale
        covered[idx[good]] = True
    return covered


def completeness_error(net, sets):
    """Max |forward(region_vertex) - vertex| over all vertices of all sets."""
    worst = 0.0
    for s in sets:
        Y = batch_forward(net, s.region_vertices)
        worst = max(worst, float(np.abs(Y - s.vertices).max()))
    return worst


def dedup_vertex_set(s, decimals=9):
    """Frozen set of rounded vertex tuples; the split-safe set fingerprint."""
    return frozenset(map(tuple, np.round(s.vertices, decimals).tolist()))


def tetra_set():
    """Regular tetrahedron with its full 15-face lattice, built by hand."""
    verts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                      [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    kids = [[] for _ in range(4)]
    kids += [list(e) for e in edges]
    for t in tris:
        pairs = [tuple(sorted(p)) for p in itertools.combinations(t, 2)]
        kids.append([4 + edges.index(p) for p in pairs])
    kids.append([10, 11, 12, 13])
    dims = [0] * 4 + [1] * 6 + [2] * 4 + [3]
    ptr = np.concatenate(([0], np.cumsum([len(k) for k in kids])))
    idx = np.array(list(itertools.chain.from_iterable(kids)), dtype=np.int32)
    lat = FaceLattice(np.arange(15), dims, ptr, idx, 15)
    return LatticeSet(lat, verts, verts.copy())


def write_conv_pool_model(path, seed, pool_outs=range(8)):
    """A 3x4x4-input model file: conv (2 filters, pad 1), relu, eight 2x2
    pools writing ``pool_outs`` in list order, affine to 3 logits."""
    rng = np.random.default_rng(seed)
    bases = [c * 16 + 8 * by + 2 * bx
             for c in (0, 1) for by in (0, 1) for bx in (0, 1)]
    pools = [{"dims": [b, b + 1, b + 4, b + 5], "out": int(o)}
             for b, o in zip(bases, pool_outs)]
    doc = {"input_width": 48, "labels": ["a", "b", "c"], "layers": [
        {"kind": "conv", "in_shape": [3, 4, 4], "pad": 1,
         "filters": rng.normal(size=(2, 3, 3, 3)).tolist(),
         "bias": [0.1, -0.1]},
        {"kind": "relu"},
        {"kind": "maxpool", "pools": pools},
        {"kind": "affine", "W": rng.normal(size=(3, 8)).tolist(),
         "b": [0.0, 0.0, 0.0]}]}
    path.write_text(json.dumps(doc))
    return path


def maxpool_layer(pools, width_in=None):
    """A maxpool LayerDesc over ``pools``, by default as wide as their
    coordinates."""
    from latreach import LayerDesc

    pools = tuple(pools)
    if width_in is None:
        width_in = sum(len(p.dims) for p in pools)
    return LayerDesc("maxpool", width_in, len(pools), pools=pools)


def random_toy_net(seed):
    """Seeded small network + input spec for oracle-based testing."""
    from latreach import LayerDesc, Network, InputSpec, PoolSpec

    rng = np.random.default_rng(seed)
    d_in = int(rng.integers(2, 7))
    n_hidden = int(rng.integers(1, 4))
    n_logits = int(rng.integers(2, 4))
    pool_at = int(rng.integers(0, n_hidden)) if rng.random() < 0.4 else -1

    layers = []
    width = d_in
    for i in range(n_hidden):
        w_out = 4 if i == pool_at else int(rng.integers(2, 7))
        W = rng.normal(size=(w_out, width)) / np.sqrt(width)
        b = rng.normal(size=w_out) * 0.2
        layers.append(LayerDesc("affine", width, w_out, W, b))
        width = w_out
        layers.append(LayerDesc("relu", width, width))
        if i == pool_at:
            layers.append(LayerDesc("maxpool", 4, 1,
                                    pools=(PoolSpec((0, 1, 2, 3), 0),)))
            width = 1
    W = rng.normal(size=(n_logits, width)) / np.sqrt(width)
    b = rng.normal(size=n_logits) * 0.2
    layers.append(LayerDesc("affine", width, n_logits, W, b))

    net = Network(tuple(layers), d_in,
                  tuple(f"c{i}" for i in range(n_logits)))
    baseline = rng.uniform(0.2, 0.8, size=d_in)
    eps = float(rng.uniform(0.2, 0.5))
    spec = InputSpec(baseline, tuple(range(d_in)), eps)
    return net, spec


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
