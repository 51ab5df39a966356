"""The settled-pool pass of the maxpool layer against the per-pool loop.

``reference_maxpool_layer`` is the layer as it was before pools were
settled in one array pass: every pool of every piece goes through
``_pool_domains``, breadth first.  The layer must give the same sets in the
same order, with the same lattices, vertices, regions and split count.
"""

import numpy as np

from latreach import (LatticeSet, PoolSpec, NeuronSelection, ZERO_TOL,
                      LayerDesc, Network, build_box_lattice, affine_transform,
                      eliminate_dims, maxpool_layer_reach, forward, gradient)
from latreach import layers
from latreach.layers import _pool_domains


def reference_maxpool_layer(inputs, pools, selection=None, stats=None):
    out = []
    for s in inputs:
        pending = [(s, [0] * len(pools))]
        for pi, pool in enumerate(pools):
            nxt = []
            for t, wins in pending:
                for piece, k in _pool_domains(t, pool, selection, stats):
                    nxt.append((piece, wins[:pi] + [k] + wins[pi + 1:]))
            pending = nxt
        for piece, wins in pending:
            cols = [0] * len(pools)
            for pi, pool in enumerate(pools):
                cols[pool.out] = pool.dims[wins[pi]]
            out.append(eliminate_dims(piece, cols))
    return out


def assert_same_sets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        la, lb = a.lattice, b.lattice
        for name in ("ids", "dims", "child_ptr", "child_idx"):
            x, y = getattr(la, name), getattr(lb, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert (la.n_vertices, la.top_dim, la.next_id) == \
               (lb.n_vertices, lb.top_dim, lb.next_id)
        for name in ("vertices", "region_vertices"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def random_pools(rng, m):
    """A random partition of 0..m-1 into 2-, 3- and 4-coordinate pools."""
    sizes, left = [], m
    while left:
        k = int(rng.choice([k for k in (2, 3, 4)
                            if k == left or left - k >= 2]))
        sizes.append(k)
        left -= k
    coords = rng.permutation(m)
    cuts = np.cumsum([0] + sizes)
    outs = rng.permutation(len(sizes))
    return [PoolSpec(coords[cuts[i]:cuts[i + 1]], outs[i])
            for i in range(len(sizes))]


def random_case(rng):
    """A box of dimension 1-3 mapped into 4-12 dims, with planted ties."""
    m = int(rng.integers(4, 13))
    d = int(rng.integers(1, 4))
    width = float(rng.choice([0.01, 0.3, 1.0]))
    lo = rng.uniform(-1, 1, d)
    box = build_box_lattice(lo, lo + width * rng.uniform(0.5, 1.0, d))
    W = rng.normal(size=(m, d))
    b = rng.normal(size=m) * 0.5
    pools = random_pools(rng, m)
    for pool in pools:
        dims = list(pool.dims)
        kind = rng.choice(["generic", "constant", "duplicate", "near",
                           "cycle"])
        if kind == "constant":
            W[dims] = 0.0
            if rng.random() < 0.5:
                b[dims] = b[dims[0]]
        elif kind == "duplicate":
            W[dims[1]], b[dims[1]] = W[dims[0]], b[dims[0]]
        elif kind == "near":
            # equal within the zero band: the comparison is a tie
            W[dims[1]] = W[dims[0]]
            b[dims[1]] = b[dims[0]] + rng.uniform(-0.4, 0.4) * ZERO_TOL
        elif kind == "cycle" and len(dims) >= 3:
            # a ~ b and b ~ c within the band but c > a beyond it: the lower
            # coordinate wins both ties, c wins against a, nobody wins all
            W[dims[1]] = W[dims[2]] = W[dims[0]]
            b[dims[1]] = b[dims[0]] + 0.6 * ZERO_TOL
            b[dims[2]] = b[dims[0]] + 1.2 * ZERO_TOL
    s = affine_transform(box, W, b)
    sel = rng.choice(["none", "random", "all_off", "all_on"])
    selection = {"none": None,
                 "random": NeuronSelection(rng.random(m) < 0.5),
                 "all_off": NeuronSelection(np.zeros(m, dtype=bool)),
                 "all_on": NeuronSelection(np.ones(m, dtype=bool))}[sel]
    return s, pools, selection


def test_settled_pools_match_per_pool_loop():
    rng = np.random.default_rng(20261018)
    seen = {"split": 0, "died": 0, "settled_only": 0}
    for _ in range(150):
        s, pools, selection = random_case(rng)
        inputs = [s, affine_transform(s, np.eye(s.ambient_dim),
                                      rng.normal(size=s.ambient_dim) * 0.1)]
        got_stats, want_stats = {}, {}
        got = maxpool_layer_reach(inputs, pools, selection, got_stats)
        want = reference_maxpool_layer(inputs, pools, selection, want_stats)
        assert_same_sets(got, want)
        assert got_stats.get("splits", 0) == want_stats.get("splits", 0)
        seen["split"] += bool(want_stats.get("splits"))
        seen["died"] += any(not reference_maxpool_layer([t], pools, selection)
                            for t in inputs)
        seen["settled_only"] += not want_stats.get("splits")
    # the cases reach every branch: splits, deaths, and split-free sets
    assert min(seen.values()) >= 10, seen


def test_tolerance_cycle_kills_the_set():
    box = build_box_lattice([0.0], [1.0])
    W = np.ones((4, 1))
    b = np.array([0.0, 0.6, 1.2, -5.0]) * np.array([1, ZERO_TOL, ZERO_TOL, 1])
    s = affine_transform(box, W, b)
    pools = [PoolSpec((0, 1, 2, 3), 0)]
    stats = {}
    assert maxpool_layer_reach([s], pools, stats=stats) == []
    assert reference_maxpool_layer([s], pools) == []
    assert stats.get("splits", 0) == 0


def test_non_finite_set_takes_the_domain_chain():
    # x0 - x1 = -x is zero at x = 0 and negative at x = 1, where x3 is
    # infinite: classify's dot product turns that vertex's value into nan
    # (a zero label, so x0 wins the tie) where v0 - v1 would read -1
    seg = build_box_lattice([0.0], [1.0])
    s = affine_transform(seg, np.array([[0.0], [1.0], [1.0], [2.0]]),
                         np.zeros(4))
    v = s.vertices.copy()
    v[s.region_vertices[:, 0] == 1.0, 3] = np.inf
    s = LatticeSet(s.lattice, v, s.region_vertices)
    pools = [PoolSpec((0, 1), 1), PoolSpec((2, 3), 0)]
    with np.errstate(invalid="ignore"):
        got_stats, want_stats = {}, {}
        got = maxpool_layer_reach([s], pools, stats=got_stats)
        want = reference_maxpool_layer([s], pools, stats=want_stats)
    assert len(want) == 1
    assert_same_sets(got, want)
    assert got_stats == want_stats


def test_new_pieces_get_fresh_winners(monkeypatch):
    # both pools compare x with 0 and cross at x = 0; once the first pool
    # has split the segment there, the second is settled on each piece
    calls = []
    real = layers.classify_vertices
    monkeypatch.setattr(layers, "classify_vertices",
                        lambda s, h: calls.append(h) or real(s, h))
    seg = build_box_lattice([-1.0], [1.0])
    s = affine_transform(seg, np.array([[1.0], [0.0], [1.0], [0.0]]),
                         np.zeros(4))
    pools = [PoolSpec((0, 1), 0), PoolSpec((2, 3), 1)]
    outs = maxpool_layer_reach([s], pools)
    assert len(outs) == 2
    assert len(calls) == 2  # one per domain chain of the first pool


def loop_pool_forward(layer, x):
    y = np.empty(layer.width_out)
    for pool in layer.pools:
        y[pool.out] = x[list(pool.dims)].max()
    return y


def loop_pool_backward(layer, u, g):
    back = np.zeros(layer.width_in)
    for pool in layer.pools:
        cols = list(pool.dims)
        back[cols[int(np.argmax(u[cols]))]] = g[pool.out]
    return back


def test_pool_index_forward_and_gradient_match_loops():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n_pools = int(rng.integers(1, 7))
        coords = rng.permutation(4 * n_pools)
        outs = rng.permutation(n_pools)
        pools = tuple(PoolSpec(coords[4 * i:4 * i + 4], outs[i])
                      for i in range(n_pools))
        pool = LayerDesc("maxpool", 4 * n_pools, n_pools, pools=pools)
        W = rng.normal(size=(3, n_pools))
        net = Network((pool, LayerDesc("affine", n_pools, 3, W,
                                       np.zeros(3))),
                      4 * n_pools, ("a", "b", "c"))
        # small integers plant ties inside most windows
        x = rng.integers(-2, 3, size=4 * n_pools).astype(float)
        if rng.random() < 0.5:
            x += rng.normal(size=x.size) * (rng.random(x.size) < 0.3)
        want = loop_pool_forward(pool, x)
        assert forward(net, x).tobytes() == (W @ want + 0.0).tobytes()
        for j in range(3):
            g = gradient(net, x, j)
            ref = loop_pool_backward(pool, x, W[j])
            assert g.wrt_input.tobytes() == ref.tobytes()
            assert g.wrt_layer[0].tobytes() == ref.tobytes()
