"""The settled-pool pass of the maxpool layer against the per-pool loop.

``reference_maxpool_layer`` is the layer as it was before pools were
settled in one array pass: every pool of every piece goes through
``_pool_domains``, breadth first.  The layer must give the same sets in the
same order, with the same lattices, vertices, regions and split count.
"""

import numpy as np
import pytest

from latreach import (LatticeSet, PoolSpec, NeuronSelection, ZERO_TOL,
                      LayerDesc, Network, InputSpec, ReachConfig,
                      build_box_lattice, affine_transform, eliminate_dims,
                      maxpool_layer_reach, maxpool_pool_reach, forward,
                      gradient, load_model, reach)
from latreach import lattice, layers
from latreach.layers import _pool_domains, _pair_signs, _pair_results
from conftest import maxpool_layer, write_conv_pool_model


def reference_maxpool_layer(inputs, pools, selection=None, stats=None):
    out = []
    for s in inputs:
        pending = [(s, [0] * len(pools))]
        for pi, pool in enumerate(pools):
            nxt = []
            for t, wins in pending:
                signs = _pair_signs(t, np.array(pool.window))
                for piece, k in _pool_domains(t, pool, selection, stats, signs,
                                              _pair_results(*signs[1:])):
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


def plant_cycle(W, b, dims):
    """a ~ b and b ~ c within the zero band but c > a beyond it: the lower
    coordinate wins both ties, c wins against a, nobody wins all."""
    W[dims[1]] = W[dims[2]] = W[dims[0]]
    b[dims[1]] = b[dims[0]] + 0.6 * ZERO_TOL
    b[dims[2]] = b[dims[0]] + 1.2 * ZERO_TOL


def wide_layer(rng, W, b, lo, hi):
    """32-40 four-coordinate pools, all settled but one crossed pool late in
    the list and a pool after it that nobody wins."""
    n = W.shape[0] // 4
    coords = rng.permutation(4 * n)
    outs = rng.permutation(n)
    pools = [PoolSpec(coords[4 * i:4 * i + 4], outs[i]) for i in range(n)]
    W[:] = 0.0  # constant coordinates: every comparison is settled
    late = int(rng.integers(3 * n // 4, n - 1))
    dims = list(pools[late].dims)
    W[dims] = rng.normal(size=(4, W.shape[1]))
    b[dims] = -W[dims] @ (0.5 * (lo + hi)) + rng.normal(size=4) * 0.05
    # the cycle's ties are 1e-9 wide: a shifted copy of the set escapes it
    plant_cycle(W, b, list(pools[int(rng.integers(late + 1, n))].dims))
    return pools


def random_case(rng):
    """A box of dimension 1-3 mapped into 4-12 dims, with planted ties; one
    case in five is a wide layer (``wide_layer``) instead."""
    wide = rng.random() < 0.2
    m = 4 * int(rng.integers(32, 41)) if wide else int(rng.integers(4, 13))
    d = int(rng.integers(1, 4))
    width = float(rng.choice([0.3, 1.0] if wide else [0.01, 0.3, 1.0]))
    lo = rng.uniform(-1, 1, d)
    hi = lo + width * rng.uniform(0.5, 1.0, d)
    box = build_box_lattice(lo, hi)
    W = rng.normal(size=(m, d))
    b = rng.normal(size=m) * 0.5
    pools = wide_layer(rng, W, b, lo, hi) if wide else random_pools(rng, m)
    for pool in [] if wide else pools:
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
            plant_cycle(W, b, dims)
    s = affine_transform(box, W, b)
    sel = rng.choice(["none", "random", "all_off", "all_on"])
    selection = {"none": None,
                 "random": NeuronSelection(rng.random(m) < 0.5),
                 "all_off": NeuronSelection(np.zeros(m, dtype=bool)),
                 "all_on": NeuronSelection(np.ones(m, dtype=bool))}[sel]
    return s, pools, selection


def test_settled_pools_match_per_pool_loop():
    rng = np.random.default_rng(20261018)
    seen = {"split": 0, "died": 0, "settled_only": 0, "wide_split": 0,
            "wide_died": 0, "wide_out": 0}
    for _ in range(150):
        s, pools, selection = random_case(rng)
        inputs = [s, affine_transform(s, np.eye(s.ambient_dim),
                                      rng.normal(size=s.ambient_dim) * 0.1)]
        got_stats, want_stats = {}, {}
        got = maxpool_layer_reach(inputs, maxpool_layer(pools), selection,
                                  got_stats)
        want = reference_maxpool_layer(inputs, pools, selection, want_stats)
        assert_same_sets(got, want)
        assert got_stats.get("splits", 0) == want_stats.get("splits", 0)
        died = any(not reference_maxpool_layer([t], pools, selection)
                   for t in inputs)
        seen["split"] += bool(want_stats.get("splits"))
        seen["died"] += died
        seen["settled_only"] += not want_stats.get("splits")
        if len(pools) >= 32:
            seen["wide_split"] += bool(want_stats.get("splits"))
            seen["wide_died"] += died
            seen["wide_out"] += bool(want)
    # the cases reach every branch: splits, deaths, and split-free sets,
    # and wide layers that jump to a late crossed pool, then die after it
    # or reach the end
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("w, b, n_sets, splits", [
    # x3 = 5 wins every comparison, though x0, x1 and x2 cross each other
    ((1, -1, 0, 0), (0, 0, 0, 5), 1, 0),
    # x0 and x1 cross each other but lose to x2 and x3 on the whole segment
    ((1, -1, -1, 1), (0, 0, 5, 5), 2, 2)], ids=["settled", "two_domains"])
def test_decided_pools_make_no_dead_end_splits(w, b, n_sets, splits):
    W, b = np.array(w, dtype=float)[:, None], np.array(b, dtype=float)
    s = affine_transform(build_box_lattice([-1.0], [1.0]), W, b)
    pools = [PoolSpec((0, 1, 2, 3), 0)]
    runs = []
    for reach_pool in (
            lambda st: maxpool_layer_reach([s], maxpool_layer(pools),
                                           stats=st),
            lambda st: maxpool_pool_reach([s], pools[0], stats=st),
            lambda st: reference_maxpool_layer([s], pools, stats=st)):
        stats = {}
        runs.append(reach_pool(stats))
        assert (len(runs[-1]), stats.get("splits", 0)) == (n_sets, splits)
        assert_same_sets(runs[-1], runs[0])
    for t in runs[0]:  # each output is the pool's maximum on its piece
        want = (t.region_vertices @ W.T + b).max(axis=1)
        assert np.allclose(t.vertices[:, 0], want, atol=1e-12)
    if n_sets == 1:  # the input set itself, with winner 3
        assert_same_sets(runs[0], [eliminate_dims(s, [3])])


def test_tolerance_cycle_kills_the_set():
    box = build_box_lattice([0.0], [1.0])
    W = np.ones((4, 1))
    b = np.array([0.0, 0.6, 1.2, -5.0]) * np.array([1, ZERO_TOL, ZERO_TOL, 1])
    s = affine_transform(box, W, b)
    pools = [PoolSpec((0, 1, 2, 3), 0)]
    stats = {}
    assert maxpool_layer_reach([s], maxpool_layer(pools), stats=stats) == []
    assert reference_maxpool_layer([s], pools) == []
    assert stats.get("splits", 0) == 0


def test_non_finite_set_settles_in_the_array_pass():
    # x0 - x1 = -x is zero at x = 0 and negative at x = 1, where x3 is
    # infinite: classify reads only x0 and x1, so that vertex's value is -1
    # there as in the array pass, and both settle the same winners
    seg = build_box_lattice([0.0], [1.0])
    s = affine_transform(seg, np.array([[0.0], [1.0], [1.0], [2.0]]),
                         np.zeros(4))
    v = s.vertices.copy()
    v[s.region_vertices[:, 0] == 1.0, 3] = np.inf
    s = LatticeSet(s.lattice, v, s.region_vertices)
    pools = [PoolSpec((0, 1), 1), PoolSpec((2, 3), 0)]
    with np.errstate(invalid="ignore"):
        got_stats, want_stats = {}, {}
        got = maxpool_layer_reach([s], maxpool_layer(pools), stats=got_stats)
        want = reference_maxpool_layer([s], pools, stats=want_stats)
    assert len(want) == 1
    assert_same_sets(got, want)
    assert got_stats == want_stats


def test_new_pieces_get_fresh_winners(monkeypatch):
    # both pools compare x with 0 and cross at x = 0; once the first pool
    # has split the segment there, the second is settled on each piece
    domains, classified, passes = [], [], []
    real_domains = layers._pool_domains
    real_classify = lattice.classify_vertices
    real_signs = layers._pair_signs
    monkeypatch.setattr(layers, "_pool_domains",
                        lambda *a: domains.append(a[1]) or real_domains(*a))
    monkeypatch.setattr(layers, "_pair_signs",
                        lambda *a: passes.append(1) or real_signs(*a))
    for module in (layers, lattice):  # the layer's name and the split's
        monkeypatch.setattr(module, "classify_vertices", lambda *a:
                            classified.append(1) or real_classify(*a))
    seg = build_box_lattice([-1.0], [1.0])
    s = affine_transform(seg, np.array([[1.0], [0.0], [1.0], [0.0]]),
                         np.zeros(4))
    pools = [PoolSpec((0, 1), 0), PoolSpec((2, 3), 1)]
    outs = maxpool_layer_reach([s], maxpool_layer(pools))
    assert len(outs) == 2
    # only the first pool enumerates domains, and its chains cut on the
    # labels of their pair-sign pass, not on a classify call
    assert domains == [pools[0]] and classified == []
    # one pair-sign pass per piece: the segment and its two halves
    assert len(passes) == 3


def count_passes_and_readings(monkeypatch):
    """Counters of ``_pair_signs`` passes and ``_pair_results`` readings."""
    counts = {"passes": 0, "readings": 0}
    for name, key in (("_pair_signs", "passes"), ("_pair_results", "readings")):
        def counted(*a, real=getattr(layers, name), key=key):
            counts[key] += 1
            return real(*a)
        monkeypatch.setattr(layers, name, counted)
    return counts


def test_each_pair_sign_pass_is_read_once(monkeypatch, tmp_path):
    # one rule turns a pass into comparison outcomes, and no pass is read
    # twice or left unread: the step's reading settles pools and names the
    # open pool's lost coordinates, and each chain reads each new pass
    net = load_model(write_conv_pool_model(tmp_path / "net.json", 5))
    x = np.random.default_rng(5).uniform(0, 1, 48)
    counts = count_passes_and_readings(monkeypatch)
    # the two-pool segment of test_new_pieces_get_fresh_winners
    seg = affine_transform(build_box_lattice([-1.0], [1.0]),
                           np.array([[1.0], [0.0], [1.0], [0.0]]), np.zeros(4))
    maxpool_layer_reach([seg], maxpool_layer(
        [PoolSpec((0, 1), 0), PoolSpec((2, 3), 1)]))
    assert counts == {"passes": 3, "readings": 3}
    rng = np.random.default_rng(20261019)
    runs = []
    for _ in range(30):
        s, pools, selection = random_case(rng)
        for sel in [None] + [selection] * (selection is not None):
            runs += [(maxpool_layer_reach, [s], maxpool_layer(pools), sel),
                     (maxpool_pool_reach, [s], pools[0], sel)]
    runs.append((reach, net, InputSpec(x, (5, 21, 37), 0.3), ReachConfig()))
    chained = 0
    for fn, *args in runs:
        counts.update(passes=0, readings=0)
        fn(*args)
        assert counts["passes"] >= 1
        assert counts["readings"] == counts["passes"]
        chained += counts["passes"] > 1
    # chains made their own passes on split pieces in many runs
    assert chained >= 10, chained


def test_engine_reach_takes_the_loaded_pool_index(tmp_path):
    # pools listed out of output order
    net = load_model(write_conv_pool_model(tmp_path / "net.json", 5,
                                           range(7, -1, -1)))
    lattice._box_structure.cache_clear()
    x = np.random.default_rng(5).uniform(0, 1, 48)
    for px in range(5):  # one-pixel fast reaches, as falsify runs them
        spec = InputSpec(x, (px, 16 + px, 32 + px), 0.3)
        res = reach(net, spec, ReachConfig(mode="fast", relaxation=0.3))
        assert res.set_count >= 1 and not res.truncated
    exact = reach(net, InputSpec(x, (5, 21, 37), 0.3), ReachConfig())
    assert exact.counters["splits"] >= 1
    for s in exact.sets:
        want = np.array([forward(net, r) for r in s.region_vertices])
        assert np.allclose(s.vertices, want, atol=1e-9)
    # every 3-d box shares one lattice structure, built once
    info = lattice._box_structure.cache_info()
    assert (info.misses, info.hits) == (1, 5)


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
        # 2-, 3- and 4-coordinate windows: short ones are padded rows
        m = int(rng.integers(2, 25))
        pool = maxpool_layer(random_pools(rng, m))
        n_pools = pool.width_out
        W = rng.normal(size=(3, n_pools))
        net = Network((pool, LayerDesc("affine", n_pools, 3, W,
                                       np.zeros(3))),
                      m, ("a", "b", "c"))
        # small integers plant ties inside most windows
        x = rng.integers(-2, 3, size=m).astype(float)
        if rng.random() < 0.5:
            x += rng.normal(size=x.size) * (rng.random(x.size) < 0.3)
        want = loop_pool_forward(pool, x)
        assert forward(net, x).tobytes() == (W @ want + 0.0).tobytes()
        for j in range(3):
            g = gradient(net, x, j)
            ref = loop_pool_backward(pool, x, W[j])
            assert g.wrt_input.tobytes() == ref.tobytes()
            assert g.wrt_layer[0].tobytes() == ref.tobytes()
