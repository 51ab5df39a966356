"""Layer propagation tests: ReLU recursion, maxpool domains, fast mode."""

import time

import numpy as np
import pytest

from latreach import (LatticeError, LatticeSet, Hyperplane, PoolSpec, NeuronSelection,
                      ModelError, build_box_lattice, affine_transform,
                      validate_set, relu_layer_reach, maxpool_pool_reach,
                      maxpool_layer_reach, affine_layer_reach)
from latreach import lattice, layers
from latreach.lattice import sides
from latreach.layers import _domain_chain
from conftest import dedup_vertex_set, in_union, maxpool_layer


def quadrant_box():
    return build_box_lattice([-1.0, -0.5], [2.0, 1.5])


def test_relu_four_quadrants():
    outs = relu_layer_reach([quadrant_box()])
    assert len(outs) == 4
    got = {dedup_vertex_set(o) for o in outs}
    want = {
        frozenset({(0.0, 0.0), (2.0, 0.0), (0.0, 1.5), (2.0, 1.5)}),
        frozenset({(0.0, 0.0), (2.0, 0.0)}),
        frozenset({(0.0, 0.0), (0.0, 1.5)}),
        frozenset({(0.0, 0.0)}),
    }
    assert got == want
    for o in outs:
        validate_set(o)
        assert (o.vertices >= 0.0).all()


def test_relu_region_preimages():
    # every region vertex maps onto its output vertex under max(0, .)
    for o in relu_layer_reach([quadrant_box()]):
        assert np.allclose(np.maximum(o.region_vertices, 0.0), o.vertices,
                           atol=1e-12)


def test_relu_positive_box_unchanged():
    s = build_box_lattice([0.5, 0.5], [1.0, 2.0])
    outs = relu_layer_reach([s])
    assert len(outs) == 1
    assert outs[0] is s


def test_relu_negative_box_projected():
    s = build_box_lattice([-2.0, -1.0], [-0.5, -0.1])
    stats = {}
    outs = relu_layer_reach([s], stats=stats)
    assert len(outs) == 1
    assert (outs[0].vertices == 0.0).all()
    assert stats.get("splits", 0) == 0
    # region untouched
    assert np.array_equal(outs[0].region_vertices, s.region_vertices)


def test_relu_counts_and_splits():
    for n in range(1, 5):
        s = build_box_lattice([-1.0] * n, [1.0] * n)
        stats = {}
        outs = relu_layer_reach([s], stats=stats)
        assert len(outs) == 2 ** n
        assert stats["splits"] == 2 ** n - 1
        assert len({dedup_vertex_set(o) for o in outs}) == 2 ** n


def test_relu_count_bound_random(rng):
    # affine images of boxes never exceed the 2^n bound
    for trial in range(10):
        n = int(rng.integers(2, 5))
        s = build_box_lattice(rng.uniform(-1, -0.2, n), rng.uniform(0.2, 1, n))
        s = affine_transform(s, rng.normal(size=(n, n)), rng.normal(size=n) * 0.2)
        outs = relu_layer_reach([s])
        assert 1 <= len(outs) <= 2 ** n
        for o in outs:
            validate_set(o)
            assert (o.vertices >= -1e-9).all()


def test_relu_many_parallel_crossings_do_not_recurse():
    # 1,200 parallel neuron hyperplanes over a segment: one split per neuron
    # along a single chain, far deeper than the interpreter's stack
    seg = build_box_lattice([-1.0], [1.0])
    s = affine_transform(seg, np.ones((1200, 1)), np.linspace(-0.9, 0.9, 1200))
    stats = {}
    outs = relu_layer_reach([s], stats=stats)
    assert len(outs) == 1201
    assert stats["splits"] == 1200
    # depth first, positive child first: the input intervals come out from
    # the top one, above every kink, down to the one below every kink
    tops = [o.region_vertices.max() for o in outs]
    assert all(a > b for a, b in zip(tops, tops[1:]))
    assert np.allclose(sorted(outs[0].region_vertices[:, 0]), [0.9, 1.0])
    assert (outs[-1].vertices == 0).all()


def test_relu_splits_on_its_own_sign_pass(monkeypatch):
    # the sign pass already labels the split column, so none of the 1,200
    # splits on the kink segment classifies again
    calls = []
    real = lattice.classify_vertices
    monkeypatch.setattr(lattice, "classify_vertices",
                        lambda *a: calls.append(1) or real(*a))
    seg = build_box_lattice([-1.0], [1.0])
    s = affine_transform(seg, np.ones((1200, 1)), np.linspace(-0.9, 0.9, 1200))
    stats = {}
    assert len(relu_layer_reach([s], stats=stats)) == 1201
    assert stats["splits"] == 1200 and calls == []


def test_relu_non_finite_row_ends():
    # rows (inf, 0.5) and (1, -0.5): the cut on x1 reads x1 alone, so the
    # inf in x0 does not hide the crossing; one split, two pieces, and the
    # negative piece is rectified
    seg = build_box_lattice([0.0], [1.0])
    s = affine_transform(seg, np.array([[1.0], [-1.0]]), np.array([0.0, 0.5]))
    v = s.vertices.copy()
    v[0, 0] = np.inf
    s = LatticeSet(s.lattice, v, s.region_vertices)
    stats = {"deadline": time.monotonic() + 5.0}
    with np.errstate(invalid="ignore"):
        outs = relu_layer_reach([s], stats=stats)
    assert "expired" not in stats and stats["splits"] == 1
    assert len(outs) == 2
    for o in outs:
        x1 = o.vertices[:, 1]
        assert not sides(x1, np.abs(x1))[1].any()


def test_maxpool_non_finite_row_wins_by_its_own_coordinates():
    # x0 = t, x1 = 1 - t, x2 = 0, x3 = 2t with x3 = inf at t = 1: the pool
    # (0, 1) is crossed at t = 0.5 whatever x3 holds, so output 0 is
    # max(x0, x1) at every vertex
    seg = build_box_lattice([0.0], [1.0])
    s = affine_transform(seg, np.array([[1.0], [-1.0], [0.0], [2.0]]),
                         np.array([0.0, 1.0, 0.0, 0.0]))
    v = s.vertices.copy()
    v[s.region_vertices[:, 0] == 1.0, 3] = np.inf
    s = LatticeSet(s.lattice, v, s.region_vertices)
    layer = maxpool_layer([PoolSpec((0, 1), 0), PoolSpec((2, 3), 1)])
    with np.errstate(invalid="ignore"):
        outs = maxpool_layer_reach([s], layer)
    assert len(outs) == 2
    for o in outs:
        t = o.region_vertices[:, 0]
        np.testing.assert_allclose(o.vertices[:, 0], np.maximum(t, 1 - t),
                                   rtol=0, atol=1e-12)


def test_layers_stop_once_stats_expire(monkeypatch):
    # a layer entered after its deadline returns at once, with no split
    box = build_box_lattice([-1.0, -1.0], [1.0, 1.0])
    sets = [affine_transform(box, np.array([[1.0, 0], [0, 1], [-1, -1]]),
                             np.zeros(3)),
            affine_transform(box, np.array([[1.0, 0], [0, 1], [0, 0]]),
                             np.array([0.0, 0.0, 5.0]))]
    layer = maxpool_layer([PoolSpec((0, 1, 2), 0)])
    for run in (lambda st: relu_layer_reach([box], None, st),
                lambda st: maxpool_layer_reach(sets, layer, None, st)):
        stats = {"deadline": -np.inf}
        assert run(stats) == [] and "expired" in stats
        assert "splits" not in stats
        assert run({})
    # the deadline passes at the first split: the first domain chain of the
    # first set stops after it, no later chain starts, and the second set,
    # where the domain of the constant x2 needs no split, is not started
    stats = {"deadline": np.inf}
    split = layers.split_by_hyperplane

    def split_past_deadline(*args, **kwargs):
        stats["deadline"] = -np.inf
        return split(*args, **kwargs)

    monkeypatch.setattr(layers, "split_by_hyperplane", split_past_deadline)
    assert maxpool_layer_reach(sets, layer, None, stats) == []
    assert "expired" in stats and stats["splits"] == 1


def test_relu_set_cap_stops_inside_the_layer():
    # on the 1,200-kink segment each split leaves one more set alive (done
    # or waiting); with max_sets 3 the layer stops at the pop that sees 4
    seg = build_box_lattice([-1.0], [1.0])
    s = affine_transform(seg, np.ones((1200, 1)), np.linspace(-0.9, 0.9, 1200))
    stats = {"max_sets": 3}
    outs = relu_layer_reach([s], stats=stats)
    assert "expired" in stats and stats["splits"] == 3
    assert len(outs) == 2


def test_relu_selection_width_checked():
    s = build_box_lattice([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(LatticeError):
        relu_layer_reach([s], NeuronSelection(np.ones(3, dtype=bool)))
    # maxpool layers check it the same way, here on a crossed 4-pool
    s = affine_transform(s, np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]]),
                         np.zeros(4))
    pool = PoolSpec((0, 1, 2, 3), 0)
    for width in (2, 9):
        sel = NeuronSelection(np.ones(width, dtype=bool))
        with pytest.raises(LatticeError, match="selection width"):
            maxpool_pool_reach([s], pool, sel)
        with pytest.raises(LatticeError, match="selection width"):
            maxpool_layer_reach([s], maxpool_layer([pool]), sel)


def test_relu_fast_none_selected():
    # with nothing selected every split keeps one child: single output
    s = build_box_lattice([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    sel = NeuronSelection(np.zeros(3, dtype=bool))
    outs = relu_layer_reach([s], sel)
    assert len(outs) == 1
    exact = relu_layer_reach([s])
    # the surviving set is one of the exact outputs
    assert dedup_vertex_set(outs[0]) in {dedup_vertex_set(o) for o in exact}


def test_relu_fast_outputs_are_exact_outputs(rng):
    for trial in range(8):
        n = int(rng.integers(2, 5))
        s = build_box_lattice(rng.uniform(-1, -0.2, n), rng.uniform(0.2, 1, n))
        s = affine_transform(s, rng.normal(size=(n, n)) + np.eye(n),
                             rng.normal(size=n) * 0.1)
        sel = NeuronSelection(rng.random(n) < 0.5)
        fast = relu_layer_reach([s], sel)
        exact = relu_layer_reach([s])
        exact_keys = {dedup_vertex_set(o) for o in exact}
        assert 1 <= len(fast) <= len(exact)
        for o in fast:
            assert dedup_vertex_set(o) in exact_keys


def test_relu_fast_all_selected_is_exact(rng):
    n = 4
    s = build_box_lattice([-1.0] * n, [0.8] * n)
    sel = NeuronSelection(np.ones(n, dtype=bool))
    a = [dedup_vertex_set(o) for o in relu_layer_reach([s], sel)]
    b = [dedup_vertex_set(o) for o in relu_layer_reach([s])]
    assert sorted(a, key=sorted) == sorted(b, key=sorted)


def test_pool_spec_validation():
    with pytest.raises(LatticeError):
        PoolSpec((0, 0, 1, 2), 0)
    with pytest.raises(LatticeError):
        PoolSpec((0,), 0)
    with pytest.raises(LatticeError):
        PoolSpec((0, 1, 2, 3, 4), 0)
    for dims, out in [((0, 1.5), 0), ((0, True), 0), ((0, 1), False),
                      ((0, "1"), 0), ((0, 1), 0.5)]:
        with pytest.raises(LatticeError, match="must be an integer"):
            PoolSpec(dims, out)
    assert PoolSpec((np.int64(1), 2.0), np.int32(0)).dims == (1, 2)
    assert PoolSpec((3, 1, 0, 2), 0).pairs() == [(0, 1), (0, 2), (1, 2),
                                                 (0, 3), (1, 3), (2, 3)]


def test_maxpool_two_dim_toy():
    # one comparison hyperplane; straddling box gives both domains
    s = build_box_lattice([0.0, 0.5], [2.0, 1.5])
    stats = {}
    outs = maxpool_pool_reach([s], PoolSpec((0, 1), 0), stats=stats)
    assert len(outs) == 2
    assert stats["splits"] == 2  # one split per domain chain
    for o in outs:
        validate_set(o)
        assert o.vertices.shape[1] == 1
        # output value is the max of the two region coordinates
        assert np.allclose(o.vertices[:, 0],
                           o.region_vertices.max(axis=1), atol=1e-9)


def test_maxpool_non_straddling_no_splits():
    # x0 always dominates: single output, no split performed
    s = build_box_lattice([5.0, 0.0], [6.0, 1.0])
    stats = {}
    outs = maxpool_pool_reach([s], PoolSpec((0, 1), 0), stats=stats)
    assert len(outs) == 1
    assert stats.get("splits", 0) == 0
    assert np.allclose(outs[0].vertices[:, 0], outs[0].region_vertices[:, 0])


def test_maxpool_tie_goes_to_lower_coordinate():
    # degenerate box on the diagonal x0 == x1 everywhere
    s = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    s = affine_transform(s, np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2))
    outs = maxpool_pool_reach([s], PoolSpec((0, 1), 0))
    assert len(outs) == 1
    assert np.allclose(outs[0].vertices[:, 0], outs[0].region_vertices[:, 0])


def test_maxpool_four_domains_generic_box():
    s = build_box_lattice([-1.0, -0.9, -1.1, -0.95], [1.0, 1.1, 0.9, 1.05])
    outs = maxpool_pool_reach([s], PoolSpec((0, 1, 2, 3), 0))
    assert len(outs) == 4
    for o in outs:
        validate_set(o)
        assert o.vertices.shape[1] == 1
        assert np.allclose(o.vertices[:, 0],
                           o.region_vertices.max(axis=1), atol=1e-9)


def test_maxpool_domain_bound(rng):
    for trial in range(10):
        W = rng.normal(size=(4, 4)) + np.eye(4)
        b = rng.normal(size=4) * 0.2
        s = build_box_lattice(rng.uniform(-1, 0, 4), rng.uniform(0.1, 1, 4))
        s = affine_transform(s, W, b)
        outs = maxpool_pool_reach([s], PoolSpec((0, 1, 2, 3), 0))
        assert 1 <= len(outs) <= 8
        for o in outs:
            validate_set(o)
            want = (o.region_vertices @ W.T + b).max(axis=1)
            assert np.allclose(o.vertices[:, 0], want, atol=1e-9)


def test_maxpool_pool_keeps_passthrough_columns():
    s = build_box_lattice([0.0, 0.5, 7.0], [2.0, 1.5, 8.0])
    outs = maxpool_pool_reach([s], PoolSpec((0, 1), 0))
    assert len(outs) == 2
    for o in outs:
        assert o.vertices.shape[1] == 2
        # column 1 is the untouched third input coordinate
        assert set(np.round(o.vertices[:, 1], 9)) <= {7.0, 8.0}


def test_maxpool_layer_two_pools():
    lo = [-1.0, -0.9, -1.1, -0.95, -1.02, -0.97, -1.03, -0.99]
    hi = [1.0, 1.1, 0.9, 1.05, 0.98, 1.01, 0.99, 1.04]
    s = build_box_lattice(lo, hi)
    pools = [PoolSpec((0, 1, 2, 3), 0), PoolSpec((4, 5, 6, 7), 1)]
    outs = maxpool_layer_reach([s], maxpool_layer(pools))
    assert len(outs) == 16
    for o in outs:
        validate_set(o)
        assert o.vertices.shape[1] == 2
        assert np.allclose(o.vertices[:, 0],
                           o.region_vertices[:, :4].max(axis=1), atol=1e-9)
        assert np.allclose(o.vertices[:, 1],
                           o.region_vertices[:, 4:].max(axis=1), atol=1e-9)


def test_maxpool_layer_out_order_respected():
    lo = [-1.0, -0.9, -1.1, -0.95, 5.0, 0.0, 0.0, 0.0]
    hi = [1.0, 1.1, 0.9, 1.05, 6.0, 1.0, 1.0, 1.0]
    s = build_box_lattice(lo, hi)
    # second pool writes output column 0
    pools = [PoolSpec((0, 1, 2, 3), 1), PoolSpec((4, 5, 6, 7), 0)]
    outs = maxpool_layer_reach([s], maxpool_layer(pools))
    for o in outs:
        assert np.allclose(o.vertices[:, 0],
                           o.region_vertices[:, 4:].max(axis=1), atol=1e-9)
        assert np.allclose(o.vertices[:, 1],
                           o.region_vertices[:, :4].max(axis=1), atol=1e-9)


def test_maxpool_layer_validation():
    for pools in ([PoolSpec((0, 1, 2, 3), 0), PoolSpec((3, 4, 5, 6), 1)],
                  [PoolSpec((0, 1, 2, 3), 0)],  # no cover
                  [PoolSpec((0, 1, 2, 3), 0), PoolSpec((4, 5, 6, 7), 2)],
                  []):
        with pytest.raises(ModelError):
            maxpool_layer(pools, 8)
    layer = maxpool_layer([PoolSpec((0, 1, 2, 3), 0)])
    with pytest.raises(LatticeError):
        maxpool_layer_reach([build_box_lattice([-1.0] * 8, [1.0] * 8)], layer)


def test_maxpool_fast_outputs_inside_exact(rng):
    for trial in range(6):
        s = build_box_lattice(rng.uniform(-1, -0.05, 4),
                              rng.uniform(0.05, 1, 4))
        s = affine_transform(s, rng.normal(size=(4, 4)) + np.eye(4),
                             rng.normal(size=4) * 0.1)
        exact = maxpool_pool_reach([s], PoolSpec((0, 1, 2, 3), 0))
        sel = NeuronSelection(rng.random(4) < 0.5)
        fast = maxpool_pool_reach([s], PoolSpec((0, 1, 2, 3), 0), sel)
        assert len(fast) >= 1
        for o in fast:
            ok = in_union(exact, o.vertices, 1e-6)
            assert ok.all()


def test_maxpool_fast_all_unselected_never_empty(rng):
    sel = NeuronSelection(np.zeros(4, dtype=bool))
    for trial in range(6):
        s = build_box_lattice(rng.uniform(-1, -0.05, 4),
                              rng.uniform(0.05, 1, 4))
        fast = maxpool_pool_reach([s], PoolSpec((0, 1, 2, 3), 0), sel)
        assert len(fast) >= 1
        exact = maxpool_pool_reach([s], PoolSpec((0, 1, 2, 3), 0))
        for o in fast:
            assert in_union(exact, o.vertices, 1e-6).all()


def test_fast_maxpool_centroid_fallback_keeps_every_set():
    # the fast-mode kill rules can starve every domain of a pool; the
    # centroid fallback then keeps the exact domain of the centroid's
    # winner, so no set that the exact layer keeps maps to nothing
    rng = np.random.default_rng(20261018)
    starved = 0
    for _ in range(400):
        n, d = int(rng.integers(3, 5)), int(rng.integers(1, 4))
        lo = rng.uniform(-1, 1, d)
        box = build_box_lattice(lo, lo + rng.uniform(0.5, 1.5, d))
        s = affine_transform(box, rng.normal(size=(n, d)),
                             rng.normal(size=n) * 0.5)
        pools = [PoolSpec(rng.permutation(n), 0)]
        sel = NeuronSelection(rng.random(n) < rng.choice([0.0, 0.3]))
        starved += all(_domain_chain(s, pools[0], k, sel, None) is None
                       for k in range(n))
        exact = maxpool_layer_reach([s], maxpool_layer(pools))
        fast = maxpool_layer_reach([s], maxpool_layer(pools), sel)
        assert exact and fast
        assert ({dedup_vertex_set(o) for o in fast}
                <= {dedup_vertex_set(o) for o in exact})
    # 24 of the 400 draws starve every domain
    assert starved >= 15, starved


def test_affine_layer_reach():
    s = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    outs = affine_layer_reach([s, s], np.array([[1.0, 2.0]]), np.array([3.0]))
    assert len(outs) == 2
    assert np.allclose(outs[0].vertices,
                       s.vertices @ np.array([[1.0, 2.0]]).T + 3.0)
