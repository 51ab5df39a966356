"""Layer propagation tests: ReLU recursion, maxpool domains, fast mode."""

import numpy as np
import pytest

from latreach import (LatticeError, Hyperplane, PoolSpec, NeuronSelection,
                      build_box_lattice, affine_transform, validate_set,
                      relu_layer_reach, maxpool_pool_reach,
                      maxpool_layer_reach, affine_layer_reach)
from conftest import dedup_vertex_set, in_union


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


def test_relu_selection_width_checked():
    s = build_box_lattice([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(LatticeError):
        relu_layer_reach([s], NeuronSelection(np.ones(3, dtype=bool)))


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
    outs = maxpool_layer_reach([s], pools)
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
    outs = maxpool_layer_reach([s], pools)
    for o in outs:
        assert np.allclose(o.vertices[:, 0],
                           o.region_vertices[:, 4:].max(axis=1), atol=1e-9)
        assert np.allclose(o.vertices[:, 1],
                           o.region_vertices[:, :4].max(axis=1), atol=1e-9)


def test_maxpool_layer_validation():
    s = build_box_lattice([-1.0] * 8, [1.0] * 8)
    with pytest.raises(LatticeError):
        maxpool_layer_reach([s], [PoolSpec((0, 1, 2, 3), 0),
                                  PoolSpec((3, 4, 5, 6), 1)])
    with pytest.raises(LatticeError):
        maxpool_layer_reach([s], [PoolSpec((0, 1, 2, 3), 0)])  # no cover
    with pytest.raises(LatticeError):
        maxpool_layer_reach([s], [PoolSpec((0, 1, 2, 3), 0),
                                  PoolSpec((4, 5, 6, 7), 2)])
    with pytest.raises(LatticeError):
        maxpool_layer_reach([s], [])


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


def test_affine_layer_reach():
    s = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    outs = affine_layer_reach([s, s], np.array([[1.0, 2.0]]), np.array([3.0]))
    assert len(outs) == 2
    assert np.allclose(outs[0].vertices,
                       s.vertices @ np.array([[1.0, 2.0]]).T + 3.0)
