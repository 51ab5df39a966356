"""The mapped engine against the row path.

Inside ``reach`` a set is a MappedSet: its lattice, its region rows in the
perturbed coordinates only, and one affine map that gives its vertex rows.
The row path runs the same layer functions on LatticeSets that store both
row matrices, from ``embed_box``, and stays the reference: ``reach`` must
give the same sets and splits, identical lattices, and every vertex and
region row within 1e-12 of its row scale (its larger absolute entry, at
least 1).
"""

import json
import tracemalloc

import numpy as np
from hypothesis import given

from latreach import (InputSpec, LayerDesc, Network, PoolSpec, ReachConfig,
                      affine_layer_reach, load_model, maxpool_layer_reach,
                      reach, relu_layer_reach, select_neurons)
from latreach import layers
from latreach.lattice import MappedSet
from latreach.model import embed_box
from conftest import maxpool_layer, random_toy_net
from test_degenerate_nets import PROPERTY, degenerate_nets

ROW_TOL = 1e-12


def row_reach(net, spec, cfg=ReachConfig()):
    """``reach``'s one-partition layer loop on the row path: the sets and
    the split count."""
    selections = (select_neurons(net, spec, cfg.relaxation)
                  if cfg.mode == "fast" else {})
    centers = spec.baseline[list(spec.perturbed_coords)]
    sets = [embed_box(spec, centers - spec.epsilon, centers + spec.epsilon)]
    stats = {"splits": 0}
    for i, layer in enumerate(net.layers):
        sel = selections.get(i)
        if layer.kind == "affine":
            sets = affine_layer_reach(sets, layer.W, layer.b)
        elif layer.kind == "relu":
            sets = relu_layer_reach(sets, sel, stats)
        else:
            sets = maxpool_layer_reach(sets, layer, sel, stats)
    return sets, stats["splits"]


def assert_matches_row_path(net, spec, cfg=ReachConfig()):
    res = reach(net, spec, cfg)
    want, splits = row_reach(net, spec, cfg)
    assert not res.truncated
    assert (res.set_count, res.counters["splits"]) == (len(want), splits)
    for a, b in zip(res.sets, want):
        la, lb = a.lattice, b.lattice
        assert la._buf.dtype == lb._buf.dtype
        assert np.array_equal(la._buf, lb._buf)
        assert (la.n_faces, la.next_id) == (lb.n_faces, lb.next_id)
        for x, y in ((a.vertices, b.vertices),
                     (a.region_vertices, b.region_vertices)):
            assert x.shape == y.shape
            # a row's scale is its larger absolute entry, at least 1, as
            # in the zero band: a row at the origin has no scale of its own
            scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)).max(1))
            assert (np.abs(x - y).max(axis=1) <= ROW_TOL * scale).all()
    return res


def test_mapped_engine_matches_row_path_on_toy_nets():
    counts = [assert_matches_row_path(*random_toy_net(seed)).set_count
              for seed in range(20)]
    assert sum(counts) > 400  # the nets split


@PROPERTY
@given(degenerate_nets())
def test_mapped_engine_matches_row_path_on_degenerate_nets(case):
    assert_matches_row_path(*case)


def conv_bn_pool_net(tmp_path):
    """A 3x6x6-input net: conv (3 filters, pad 1), batch-norm, ReLU, nine
    2x2 pools per channel, affine to 3 logits."""
    rng = np.random.default_rng(4)
    base = (np.arange(3)[:, None, None] * 36 + 12 * np.arange(3)[:, None]
            + 2 * np.arange(3)).reshape(-1, 1) + [0, 1, 6, 7]
    doc = {"input_width": 108, "labels": ["a", "b", "c"], "layers": [
        {"kind": "conv", "in_shape": [3, 6, 6], "pad": 1,
         "filters": rng.normal(size=(3, 3, 3, 3)).tolist(),
         "bias": rng.normal(size=3).tolist()},
        {"kind": "batchnorm", "mean": rng.normal(size=108).tolist(),
         "var": rng.uniform(0.5, 1.5, 108).tolist(),
         "gamma": rng.uniform(0.8, 1.2, 108).tolist(),
         "beta": rng.normal(size=108).tolist()},
        {"kind": "relu"},
        {"kind": "maxpool", "pools": [{"dims": d, "out": i}
                                      for i, d in enumerate(base.tolist())]},
        {"kind": "affine", "W": rng.normal(size=(3, 27)).tolist(),
         "b": [0.0, 0.0, 0.0]}]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return load_model(path), rng.uniform(0, 1, 108)


def test_mapped_engine_matches_row_path_on_a_conv_batchnorm_pool_net(
        tmp_path):
    net, x = conv_bn_pool_net(tmp_path)
    total = 0
    for pixel in (0, 7, 14):  # one RGB pixel each
        spec = InputSpec(x, (pixel, 36 + pixel, 72 + pixel), 0.4)
        total += assert_matches_row_path(net, spec).set_count
    assert total > 50


def test_pool_ties_stay_exact(monkeypatch):
    # coordinates 0 and 1 are the constant 0.3 (zero rows of W2): their
    # columns of every map are (0, ..., 0, 0.3); coordinates 2 and 3 are
    # duplicates, with equal columns.  After the ReLU's splits each
    # pair-sign pass still reads both ties as exactly 0
    W1 = np.array([[1.0, -1.0], [1.0, 1.0], [0.5, -2.0]])
    W2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, -1.0, 0.5],
                   [1.0, -1.0, 0.5]])
    net = Network((LayerDesc("affine", 2, 3, W1, np.array([0.1, -0.2, 0.05])),
                   LayerDesc("relu", 3, 3),
                   LayerDesc("affine", 3, 4, W2, np.array([0.3, 0.3, 0.2,
                                                            0.2])),
                   maxpool_layer([PoolSpec((0, 1, 2, 3), 0)]),
                   LayerDesc("affine", 1, 2, np.array([[1.0], [-1.0]]),
                             np.zeros(2))), 2, ("a", "b"))
    ties = []
    real = layers._pair_signs

    def recorded(s, windows):
        signs = real(s, windows)
        if isinstance(s, MappedSet):
            ties.append(signs[0][..., [0, 5]])  # the pairs (0, 1), (2, 3)
        return signs

    monkeypatch.setattr(layers, "_pair_signs", recorded)
    res = assert_matches_row_path(net, InputSpec(np.zeros(2), (0, 1), 1.0))
    assert res.set_count > 4 and ties
    assert all((d == 0.0).all() for d in ties)


def test_criterion_9_reach_peak_memory():
    # the tracemalloc peak of the acceptance test's criterion-9 exact reach
    # (13,324 sets): 53.2 MB when every set stored full vertex and region
    # rows, 35.4 MB in a MappedSet prototype of ReLU and affine layers
    rng = np.random.default_rng(1)
    W1 = rng.normal(size=(12, 4)) / 2.0
    b1 = rng.normal(size=12) * 0.05
    W2 = rng.normal(size=(12, 12)) / np.sqrt(12)
    b2 = rng.normal(size=12) * 0.05
    W3 = rng.normal(size=(2, 12))
    b3 = rng.normal(size=2) * 0.1
    net = Network((LayerDesc("affine", 4, 12, W1, b1),
                   LayerDesc("relu", 12, 12),
                   LayerDesc("affine", 12, 12, W2, b2),
                   LayerDesc("relu", 12, 12),
                   LayerDesc("affine", 12, 2, W3, b3)), 4, ("a", "b"))
    spec = InputSpec(np.zeros(4), (0, 1, 2, 3), 1.0)
    tracemalloc.start()
    try:
        res = reach(net, spec, ReachConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.set_count == 13_324
    assert peak < 45e6, peak / 1e6
