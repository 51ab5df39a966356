"""Exact regions tile the input box on random nets with planted degeneracies.

Nets mix affine, ReLU and maxpool layers and conv layers kept as
convolutions, over boxes of dimension 1 to 4.  Weights are small integers and box corners
half-integers, so the planted degeneracies are exact in floating point:
duplicate neurons, zero rows, and hyperplanes (ReLU planes and maxpool
comparisons) through the image of a box corner, which put vertices exactly
on the zero band.  A region emitted twice, a dropped region, or two
overlapping regions break the volume sum or the one-region-per-centroid
rule.  The same nets with one affine layer scaled by up to 1e300 check that
an exact SAFE stays sound when the arithmetic is near its range.
"""

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.spatial import ConvexHull

from latreach import (ZERO_TOL, InputSpec, LayerDesc, Network, PoolSpec,
                      ReachConfig, forward, reach, verify)
from latreach.affine import Conv, scale_rows
from latreach.model import _apply_layer

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _ints(draw, n, lo, hi):
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=n,
                                  max_size=n)), dtype=float)


def _planted_affine(draw, Z, n_out):
    """``n_out`` integer rows over inputs whose values at the box corners are
    the rows of ``Z``: each is plain, a duplicate, zero, zero at a corner or
    at the corners' mean, or tied with an earlier row at a corner."""
    width = Z.shape[1]
    W, b = np.zeros((n_out, width)), np.zeros(n_out)
    for i in range(n_out):
        how = draw(st.sampled_from(
            ["plain", "zero", "vertex", "center"]
            + ["duplicate", "tie"] * (i > 0)))
        if how == "zero":
            b[i] = draw(st.integers(-1, 1))
            continue
        j = draw(st.integers(0, i - 1)) if i else 0
        if how == "duplicate":
            W[i], b[i] = W[j], b[j]
            continue
        W[i], b[i] = _ints(draw, width, -2, 2), draw(st.integers(-2, 2))
        z = Z[draw(st.integers(0, len(Z) - 1))]
        if how == "vertex":
            b[i] = -(W[i] @ z)
        elif how == "center":
            b[i] = -(W[i] @ Z.mean(axis=0))
        elif how == "tie":
            b[i] = b[j] + (W[j] - W[i]) @ z
    return W, b


def _conv(draw, width):
    """The weight and bias of a conv layer over a ``width``-long input."""
    c, h, w = draw(st.sampled_from(
        [(1, 1, width)] + [(2, 1, width // 2), (1, 2, width // 2)]
        * (width % 2 == 0)))
    k = draw(st.integers(1, 2 if width <= 3 else 1))
    fh, fw = draw(st.integers(1, h)), draw(st.integers(1, min(w, 2)))
    filt = _ints(draw, k * c * fh * fw, -1, 1).reshape(k, c, fh, fw)
    bias = _ints(draw, k, -2, 2) / 2
    conv = Conv(filt, (c, h, w), draw(st.integers(1, 2)))
    return conv, np.repeat(bias, conv.taps.shape[1])


@st.composite
def degenerate_nets(draw):
    d = draw(st.integers(1, 4))
    width = d + draw(st.integers(0, 1))
    coords = tuple(draw(st.permutations(range(width)))[:d])
    spec = InputSpec(_ints(draw, width, -1, 1), coords,
                     draw(st.sampled_from([0.5, 1.0])))
    # the box corners, run through the layers built so far
    Z = np.tile(spec.baseline, (2 ** d, 1))
    Z[:, list(coords)] += spec.epsilon * np.array(
        list(itertools.product((-1.0, 1.0), repeat=d)))

    layers = []

    def add(layer):
        layers.append(layer)
        return np.array([_apply_layer(layer, z) for z in Z])

    for _ in range(draw(st.integers(1, 2))):
        w_in = Z.shape[1]
        kind = draw(st.sampled_from(["relu", "conv", "maxpool"]))
        if kind == "conv":
            W, b = _conv(draw, w_in)
        else:
            n_out = (4 * draw(st.integers(1, 2)) if kind == "maxpool"
                     else draw(st.integers(1, 4)))
            W, b = _planted_affine(draw, Z, n_out)
        Z = add(LayerDesc("affine", w_in, len(b), W, b))
        if kind != "maxpool" or draw(st.booleans()):
            Z = add(LayerDesc("relu", len(b), len(b)))
        if kind == "maxpool":
            perm = draw(st.permutations(range(len(b))))
            outs = draw(st.permutations(range(len(b) // 4)))
            pools = tuple(PoolSpec(perm[4 * i:4 * i + 4], o)
                          for i, o in enumerate(outs))
            Z = add(LayerDesc("maxpool", len(b), len(pools), pools=pools))
    w_in = Z.shape[1]
    layers.append(LayerDesc("affine", w_in, 2, _ints(draw, 2 * w_in, -2, 2)
                            .reshape(2, w_in), np.zeros(2)))
    return Network(tuple(layers), width, ("a", "b")), spec


def _cells(regions):
    """``(volume, equations)`` of each region; a 1-d region is an interval
    with the inequalities ``x - hi <= 0`` and ``lo - x <= 0``."""
    if regions[0].shape[1] == 1:
        return [(float(np.ptp(r)), np.array([[1.0, -r.max()],
                                             [-1.0, r.min()]]))
                for r in regions]
    hulls = [ConvexHull(r) for r in regions]
    return [(h.volume, h.equations) for h in hulls]


@PROPERTY
@given(degenerate_nets())
def test_exact_regions_tile_the_box_on_degenerate_nets(case):
    net, spec = case
    res = reach(net, spec, ReachConfig())
    assert not res.truncated and res.set_count >= 1
    cols = list(spec.perturbed_coords)
    regions = [s.region_vertices[:, cols] for s in res.sets]
    cells = _cells(regions)
    box = (2 * spec.epsilon) ** len(cols)
    total = sum(v for v, _ in cells)
    assert abs(total - box) <= 1e-9 * box, (total, box)
    centroids = np.array([r.mean(axis=0) for r in regions])
    hits = sum((eq[:, :-1] @ centroids.T + eq[:, -1:] <= 1e-9).all(axis=0)
               for _, eq in cells)
    assert (hits == 1).all(), hits


@st.composite
def huge_weight_nets(draw):
    """A planted net whose affine layer ``i`` (dense or conv) is scaled by
    up to 1e300."""
    net, spec = draw(degenerate_nets())
    layers = list(net.layers)
    i = draw(st.sampled_from([i for i, layer in enumerate(layers)
                              if layer.kind == "affine"]))
    scale = 10.0 ** draw(st.integers(0, 300))
    a = layers[i]
    layers[i] = LayerDesc("affine", a.width_in, a.width_out,
                          scale_rows(a.W, np.full(a.width_out, scale)),
                          a.b * scale)
    return Network(tuple(layers), net.input_width, net.labels), spec


@PROPERTY
@given(huge_weight_nets())
def test_exact_safe_holds_on_huge_weight_nets(case):
    # an exact SAFE needs finite output and region vertices, and no region
    # vertex may take a class other than the baseline's in a forward pass
    # (by more than the zero band: a tie on the boundary is allowed)
    net, spec = case
    cfg = ReachConfig()
    with np.errstate(all="ignore"):
        res = reach(net, spec, cfg)
        verdict = verify(net, spec, cfg, res)
        if verdict.status != "SAFE":
            return
        assert all(np.isfinite(s.vertices).all()
                   and np.isfinite(s.region_vertices).all()
                   for s in res.sets)
        c = verdict.info["class"]
        for s in res.sets:
            for x in s.region_vertices:
                y = forward(net, x)
                band = ZERO_TOL * np.maximum(1.0, abs(y[c]) + np.abs(y))
                assert (y[c] - y >= -band).all(), (x, y, c)
