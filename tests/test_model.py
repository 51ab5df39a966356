"""Model loading, structured conv layers, forward evaluation, and gradients."""

import itertools
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from latreach import (ModelError, InputSpec, LatticeSet, LayerDesc, Network,
                      PoolSpec, ReachConfig, affine_transform,
                      build_box_lattice, load_model, forward, gradient, reach,
                      write_flrw, validate_set)
from latreach.affine import Conv, affine_rows, affine_transpose
from latreach.cli import main
from latreach.model import _read_flrw, embed_box


def write_model(tmp_path, doc, name="net.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def direct_conv(x, filt, bias, stride, pad, c, h, w):
    """Reference convolution by explicit loops over the padded tensor."""
    k, _, fh, fw = filt.shape
    xt = x.reshape(c, h, w)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad))
    padded[:, pad:pad + h, pad:pad + w] = xt
    oh = (h + 2 * pad - fh) // stride + 1
    ow = (w + 2 * pad - fw) // stride + 1
    out = np.zeros((k, oh, ow))
    for f in range(k):
        for oy in range(oh):
            for ox in range(ow):
                patch = padded[:, oy * stride:oy * stride + fh,
                               ox * stride:ox * stride + fw]
                out[f, oy, ox] = (patch * filt[f]).sum() + bias[f]
    return out.ravel()


def test_load_identity_affine(tmp_path):
    doc = {"input_width": 2, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": [[1, 0], [0, 1]], "b": [0, 0]}]}
    net = load_model(write_model(tmp_path, doc))
    assert net.input_width == 2
    assert net.labels == ("a", "b")
    assert len(net.layers) == 1
    assert np.allclose(forward(net, [3.0, -4.0]), [3.0, -4.0])


def test_forward_examples(tmp_path):
    doc = {"input_width": 2, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": [[1, 0], [0, 1]], "b": [0, 0]},
                      {"kind": "relu"}]}
    net = load_model(write_model(tmp_path, doc))
    assert np.allclose(forward(net, [-1.0, 2.0]), [0.0, 2.0])

    doc = {"input_width": 4, "labels": ["m"],
           "layers": [{"kind": "maxpool",
                       "pools": [{"dims": [0, 1, 2, 3], "out": 0}]}]}
    net = load_model(write_model(tmp_path, doc))
    assert forward(net, [3.0, 1.0, 4.0, 1.0]) == pytest.approx([4.0])

    doc = {"input_width": 1, "labels": ["y"],
           "layers": [{"kind": "affine", "W": [[2]], "b": [1]},
                      {"kind": "affine", "W": [[3]], "b": [-1]}]}
    net = load_model(write_model(tmp_path, doc))
    # 3*(2x+1)-1 = 6x+2
    assert forward(net, [5.0]) == pytest.approx([32.0])


def test_forward_homogeneous_without_bias(tmp_path, rng):
    W1 = rng.normal(size=(5, 3)).tolist()
    W2 = rng.normal(size=(2, 5)).tolist()
    doc = {"input_width": 3, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": W1, "b": [0] * 5},
                      {"kind": "relu"},
                      {"kind": "affine", "W": W2, "b": [0, 0]}]}
    net = load_model(write_model(tmp_path, doc))
    for _ in range(5):
        x = rng.normal(size=3)
        a = float(rng.uniform(0.1, 3.0))
        assert np.allclose(forward(net, a * x), a * forward(net, x),
                           atol=1e-12)


def test_load_errors(tmp_path):
    with pytest.raises(ModelError):
        load_model(write_model(tmp_path, {"input_width": 2, "labels": ["a"],
                                          "layers": [{"kind": "softmax"}]}))
    # affine output width 2 feeding a 3-wide affine
    doc = {"input_width": 2, "labels": ["a"],
           "layers": [{"kind": "affine", "W": [[1, 0], [0, 1]], "b": [0, 0]},
                      {"kind": "affine", "W": [[1, 1, 1]], "b": [0]}]}
    with pytest.raises(ModelError):
        load_model(write_model(tmp_path, doc))
    # final width != label count
    doc = {"input_width": 2, "labels": ["a", "b", "c"],
           "layers": [{"kind": "affine", "W": [[1, 0], [0, 1]], "b": [0, 0]}]}
    with pytest.raises(ModelError):
        load_model(write_model(tmp_path, doc))
    with pytest.raises(ModelError):
        load_model(write_model(tmp_path, {"input_width": 2, "labels": ["a"],
                                          "layers": []}))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelError):
        load_model(bad)
    # malformed layer entries name the layer instead of leaking KeyError or
    # AttributeError
    for layer in [{"kind": "affine", "b": [0, 0]},
                  {"kind": "conv", "in_shape": [1, 1, 2]},
                  {"kind": "maxpool"},
                  "relu"]:
        doc = {"input_width": 2, "labels": ["a", "b"], "layers": [layer]}
        with pytest.raises(ModelError, match="^layer 0: "):
            load_model(write_model(tmp_path, doc))
    # a dangling weight sidecar and non-finite weights: inline, in a
    # sidecar, or from a folded batch-norm
    write_flrw(tmp_path / "inf.flrw", [[np.inf, 0.0], [0.0, 1.0]])
    for layers in [[{"kind": "affine_ref", "file": "nope.flrw", "b": [0, 0]}],
                   [{"kind": "affine", "W": [[np.nan, 0], [0, 1]],
                     "b": [0, 0]}],
                   [{"kind": "affine", "W": [[1, 0], [0, 1]],
                     "b": [0, np.inf]}],
                   [{"kind": "affine_ref", "file": "inf.flrw", "b": [0, 0]}],
                   [{"kind": "affine", "W": [[1, 1], [1, 1]], "b": [1, 1]},
                    {"kind": "batchnorm", "mean": [-1, -1], "var": [1, 1],
                     "gamma": [np.inf, 1], "beta": [0, 0]}]]:
        doc = {"input_width": 2, "labels": ["a", "b"], "layers": layers}
        with pytest.raises(ModelError, match="^layer [01]: "):
            load_model(write_model(tmp_path, doc))
    # sizes and indices must be integers: no silent truncation, no bools
    def maxpool(**pool):
        return {"kind": "maxpool",
                "pools": [{"dims": [0, 1, 2, 3], "out": 0, **pool}]}

    conv = {"kind": "conv", "in_shape": [1, 2, 2], "stride": 1,
            "filters": [[[[1.0]]]]}
    for layer in [maxpool(dims=[0, 1.9, 2, 3]), maxpool(dims=[0, 1, True, 3]),
                  maxpool(out=False), maxpool(out="0"),
                  {**conv, "stride": 1.5},
                  {**conv, "pad": True},
                  {**conv, "in_shape": [1, 2.9, 2]},
                  {"kind": "relu", "width_out": 4.5}]:
        doc = {"input_width": 4, "labels": ["a"] * 4, "layers": [layer]}
        with pytest.raises(ModelError, match="^layer 0: .*must be an integer"):
            load_model(write_model(tmp_path, doc))
    for width in (2.7, True, "4", None):
        doc = {"input_width": width, "labels": ["a", "b"],
               "layers": [{"kind": "relu"}]}
        with pytest.raises(ModelError, match="input_width must be an integer"):
            load_model(write_model(tmp_path, doc))
    # integral floats are integers
    doc = {"input_width": 4.0, "labels": ["a"] * 4,
           "layers": [{**conv, "stride": 1.0, "in_shape": [1.0, 2, 2]}]}
    assert load_model(write_model(tmp_path, doc)).input_width == 4


@pytest.mark.parametrize("key, value", [
    ("labels", "ab"), ("labels", {"a": 1, "b": 2}),
    ("layers", "relu"), ("layers", {"kind": "relu"})])
def test_labels_and_layers_must_be_arrays(tmp_path, key, value):
    # a string or an object is not read as the sequence of its characters
    # or keys
    doc = {"input_width": 2, "labels": ["a", "b"],
           "layers": [{"kind": "relu"}], key: value}
    with pytest.raises(ModelError, match=f"'{key}' must be a JSON array"):
        load_model(write_model(tmp_path, doc))


CONV = {"kind": "conv", "in_shape": [1, 2, 2], "filters": [[[[1.0]]]]}
AFFINE = {"kind": "affine", "W": [[1, 0], [0, 1]], "b": [0, 0]}


@pytest.mark.parametrize("layer, message", [
    ({**CONV, "stride": 0}, "conv stride must be >= 1 and pad >= 0"),
    ({**CONV, "bias": [0.0, 0.0]}, "conv bias length must equal filter count"),
    ({**CONV, "filters": [[1.0]]}, "conv filters must be [k][c][fh][fw]"),
    ({"kind": "batchnorm", "mean": [0] * 4, "var": [1, 1, -1, 1],
      "gamma": [1] * 4, "beta": [0] * 4},
     "batchnorm variance must be positive"),
    ({**AFFINE, "W": [1, 0]}, "affine W must be a matrix"),
    ({**AFFINE, "b": [0]}, "affine bias length mismatch"),
    ({"kind": "relu", "width_out": 3}, "relu must preserve width"),
    ({"kind": "relu", "width_in": 3},
     "relu width 3 does not match running width 4"),
    ({"kind": "maxpool", "pools": [{"dims": [-1, 0, 1, 2], "out": 0}]},
     "negative pool index"),
    (None, "missing top-level key 'labels'")],
    ids=["conv_stride", "conv_bias", "conv_filters", "bn_variance",
         "affine_vector", "affine_bias", "relu_width_out", "relu_width_in",
         "maxpool_negative_index", "no_labels"])
def test_model_file_errors_name_the_fault(tmp_path, capsys, layer, message):
    doc = {"input_width": 4, "labels": ["a"] * 4, "layers": [layer]}
    if layer is None:
        del doc["labels"]
    elif layer["kind"] == "affine":
        doc.update(input_width=2, labels=["a", "b"])
    path = write_model(tmp_path, doc)
    with pytest.raises(ModelError) as err:
        load_model(path)
    assert message in str(err.value)
    x = tmp_path / "x.csv"
    x.write_text(",".join(["0.0"] * doc["input_width"]))
    code = main(["reach", "--model", str(path), "--input", str(x),
                 "--pixels", "0", "--epsilon", "0.1",
                 "--out", str(tmp_path / "R.json")])
    assert code == 4 and message in capsys.readouterr().err


@pytest.mark.parametrize("top", ["[1, 2]", '"x"', "3", "null"],
                         ids=["array", "string", "number", "null"])
def test_top_level_must_be_an_object(tmp_path, capsys, top):
    # a library caller catching ModelError sees the fault, not a TypeError
    path = tmp_path / "net.json"
    path.write_text(top)
    want = f"{path}: top level must be a JSON object"
    with pytest.raises(ModelError) as err:
        load_model(path)
    assert str(err.value) == want
    x = tmp_path / "x.csv"
    x.write_text("0.0,0.0")
    code = main(["reach", "--model", str(path), "--input", str(x),
                 "--pixels", "0", "--epsilon", "0.1",
                 "--out", str(tmp_path / "R.json")])
    assert code == 4 and want in capsys.readouterr().err


def test_conv_one_by_one_is_channel_mix(tmp_path):
    # 1x1 conv on a 2-channel 2x2 image: per-pixel channel mixing
    filt = [[[[2.0]], [[3.0]]],
            [[[-1.0]], [[0.5]]]]
    doc = {"input_width": 8, "labels": list("abcdefgh"),
           "layers": [{"kind": "conv", "in_shape": [2, 2, 2],
                       "filters": filt, "bias": [0.0, 0.0],
                       "stride": 1, "pad": 0}]}
    net = load_model(write_model(tmp_path, doc))
    assert net.layers[0].kind == "affine"
    x = np.arange(8, dtype=float)  # channel 0: 0..3, channel 1: 4..7
    y = forward(net, x)
    # output channel 0 pixel p = 2*c0[p] + 3*c1[p]
    assert np.allclose(y[:4], 2 * x[:4] + 3 * x[4:])
    assert np.allclose(y[4:], -1 * x[:4] + 0.5 * x[4:])


def test_conv_matches_direct_convolution(tmp_path, rng):
    c, h, w = 2, 5, 4
    # the last three: windows lying wholly in the padding, a stride that
    # skips input rows and columns, and a non-square 1xk filter
    for stride, pad, fh, fw, k in [(1, 0, 3, 3, 3), (2, 1, 3, 3, 2),
                                   (1, 1, 2, 2, 1), (2, 0, 2, 2, 4),
                                   (1, 3, 2, 2, 2), (3, 1, 2, 2, 3),
                                   (1, 1, 1, 3, 2)]:
        filt = rng.normal(size=(k, c, fh, fw))
        bias = rng.normal(size=k)
        doc = {"input_width": c * h * w,
               "labels": [str(i) for i in
                          range(k * ((h + 2 * pad - fh) // stride + 1)
                                * ((w + 2 * pad - fw) // stride + 1))],
               "layers": [{"kind": "conv", "in_shape": [c, h, w],
                           "filters": filt.tolist(), "bias": bias.tolist(),
                           "stride": stride, "pad": pad}]}
        net = load_model(write_model(tmp_path, doc))
        for _ in range(20):
            x = rng.normal(size=c * h * w)
            want = direct_conv(x, filt, bias, stride, pad, c, h, w)
            assert np.allclose(forward(net, x), want, atol=1e-12)


def test_conv_shape_errors(tmp_path):
    doc = {"input_width": 9, "labels": ["a"],
           "layers": [{"kind": "conv", "in_shape": [1, 2, 2],
                       "filters": [[[[1.0]]]], "bias": [0.0]}]}
    with pytest.raises(ModelError):
        load_model(write_model(tmp_path, doc))
    doc = {"input_width": 4, "labels": ["a"],
           "layers": [{"kind": "conv", "in_shape": [1, 2, 2],
                       "filters": [[[[1.0, 1.0, 1.0]]]], "bias": [0.0],
                       "stride": 1, "pad": 0}]}
    with pytest.raises(ModelError):
        load_model(write_model(tmp_path, doc))


def test_flrw_roundtrip(tmp_path, rng):
    W = rng.normal(size=(7, 3))
    p = tmp_path / "w.flrw"
    write_flrw(p, W)
    assert np.array_equal(_read_flrw(p), W)

    doc = {"input_width": 3, "labels": [str(i) for i in range(7)],
           "layers": [{"kind": "affine_ref", "file": "w.flrw",
                       "b": [0.0] * 7}]}
    net = load_model(write_model(tmp_path, doc))
    x = rng.normal(size=3)
    assert np.allclose(forward(net, x), W @ x, atol=1e-12)


def test_flrw_corrupt_rejected(tmp_path):
    bad_magic = tmp_path / "a.flrw"
    bad_magic.write_bytes(b"WXYZ" + struct.pack("<II", 1, 1) + b"\x00" * 8)
    with pytest.raises(ModelError):
        _read_flrw(bad_magic)
    short = tmp_path / "b.flrw"
    short.write_bytes(b"FLRW" + struct.pack("<II", 2, 2) + b"\x00" * 8)
    with pytest.raises(ModelError):
        _read_flrw(short)
    trailing = tmp_path / "c.flrw"
    trailing.write_bytes(b"FLRW" + struct.pack("<II", 1, 1) + b"\x00" * 16)
    with pytest.raises(ModelError):
        _read_flrw(trailing)


def test_batchnorm_folds_into_affine(tmp_path, rng):
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    bn = {"kind": "batchnorm", "mean": [0.1, -0.2, 0.3, 0.0],
          "var": [1.0, 0.5, 2.0, 1.5], "gamma": [1.0, 2.0, 0.5, -1.0],
          "beta": [0.0, 0.1, -0.1, 0.2], "eps": 1e-5}
    doc = {"input_width": 3, "labels": ["a", "b", "c", "d"],
           "layers": [{"kind": "affine", "W": W.tolist(), "b": b.tolist()},
                      bn]}
    net = load_model(write_model(tmp_path, doc))
    assert len(net.layers) == 1  # folded

    d = np.array(bn["gamma"]) / np.sqrt(np.array(bn["var"]) + bn["eps"])
    shift = np.array(bn["beta"]) - d * np.array(bn["mean"])
    for _ in range(5):
        x = rng.normal(size=3)
        want = d * (W @ x + b) + shift
        assert np.allclose(forward(net, x), want, atol=1e-12)


def test_batchnorm_standalone_when_leading(tmp_path, rng):
    bn = {"kind": "batchnorm", "mean": [1.0, 2.0], "var": [4.0, 9.0],
          "gamma": [2.0, 3.0], "beta": [0.5, -0.5], "eps": 0.0}
    doc = {"input_width": 2, "labels": ["a", "b"], "layers": [bn]}
    net = load_model(write_model(tmp_path, doc))
    assert len(net.layers) == 1 and net.layers[0].kind == "affine"
    x = np.array([3.0, -1.0])
    want = np.array([2.0, 3.0]) / np.array([2.0, 3.0]) \
        * (x - np.array([1.0, 2.0])) + np.array([0.5, -0.5])
    assert np.allclose(forward(net, x), want)


def test_batchnorm_length_error(tmp_path):
    bn = {"kind": "batchnorm", "mean": [0.0], "var": [1.0, 1.0],
          "gamma": [1.0, 1.0], "beta": [0.0, 0.0]}
    doc = {"input_width": 2, "labels": ["a", "b"], "layers": [bn]}
    with pytest.raises(ModelError):
        load_model(write_model(tmp_path, doc))


def test_gradient_affine_is_weight_row(tmp_path, rng):
    W = rng.normal(size=(3, 4))
    doc = {"input_width": 4, "labels": ["a", "b", "c"],
           "layers": [{"kind": "affine", "W": W.tolist(),
                       "b": [0.0, 0.0, 0.0]}]}
    net = load_model(write_model(tmp_path, doc))
    for j in range(3):
        g = gradient(net, rng.normal(size=4), j)
        assert np.allclose(g.wrt_input, W[j], atol=1e-12)
        assert g.wrt_layer == {}


def test_gradient_matches_finite_differences(tmp_path, rng):
    W1 = rng.normal(size=(6, 4)).tolist()
    b1 = rng.normal(size=6).tolist()
    W2 = rng.normal(size=(3, 6)).tolist()
    b2 = rng.normal(size=3).tolist()
    doc = {"input_width": 4, "labels": ["a", "b", "c"],
           "layers": [{"kind": "affine", "W": W1, "b": b1},
                      {"kind": "relu"},
                      {"kind": "affine", "W": W2, "b": b2}]}
    net = load_model(write_model(tmp_path, doc))
    x = rng.normal(size=4)
    for j in range(3):
        g = gradient(net, x, j).wrt_input
        fd = np.zeros(4)
        eps = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            fd[i] = (forward(net, x + e)[j] - forward(net, x - e)[j]) / (2 * eps)
        assert np.allclose(g, fd, atol=1e-4)


def test_gradient_through_maxpool(tmp_path):
    doc = {"input_width": 4, "labels": ["m"],
           "layers": [{"kind": "maxpool",
                       "pools": [{"dims": [0, 1, 2, 3], "out": 0}]}]}
    net = load_model(write_model(tmp_path, doc))
    g = gradient(net, [1.0, 5.0, 2.0, 5.0], 0)
    assert np.array_equal(g.wrt_input, [0.0, 1.0, 0.0, 0.0])  # tie -> lowest
    assert 0 in g.wrt_layer


def test_gradient_relu_layer_entries(tmp_path):
    doc = {"input_width": 2, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": [[1, 0], [0, 1]], "b": [0, 0]},
                      {"kind": "relu"}]}
    net = load_model(write_model(tmp_path, doc))
    g = gradient(net, [2.0, -3.0], 0)
    assert np.array_equal(g.wrt_input, [1.0, 0.0])
    assert np.array_equal(g.wrt_layer[1], [1.0, 0.0])
    # at exactly zero the relu subgradient is taken as 0
    g0 = gradient(net, [0.0, 1.0], 0)
    assert np.array_equal(g0.wrt_input, [0.0, 0.0])


def test_input_set_single_coordinate():
    spec = InputSpec(np.array([0.2, 0.7, 0.9]), (1,), 0.5)
    s = embed_box(spec, [0.2], [1.2])
    validate_set(s)
    assert s.vertices.shape == (2, 3)
    got = {tuple(np.round(v, 9)) for v in s.vertices}
    assert got == {(0.2, 0.2, 0.9), (0.2, 1.2, 0.9)}
    assert np.array_equal(s.vertices, s.region_vertices)


def test_input_set_zero_epsilon():
    s = embed_box(InputSpec(np.array([0.5, 0.5]), (0,), 0.0), [0.5], [0.5])
    assert s.vertices.shape == (2, 2)
    assert np.allclose(s.vertices, 0.5)


def test_input_set_three_coordinates():
    base = np.linspace(0.0, 1.0, 6)
    s = embed_box(InputSpec(base, (0, 2, 5), 0.1), base[[0, 2, 5]] - 0.1,
                  base[[0, 2, 5]] + 0.1)
    assert s.vertices.shape == (8, 6)
    assert s.lattice.n_faces == 27
    # untouched coordinates stay at baseline
    assert np.allclose(s.vertices[:, [1, 3, 4]], base[[1, 3, 4]])


def test_input_set_dimension_cap():
    base = np.zeros(20)
    with pytest.raises(Exception):
        embed_box(InputSpec(base, tuple(range(12)), 0.1), base[:12] - 0.1,
                  base[:12] + 0.1)


def two_label_net():
    return Network((LayerDesc("affine", 2, 2, np.eye(2), np.zeros(2)),),
                   2, ("a", "b"))


@pytest.mark.parametrize("build, message", [
    (lambda: forward(two_label_net(), [1.0, 2.0, 3.0]),
     "input length 3, expected 2"),
    (lambda: gradient(two_label_net(), [1.0], 0), "input length 1, expected 2"),
    (lambda: gradient(two_label_net(), [1.0, 2.0], 2),
     "logit index 2 out of range"),
    (lambda: gradient(two_label_net(), [1.0, 2.0], -1),
     "logit index -1 out of range"),
    (lambda: LayerDesc("softmax", 2, 2), "unsupported layer kind 'softmax'"),
    (lambda: LayerDesc("maxpool", 4, 2, pools=(PoolSpec((0, 1, 2, 3), 0),)),
     "maxpool width_out must equal pool count"),
    (lambda: Network((LayerDesc("relu", 2, 2), LayerDesc("relu", 3, 3)), 2,
                     ("a", "b", "c")),
     "layer 1 expects width 3, previous width is 2")],
    ids=["forward_length", "gradient_length", "gradient_logit_high",
         "gradient_logit_negative", "layer_kind", "maxpool_width_out",
         "widths_do_not_chain"])
def test_library_checks_name_the_fault(build, message):
    # checks only a library caller reaches: the CLI checks input lengths
    # first, and load_model builds only the layer kinds it knows, sizes each
    # maxpool by its pools and chains the widths
    with pytest.raises(ModelError) as err:
        build()
    assert str(err.value) == message


def test_input_spec_validation(tmp_path):
    with pytest.raises(ModelError):
        InputSpec(np.zeros(3), (0, 0), 0.1)
    with pytest.raises(ModelError):
        InputSpec(np.zeros(3), (5,), 0.1)
    with pytest.raises(ModelError):
        InputSpec(np.zeros(3), (0,), -0.1)
    # perturbed coordinates must be integers: no truncation, no bools
    for coords in [(0.9, True), (0, 1.5), (np.bool_(False),), ("1",)]:
        with pytest.raises(ModelError, match="must be an integer"):
            InputSpec(np.zeros(3), coords, 0.1)
    assert InputSpec(np.zeros(3), (np.int64(2), 1.0), 0.1).perturbed_coords \
        == (2, 1)
    for base, eps in [(np.zeros(2), np.inf), (np.zeros(2), np.nan),
                      (np.array([0.0, np.inf]), 0.1),
                      (np.array([np.nan, 0.0]), 0.1)]:
        with pytest.raises(ModelError, match="finite"):
            InputSpec(base, (0, 1), eps)
    with pytest.raises(ModelError):
        InputSpec(np.zeros(3), (), 0.1)
    net = load_model(write_model(tmp_path, {
        "input_width": 2, "labels": ["a", "b"], "layers": [{"kind": "relu"}]}))
    with pytest.raises(ModelError, match="at least one perturbed"):
        reach(net, InputSpec(np.zeros(2), (), 0.1), ReachConfig(partitions=2))


@pytest.mark.parametrize("pools", [
    [{"dims": [0, 1, 2, 3], "out": 0}, {"dims": [3, 4, 5, 6], "out": 1}],
    [{"dims": [0, 1, 2, 3], "out": 0}, {"dims": [4, 5, 6, 8], "out": 1}],
    [{"dims": [0, 1, 2], "out": 0}, {"dims": [3, 4, 5, 6], "out": 1}],
    [{"dims": [0, 1, 2, 3], "out": 0}, {"dims": [4, 5, 6, 7], "out": 2}],
    [],
    [{"dims": [0], "out": 0}, {"dims": [1, 2, 3, 4], "out": 1}],
    [{"dims": [0, 1, 2, 3, 4], "out": 0}, {"dims": [5, 6, 7], "out": 1}],
], ids=["overlap", "gap", "three_coords", "not_permutation", "empty",
        "one_coord", "five_coords"])
def test_maxpool_model_validation(tmp_path, capsys, pools):
    doc = {"input_width": 8, "labels": ["a", "b"],
           "layers": [{"kind": "maxpool", "pools": pools}]}
    path = write_model(tmp_path, doc)
    with pytest.raises(ModelError):
        load_model(path)
    if not pools:
        x = tmp_path / "x.csv"
        x.write_text(",".join(["0.0"] * 8))
        code = main(["verify", "--model", str(path), "--input", str(x),
                     "--pixels", "0", "--epsilon", "0.1"])
        assert code == 4
        assert "maxpool" in capsys.readouterr().err


# --- conv and batch-norm layers stay structured ---------------------------

def dense_conv(filt, stride, pad, c, h, w):
    """Reference dense matrix of a conv over channel-major flat vectors,
    written tap by tap."""
    k, _, fh, fw = filt.shape
    oh = (h + 2 * pad - fh) // stride + 1
    ow = (w + 2 * pad - fw) // stride + 1
    W = np.zeros((k, oh, ow, c, h, w))
    for oy, ox, dy, dx in itertools.product(range(oh), range(ow), range(fh),
                                            range(fw)):
        y, x = oy * stride + dy - pad, ox * stride + dx - pad
        if 0 <= y < h and 0 <= x < w:
            W[:, oy, ox, :, y, x] = filt[:, :, dy, dx]
    return W.reshape(k * oh * ow, c * h * w)


def random_conv(rng):
    """A random conv entry and its reference dense weight and bias."""
    c, k = (int(v) for v in rng.integers(1, 4, 2))
    h, w = (int(v) for v in rng.integers(1, 8, 2))
    stride, pad = int(rng.integers(1, 4)), int(rng.integers(0, 4))
    fh = int(rng.integers(1, min(4, h + 2 * pad) + 1))
    fw = int(rng.integers(1, min(4, w + 2 * pad) + 1))
    filt = rng.normal(size=(k, c, fh, fw))
    bias = rng.normal(size=k)
    W = dense_conv(filt, stride, pad, c, h, w)
    entry = {"kind": "conv", "in_shape": [c, h, w], "filters": filt.tolist(),
             "bias": bias.tolist(), "stride": stride, "pad": pad}
    return entry, W, np.repeat(bias, len(W) // k)


def random_batchnorm(rng, width):
    """A batch-norm entry and its reference scale and shift."""
    mean, beta = rng.normal(size=width), rng.normal(size=width)
    var, gamma = rng.uniform(0.1, 2.0, width), rng.normal(size=width)
    entry = {"kind": "batchnorm", "mean": mean.tolist(), "var": var.tolist(),
             "gamma": gamma.tolist(), "beta": beta.tolist(), "eps": 1e-5}
    d = gamma / np.sqrt(var + 1e-5)
    return entry, d, beta - d * mean


def close(got, want, mag):
    """``got`` within 1e-12 of ``want``, relative to each row's scale: the
    largest sum of absolute terms ``mag`` in that row."""
    scale = np.max(mag, axis=-1, keepdims=True)
    return bool((np.abs(got - want) <= 1e-12 * scale).all())


@pytest.mark.parametrize("layers", ["conv", "conv_bn", "bn", "bn_bn"])
def test_structured_layers_match_a_dense_reference(tmp_path, rng, layers):
    # a conv (optionally with a folded batch-norm) or a standalone
    # batch-norm loads as one affine layer that is never a dense matrix,
    # and every path through it computes the reference map
    for _ in range(40):
        if layers.startswith("conv"):
            entry, W, b = random_conv(rng)
            entries = [entry]
        else:
            width = int(rng.integers(1, 50))
            W, b, entries = np.eye(width), np.zeros(width), []
        for _ in range(layers.count("bn")):
            entry, d, shift = random_batchnorm(rng, len(W))
            W, b = W * d[:, None], d * b + shift
            entries.append(entry)
        m, n = W.shape
        net = load_model(write_model(tmp_path, {
            "input_width": n, "labels": [str(i) for i in range(m)],
            "layers": entries}))
        (layer,) = net.layers
        assert layer.kind == "affine" and isinstance(layer.W, Conv)
        assert layer.W.shape == W.shape

        X = rng.normal(size=(4, n)) * 10.0 ** rng.integers(-3, 4)
        want, mag = X @ W.T + b, np.abs(X) @ np.abs(W).T + np.abs(b)
        box = build_box_lattice([0.0, 0.0], [1.0, 1.0])
        got = affine_transform(LatticeSet(box.lattice, X, X), layer.W,
                               layer.b)
        assert close(got.vertices, want, mag)
        assert all(close(forward(net, x), y, s)
                   for x, y, s in zip(X, want, mag))
        for i in rng.choice(m, min(m, 4), replace=False):
            g = gradient(net, X[0], int(i)).wrt_input
            assert close(g, W[i], np.abs(W[i]))

        G = rng.normal(size=(3, m))
        assert close(affine_transpose(layer.W, G), G @ W, np.abs(G) @ np.abs(W))
        for x, g in zip(X, G):
            lhs = affine_rows(layer.W, 0.0, x) @ g
            rhs = x @ affine_transpose(layer.W, g)
            assert abs(lhs - rhs) <= 1e-12 * (np.abs(g) @ np.abs(W)
                                              @ np.abs(x))


# A seeded CIFAR10-shaped network: 3x32x32 input, 3x3 pad-1 convs of 32
# and 64 filters, each followed by a per-channel batch-norm, a ReLU and a
# 2x2 maxpool, then a dense head of 10 classes.  "single" is one 32-filter
# conv, ReLU and maxpool with the dense head: 805 MB as a dense matrix.
def cifar_layers(rng, single=False):
    def conv(k, c, size):
        return {"kind": "conv", "in_shape": [c, size, size], "stride": 1,
                "pad": 1, "bias": (rng.normal(size=k) * 0.1).tolist(),
                "filters": (rng.normal(size=(k, c, 3, 3))
                            / np.sqrt(9 * c)).tolist()}

    def batchnorm(k, size):
        def per_channel(v):
            return np.repeat(v, size * size).tolist()
        return {"kind": "batchnorm",
                "mean": per_channel(rng.normal(size=k) * 0.1),
                "var": per_channel(rng.uniform(0.5, 1.5, k)),
                "gamma": per_channel(rng.uniform(0.8, 1.2, k)),
                "beta": per_channel(rng.normal(size=k) * 0.1)}

    def maxpool(k, size):
        half = size // 2
        base = (np.arange(k)[:, None, None] * size * size
                + 2 * size * np.arange(half)[:, None] + 2 * np.arange(half))
        dims = base.reshape(-1, 1) + [0, 1, size, size + 1]
        return {"kind": "maxpool", "pools": [{"dims": d, "out": i}
                                             for i, d in enumerate(
                                                 dims.tolist())]}

    blocks = [(32, 3, 32)] if single else [(32, 3, 32), (64, 32, 16)]
    layers = []
    for k, c, size in blocks:
        layers += [conv(k, c, size)] + [batchnorm(k, size)] * (not single) \
            + [{"kind": "relu"}, maxpool(k, size)]
    k, size = blocks[-1][0], blocks[-1][2] // 2
    width = k * size * size
    layers.append({"kind": "affine",
                   "W": (rng.normal(size=(10, width))
                         / np.sqrt(width)).tolist(),
                   "b": (rng.normal(size=10) * 0.1).tolist()})
    return layers


@pytest.fixture(scope="module")
def cifar_models(tmp_path_factory):
    """Paths of the seeded CIFAR10-shaped model and of the single conv."""
    folder = tmp_path_factory.mktemp("cifar")
    paths = []
    for single in (False, True):
        rng = np.random.default_rng(10)
        paths.append(write_model(folder, {
            "input_width": 3 * 32 * 32, "labels": [str(i) for i in range(10)],
            "layers": cifar_layers(rng, single)}, f"net{int(single)}.json"))
    return paths


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_cifar_shaped_models_load_small(cifar_models):
    # no conv is lowered to a dense matrix: the single conv's would be
    # 805 MB, the second conv's about 17 GB.  A fresh interpreter's peak is
    # its VmHWM: on Linux a child's ru_maxrss also counts the parent's
    # memory that it was forked from.
    code = ("import sys, latreach; latreach.load_model(sys.argv[1]); "
            "print(open('/proc/self/status').read().split('VmHWM:')[1]"
            ".split()[0])")
    for path, limit_mb in zip(cifar_models, (150, 100)):
        out = subprocess.run([sys.executable, "-c", code, str(path)],
                             capture_output=True, text=True, check=True)
        assert int(out.stdout) / 1024 < limit_mb


def reference_forward(layers, x, v=None):
    """The logits at ``x`` by ``direct_conv`` and plain numpy, and, given
    ``v``, the network's derivative along ``v`` at ``x``: the same pass with
    no biases, and the ReLU masks and maxpool winners of ``x``."""
    for layer in layers:
        if layer["kind"] == "conv":
            c, h, w = layer["in_shape"]
            filt, bias = np.array(layer["filters"]), np.array(layer["bias"])
            x = direct_conv(x, filt, bias, 1, 1, c, h, w)
            if v is not None:
                v = direct_conv(v, filt, 0 * bias, 1, 1, c, h, w)
        elif layer["kind"] == "batchnorm":
            d = np.array(layer["gamma"]) / np.sqrt(np.array(layer["var"])
                                                   + 1e-5)
            x = d * (x - np.array(layer["mean"])) + np.array(layer["beta"])
            v = None if v is None else d * v
        elif layer["kind"] == "relu":
            v = None if v is None else v * (x > 0)
            x = np.maximum(x, 0.0)
        elif layer["kind"] == "maxpool":
            dims = np.array([p["dims"] for p in layer["pools"]])
            win = dims[np.arange(len(dims)), x[dims].argmax(axis=1)]
            x, v = x[win], None if v is None else v[win]
        else:
            W = np.array(layer["W"])
            x, v = W @ x + np.array(layer["b"]), None if v is None else W @ v
    return x if v is None else (x, v)


def test_cifar_shaped_forward_and_gradient_match_direct_conv(cifar_models):
    layers = json.loads(cifar_models[0].read_text())["layers"]
    net = load_model(cifar_models[0])
    rng = np.random.default_rng(11)
    x, v = rng.uniform(0, 1, 3072), rng.normal(size=3072)
    want, along = reference_forward(layers, x, v)
    got = forward(net, x)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    for c in range(10):
        g = gradient(net, x, c).wrt_input
        assert abs(g @ v - along[c]) <= 1e-10 * np.abs(g) @ np.abs(v)


def test_cifar_shaped_reach_over_one_rgb_pixel(cifar_models):
    # an exact reach over the three channels of one corner pixel; every
    # set's first region vertex maps onto its first vertex
    net = load_model(cifar_models[0])
    x = np.random.default_rng(12).uniform(0, 1, 3072)
    spec = InputSpec(x, (0, 1024, 2048), 0.05)
    res = reach(net, spec, ReachConfig())
    assert not res.truncated and res.set_count > 1
    for s in res.sets:
        want = forward(net, s.region_vertices[0])
        assert np.abs(s.vertices[0] - want).max() <= 1e-9 * max(
            1.0, np.abs(want).max())
