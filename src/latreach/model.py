"""Network description: JSON model loading, layer lowering, forward, gradient.

Models are stored as JSON; convolution and batch-norm layers are lowered at
load time to explicit affine maps over the flattened feature vector, so the
runtime only ever sees {affine, relu, maxpool} layers.  Feature vectors are
flattened channel-major: coordinate of (channel c, row y, col x) in a
(C, H, W) tensor is ``c*H*W + y*W + x``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .lattice import LatticeSet, build_box_lattice, MAX_BOX_DIM
from .layers import PoolSpec, pool_index

FLRW_MAGIC = b"FLRW"


class ModelError(ValueError):
    """Raised on malformed model files or inconsistent layer shapes."""


@dataclass(frozen=True)
class LayerDesc:
    """One runtime layer: affine (W, b), relu, or maxpool (pools).

    A maxpool layer also carries ``pool_idx``, the ``(width_out, 4)`` array
    whose row ``r`` is the window of the pool that writes output ``r``.
    """

    kind: str
    width_in: int
    width_out: int
    W: np.ndarray | None = None
    b: np.ndarray | None = None
    pools: tuple | None = None
    pool_idx: np.ndarray | None = field(default=None, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("affine", "relu", "maxpool"):
            raise ModelError(f"unsupported layer kind {self.kind!r}")
        if self.kind == "affine":
            W = np.ascontiguousarray(self.W, dtype=float)
            b = np.ascontiguousarray(self.b, dtype=float).ravel()
            if W.shape != (self.width_out, self.width_in):
                raise ModelError(f"affine weight shape {W.shape} does not "
                                 f"map {self.width_in} -> {self.width_out}")
            if b.size != self.width_out:
                raise ModelError("affine bias length mismatch")
            W.setflags(write=False)
            b.setflags(write=False)
            object.__setattr__(self, "W", W)
            object.__setattr__(self, "b", b)
        elif self.kind == "relu":
            if self.width_in != self.width_out:
                raise ModelError("relu must preserve width")
        else:
            pools = tuple(self.pools)
            if not pools or any(len(p.dims) != 4 for p in pools):
                raise ModelError("maxpool layers use 2x2 windows "
                                 "(one or more pools of 4 coordinates)")
            if sorted(p.out for p in pools) != list(range(len(pools))):
                raise ModelError("maxpool outputs must be a permutation")
            (_, idx), = pool_index(sorted(pools, key=lambda p: p.out))
            counts = np.bincount(idx.ravel())
            if counts.max() > 1:
                raise ModelError("maxpool pools overlap")
            if counts.size != self.width_in or not counts.all():
                raise ModelError("maxpool pools must cover the layer input")
            if self.width_out != len(pools):
                raise ModelError("maxpool width_out must equal pool count")
            idx.setflags(write=False)
            object.__setattr__(self, "pools", pools)
            object.__setattr__(self, "pool_idx", idx)


@dataclass(frozen=True)
class Network:
    """An ordered layer pipeline with named output classes."""

    layers: tuple
    input_width: int
    labels: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        labels = tuple(str(x) for x in self.labels)
        if not layers:
            raise ModelError("network has no layers")
        w = self.input_width
        for i, layer in enumerate(layers):
            if layer.width_in != w:
                raise ModelError(f"layer {i} expects width {layer.width_in}, "
                                 f"previous width is {w}")
            w = layer.width_out
        if w != len(labels):
            raise ModelError("final layer width must equal label count")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class InputSpec:
    """Baseline input plus the coordinates allowed to move by +-epsilon."""

    baseline: np.ndarray
    perturbed_coords: tuple
    epsilon: float

    def __post_init__(self):
        base = np.ascontiguousarray(self.baseline, dtype=float).ravel()
        base.setflags(write=False)
        coords = tuple(int(c) for c in self.perturbed_coords)
        if len(set(coords)) != len(coords):
            raise ModelError("perturbed coordinates must be distinct")
        for c in coords:
            if not 0 <= c < base.size:
                raise ModelError(f"perturbed coordinate {c} out of range")
        if not self.epsilon >= 0:
            raise ModelError("epsilon must be nonnegative")
        object.__setattr__(self, "baseline", base)
        object.__setattr__(self, "perturbed_coords", coords)
        object.__setattr__(self, "epsilon", float(self.epsilon))


def _read_flrw(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != FLRW_MAGIC:
        raise ModelError(f"{path} is not a weight sidecar")
    rows, cols = struct.unpack("<II", raw[4:12])
    need = 12 + 8 * rows * cols
    if len(raw) != need:
        raise ModelError(f"{path}: expected {need} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype="<f8", offset=12).reshape(rows, cols)


def write_flrw(path, W) -> None:
    """Write a weight matrix in the binary sidecar format."""
    W = np.ascontiguousarray(W, dtype="<f8")
    with open(path, "wb") as f:
        f.write(FLRW_MAGIC)
        f.write(struct.pack("<II", W.shape[0], W.shape[1]))
        f.write(W.tobytes())


def _lower_conv(entry, width_in):
    """Explicit affine map of a conv layer over channel-major flat vectors."""
    c, h, w = (int(x) for x in entry["in_shape"])
    if c * h * w != width_in:
        raise ModelError(f"conv in_shape {entry['in_shape']} does not match "
                         f"running width {width_in}")
    filt = np.asarray(entry["filters"], dtype=float)
    if filt.ndim != 4 or filt.shape[1] != c:
        raise ModelError("conv filters must be [k][c][fh][fw] with matching "
                         "input channels")
    k, _, fh, fw = filt.shape
    stride = int(entry.get("stride", 1))
    pad = int(entry.get("pad", 0))
    if stride < 1 or pad < 0:
        raise ModelError("conv stride must be >= 1 and pad >= 0")
    bias = np.asarray(entry.get("bias", np.zeros(k)), dtype=float).ravel()
    if bias.size != k:
        raise ModelError("conv bias length must equal filter count")
    oh = (h + 2 * pad - fh) // stride + 1
    ow = (w + 2 * pad - fw) // stride + 1
    if oh < 1 or ow < 1:
        raise ModelError("conv output would be empty")

    W = np.zeros((k * oh * ow, width_in))
    b = np.zeros(k * oh * ow)
    for f in range(k):
        for oy in range(oh):
            for ox in range(ow):
                row = f * oh * ow + oy * ow + ox
                b[row] = bias[f]
                for ci in range(c):
                    for dy in range(fh):
                        iy = oy * stride + dy - pad
                        if not 0 <= iy < h:
                            continue
                        for dx in range(fw):
                            ix = ox * stride + dx - pad
                            if not 0 <= ix < w:
                                continue
                            W[row, ci * h * w + iy * w + ix] = filt[f, ci, dy, dx]
    return W, b


def _batchnorm_affine(entry, width):
    """Diagonal affine form of batch-norm: D = gamma/sqrt(var+eps)."""
    parts = {}
    for key in ("mean", "var", "gamma", "beta"):
        v = np.asarray(entry[key], dtype=float).ravel()
        if v.size != width:
            raise ModelError(f"batchnorm {key} length {v.size} does not "
                             f"match width {width}")
        parts[key] = v
    eps = float(entry.get("eps", 1e-5))
    if np.any(parts["var"] + eps <= 0):
        raise ModelError("batchnorm variance must be positive")
    d = parts["gamma"] / np.sqrt(parts["var"] + eps)
    return d, parts["beta"] - d * parts["mean"]


def load_model(path) -> Network:
    """Load a JSON model file, lowering conv/batchnorm to affine layers.

    A batch-norm directly after an affine layer is folded into it; a leading
    batch-norm becomes a standalone diagonal affine layer.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ModelError(f"{path}: invalid JSON ({e})") from e
    try:
        input_width = int(doc["input_width"])
        labels = list(doc["labels"])
        raw_layers = list(doc["layers"])
    except KeyError as e:
        raise ModelError(f"{path}: missing top-level key {e}") from e

    layers: list[LayerDesc] = []
    width = input_width
    for pos, entry in enumerate(raw_layers):
        kind = entry.get("kind")
        if kind == "affine":
            W = np.asarray(entry["W"], dtype=float)
            b = np.asarray(entry["b"], dtype=float)
            if W.ndim != 2:
                raise ModelError(f"layer {pos}: affine W must be a matrix")
            layers.append(LayerDesc("affine", width, W.shape[0], W, b))
            width = W.shape[0]
        elif kind == "affine_ref":
            W = _read_flrw(path.parent / entry["file"])
            b = np.asarray(entry["b"], dtype=float)
            layers.append(LayerDesc("affine", width, W.shape[0], W, b))
            width = W.shape[0]
        elif kind == "conv":
            W, b = _lower_conv(entry, width)
            layers.append(LayerDesc("affine", width, W.shape[0], W, b))
            width = W.shape[0]
        elif kind == "batchnorm":
            d, shift = _batchnorm_affine(entry, width)
            if layers and layers[-1].kind == "affine":
                prev = layers[-1]
                layers[-1] = LayerDesc("affine", prev.width_in, width,
                                       prev.W * d[:, None], d * prev.b + shift)
            else:
                layers.append(LayerDesc("affine", width, width,
                                        np.diag(d), shift))
        elif kind == "relu":
            w_in = int(entry.get("width_in", width))
            w_out = int(entry.get("width_out", w_in))
            if w_in != width:
                raise ModelError(f"layer {pos}: relu width {w_in} does not "
                                 f"match running width {width}")
            layers.append(LayerDesc("relu", w_in, w_out))
        elif kind == "maxpool":
            pools = tuple(PoolSpec(tuple(p["dims"]), p["out"])
                          for p in entry["pools"])
            layers.append(LayerDesc("maxpool", width, len(pools),
                                    pools=pools))
            width = len(pools)
        else:
            raise ModelError(f"layer {pos}: unsupported kind {kind!r}")
    return Network(tuple(layers), input_width, tuple(labels))


def _apply_layer(layer: LayerDesc, x: np.ndarray) -> np.ndarray:
    if layer.kind == "affine":
        return layer.W @ x + layer.b
    if layer.kind == "relu":
        return np.maximum(x, 0.0)
    return x[layer.pool_idx].max(axis=1)


def forward(net: Network, x) -> np.ndarray:
    """Pointwise evaluation of the network; returns the logit vector."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != net.input_width:
        raise ModelError(f"input length {x.size}, expected {net.input_width}")
    for layer in net.layers:
        x = _apply_layer(layer, x)
    return x


@dataclass(frozen=True)
class Gradients:
    """d(logit)/d(input) plus d(logit)/d(layer input) per nonlinear layer."""

    wrt_input: np.ndarray
    wrt_layer: dict


def gradient(net: Network, x, logit_index: int) -> Gradients:
    """Reverse-mode gradient of one logit.

    Subgradient conventions: ReLU at exactly 0 contributes 0; maxpool ties go
    to the lowest window coordinate.  ``wrt_layer`` maps the index of each
    relu/maxpool layer to the gradient w.r.t. that layer's input.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != net.input_width:
        raise ModelError(f"input length {x.size}, expected {net.input_width}")
    if not 0 <= logit_index < len(net.labels):
        raise ModelError(f"logit index {logit_index} out of range")

    inputs = []
    cur = x
    for layer in net.layers:
        inputs.append(cur)
        cur = _apply_layer(layer, cur)

    g = np.zeros(len(net.labels))
    g[logit_index] = 1.0
    wrt_layer: dict = {}
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        u = inputs[i]
        if layer.kind == "affine":
            g = layer.W.T @ g
        elif layer.kind == "relu":
            g = g * (u > 0)
            wrt_layer[i] = g
        else:
            idx = layer.pool_idx
            # first-max argmax: ties go to the lowest window coordinate
            back = np.zeros(layer.width_in)
            back[idx[np.arange(len(idx)), u[idx].argmax(axis=1)]] = g
            g = back
            wrt_layer[i] = g
    return Gradients(g, wrt_layer)


def build_input_set(spec: InputSpec, max_box_dim: int = MAX_BOX_DIM) -> LatticeSet:
    """Hyperbox input set over the perturbed coordinates, embedded at baseline.

    The lattice is the d-box lattice (d perturbed coordinates); vertex rows
    are full-width input vectors with unperturbed coordinates at baseline.
    region_vertices start out equal to vertices.
    """
    coords = list(spec.perturbed_coords)
    if not coords:
        raise ModelError("need at least one perturbed coordinate")
    centers = spec.baseline[coords]
    box = build_box_lattice(centers - spec.epsilon, centers + spec.epsilon,
                            max_dim=max_box_dim)
    emb = np.tile(spec.baseline, (box.n_vertices, 1))
    emb[:, coords] = box.vertices
    return LatticeSet(box.lattice, emb, emb.copy())
