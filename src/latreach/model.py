"""Network description: JSON model loading, forward, gradient.

Models are stored as JSON.  At load time every layer becomes one of
{affine, relu, maxpool}: an ``affine`` entry keeps its dense matrix, a
``conv`` entry stays a convolution (``affine.Conv``), and a batch-norm
folds into the affine layer before it as a scale per output, or else
becomes a diagonal.  Feature vectors are flattened channel-major: coordinate
of (channel c, row y, col x) in a (C, H, W) tensor is ``c*H*W + y*W + x``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .affine import (Conv, affine_rows, affine_transpose, diagonal,
                     scale_rows)
from .lattice import (LatticeError, LatticeSet, MappedSet, as_int,
                      build_box_lattice)
from .layers import PoolSpec

FLRW_MAGIC = b"FLRW"


class ModelError(ValueError):
    """Raised on malformed model files or inconsistent layer shapes."""


@dataclass(frozen=True)
class LayerDesc:
    """One runtime layer: affine (W, b), relu, or maxpool (pools).

    An affine layer's ``W`` is a dense matrix or an ``affine.Conv``; only
    ``affine.affine_rows`` and ``affine.affine_transpose`` apply it.

    A maxpool layer's pools must partition the input coordinates and write
    the outputs 0..n-1 once each.  It also carries ``pool_idx``, the
    ``(width_out, 4)`` array whose row ``r`` is the ``PoolSpec.window`` of
    the pool that writes output ``r``; forward, gradient and
    ``maxpool_layer_reach`` all read it.
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
            W = self.W
            dense = not isinstance(W, Conv)  # a Conv checks itself when built
            if dense:
                W = np.ascontiguousarray(W, dtype=float)
            b = np.ascontiguousarray(self.b, dtype=float).ravel()
            if W.shape != (self.width_out, self.width_in):
                raise ModelError(f"affine weight shape {W.shape} does not "
                                 f"map {self.width_in} -> {self.width_out}")
            if b.size != self.width_out:
                raise ModelError("affine bias length mismatch")
            if not (np.isfinite(b).all()
                    and (not dense or np.isfinite(W).all())):
                raise ModelError("affine weights and bias must be finite")
            if dense:
                W.setflags(write=False)
            b.setflags(write=False)
            object.__setattr__(self, "W", W)
            object.__setattr__(self, "b", b)
        elif self.kind == "relu":
            if self.width_in != self.width_out:
                raise ModelError("relu must preserve width")
        else:
            pools = tuple(self.pools)
            if not pools:
                raise ModelError("maxpool layer needs at least one pool")
            outs = [p.out for p in pools]
            if sorted(outs) != list(range(len(pools))):
                raise ModelError("maxpool pool outputs must be a permutation "
                                 "of 0..n-1")
            counts = np.bincount(np.concatenate([p.dims for p in pools]),
                                 minlength=self.width_in)
            if counts.size != self.width_in or (counts != 1).any():
                raise ModelError("maxpool pools must partition the layer input")
            if self.width_out != len(pools):
                raise ModelError("maxpool width_out must equal pool count")
            idx = np.empty((len(pools), 4), dtype=np.intp)
            idx[outs] = [p.window for p in pools]
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
        if not np.isfinite(base).all():
            raise ModelError("baseline must be finite")
        try:
            coords = tuple(as_int(c, "perturbed coordinate")
                           for c in self.perturbed_coords)
        except LatticeError as e:
            raise ModelError(str(e)) from e
        if not coords:
            raise ModelError("need at least one perturbed coordinate")
        if len(set(coords)) != len(coords):
            raise ModelError("perturbed coordinates must be distinct")
        for c in coords:
            if not 0 <= c < base.size:
                raise ModelError(f"perturbed coordinate {c} out of range")
        if not 0 <= self.epsilon < np.inf:
            raise ModelError("epsilon must be finite and nonnegative")
        with np.errstate(over="ignore", invalid="ignore"):
            centers = base[list(coords)]
            width = (centers + self.epsilon) - (centers - self.epsilon)
        if not np.isfinite(width).all():
            raise ModelError("baseline +- epsilon and the box width must be "
                             "finite")
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


def _conv(entry, width_in):
    """The weight and bias of a conv entry, kept a convolution."""
    c, h, w = (as_int(x, "conv in_shape") for x in entry["in_shape"])
    if c * h * w != width_in:
        raise ModelError(f"conv in_shape {entry['in_shape']} does not match "
                         f"running width {width_in}")
    conv = Conv(entry["filters"], (c, h, w),
                as_int(entry.get("stride", 1), "conv stride"),
                as_int(entry.get("pad", 0), "conv pad"))
    k = conv.filters.shape[0]
    bias = np.asarray(entry.get("bias", np.zeros(k)), dtype=float).ravel()
    if bias.size != k:
        raise ModelError("conv bias length must equal filter count")
    return conv, np.repeat(bias, conv.taps.shape[1])


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


def _append_layer(layers: list, entry, width: int, folder: Path) -> int:
    """Lower one model-file entry onto ``layers``; return the new width."""
    if not isinstance(entry, dict):
        raise ModelError("layer entry must be a JSON object")
    kind = entry.get("kind")
    if kind == "relu":
        w_in = as_int(entry.get("width_in", width), "relu width_in")
        if w_in != width:
            raise ModelError(f"relu width {w_in} does not match running "
                             f"width {width}")
        w_out = as_int(entry.get("width_out", w_in), "relu width_out")
        layers.append(LayerDesc("relu", w_in, w_out))
        return width
    if kind == "maxpool":
        pools = tuple(PoolSpec(tuple(p["dims"]), p["out"])
                      for p in entry["pools"])
        if any(len(p.dims) != 4 for p in pools):
            raise ModelError("maxpool layers use 2x2 windows "
                             "(pools of 4 coordinates)")
        layers.append(LayerDesc("maxpool", width, len(pools), pools=pools))
        return len(pools)
    if kind == "conv":
        W, b = _conv(entry, width)
    elif kind == "batchnorm":
        d, shift = _batchnorm_affine(entry, width)
        if layers and layers[-1].kind == "affine":
            prev = layers.pop()
            width = prev.width_in
            W, b = scale_rows(prev.W, d), d * prev.b + shift
        else:
            W, b = diagonal(d), shift
    elif kind in ("affine", "affine_ref"):
        W = (np.asarray(entry["W"], dtype=float) if kind == "affine"
             else _read_flrw(folder / entry["file"]))
        if W.ndim != 2:
            raise ModelError("affine W must be a matrix")
        b = entry["b"]
    else:
        raise ModelError(f"unsupported kind {kind!r}")
    layers.append(LayerDesc("affine", width, W.shape[0], W, b))
    return W.shape[0]


def load_model(path) -> Network:
    """Load a JSON model file; conv and batchnorm become affine layers.

    A conv stays a convolution.  A batch-norm directly after an affine
    layer is folded into it; any other becomes a standalone diagonal.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ModelError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: top level must be a JSON object")
    try:
        input_width = as_int(doc["input_width"], "input_width")
        labels, raw_layers = doc["labels"], doc["layers"]
    except KeyError as e:
        raise ModelError(f"{path}: missing top-level key {e}") from e
    except LatticeError as e:
        raise ModelError(f"{path}: {e}") from e
    for key, val in (("labels", labels), ("layers", raw_layers)):
        if not isinstance(val, list):
            raise ModelError(f"{path}: '{key}' must be a JSON array")

    layers: list[LayerDesc] = []
    width = input_width
    for pos, entry in enumerate(raw_layers):
        try:
            width = _append_layer(layers, entry, width, path.parent)
        except KeyError as e:
            raise ModelError(f"layer {pos}: missing key {e}") from e
        # ModelError/LatticeError are ValueErrors; OSError: bad weight sidecar
        except (TypeError, ValueError, OSError) as e:
            raise ModelError(f"layer {pos}: {e}") from e
    return Network(tuple(layers), input_width, tuple(labels))


def _apply_layer(layer: LayerDesc, x: np.ndarray) -> np.ndarray:
    if layer.kind == "affine":
        return affine_rows(layer.W, layer.b, x)
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
            g = affine_transpose(layer.W, g)
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


def _embed_rows(spec: InputSpec, rows) -> np.ndarray:
    """Full-width input rows: ``rows`` in the perturbed coordinates, the
    baseline in the others."""
    emb = np.empty((len(rows), spec.baseline.size))
    emb[:] = spec.baseline
    emb[:, list(spec.perturbed_coords)] = rows
    return emb


def embed_box(spec: InputSpec, lo, hi) -> LatticeSet:
    """Box ``[lo, hi]`` over the perturbed coordinates, embedded at baseline.

    The lattice is the d-box lattice (d perturbed coordinates); vertex rows
    are full-width input vectors with unperturbed coordinates at baseline.
    region_vertices start out equal to vertices.
    """
    box = build_box_lattice(lo, hi)
    emb = _embed_rows(spec, box.vertices)
    return LatticeSet(box.lattice, emb, emb.copy())


def mapped_box(spec: InputSpec, lo, hi) -> MappedSet:
    """:func:`embed_box` as a MappedSet: the box's corners as region rows,
    and the map that puts them into the perturbed coordinates of the
    baseline."""
    box = build_box_lattice(lo, hi)
    k = box.ambient_dim
    M = np.zeros((k + 1, spec.baseline.size))
    M[-1] = spec.baseline
    M[:, list(spec.perturbed_coords)] = np.eye(k + 1, k)
    return MappedSet(box.lattice, box.vertices, M)


def unmap_set(spec: InputSpec, s: MappedSet) -> LatticeSet:
    """The LatticeSet of a MappedSet started by :func:`mapped_box`: its
    vertex rows from the map, and full-width region rows."""
    return LatticeSet(s.lattice, s.region @ s.M[:-1] + s.M[-1],
                      _embed_rows(spec, s.region))
