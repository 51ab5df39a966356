"""Affine layer weights, dense or convolutional, and the one way to apply them.

An affine layer maps ``x -> Wx + b``.  ``W`` is a dense matrix or a
:class:`Conv`: the filters and geometry of a convolution over channel-major
flat vectors (coordinate of (channel c, row y, col x) in a (C, H, W) tensor
is ``c*H*W + y*W + x``), with an optional scale per output, which is how a
batch-norm folds into it.  A conv is never expanded to its dense matrix:
:func:`affine_rows` gathers the input patches and makes one matmul, and
:func:`affine_transpose` makes one patch-wise product and one
``np.bincount`` scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True, eq=False)
class Conv:
    """A convolution of ``filters`` ``[k][c][fh][fw]`` over a ``(c, h, w)``
    input, then a multiplication of output ``i`` by ``scale[i]`` (none when
    ``scale`` is None).

    ``taps[t, p]`` is the input coordinate under tap ``t`` of the filter
    (in the order of a flattened filter) at output position ``p`` (row-major
    over the output map); a tap in the padding reads coordinate ``c*h*w``,
    the zero that :func:`affine_rows` appends to every input.
    """

    filters: np.ndarray
    in_shape: tuple
    stride: int = 1
    pad: int = 0
    scale: np.ndarray | None = None
    taps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        filt = np.array(self.filters, dtype=float)
        c, h, w = self.in_shape
        if filt.ndim != 4 or filt.shape[1] != c:
            raise ValueError("conv filters must be [k][c][fh][fw] with "
                             "matching input channels")
        fh, fw = filt.shape[2:]
        stride, pad = self.stride, self.pad
        if stride < 1 or pad < 0:
            raise ValueError("conv stride must be >= 1 and pad >= 0")
        oh = (h + 2 * pad - fh) // stride + 1
        ow = (w + 2 * pad - fw) // stride + 1
        if oh < 1 or ow < 1:
            raise ValueError("conv output would be empty")
        scale = (None if self.scale is None
                 else np.array(self.scale, dtype=float).ravel())
        if not (np.isfinite(filt).all()
                and (scale is None or np.isfinite(scale).all())):
            raise ValueError("conv filters and scale must be finite")

        # input coordinate under each tap, axes (ci, dy, dx, oy, ox)
        padded = np.pad(np.arange(c * h * w).reshape(c, h, w),
                        ((0, 0), (pad, pad), (pad, pad)),
                        constant_values=c * h * w)
        py = np.arange(fh)[:, None] + np.arange(oh) * stride
        px = np.arange(fw)[:, None] + np.arange(ow) * stride
        taps = padded[np.arange(c)[:, None, None, None, None],
                      py[:, None, :, None], px[:, None, :]].reshape(
                          c * fh * fw, oh * ow)
        for name, a in (("filters", filt), ("scale", scale), ("taps", taps)):
            if a is not None:
                a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "in_shape", (c, h, w))

    @property
    def shape(self) -> tuple:
        """``(width_out, width_in)``, as of the dense matrix it stands for."""
        c, h, w = self.in_shape
        return self.filters.shape[0] * self.taps.shape[1], c * h * w


def diagonal(d) -> Conv:
    """``x -> d * x`` as a 1x1 conv of one unit filter with scale ``d``."""
    d = np.asarray(d, dtype=float).ravel()
    return Conv(np.ones((1, 1, 1, 1)), (1, 1, d.size), scale=d)


def scale_rows(W, d):
    """The weight of ``x -> d * (Wx)``: output ``i`` scaled by ``d[i]``."""
    if isinstance(W, Conv):
        return replace(W, scale=d if W.scale is None else W.scale * d)
    return W * d[:, None]


def affine_rows(W, b, X) -> np.ndarray:
    """``X @ W.T + b`` for a vector or the rows of a matrix ``X``."""
    if not isinstance(W, Conv):
        return X @ W.T + b
    k, n_taps = W.filters.shape[0], len(W.taps)
    rows = X.reshape(-1, X.shape[-1])
    r = len(rows)
    # one column per input coordinate, plus the zero column
    cols = np.concatenate((rows, np.zeros((r, 1))), axis=1).T
    Y = W.filters.reshape(k, n_taps) @ cols[W.taps].reshape(n_taps, -1)
    # axes (filter, position, row) to channel-major rows
    Y = Y.reshape(k, -1, r).transpose(2, 0, 1).reshape(X.shape[:-1] + (-1,))
    if W.scale is not None:
        Y *= W.scale
    return Y + b


def affine_transpose(W, G) -> np.ndarray:
    """``G @ W`` for a vector or the rows of a matrix ``G``: ``W``'s
    transpose applied to each."""
    if not isinstance(W, Conv):
        return G @ W
    if W.scale is not None:
        G = G * W.scale
    k, n_taps = W.filters.shape[0], len(W.taps)
    width = W.shape[1]
    rows = G.reshape(-1, G.shape[-1])
    r = len(rows)
    # each output's share of every tap under it, axes (tap, position, row),
    # summed per input coordinate
    parts = W.filters.reshape(k, n_taps).T \
        @ rows.reshape(r, k, -1).transpose(1, 2, 0).reshape(k, -1)
    at = (W.taps[..., None] * r + np.arange(r)).ravel()
    X = np.bincount(at, parts.ravel(), minlength=(width + 1) * r)
    return X.reshape(width + 1, r)[:width].T.reshape(G.shape[:-1] + (width,))
