"""Independent checks of the program's outputs.

Nothing here imports ``latreach``: the model file is parsed and evaluated
with a forward pass of its own (conv and batch-norm applied directly, not
lowered the way ``latreach.model`` does), so a bug in the program's lowering
or forward pass cannot hide a wrong answer.

Every check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

EXIT_CODES = {"SAFE": 0, "UNSAFE": 1, "UNKNOWN": 2, "TIMEOUT": 3}
# relative tolerance for comparing recomputed coordinates with the program's
MAP_TOL = 1e-6
# absolute slack on input-box membership
BOX_TOL = 1e-9


class Model:
    """A model JSON file evaluated row-wise over a batch of inputs."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text())
        self.input_width = int(doc["input_width"])
        self.layers = doc["layers"]

    def forward(self, X) -> np.ndarray:
        """Logits of each row of ``X``."""
        Y = np.atleast_2d(np.asarray(X, dtype=float))
        for entry in self.layers:
            Y = _LAYERS[entry["kind"]](entry, Y)
        return Y

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.forward(X), axis=1)


def _affine(entry, Y):
    return Y @ np.asarray(entry["W"], dtype=float).T + np.asarray(entry["b"])


def _conv(entry, Y):
    c, h, w = entry["in_shape"]
    filt = np.asarray(entry["filters"], dtype=float)
    k, _, fh, fw = filt.shape
    stride, pad = int(entry.get("stride", 1)), int(entry.get("pad", 0))
    img = Y.reshape(-1, c, h, w)
    img = np.pad(img, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - fh) // stride + 1
    ow = (w + 2 * pad - fw) // stride + 1
    out = np.zeros((img.shape[0], k, oh, ow))
    # one filter tap at a time: a strided window of the padded image
    for dy in range(fh):
        for dx in range(fw):
            win = img[:, :, dy:dy + stride * oh:stride, dx:dx + stride * ow:stride]
            out += np.einsum("nchw,kc->nkhw", win, filt[:, :, dy, dx])
    out += np.asarray(entry.get("bias", np.zeros(k)), dtype=float)[:, None, None]
    return out.reshape(img.shape[0], -1)


def _batchnorm(entry, Y):
    eps = float(entry.get("eps", 1e-5))
    mean, var, gamma, beta = (np.asarray(entry[key], dtype=float)
                              for key in ("mean", "var", "gamma", "beta"))
    return (Y - mean) / np.sqrt(var + eps) * gamma + beta


def _maxpool(entry, Y):
    pools = entry["pools"]
    out = np.empty((Y.shape[0], len(pools)))
    for p in pools:
        out[:, p["out"]] = Y[:, p["dims"]].max(axis=1)
    return out


_LAYERS = {"affine": _affine, "conv": _conv, "batchnorm": _batchnorm,
           "relu": lambda entry, Y: np.maximum(Y, 0.0), "maxpool": _maxpool}


def _close(a, b) -> np.ndarray:
    """Row mask: every coordinate of ``a`` within MAP_TOL of ``b``."""
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return (np.abs(a - b) <= MAP_TOL * scale).all(axis=1)


def in_box(X, baseline, coords, epsilon) -> np.ndarray:
    """Row mask: perturbed ``coords`` within epsilon, the rest at baseline."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    base = np.asarray(baseline, dtype=float)
    dev = np.abs(X - base)
    free = np.zeros(base.size, dtype=bool)
    free[list(coords)] = True
    return ((dev[:, free] <= epsilon + BOX_TOL).all(axis=1)
            & (dev[:, ~free] <= BOX_TOL).all(axis=1))


def check_dump(doc: dict, model: Model, baseline, coords, epsilon) -> list:
    """Every exact set's ``region`` rows map to its ``vertices`` rows.

    Regions must also stay inside the input box.  Returns one message per
    failing set.
    """
    fails = []
    if doc.get("truncated"):
        fails.append("dump is truncated")
    if doc.get("set_count") != len(doc["sets"]):
        fails.append(f"set_count {doc.get('set_count')} but "
                     f"{len(doc['sets'])} sets")
    regions = [np.asarray(s["region"], dtype=float) for s in doc["sets"]]
    verts = [np.asarray(s["vertices"], dtype=float) for s in doc["sets"]]
    if not regions:
        return fails + ["dump holds no sets"]
    sizes = [len(r) for r in regions]
    R = np.concatenate(regions)
    V = np.concatenate(verts)
    if R.shape[0] != V.shape[0]:
        return fails + ["region and vertex row counts differ"]
    ok = _close(model.forward(R), V) & in_box(R, baseline, coords, epsilon)
    bounds = np.cumsum([0] + sizes)
    for i in range(len(sizes)):
        if not ok[bounds[i]:bounds[i + 1]].all():
            fails.append(f"set {i}: region rows do not map to vertex rows")
    return fails


def digest(doc: dict) -> str:
    """Order-independent digest of the output vertex sets of a dump.

    Rows within a set and sets within the dump are sorted before hashing,
    so neither order matters.  Only the vertices enter, never run metadata
    such as ``wall_time_s``.
    """
    set_hashes = []
    for s in doc["sets"]:
        V = np.asarray(s["vertices"], dtype=float).reshape(len(s["vertices"]), -1)
        V = V + 0.0  # fold -0.0 into 0.0
        rows = V[np.lexsort(V.T[::-1])] if V.size else V
        set_hashes.append(hashlib.sha256(
            np.ascontiguousarray(rows).tobytes()).hexdigest())
    return hashlib.sha256("".join(sorted(set_hashes)).encode()).hexdigest()


def check_exit(name: str, rc: int, doc: dict | None) -> list:
    """Exit code matches the command and, for verdicts, the status."""
    if name in ("verify", "falsify"):
        if doc is None or doc.get("status") not in EXIT_CODES:
            return [f"{name}: no verdict on stdout"]
        want = EXIT_CODES[doc["status"]]
    else:
        want = 0
    return [] if rc == want else [f"{name}: exit code {rc}, expected {want}"]


def check_witnesses(doc: dict, model: Model, baseline, coords, epsilon) -> list:
    """Every witness lies in the epsilon box and is misclassified.

    The class is the baseline's, recomputed here; the witness's reported
    class must be what the forward pass predicts.
    """
    fails = []
    base_cls = int(model.predict(baseline)[0])
    if doc.get("status") == "UNSAFE" and not doc.get("witnesses"):
        fails.append("UNSAFE verdict without a witness")
    for i, w in enumerate(doc.get("witnesses", [])):
        x = np.asarray(w["input"], dtype=float)
        if x.size != model.input_width:
            fails.append(f"witness {i}: wrong length {x.size}")
            continue
        if not in_box(x, baseline, coords, epsilon)[0]:
            fails.append(f"witness {i}: outside the epsilon box")
        k = int(model.predict(x)[0])
        if k == base_cls or k != int(w["class"]):
            fails.append(f"witness {i}: predicted {k}, baseline {base_cls}, "
                         f"reported {w['class']}")
    return fails


def check_not_safe(doc: dict, model: Model, baseline, coords, epsilon,
                   steps: int = 101) -> list:
    """A SAFE verdict must survive a grid search of the input box.

    Only for boxes of at most two coordinates; a misclassified grid point
    refutes SAFE.
    """
    if doc.get("status") != "SAFE" or len(coords) > 2:
        return []
    axes = [np.linspace(-epsilon, epsilon, steps)] * len(coords)
    grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(coords))
    X = np.tile(np.asarray(baseline, dtype=float), (grid.shape[0], 1))
    X[:, list(coords)] += grid
    base_cls = int(model.predict(baseline)[0])
    if (model.predict(X) != base_cls).any():
        return ["SAFE verdict, but a grid point of the box is misclassified"]
    return []


def check_backtrack(doc: dict, dump_set: dict, model: Model, constraint,
                    baseline, coords, epsilon) -> list:
    """Backtrack vertices satisfy ``logit_j - logit_c >= t``.

    An empty answer is right only when no vertex of the chosen output set
    satisfies the constraint.
    """
    j, c, t = constraint
    if doc.get("empty"):
        V = np.asarray(dump_set["vertices"], dtype=float)
        tol = MAP_TOL * max(1.0, float(np.abs(V).max()))
        if (V[:, j] - V[:, c] > t + tol).any():
            return ["backtrack empty, but an output vertex satisfies it"]
        return []
    X = np.asarray(doc.get("vertices", []), dtype=float)
    if X.size == 0:
        return ["backtrack returned no vertices"]
    fails = []
    Y = model.forward(X)
    margin = Y[:, j] - Y[:, c] - t
    tol = MAP_TOL * np.maximum(1.0, np.abs(Y[:, [j, c]]).sum(axis=1))
    if (margin < -tol).any():
        fails.append("a backtrack vertex violates the constraint")
    if not in_box(X, baseline, coords, epsilon).all():
        fails.append("a backtrack vertex lies outside the input box")
    return fails


def image_from_bytes(path) -> np.ndarray:
    """Raw 8-bit image bytes scaled to [0, 1], as the CLI reads them."""
    return np.frombuffer(Path(path).read_bytes(), dtype=np.uint8) / 255.0
