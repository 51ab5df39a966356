"""Seeded input generators for the three benchmark workloads.

Each generator writes a model JSON file plus the input files a user would
pass to ``latreach`` into a work directory, and returns a plan: the argv of
every command in one pass of the workload, and what the checker needs to
know about the inputs.  The same seed always gives the same files.

The amount of work must not depend on the seed, or runs with different
seeds would not be comparable.  ``mlp_exact`` and ``conv_verify`` therefore
fix one network each and let the seed pick a function-preserving
reparametrisation of it that keeps every order the engine iterates in:
hidden units and channels are rescaled by powers of two (ReLU and max
commute with positive scaling, and powers of two scale floats exactly),
``mlp_exact`` mirrors input axes, which maps its input box onto itself, and
``conv_verify`` permutes the classes.  The files differ from seed to seed;
the linear regions, the set counts and the split counts do not.
``conv_falsify`` keeps one planted network and one batch of images and
permutes the classes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("mlp_exact", "conv_verify", "conv_falsify")

# the acceptance test's criterion-9 network is drawn from this seed
MLP_BASE_SEED = 1
# base network of conv_verify; its verdict is UNSAFE
CONV_VERIFY_BASE_SEED = 3
# exact output set counts; reparametrisation leaves the linear regions alone
MLP_SETS = 13_324
CONV_VERIFY_SETS = 148


def _write_model(path: Path, layers, input_width, labels) -> None:
    doc = {"input_width": int(input_width),
           "labels": [str(x) for x in labels],
           "layers": layers}
    path.write_text(json.dumps(doc))


def _affine(W, b) -> dict:
    return {"kind": "affine", "W": np.asarray(W).tolist(),
            "b": np.asarray(b).tolist()}


def _pow2_scales(rng, n):
    return 2.0 ** rng.integers(-1, 2, n)


# --- mlp_exact ------------------------------------------------------------

def mlp_weights(seed: int):
    """Criterion-9 weights, reparametrised by ``seed`` (seed 1: as is)."""
    rng = np.random.default_rng(MLP_BASE_SEED)
    W1 = rng.normal(size=(12, 4)) / 2.0
    b1 = rng.normal(size=12) * 0.05
    W2 = rng.normal(size=(12, 12)) / np.sqrt(12)
    b2 = rng.normal(size=12) * 0.05
    W3 = rng.normal(size=(2, 12))
    b3 = rng.normal(size=2) * 0.1
    if seed == MLP_BASE_SEED:
        return W1, b1, W2, b2, W3, b3
    rng = np.random.default_rng(seed)
    # the input box [-1, 1]^4 around 0 is invariant under mirroring axes
    W1 = W1 * rng.choice([-1.0, 1.0], 4)
    s1, s2 = _pow2_scales(rng, 12), _pow2_scales(rng, 12)
    W1, b1 = W1 * s1[:, None], b1 * s1
    W2 = W2 / s1
    W2, b2 = W2 * s2[:, None], b2 * s2
    W3 = W3 / s2
    return W1, b1, W2, b2, W3, b3


def gen_mlp_exact(seed: int, out: Path) -> dict:
    W1, b1, W2, b2, W3, b3 = mlp_weights(seed)
    model = out / "model.json"
    _write_model(model, [_affine(W1, b1), {"kind": "relu"}, _affine(W2, b2),
                         {"kind": "relu"}, _affine(W3, b3)], 4, ("a", "b"))
    (out / "input.csv").write_text("0,0,0,0\n")
    dump = out / "reach.json"
    reach = ["reach", "--model", str(model), "--input", str(out / "input.csv"),
             "--pixels", "0,1,2,3", "--epsilon", "1.0", "--workers", "1",
             "--out", str(dump)]
    # backtrack reads the whole dump whichever set it targets; the set id is
    # drawn from the seed once the set count is known
    pick = int(np.random.default_rng(seed).integers(2 ** 31))
    return {"workload": "mlp_exact", "model": str(model),
            "passes": [[{"name": "reach_out", "argv": reach},
                        {"name": "backtrack", "argv": [
                            "backtrack", "--result", str(dump),
                            "--set-id", "{set_id}",
                            "--constraint", "1-0>=0"],
                         "set_pick": pick}]],
            "dump": str(dump), "constraint": [1, 0, 0.0],
            "expect_sets": MLP_SETS,
            "baseline": [0.0] * 4, "coords": [0, 1, 2, 3], "epsilon": 1.0}


# --- conv_verify ----------------------------------------------------------

def conv_verify_parts(seed: int):
    """Network arrays, baseline image and pixels of conv_verify."""
    rng = np.random.default_rng(CONV_VERIFY_BASE_SEED)
    K = 8
    filt = rng.normal(size=(K, 1, 3, 3)) / 3.0
    bias = rng.normal(size=K) * 0.1
    n = K * 64
    mean = rng.normal(size=n) * 0.1
    var = rng.uniform(0.5, 1.5, n)
    gamma = rng.uniform(0.8, 1.2, n)
    beta = rng.normal(size=n) * 0.1
    W1 = rng.normal(size=(16, 128)) / np.sqrt(128)
    b1 = rng.normal(size=16) * 0.1
    W2 = rng.normal(size=(10, 16)) / 4
    b2 = rng.normal(size=10) * 0.1
    x = rng.uniform(0, 1, 100)
    pixels = sorted(int(p) for p in rng.choice(100, 2, replace=False))

    rng = np.random.default_rng(seed)
    # scaling a channel after batch-norm scales its pooled outputs too
    scale = _pow2_scales(rng, K)
    gamma, beta = gamma * np.repeat(scale, 64), beta * np.repeat(scale, 64)
    W1 = W1 / np.repeat(scale, 16)
    hscale = _pow2_scales(rng, 16)
    W1, b1 = W1 * hscale[:, None], b1 * hscale
    W2 = W2 / hscale
    cperm = rng.permutation(10)
    W2, b2 = W2[cperm], b2[cperm]
    bn = {"mean": mean, "var": var, "gamma": gamma, "beta": beta}
    return filt, bias, bn, W1, b1, W2, b2, x, pixels


def _pools(channels: int, size: int) -> list:
    """2x2 pools over ``channels`` maps of ``size`` x ``size``, row-major."""
    half = size // 2
    pools = []
    for c in range(channels):
        for by in range(half):
            for bx in range(half):
                base = c * size * size + 2 * by * size + 2 * bx
                pools.append({"dims": [base, base + 1, base + size,
                                       base + size + 1],
                              "out": c * half * half + by * half + bx})
    return pools


def gen_conv_verify(seed: int, out: Path) -> dict:
    filt, bias, bn, W1, b1, W2, b2, x, pixels = conv_verify_parts(seed)
    model = out / "model.json"
    layers = [{"kind": "conv", "in_shape": [1, 10, 10],
               "filters": filt.tolist(), "bias": bias.tolist(),
               "stride": 1, "pad": 0},
              {"kind": "batchnorm", **{k: v.tolist() for k, v in bn.items()}},
              {"kind": "relu"},
              {"kind": "maxpool", "pools": _pools(8, 8)},
              _affine(W1, b1), {"kind": "relu"}, _affine(W2, b2)]
    _write_model(model, layers, 100, range(10))
    inp = out / "input.csv"
    inp.write_text(",".join(repr(float(v)) for v in x) + "\n")
    verify = ["verify", "--model", str(model), "--input", str(inp),
              "--pixels", ",".join(map(str, pixels)), "--epsilon", "1.0",
              "--workers", "1"]
    return {"workload": "conv_verify", "model": str(model),
            "passes": [[{"name": "verify", "argv": verify}]],
            "baseline": x.tolist(), "coords": pixels, "epsilon": 1.0,
            "expect_sets": CONV_VERIFY_SETS, "expect_status": "UNSAFE"}


# --- conv_falsify ---------------------------------------------------------

# network and images of conv_falsify are drawn from this seed
FALSIFY_BASE_SEED = 1
FALSIFY_EPSILON = 0.2
FALSIFY_IMAGES = 8  # images per batch; even-numbered ones carry the trigger


def gen_conv_falsify(seed: int, out: Path) -> dict:
    """Planted-pixel network on 3x16x16 images and a batch of images.

    Filter 0 is a detector on channel 0 of a single pixel with a large
    negative bias: inactive on every baseline image, so no gradient flows
    through it.  Its pooled output over the top-left 2x2 block is the only
    path to class 1.  Filters 1-3 are random and reach the logits only
    through two pooled cells in the middle of the image, so the gradient
    ranking spends its first ~20 pixels there before it reaches pixel 0.
    Triggering images set channel 0 of pixel 0 to 0.6, within epsilon of
    the detector threshold 0.75; the others set it to 0.1.

    Network and images are fixed, because the number of pixels a call tries
    and the size of each fast reach depend on the image content.  The seed
    permutes the classes, which changes no gradient and no ranking.
    """
    rng = np.random.default_rng(FALSIFY_BASE_SEED)
    K, n_cls = 4, 10
    filt = np.zeros((K, 3, 3, 3))
    filt[0, 0, 0, 0] = 20.0
    filt[1:] = rng.normal(size=(K - 1, 3, 3, 3)) / 6.0
    bias = np.concatenate([[-15.0], rng.normal(size=K - 1) * 0.05])
    W = np.zeros((n_cls, K, 7, 7))
    W[:, 1:, 3, 3:5] = rng.normal(size=(n_cls, K - 1, 2)) * 0.05
    W[1, 0, 0, 0] = 5.0
    b = rng.normal(size=n_cls) * 0.05
    b[0] += 1.0
    images = rng.integers(0, 256, size=(FALSIFY_IMAGES, 3, 16, 16))
    images = images.astype(np.uint8)
    # keep the detector's block quiet apart from pixel 0
    images[:, 0, :2, :2] //= 4
    images[:, 0, 0, 0] = [26 if i % 2 else 153 for i in range(FALSIFY_IMAGES)]
    cperm = np.random.default_rng(seed).permutation(n_cls)
    W, b = W[cperm], b[cperm]
    model = out / "model.json"
    layers = [{"kind": "conv", "in_shape": [3, 16, 16],
               "filters": filt.tolist(), "bias": bias.tolist(),
               "stride": 1, "pad": 0},
              {"kind": "relu"},
              {"kind": "maxpool", "pools": _pools(K, 14)},
              _affine(W.reshape(n_cls, -1), b)]
    _write_model(model, layers, 768, range(n_cls))

    passes = []
    for i, img in enumerate(images):
        path = out / f"image{i}.bin"
        path.write_bytes(img.tobytes())
        passes.append([{"name": "falsify", "argv": [
            "falsify", "--model", str(model), "--image", str(path),
            "--shape", "3,16,16", "--epsilon", str(FALSIFY_EPSILON),
            "--max-pixels", "24", "--relaxation", "0.1"],
            "image": str(path)}])
    return {"workload": "conv_falsify", "model": str(model), "passes": passes,
            "epsilon": FALSIFY_EPSILON}


GENERATORS = {"mlp_exact": gen_mlp_exact, "conv_verify": gen_conv_verify,
              "conv_falsify": gen_conv_falsify}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's files for ``seed`` into ``out``; return its plan."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, out)
