"""Command-line front end: verdicts, falsification, and plot-data export.

Margins between logits decide everything here.  Since each output set is a
polytope and every margin is linear over it, minima are attained at
vertices, so vertex checks are exact for exact-mode reach results.  Fast
mode under-approximates and can therefore prove UNSAFE but never SAFE.

Exit codes: 0 SAFE, 1 UNSAFE, 2 UNKNOWN, 3 TIMEOUT, 4 error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .lattice import ZERO_TOL, Hyperplane
from .model import (Network, InputSpec, ModelError, load_model, forward,
                    gradient)
from .engine import (ReachConfig, reach, backtrack, result_to_dict,
                     sets_from_dict)

EXIT_CODES = {"SAFE": 0, "UNSAFE": 1, "UNKNOWN": 2, "TIMEOUT": 3}
MAX_WITNESSES = 10


@dataclass
class Verdict:
    """Outcome of a verification or falsification run."""

    status: str
    witnesses: list
    set_count: int
    wall_time: float
    boundary_contact: bool = False
    info: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "status": self.status,
            "witnesses": [{"input": np.asarray(x).tolist(), "class": int(k)}
                          for x, k in self.witnesses],
            "set_count": self.set_count,
            "wall_time_s": self.wall_time,
        }
        if self.boundary_contact:
            doc["boundary_contact"] = True
        doc.update(self.info)
        return json.dumps(doc)


def _margins(V: np.ndarray, c: int):
    """Per-vertex margins v_c - v_j over j != c, with the relative zero band."""
    others = [j for j in range(V.shape[1]) if j != c]
    vc = V[:, [c]]
    vo = V[:, others]
    diff = vc - vo
    tol = ZERO_TOL * np.maximum(1.0, np.abs(vc) + np.abs(vo))
    return diff, tol, others


def verify(net: Network, spec: InputSpec, cfg: ReachConfig,
           result=None) -> Verdict:
    """Check that the whole input box keeps the baseline's class.

    Exact non-truncated runs are decisive (SAFE or UNSAFE).  A touched but
    never crossed boundary is SAFE with ``boundary_contact`` set.  Fast mode
    without a violation is UNKNOWN; truncation without a violation is
    TIMEOUT.  Every UNSAFE witness is re-checked with a forward pass.
    ``result`` reuses an existing reach run for the same net/spec/cfg.
    """
    if len(net.labels) < 2:
        raise ModelError("verification needs at least two classes")
    c = int(np.argmax(forward(net, spec.baseline)))
    res = reach(net, spec, cfg) if result is None else result

    contact = False
    candidates = []
    for s in res.sets:
        diff, tol, _ = _margins(s.vertices, c)
        if (np.abs(diff) <= tol).any():
            contact = True
        viol = (diff < -tol).any(axis=1)
        for v in np.nonzero(viol)[0]:
            candidates.append((float(diff[v].min()), s.region_vertices[v]))

    witnesses = []
    candidates.sort(key=lambda t: t[0])
    for _, x in candidates:
        y = forward(net, x)
        k = int(np.argmax(y))
        if k != c:
            witnesses.append((x, k))
            if len(witnesses) >= MAX_WITNESSES:
                break

    info = {"mode": cfg.mode, "class": c}
    if witnesses:
        status = "UNSAFE"
    elif res.truncated:
        status = "TIMEOUT"
    elif cfg.mode == "exact":
        status = "SAFE"
        if candidates:
            # strictly negative vertex margins that a forward re-check could
            # not reproduce: numerically on the boundary
            contact = True
    else:
        status = "UNKNOWN"
    return Verdict(status, witnesses, res.set_count, res.wall_time,
                   boundary_contact=contact, info=info)


def _pixel_groups(width: int, shape=None):
    """Coordinate groups per pixel: all channels of (y, x), or singletons."""
    if shape is None:
        return [[i] for i in range(width)]
    c, h, w = shape
    if c * h * w != width:
        raise ModelError(f"shape {shape} does not match input width {width}")
    return [[ch * h * w + y * w + x for ch in range(c)]
            for y in range(h) for x in range(w)]


def falsify(net: Network, image, epsilon: float, relaxation: float,
            max_pixels: int, timeout: float | None = None,
            shape=None, true_class: int | None = None) -> Verdict:
    """Pixel-by-pixel search for an adversarial input near ``image``.

    Each iteration targets the unused pixel with the largest gradient norm,
    runs a fast reach over it, adopts the output vertex minimizing the
    margin (the current image is itself a candidate, so the margin never
    increases), and stops on a re-verified misclassification, the pixel
    budget, or the timeout.
    """
    if len(net.labels) < 2:
        raise ModelError("falsification needs at least two classes")
    x0 = np.asarray(image, dtype=float).ravel()
    y0 = forward(net, x0)
    c = int(np.argmax(y0))
    if true_class is not None and c != true_class:
        raise ModelError(f"baseline already misclassified: predicted {c}, "
                         f"expected {true_class}")
    groups = _pixel_groups(net.input_width, shape)

    t0 = time.perf_counter()
    deadline = time.monotonic() + timeout if timeout is not None else None
    cur = x0
    margin = float(y0[c] - np.delete(y0, c).max())
    used = np.zeros(len(groups), dtype=bool)
    per_pixel = []
    total_sets = 0
    status = "UNKNOWN"
    witnesses: list = []

    for _ in range(max_pixels):
        if deadline is not None and time.monotonic() > deadline:
            status = "TIMEOUT"
            break
        g = gradient(net, cur, c).wrt_input
        scores = np.array([np.linalg.norm(g[grp]) for grp in groups])
        scores[used] = -np.inf
        if np.all(np.isinf(scores)):
            break
        target = int(np.argmax(scores))
        used[target] = True

        remaining = (None if deadline is None
                     else max(deadline - time.monotonic(), 1e-3))
        cfg = ReachConfig(mode="fast", relaxation=relaxation,
                          timeout=remaining)
        step_t = time.perf_counter()
        res = reach(net, InputSpec(cur, tuple(groups[target]), epsilon), cfg)
        total_sets += res.set_count

        best = (margin, cur)
        for s in res.sets:
            diff, _, _ = _margins(s.vertices, c)
            m = diff.min(axis=1)
            v = int(np.argmin(m))
            if m[v] < best[0]:
                best = (float(m[v]), s.region_vertices[v])
        margin, cur = best
        per_pixel.append({"pixel": target, "sets": res.set_count,
                          "time_s": time.perf_counter() - step_t,
                          "margin": margin})

        y = forward(net, cur)
        k = int(np.argmax(y))
        if k != c:
            witnesses.append((cur, k))
            status = "UNSAFE"
            break
        if deadline is not None and time.monotonic() > deadline:
            status = "TIMEOUT"
            break

    info = {"class": c, "pixels_tried": len(per_pixel),
            "per_pixel": per_pixel, "final_margin": margin}
    return Verdict(status, witnesses, total_sets, time.perf_counter() - t0,
                   info=info)


def _hull2d(points: np.ndarray) -> np.ndarray:
    """Counterclockwise convex hull by monotone chain.

    Collinear inputs degrade to the two lexicographic extremes.
    """
    pts = np.unique(points, axis=0)
    if pts.shape[0] <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:
        hull = [pts[0], pts[-1]]
    return np.array(hull)


def _parse_axis(expr: str):
    expr = expr.strip()
    if expr in ("second", "second_highest"):
        return ("second", None)
    if expr.startswith("class:"):
        return ("class", int(expr.split(":", 1)[1]))
    return ("coord", int(expr))


def _axis_values(V: np.ndarray, axis, ref_class):
    kind, arg = axis
    if kind == "second":
        if ref_class is None:
            raise ValueError("second_highest needs a class:c axis as reference")
        return np.delete(V, ref_class, axis=1).max(axis=1)
    return V[:, arg]


def emit_projection(sets, axes, path) -> None:
    """Write per-set 2D hull polygons as CSV rows (set_id,vertex_order,x,y)."""
    ax = (_parse_axis(axes[0]), _parse_axis(axes[1]))
    ref = next((arg for kind, arg in ax if kind == "class"), None)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["set_id", "vertex_order", "x", "y"])
        for sid, s in enumerate(sets):
            xs = _axis_values(s.vertices, ax[0], ref)
            ys = _axis_values(s.vertices, ax[1], ref)
            hull = _hull2d(np.column_stack([xs, ys]))
            for order, (x, y) in enumerate(hull):
                w.writerow([sid, order, repr(float(x)), repr(float(y))])


def load_input_vector(path, shape=None) -> np.ndarray:
    """Flat input vector from CSV text or raw 8-bit bytes scaled to [0,1]."""
    p = Path(path)
    if p.suffix.lower() in (".csv", ".txt"):
        vals = p.read_text().replace(",", " ").split()
        x = np.array([float(v) for v in vals])
    else:
        x = np.frombuffer(p.read_bytes(), dtype=np.uint8) / 255.0
    if shape is not None and x.size != int(np.prod(shape)):
        raise ModelError(f"input has {x.size} values, shape {shape} needs "
                         f"{int(np.prod(shape))}")
    return x


def _parse_shape(text):
    parts = tuple(int(v) for v in text.split(","))
    if len(parts) != 3:
        raise ModelError("shape must be c,h,w")
    return parts


def _parse_pixels(text, shape):
    """Pixel list to flat coordinate indices (all channels when shaped)."""
    ids = [int(v) for v in text.split(",") if v.strip() != ""]
    if shape is None:
        return ids
    c, h, w = shape
    coords = []
    for p in ids:
        if not 0 <= p < h * w:
            raise ModelError(f"pixel {p} out of range for {h}x{w}")
        coords.extend(ch * h * w + p for ch in range(c))
    return coords


def _parse_constraint(text, width):
    """Halfspace 'j-c>=t': logit_j - logit_c >= t (t defaults to 0)."""
    body, sep, rhs = text.partition(">=")
    threshold = float(rhs) if sep else 0.0
    j_txt, sep2, c_txt = body.partition("-")
    if not sep2:
        raise ModelError(f"constraint must look like 'j-c>=t', got {text!r}")
    j, c = int(j_txt), int(c_txt)
    if not (0 <= j < width and 0 <= c < width):
        raise ModelError(f"constraint indices out of range in {text!r}")
    a = np.zeros(width)
    a[j] += 1.0
    a[c] -= 1.0
    return Hyperplane(a, -threshold)


def _add_reach_args(sub):
    sub.add_argument("--model", required=True)
    sub.add_argument("--input", required=True, help="baseline input file")
    sub.add_argument("--pixels", required=True,
                     help="comma-separated perturbed pixels")
    sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--shape", default=None,
                     help="c,h,w of the input (raw images need it; pixels "
                          "then address (y,x) cells across all channels)")
    sub.add_argument("--fast", action="store_true")
    sub.add_argument("--relaxation", type=float, default=1.0)
    sub.add_argument("--partitions", type=int, default=1)
    sub.add_argument("--timeout", type=float, default=None)
    sub.add_argument("--max-sets", type=int, default=None)
    sub.add_argument("--workers", type=int, default=1)


def _config_from_args(args) -> ReachConfig:
    kw = dict(mode="fast" if args.fast else "exact",
              relaxation=args.relaxation, partitions=args.partitions,
              timeout=args.timeout, workers=args.workers)
    if args.max_sets is not None:
        kw["max_sets"] = args.max_sets
    return ReachConfig(**kw)


def _spec_from_args(args) -> InputSpec:
    shape = _parse_shape(args.shape) if args.shape else None
    x = load_input_vector(args.input, shape)
    coords = _parse_pixels(args.pixels, shape)
    return InputSpec(x, tuple(coords), args.epsilon)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latreach",
        description="Exact and fast reachability analysis for small CNNs")
    subs = parser.add_subparsers(dest="command", required=True)

    p_reach = subs.add_parser("reach", help="compute reachable sets")
    _add_reach_args(p_reach)
    p_reach.add_argument("--out", required=True)

    p_verify = subs.add_parser("verify", help="robustness verdict for a box")
    _add_reach_args(p_verify)
    p_verify.add_argument("--out", default=None,
                          help="also dump the reach result JSON")

    p_fals = subs.add_parser("falsify", help="pixel-wise adversarial search")
    p_fals.add_argument("--model", required=True)
    p_fals.add_argument("--image", required=True)
    p_fals.add_argument("--epsilon", type=float, required=True)
    p_fals.add_argument("--relaxation", type=float, default=0.01)
    p_fals.add_argument("--max-pixels", type=int, required=True)
    p_fals.add_argument("--timeout", type=float, default=None)
    p_fals.add_argument("--shape", default=None)

    p_back = subs.add_parser("backtrack",
                             help="input region for output constraints")
    p_back.add_argument("--result", required=True)
    p_back.add_argument("--set-id", type=int, required=True)
    p_back.add_argument("--constraint", action="append", default=[],
                        help="halfspace like '1-0>=0' (logit1-logit0>=0)")
    p_back.add_argument("--out", default=None)

    p_proj = subs.add_parser("project", help="2D hulls of the output sets")
    p_proj.add_argument("--result", required=True)
    p_proj.add_argument("--axes", required=True,
                        help="two of: coord index, class:c, second")
    p_proj.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # keep code 2 reserved for UNKNOWN verdicts
        return 0 if e.code in (0, None) else 4
    try:
        return _dispatch(args)
    except Exception as e:  # CLI boundary: report, do not traceback
        print(f"error: {e}", file=sys.stderr)
        return 4


@contextmanager
def _gc_paused():
    """Pause the cyclic GC: a dump or reload builds about a million small
    containers without cycles, which the collector would keep rescanning."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _write_result(path, res, cfg: ReachConfig) -> None:
    with _gc_paused():
        text = json.dumps(result_to_dict(res, cfg.mode, cfg.relaxation))
    Path(path).write_text(text)


def _read_sets(path, set_id: int | None = None) -> list:
    """Rebuild the sets of a result dump, or only set ``set_id`` of it."""
    with _gc_paused():
        recs = json.loads(Path(path).read_text())["sets"]
        if set_id is not None:
            if not 0 <= set_id < len(recs):
                raise ModelError(f"set id {set_id} out of range "
                                 f"({len(recs)} sets)")
            recs = recs[set_id:set_id + 1]
        sets = sets_from_dict({"sets": recs})
        del recs  # free the parsed tree before the collector resumes
    return sets


def _dispatch(args) -> int:
    if args.command == "reach":
        net = load_model(args.model)
        cfg = _config_from_args(args)
        res = reach(net, _spec_from_args(args), cfg)
        _write_result(args.out, res, cfg)
        print(json.dumps({"set_count": res.set_count,
                          "wall_time_s": res.wall_time,
                          "partitions_done": res.partitions_done,
                          "truncated": res.truncated,
                          "out": args.out}))
        return 3 if res.truncated else 0

    if args.command == "verify":
        net = load_model(args.model)
        cfg = _config_from_args(args)
        spec = _spec_from_args(args)
        res = None
        if args.out:
            res = reach(net, spec, cfg)
            _write_result(args.out, res, cfg)
        verdict = verify(net, spec, cfg, result=res)
        print(verdict.to_json())
        return EXIT_CODES[verdict.status]

    if args.command == "falsify":
        net = load_model(args.model)
        shape = _parse_shape(args.shape) if args.shape else None
        image = load_input_vector(args.image, shape)
        verdict = falsify(net, image, args.epsilon, args.relaxation,
                          args.max_pixels, timeout=args.timeout, shape=shape)
        print(verdict.to_json())
        return EXIT_CODES[verdict.status]

    if args.command == "backtrack":
        s, = _read_sets(args.result, args.set_id)
        constraints = [_parse_constraint(c, s.ambient_dim)
                       for c in args.constraint]
        region = backtrack(s, constraints)
        if region is None:
            out = {"set_id": args.set_id, "empty": True}
        else:
            out = {"set_id": args.set_id, "empty": False,
                   "vertices": region.vertices.tolist()}
        text = json.dumps(out)
        if args.out:
            Path(args.out).write_text(text)
        print(text)
        return 0

    if args.command == "project":
        sets = _read_sets(args.result)
        axes = args.axes.split(",")
        if len(axes) != 2:
            raise ModelError("axes must name exactly two expressions")
        emit_projection(sets, (axes[0], axes[1]), args.out)
        print(json.dumps({"sets": len(sets), "out": args.out}))
        return 0

    raise ModelError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
