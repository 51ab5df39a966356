"""Command-line front end: verdicts, falsification, and plot-data export.

Margins between logits pick the inputs to check; a forward pass of each
decides.  Since each output set is a polytope and every margin is linear
over it, minima are attained at vertices, so vertex checks are exact for
exact-mode reach results.  Fast mode under-approximates and can therefore
prove UNSAFE but never SAFE.

Exit codes: 0 SAFE, 1 UNSAFE, 2 UNKNOWN, 3 TIMEOUT, 4 error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .lattice import as_int, coord_hyperplane, sides
from .model import (Network, InputSpec, ModelError, load_model, forward,
                    gradient)
from .engine import (DEFAULT_MAX_SETS, ReachConfig, reach, backtrack,
                     write_result, iter_set_records, sets_from_dict)
from .engine import result_to_dict  # noqa: F401  (perfbench/tracer.py wraps it)

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
        # strict JSON: a float that is not finite prints as null
        return json.dumps(json.loads(json.dumps(doc),
                                     parse_constant=lambda _: None))


def _margins(V: np.ndarray, c: int):
    """Per-vertex margins v_c - v_j over j != c, and their ``sides`` masks."""
    vc = V[:, [c]]
    vo = np.delete(V, c, axis=1)
    diff = vc - vo
    return diff, sides(diff, np.abs(vc) + np.abs(vo))


def _witness_class(net: Network, x, c: int):
    """``forward``'s class for ``x`` if ``x`` is a witness against class
    ``c`` (another argmax, and only finite logits), else None."""
    y = forward(net, x)
    k = int(np.argmax(y))
    return k if k != c and np.isfinite(y).all() else None


def verify(net: Network, spec: InputSpec, cfg: ReachConfig,
           result=None) -> Verdict:
    """Check that the whole input box keeps the baseline's class.

    The margin band only picks candidates: every output vertex with a
    margin not strictly above it (NaN margins aside) is re-checked by a
    forward pass of its region vertex, and that pass alone decides UNSAFE
    (``_witness_class``).  Without a witness, an exact non-truncated run
    whose output vertices are all finite is SAFE, with ``boundary_contact``
    set when some candidate was re-checked; an overflowed exact run is
    UNKNOWN, and so is fast mode.  Truncation without a witness is TIMEOUT.
    ``result`` reuses an existing reach run for the same net/spec/cfg.
    """
    if len(net.labels) < 2:
        raise ModelError("verification needs at least two classes")
    c = int(np.argmax(forward(net, spec.baseline)))
    res = reach(net, spec, cfg) if result is None else result

    candidates = []
    for s in res.sets:
        diff, (above, _) = _margins(s.vertices, c)
        # a vertex with some margin below or inside the band (NaN: neither)
        for v in np.nonzero(~(above | np.isnan(diff)).all(axis=1))[0]:
            candidates.append((float(diff[v].min()), s.region_vertices[v]))

    witnesses = []
    candidates.sort(key=lambda t: t[0])
    for _, x in candidates:
        k = _witness_class(net, x, c)
        if k is not None:
            witnesses.append((x, k))
            if len(witnesses) >= MAX_WITNESSES:
                break

    info = {"mode": cfg.mode, "class": c}
    if witnesses:
        status = "UNSAFE"
    elif res.truncated:
        status = "TIMEOUT"
    elif cfg.mode == "exact" and all(np.isfinite(s.vertices).all()
                                     for s in res.sets):
        status = "SAFE"
    else:
        status = "UNKNOWN"
    return Verdict(status, witnesses, res.set_count, res.wall_time,
                   boundary_contact=status == "SAFE" and bool(candidates),
                   info=info)


def _pixel_groups(width: int, shape=None) -> np.ndarray:
    """``(n_pixels, c)`` input coordinates: row ``p`` holds all channels of
    grid cell ``p`` of the ``(c, h, w)`` shape, or coordinate ``p`` alone."""
    if shape is None:
        return np.arange(width)[:, None]
    c, h, w = shape
    if c * h * w != width:
        raise ModelError(f"shape {shape} does not match input width {width}")
    # C order: falsify's stacked row dots then run at unit stride, the
    # kernel np.linalg.norm uses, so the pixel scores match it bit for bit
    return np.ascontiguousarray(np.arange(width).reshape(c, h * w).T)


def falsify(net: Network, image, epsilon: float, relaxation: float,
            max_pixels: int, timeout: float | None = None,
            shape=None) -> Verdict:
    """Pixel-by-pixel search for an adversarial input near ``image``.

    Each iteration targets the unused pixel with the largest gradient norm,
    runs a fast reach over it, adopts the output vertex of least finite
    margin (the current image is itself a candidate, so the margin never
    increases), and stops on a re-verified misclassification, the pixel
    budget, or the timeout.  Bad budgets raise ValueError before any work.
    """
    if len(net.labels) < 2:
        raise ModelError("falsification needs at least two classes")
    if as_int(max_pixels, "max_pixels") < 1:
        raise ValueError("max_pixels must be >= 1")
    step = ReachConfig(mode="fast", relaxation=relaxation, timeout=timeout)
    x0 = np.asarray(image, dtype=float).ravel()
    y0 = forward(net, x0)
    c = int(np.argmax(y0))
    groups = _pixel_groups(net.input_width, shape)

    t0 = time.perf_counter()
    deadline = time.monotonic() + (np.inf if timeout is None else timeout)
    cur = x0
    margin = float(y0[c] - np.delete(y0, c).max())
    used = np.zeros(len(groups), dtype=bool)
    per_pixel = []
    total_sets = 0
    status = "UNKNOWN"
    witnesses: list = []

    for _ in range(min(max_pixels, len(groups))):
        if time.monotonic() > deadline:
            status = "TIMEOUT"
            break
        # c is the class at cur unless its logits overflowed (the loop
        # stops at the first witness): the gradient select_neurons would
        # compute for the reach below, which takes it instead of a second pass
        grads = gradient(net, cur, c)
        G = grads.wrt_input[groups]
        scores = np.sqrt((G[:, None, :] @ G[:, :, None]).ravel())
        scores[used] = -np.inf
        target = int(np.argmax(scores))
        used[target] = True

        remaining = max(deadline - time.monotonic(), 1e-3)
        step_t = time.perf_counter()
        res = reach(net, InputSpec(cur, tuple(groups[target]), epsilon),
                    replace(step, timeout=remaining), grads)
        total_sets += res.set_count

        best = (margin, cur)
        for s in res.sets:
            diff, _ = _margins(s.vertices, c)
            m = diff.min(axis=1)
            m[~np.isfinite(m)] = np.inf  # an overflowed margin is no lead
            v = int(np.argmin(m))
            if m[v] < best[0]:
                best = (float(m[v]), s.region_vertices[v])
        margin, cur = best
        per_pixel.append({"pixel": target, "sets": res.set_count,
                          "time_s": time.perf_counter() - step_t,
                          "margin": margin})

        k = _witness_class(net, cur, c)
        if k is not None:
            witnesses.append((cur, k))
            status = "UNSAFE"
            break
        if time.monotonic() > deadline:
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
    return np.array(lower[:-1] + upper[:-1])


def _int_option(text: str, option: str) -> int:
    """``text`` as an int; anything else is a ModelError naming ``option``."""
    try:
        return int(text)
    except ValueError:
        raise ModelError(f"{option} takes integers, got {text!r}") from None


def _parse_axis(expr: str):
    expr = expr.strip()
    if expr in ("second", "second_highest"):
        return ("second", None)
    if expr.startswith("class:"):
        return ("class", _int_option(expr.split(":", 1)[1], "--axes"))
    return ("coord", _int_option(expr, "--axes"))


def _parse_axes(axes):
    """``(kind, index)`` of each of two axis expressions, plus the class
    that ``second`` ranks against."""
    if len(axes) != 2:
        raise ModelError("axes must name exactly two expressions")
    ax = [_parse_axis(a) for a in axes]
    ref = next((arg for kind, arg in ax if kind == "class"), None)
    if ref is None and ("second", None) in ax:
        raise ModelError("second_highest needs a class:c axis as reference")
    return ax, ref


def _axis_values(V: np.ndarray, axis, ref_class):
    kind, arg = axis
    if kind == "second":
        return np.delete(V, ref_class, axis=1).max(axis=1)
    return V[:, arg]


def _axis_fault(s, ax) -> str | None:
    """Why the parsed axes ``ax`` cannot project set ``s``, if they cannot."""
    for kind, arg in ax:
        if arg is not None and not 0 <= arg < s.ambient_dim:
            return (f"axis index {arg} out of range "
                    f"({s.ambient_dim} coordinates)")
        if kind == "second" and s.ambient_dim < 2:
            return "second_highest needs two coordinates"
    return None


def emit_projection(sets, axes, path) -> int:
    """Write per-set 2D hull polygons as CSV rows (set_id,vertex_order,x,y)
    and return the number of sets.

    ``sets`` may be an iterator: only each set's projected points are kept.
    Every axis is checked against every set before ``path`` is opened, so
    bad axes leave ``path`` untouched.
    """
    ax, ref = _parse_axes(axes)
    points, fault, n = [], None, 0
    for n, s in enumerate(sets, 1):
        fault = fault or _axis_fault(s, ax)
        if fault is None:
            points.append(np.column_stack([_axis_values(s.vertices, a, ref)
                                           for a in ax]))
    if fault is not None:
        raise ModelError(fault)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["set_id", "vertex_order", "x", "y"])
        for sid, p in enumerate(points):
            for order, (x, y) in enumerate(_hull2d(p)):
                w.writerow([sid, order, repr(float(x)), repr(float(y))])
    return n


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
    parts = tuple(_int_option(v, "--shape") for v in text.split(","))
    if len(parts) != 3 or min(parts) < 1:
        raise ModelError("shape must be three positive integers c,h,w")
    return parts


def _parse_pixels(text, shape, width):
    """Pixel list to flat coordinate indices (all channels when shaped)."""
    ids = [_int_option(v, "--pixels") for v in text.split(",") if v.strip()]
    groups = _pixel_groups(width, shape)
    for p in ids:
        if not 0 <= p < len(groups):
            raise ModelError(f"pixel {p} out of range ({len(groups)} pixels)")
    return groups[ids].ravel()


def _parse_constraint(text, width):
    """Halfspace 'j-c>=t': logit_j - logit_c >= t (t defaults to 0)."""
    body, sep, rhs = text.partition(">=")
    try:
        threshold = float(rhs) if sep else 0.0
    except ValueError:
        raise ModelError(f"--constraint takes a number after '>=', got "
                         f"{rhs!r}") from None
    j_txt, sep2, c_txt = body.partition("-")
    if not sep2:
        raise ModelError(f"constraint must look like 'j-c>=t', got {text!r}")
    j, c = (_int_option(v, "--constraint") for v in (j_txt, c_txt))
    if not (0 <= j < width and 0 <= c < width):
        raise ModelError(f"constraint indices out of range in {text!r}")
    return coord_hyperplane(width, j, c, -threshold)


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
    sub.add_argument("--max-sets", type=int, default=DEFAULT_MAX_SETS)
    sub.add_argument("--workers", type=int, default=1)


def _config_from_args(args) -> ReachConfig:
    return ReachConfig(mode="fast" if args.fast else "exact",
                       relaxation=args.relaxation, partitions=args.partitions,
                       timeout=args.timeout, max_sets=args.max_sets,
                       workers=args.workers)


def _spec_from_args(args) -> InputSpec:
    shape = _parse_shape(args.shape) if args.shape else None
    x = load_input_vector(args.input, shape)
    coords = _parse_pixels(args.pixels, shape, x.size)
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


def _write_result(path, res, cfg: ReachConfig) -> None:
    """Dump ``res`` to a sibling temp file, then move it onto ``path``: a
    failed dump leaves whatever was at ``path`` before."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            write_result(f, res, cfg.mode, cfg.relaxation)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename is not None:
            raise OSError(e.errno, e.strerror, str(path)) from e  # name --out
        raise


def _iter_sets(path, set_id: int | None = None):
    """Rebuild the sets of a result dump, or only set ``set_id`` of it, one
    record at a time; every other record is checked, not decoded."""
    n = 0
    for n, rec in enumerate(iter_set_records(path, set_id), 1):
        if set_id is None or n - 1 == set_id:
            yield from sets_from_dict({"sets": [rec]})
    if set_id is not None and not 0 <= set_id < n:
        raise ModelError(f"set id {set_id} out of range ({n} sets)")


def _read_sets(path, set_id: int | None = None) -> list:
    return list(_iter_sets(path, set_id))


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
        axes = args.axes.split(",")
        _parse_axes(axes)  # malformed axes fail before the dump is read
        n = emit_projection(_iter_sets(args.result), axes, args.out)
        print(json.dumps({"sets": n, "out": args.out}))
        return 0

    raise ModelError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
