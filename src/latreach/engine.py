"""Whole-network reachability: exact/fast runs, partitioning, backtracking.

``reach`` folds a list of sets through the network layer by layer.  The
input box can be partitioned (repeated bisection of the widest perturbed
coordinate) and partitions run independently, optionally on a process pool.
Timeout checks are cooperative, between layer applications: a partition
caught by the deadline is abandoned while completed partitions are kept and
the result is flagged truncated.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lattice import (LatticeSet, build_box_lattice, split_by_hyperplane,
                      set_to_dict, set_from_dict)
from .layers import (NeuronSelection, affine_layer_reach, relu_layer_reach,
                     maxpool_layer_reach)
from .model import Network, InputSpec, ModelError, forward, gradient

DEFAULT_MAX_SETS = 5_000_000


@dataclass(frozen=True)
class ReachConfig:
    """Analysis knobs.

    ``relaxation`` is ignored in exact mode.  ``workers`` > 1 distributes
    partitions over a process pool; 1 keeps everything in-process.
    """

    mode: str = "exact"
    relaxation: float = 1.0
    partitions: int = 1
    timeout: float | None = None
    max_sets: int = DEFAULT_MAX_SETS
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("exact", "fast"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in [0, 1]")
        if self.partitions < 1 or self.workers < 1 or self.max_sets < 1:
            raise ValueError("partitions, workers and max_sets must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass
class ReachResult:
    """Output sets in logit space plus run accounting."""

    sets: list
    set_count: int
    wall_time: float
    partitions_done: int
    truncated: bool
    counters: dict = field(default_factory=dict)


def select_neurons(net: Network, spec: InputSpec, delta: float) -> dict:
    """Gradient-ranked neuron selection for every nonlinear layer.

    Ranks by absolute gradient of the predicted-class logit at the baseline,
    descending, ties to the lower index.  Selects round(delta * n) neurons
    with a floor of one when delta > 0; delta = 0 selects none.
    """
    base = spec.baseline
    c = int(np.argmax(forward(net, base)))
    per_layer = gradient(net, base, c).wrt_layer
    selections = {}
    for idx, g in per_layer.items():
        n = g.size
        if delta <= 0.0:
            m = 0
        else:
            m = min(n, max(1, int(np.floor(delta * n + 0.5))))
        order = np.lexsort((np.arange(n), -np.abs(g)))
        mask = np.zeros(n, dtype=bool)
        mask[order[:m]] = True
        selections[idx] = NeuronSelection(mask)
    return selections


def _partition_box(lo, hi, k):
    """Split [lo, hi] into k leaves by bisecting the widest coordinate.

    Always bisects the currently widest leaf; stops early when every leaf
    has zero width.  Leaves come back in spatial (left-to-right) order.
    """
    leaves = [(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))]
    while len(leaves) < k:
        widths = [float((h - l).max()) for l, h in leaves]
        i = int(np.argmax(widths))
        if widths[i] <= 0.0:
            break
        l, h = leaves[i]
        axis = int(np.argmax(h - l))
        mid = 0.5 * (l[axis] + h[axis])
        h1 = h.copy()
        h1[axis] = mid
        l2 = l.copy()
        l2[axis] = mid
        leaves[i:i + 1] = [(l, h1), (l2, h)]
    return leaves


def _embedded_box(baseline, coords, lo, hi):
    box = build_box_lattice(lo, hi)
    emb = np.tile(baseline, (box.n_vertices, 1))
    emb[:, coords] = box.vertices
    return LatticeSet(box.lattice, emb, emb.copy())


def _propagate_partition(net, baseline, coords, lo, hi, selections, deadline,
                         max_sets):
    """Run one partition through all layers.

    Returns (sets_or_None, stats); None means the deadline or the set cap
    interrupted this partition.
    """
    stats = {"splits": 0, "sets_per_layer": [0] * len(net.layers)}
    sets = [_embedded_box(baseline, coords, lo, hi)]
    for i, layer in enumerate(net.layers):
        if deadline is not None and time.monotonic() > deadline:
            return None, stats
        if len(sets) > max_sets:
            return None, stats
        sel = selections.get(i) if selections else None
        if layer.kind == "affine":
            sets = affine_layer_reach(sets, layer.W, layer.b)
        elif layer.kind == "relu":
            sets = relu_layer_reach(sets, sel, stats)
        else:
            sets = maxpool_layer_reach(sets, layer.pools, sel, stats)
        stats["sets_per_layer"][i] += len(sets)
    return sets, stats


def _merge_stats(total, part):
    total["splits"] += part["splits"]
    for i, n in enumerate(part["sets_per_layer"]):
        total["sets_per_layer"][i] += n


def reach(net: Network, spec: InputSpec, cfg: ReachConfig) -> ReachResult:
    """Reachable sets of the input box under the network.

    Exact mode: the union of outputs is the exact image and every set
    carries its linear region.  Fast mode: each output is a subset (a face)
    of some exact output; the union under-approximates the image.
    """
    if spec.baseline.size != net.input_width:
        raise ModelError("input spec does not match network input width")
    t0 = time.perf_counter()
    deadline = (time.monotonic() + cfg.timeout if cfg.timeout is not None
                else None)
    selections = (select_neurons(net, spec, cfg.relaxation)
                  if cfg.mode == "fast" else None)

    coords = list(spec.perturbed_coords)
    centers = spec.baseline[coords]
    parts = _partition_box(centers - spec.epsilon, centers + spec.epsilon,
                           cfg.partitions)

    counters = {"splits": 0, "sets_per_layer": [0] * len(net.layers)}
    outs: list = []
    done = 0
    truncated = False

    if cfg.workers == 1:
        for lo, hi in parts:
            if deadline is not None and time.monotonic() > deadline:
                truncated = True
                break
            if len(outs) > cfg.max_sets:
                truncated = True
                break
            sets, stats = _propagate_partition(net, spec.baseline, coords,
                                               lo, hi, selections, deadline,
                                               cfg.max_sets)
            _merge_stats(counters, stats)
            if sets is None:
                truncated = True
                break
            outs.extend(sets)
            done += 1
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futs = [pool.submit(_propagate_partition, net, spec.baseline,
                                coords, lo, hi, selections, deadline,
                                cfg.max_sets)
                    for lo, hi in parts]
            for fut in futs:
                sets, stats = fut.result()
                _merge_stats(counters, stats)
                if sets is None:
                    truncated = True
                    continue
                outs.extend(sets)
                done += 1

    if len(outs) > cfg.max_sets:
        outs = outs[:cfg.max_sets]
        truncated = True
    return ReachResult(outs, len(outs), time.perf_counter() - t0, done,
                       truncated, counters)


def backtrack(result_set: LatticeSet, constraints) -> LatticeSet | None:
    """Input region (as a set) mapping into the given output halfspaces.

    Clips the output set by each constraint, keeping the ``a.x + b >= 0``
    side; region rows interpolate along.  The returned set lives in input
    space (vertices = surviving region vertices).  None when empty.
    """
    cur = result_set
    for h in constraints:
        cur, _ = split_by_hyperplane(cur, h)
        if cur is None:
            return None
    return LatticeSet(cur.lattice, cur.region_vertices, cur.region_vertices)


def result_to_dict(result: ReachResult, mode: str, relaxation: float) -> dict:
    """JSON form of a result; set records carry faces for later backtracking."""
    return {
        "mode": mode,
        "relaxation": relaxation,
        "sets": [set_to_dict(s) for s in result.sets],
        "set_count": result.set_count,
        "wall_time_s": result.wall_time,
        "truncated": result.truncated,
    }


def sets_from_dict(doc: dict) -> list:
    """Rebuild the LatticeSets stored by :func:`result_to_dict`."""
    return [set_from_dict(rec) for rec in doc["sets"]]
