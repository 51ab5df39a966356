"""End-to-end reachability runs, neuron selection, backtracking, dumps."""

import concurrent.futures
import itertools
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import latreach
from latreach import (Hyperplane, InputSpec, LayerDesc, Network, PoolSpec,
                      ReachConfig, ModelError, reach, backtrack,
                      select_neurons, forward, result_to_dict, sets_from_dict,
                      validate_set, verify)
from latreach.engine import DEFAULT_MAX_SETS, _partition_box
from conftest import (batch_forward, check_soundness, completeness_error,
                      dedup_vertex_set, in_union, random_toy_net)


def relu_net(W1, b1, W2, b2, labels):
    W1 = np.asarray(W1, dtype=float)
    W2 = np.asarray(W2, dtype=float)
    return Network((LayerDesc("affine", W1.shape[1], W1.shape[0], W1, b1),
                    LayerDesc("relu", W1.shape[0], W1.shape[0]),
                    LayerDesc("affine", W1.shape[0], W2.shape[0], W2, b2)),
                   W1.shape[1], labels)


def test_select_neurons_counts_and_ranking():
    net = relu_net(np.diag([1.0, -2.0, 0.5]), np.zeros(3),
                   [[1.0, 1.0, 1.0]], [0.0], ("y",))
    spec = InputSpec(np.ones(3), (0, 1, 2), 0.1)
    # relu input at baseline: (1, -2, 0.5); gradient there: (1, 0, 0.5)
    sel = select_neurons(net, spec, 1.0)[1]
    assert sel.selected.tolist() == [True, True, True]
    sel = select_neurons(net, spec, 0.67)[1]
    assert sel.selected.tolist() == [True, False, True]
    sel = select_neurons(net, spec, 0.01)[1]
    assert sel.selected.tolist() == [True, False, False]
    sel = select_neurons(net, spec, 0.0)[1]
    assert sel.selected.tolist() == [False, False, False]


def test_select_neurons_tie_prefers_lower_index():
    net = relu_net(np.diag([1.0, 1.0, 0.5]), np.zeros(3),
                   [[1.0, 1.0, 1.0]], [0.0], ("y",))
    spec = InputSpec(np.ones(3), (0, 1, 2), 0.1)
    sel = select_neurons(net, spec, 0.34)[1]
    assert sel.selected.tolist() == [True, False, False]


def test_reach_affine_only_partitions():
    W = np.array([[2.0], [-1.0]])
    net = Network((LayerDesc("affine", 1, 2, W, [1.0, 0.0]),), 1, ("a", "b"))
    spec = InputSpec(np.zeros(1), (0,), 1.0)
    res = reach(net, spec, ReachConfig(partitions=4))
    assert res.set_count == 4 and res.partitions_done == 4
    assert not res.truncated
    # leaves in spatial order, each mapped through the affine layer
    edges = [(-1.0, -0.5), (-0.5, 0.0), (0.0, 0.5), (0.5, 1.0)]
    for s, (lo, hi) in zip(res.sets, edges):
        want = {(2 * lo + 1.0, -lo), (2 * hi + 1.0, -hi)}
        assert dedup_vertex_set(s) == frozenset(want)
        assert {tuple(v) for v in np.round(s.region_vertices, 9)} \
            == {(lo,), (hi,)}


def test_reach_quadrant_relu_net():
    net = Network((LayerDesc("relu", 2, 2),
                   LayerDesc("affine", 2, 2, np.eye(2), np.zeros(2))),
                  2, ("a", "b"))
    spec = InputSpec(np.zeros(2), (0, 1), 1.0)
    res = reach(net, spec, ReachConfig())
    assert res.set_count == 4
    assert res.counters["splits"] == 3
    assert res.counters["sets_per_layer"] == [4, 4]
    for s in res.sets:
        validate_set(s)


def test_reach_point_input():
    net = relu_net([[2.0, 0.0], [0.0, -1.0]], [0.1, 0.2],
                   np.eye(2), np.zeros(2), ("a", "b"))
    spec = InputSpec(np.array([0.5, 0.3]), (0,), 0.0)
    res = reach(net, spec, ReachConfig())
    assert res.set_count == 1
    want = batch_forward(net, spec.baseline)[0]
    assert np.allclose(res.sets[0].vertices, want, atol=1e-12)
    # a zero-width box has nothing to bisect: one partition, one set
    res = reach(net, spec, ReachConfig(partitions=3))
    assert (res.partitions_done, res.set_count, res.truncated) == (1, 1, False)


def test_reach_width_mismatch():
    net = relu_net(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), ("a", "b"))
    with pytest.raises(ModelError):
        reach(net, InputSpec(np.zeros(3), (0,), 0.1), ReachConfig())


def test_reach_config_validation():
    with pytest.raises(ValueError):
        ReachConfig(mode="approximate")
    with pytest.raises(ValueError):
        ReachConfig(relaxation=1.5)
    with pytest.raises(ValueError):
        ReachConfig(partitions=0)
    for timeout in (0.0, float("nan")):  # a nan deadline never passes
        with pytest.raises(ValueError):
            ReachConfig(timeout=timeout)
    with pytest.raises(ValueError):
        ReachConfig(workers=0)
    # sizes must be integers: no truncation, no bools
    for bad in ({"partitions": 2.5}, {"max_sets": True}, {"workers": 1.5},
                {"partitions": "2"}, {"max_sets": np.bool_(True)}):
        with pytest.raises(ValueError, match="must be an integer"):
            ReachConfig(**bad)
    cfg = ReachConfig(partitions=np.int64(2), max_sets=3.0, workers=1)
    assert (cfg.partitions, cfg.max_sets, cfg.workers) == (2, 3, 1)
    assert type(cfg.partitions) is int and type(cfg.max_sets) is int


def test_input_box_width_must_be_finite():
    # the box [1 - eps, 1 + eps] x [-eps, eps] is 2*eps wide
    net = relu_net(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), ("a", "b"))
    for eps in (1e308, 9e307):
        with pytest.raises(ModelError, match="finite"):
            InputSpec([1, 0], (0, 1), eps)
    with pytest.raises(ModelError, match="finite"):
        InputSpec([1.7e308, 0], (0, 1), 1e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = verify(net, InputSpec([1, 0], (0, 1), 1e200), ReachConfig())
    assert verdict.status == "UNSAFE" and len(verdict.witnesses) == 3


def test_reach_timeout_truncates():
    net, spec = random_toy_net(3)
    res = reach(net, spec, ReachConfig(timeout=1e-6))
    assert res.truncated
    assert res.set_count == 0


def wide_relu_net():
    # affine 2 -> 200, ReLU, affine 200 -> 2 over the box +-1 around 0: the
    # whole ReLU layer builds about 15k sets
    rng = np.random.default_rng(0)
    W1 = rng.normal(size=(200, 2))
    b1 = 0.3 * rng.normal(size=200)
    net = relu_net(W1, b1, rng.normal(size=(2, 200)), np.zeros(2),
                   ("a", "b"))
    return net, InputSpec(np.zeros(2), (0, 1), 1.0)


def test_reach_timeout_stops_inside_a_wide_layer():
    # the deadline passes inside the 200-wide ReLU layer: the run stops at
    # the next pop instead of finishing the layer, also when that layer is
    # the last one; with max_sets=50 the set cap fires first
    net, spec = wide_relu_net()
    last = Network(net.layers[:2], 2, tuple(map(str, range(200))))
    for net in (net, last):
        for max_sets in (50, DEFAULT_MAX_SETS):
            t0 = time.perf_counter()
            res = reach(net, spec, ReachConfig(timeout=0.2,
                                               max_sets=max_sets))
            assert time.perf_counter() - t0 < 0.4
            assert res.truncated and res.set_count == 0
            assert res.counters["sets_per_layer"][1] > 0  # stopped in it


def test_reach_set_cap_stops_inside_a_wide_layer():
    # the cap fires once 51 sets are alive, not after the layer has built
    # its 15k sets (8.4 s and 15,377 splits when it was checked only
    # between layers)
    net, spec = wide_relu_net()
    t0 = time.perf_counter()
    res = reach(net, spec, ReachConfig(timeout=30, max_sets=50))
    assert time.perf_counter() - t0 < 0.5
    assert res.truncated and res.set_count == 0
    assert 0 < res.counters["splits"] <= 60


def test_reach_max_sets_truncates():
    net = Network((LayerDesc("relu", 4, 4),
                   LayerDesc("affine", 4, 2, np.ones((2, 4)), np.zeros(2))),
                  4, ("a", "b"))
    spec = InputSpec(np.zeros(4), (0, 1, 2, 3), 1.0)
    full = reach(net, spec, ReachConfig())
    assert full.set_count == 16 and not full.truncated
    capped = reach(net, spec, ReachConfig(max_sets=10))
    assert capped.truncated
    assert capped.set_count <= 10


def test_reach_soundness_and_completeness_random(rng):
    for seed in range(6):
        net, spec = random_toy_net(seed)
        res = reach(net, spec, ReachConfig())
        assert not res.truncated
        assert completeness_error(net, res.sets) <= 1e-7
        covered = check_soundness(net, spec, res.sets, 400, 1e-6, rng)
        assert covered.all()


def test_exact_regions_tile_the_box():
    # exact regions must cover the input box without overlap: a piece
    # emitted twice or a dropped piece breaks the volume sum, and two
    # overlapping regions put a centroid in both.  Seed 13 is skipped to
    # keep the test short: its 269 6-d hulls cost about twice as much as
    # the other nets together.
    for seed in (s for s in range(20) if s != 13):
        net, spec = random_toy_net(seed)
        res = reach(net, spec, ReachConfig())
        assert not res.truncated
        cols = list(spec.perturbed_coords)
        hulls = [ConvexHull(s.region_vertices[:, cols]) for s in res.sets]
        box = (2 * spec.epsilon) ** len(cols)
        total = sum(h.volume for h in hulls)
        assert abs(total - box) <= 1e-9 * box, (seed, total, box)
        for s in res.sets:
            c = s.region_vertices[:, cols].mean(axis=0)
            hits = sum(bool((h.equations[:, :-1] @ c + h.equations[:, -1]
                             <= 1e-9).all()) for h in hulls)
            assert hits == 1, (seed, hits)


def test_reach_partitions_cover_same_image(rng):
    net, spec = random_toy_net(7)
    one = reach(net, spec, ReachConfig())
    four = reach(net, spec, ReachConfig(partitions=4))
    assert four.partitions_done == 4
    X = rng.uniform(-1, 1, size=(200, len(net.labels)))
    # sample boundary-ish points from the unpartitioned output sets instead
    pts = np.vstack([s.vertices for s in one.sets])
    assert in_union(four.sets, pts, 1e-7).all()
    pts4 = np.vstack([s.vertices for s in four.sets])
    assert in_union(one.sets, pts4, 1e-7).all()
    del X


@pytest.mark.parametrize("budget, done", [
    ({}, 4),
    ({"max_sets": 2}, 2),  # the set cap stops the run after two partitions
    ({"timeout": 1e-6}, 0),  # past the deadline before the first layer
], ids=["no_budget", "max_sets", "timeout"])
def test_reach_workers_match_sequential(budget, done):
    net, spec = random_toy_net(11)
    seq = reach(net, spec, ReachConfig(partitions=4, workers=1, **budget))
    par = reach(net, spec, ReachConfig(partitions=4, workers=2, **budget))
    assert par.partitions_done == seq.partitions_done == done
    assert par.truncated == seq.truncated == bool(budget)
    assert par.set_count == seq.set_count
    assert par.counters == seq.counters
    # sets unpickled from the workers are as read-only as in-process ones
    assert not any(a.flags.writeable for s in par.sets
                   for a in (s.vertices, s.region_vertices))
    a = [sorted(dedup_vertex_set(s)) for s in seq.sets]
    b = [sorted(dedup_vertex_set(s)) for s in par.sets]
    assert a == b


def partition_box_reference(lo, hi, k):
    # the first builder: rescan every leaf for the leftmost widest, O(k^2)
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


def test_partition_box_matches_the_leftmost_widest_rule():
    # same leaves in the same order, ties included: zero-width and equal
    # widths tie often, uneven boxes rarely
    rng = np.random.default_rng(20261019)
    for _ in range(150):
        d, k = int(rng.integers(1, 5)), int(rng.integers(1, 120))
        lo = rng.uniform(-1, 1, d)
        width = rng.choice([0.0, 0.5, 1.0, 2.0], d) * rng.choice(
            [1.0, rng.uniform(0.5, 1.5)], d)
        got = _partition_box(lo, lo + width, k)
        want = partition_box_reference(lo, lo + width, k)
        assert len(got) == len(want)
        for (l1, h1), (l2, h2) in zip(got, want):
            assert l1.tobytes() == l2.tobytes()
            assert h1.tobytes() == h2.tobytes()


def test_many_partitions_respect_the_timeout():
    # building 4,000 partitions used to take 12.5 s before the first
    # deadline check
    net, spec = wide_relu_net()
    t0 = time.perf_counter()
    res = reach(net, spec, ReachConfig(partitions=4000, timeout=0.05))
    assert time.perf_counter() - t0 < 1.0
    assert res.truncated and res.partitions_done < 4000


@pytest.mark.parametrize("n", [1, 2, 50])
def test_partition_builder_stops_at_the_deadline(monkeypatch, n):
    # 100,000 leaves took 1.1 s to build on a 2-CPU machine before the
    # builder read the deadline; this clock passes it at its (n + 1)-th
    # read, and reach's own read sets it, so the builder makes n leaves and
    # the first partition expires
    net, spec = wide_relu_net()
    reads = itertools.count(1)
    clock = SimpleNamespace(monotonic=lambda: 0.0 if next(reads) <= n else 1.0,
                            perf_counter=time.perf_counter)
    monkeypatch.setattr(latreach.engine, "time", clock)
    monkeypatch.setattr(latreach.layers, "time", clock)
    built = []

    def build(*args):
        built.append(_partition_box(*args))
        return built[-1]

    monkeypatch.setattr(latreach.engine, "_partition_box", build)
    res = reach(net, spec, ReachConfig(partitions=100_000, timeout=0.05))
    assert len(built) == 1 and len(built[0]) == n
    assert res.truncated and res.set_count == 0
    assert res.partitions_done == 0


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps
    in process, so no process starts."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, cancel_futures=False):
        pass


def test_reach_pool_is_never_wider_than_the_partitions(monkeypatch):
    monkeypatch.setattr(RecordingPool, "made", [])
    # reach imports the pool class from here when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    net, spec = random_toy_net(11)
    for parts, made in ((1, []), (2, [2])):
        RecordingPool.made.clear()
        seq = reach(net, spec, ReachConfig(partitions=parts, workers=1))
        par = reach(net, spec, ReachConfig(partitions=parts, workers=8))
        assert RecordingPool.made == made
        assert (par.set_count, par.partitions_done, par.counters) == \
            (seq.set_count, seq.partitions_done, seq.counters)
        for a, b in zip(par.sets, seq.sets):
            assert a.vertices.tobytes() == b.vertices.tobytes()
            assert a.region_vertices.tobytes() == b.region_vertices.tobytes()


POOL_FREE_RUNS = """
import sys
import numpy as np
from latreach import InputSpec, LayerDesc, Network, ReachConfig, reach
net = Network((LayerDesc("affine", 2, 3, [[1, 0], [0, 1], [1, -1]], [0, 0, 0]),
               LayerDesc("relu", 3, 3),
               LayerDesc("affine", 3, 2, [[1, 1, 0], [0, 1, 1]], [0, 0])),
              2, ("a", "b"))
spec = InputSpec(np.zeros(2), (0, 1), 1.0)
for cfg in (ReachConfig(), ReachConfig(workers=4)):
    assert reach(net, spec, cfg).set_count > 1
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_single_worker_runs_never_import_the_pool():
    # a fresh interpreter: this one has imported the pool for other tests
    src = str(Path(latreach.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", POOL_FREE_RUNS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_reach_memory_per_set():
    # 269 exact sets; tracemalloc counts the bytes the finished sets hold:
    # 32.6 kB a set with int64 lattice arrays kept apart, 27.4 kB with one
    # int32 buffer per lattice and slotted sets, 16.6 kB with int16
    # buffers where they fit (every lattice here)
    net, spec = random_toy_net(13)
    reach(net, spec, ReachConfig())  # box lattice cache filled before
    tracemalloc.start()
    try:
        res = reach(net, spec, ReachConfig())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert res.set_count == 269
    assert held / res.set_count < 17_500


def test_fast_outputs_inside_exact(rng):
    for seed in (0, 2, 5, 9):
        net, spec = random_toy_net(seed)
        exact = reach(net, spec, ReachConfig())
        fast = reach(net, spec, ReachConfig(mode="fast", relaxation=0.3))
        assert 1 <= fast.set_count <= exact.set_count
        for s in fast.sets:
            assert in_union(exact.sets, s.vertices, 1e-6).all()
            assert in_union(exact.sets, s.region_vertices, 1e-6,
                            use_region=True).all()


def test_fast_full_relaxation_equals_exact():
    for seed in (1, 4):
        net, spec = random_toy_net(seed)
        exact = reach(net, spec, ReachConfig())
        fast = reach(net, spec, ReachConfig(mode="fast", relaxation=1.0))
        a = sorted(sorted(dedup_vertex_set(s)) for s in exact.sets)
        b = sorted(sorted(dedup_vertex_set(s)) for s in fast.sets)
        assert a == b


def test_fast_set_count_monotone_in_relaxation():
    net = relu_net(np.array([[1.0, 0.4], [-0.6, 1.0], [0.5, -0.8]]),
                   [0.05, -0.02, 0.0],
                   np.array([[1.0, -1.0, 0.5], [0.2, 0.7, -0.3]]),
                   [0.0, 0.0], ("a", "b"))
    spec = InputSpec(np.zeros(2), (0, 1), 1.0)
    counts = [reach(net, spec,
                    ReachConfig(mode="fast", relaxation=d)).set_count
              for d in (0.0, 0.34, 0.67, 1.0)]
    assert counts == sorted(counts)
    assert counts[0] == 1
    assert counts[-1] == reach(net, spec, ReachConfig()).set_count


def test_backtrack_no_constraints_returns_region():
    net, spec = random_toy_net(2)
    res = reach(net, spec, ReachConfig())
    s = res.sets[0]
    back = backtrack(s, [])
    assert back is not None
    assert np.array_equal(back.vertices, s.region_vertices)
    assert np.array_equal(back.region_vertices, s.region_vertices)


def test_backtrack_unreachable_constraint():
    net = relu_net([[2.0]], [0.0], [[0.5]], [0.0], ("y",))
    spec = InputSpec(np.zeros(1), (0,), 1.0)
    res = reach(net, spec, ReachConfig())
    # output never exceeds 1: y >= 2 excludes every set
    h = Hyperplane(np.array([1.0]), -2.0)
    assert all(backtrack(s, [h]) is None for s in res.sets)


def test_backtrack_threshold_endpoints():
    # y = 0.5 * relu(2x) = max(0, x) on x in [-1, 1]; y >= 0.5 <=> x >= 0.5
    net = relu_net([[2.0]], [0.0], [[0.5]], [0.0], ("y",))
    spec = InputSpec(np.zeros(1), (0,), 1.0)
    res = reach(net, spec, ReachConfig())
    assert res.set_count == 2
    h = Hyperplane(np.array([1.0]), -0.5)
    regions = [backtrack(s, [h]) for s in res.sets]
    kept = [b for b in regions if b is not None]
    assert len(kept) == 1
    xs = sorted(float(v) for v in kept[0].vertices[:, 0])
    assert xs == pytest.approx([0.5, 1.0], abs=1e-9)
    validate_set(kept[0])


def test_backtrack_two_constraints_box():
    net = Network((LayerDesc("affine", 2, 2, np.eye(2), np.zeros(2)),),
                  2, ("a", "b"))
    spec = InputSpec(np.zeros(2), (0, 1), 1.0)
    res = reach(net, spec, ReachConfig())
    hs = [Hyperplane(np.array([1.0, 0.0]), -0.25),
          Hyperplane(np.array([0.0, -1.0]), 0.5)]
    back = backtrack(res.sets[0], hs)
    got = {tuple(v) for v in np.round(back.vertices, 9)}
    assert got == {(0.25, -1.0), (1.0, -1.0), (0.25, 0.5), (1.0, 0.5)}


def test_result_dump_roundtrip():
    net, spec = random_toy_net(5)
    res = reach(net, spec, ReachConfig())
    doc = result_to_dict(res, "exact", 1.0)
    assert set(doc) == {"mode", "relaxation", "sets", "set_count",
                        "wall_time_s", "truncated"}
    assert doc["mode"] == "exact" and doc["set_count"] == res.set_count
    assert doc["truncated"] is False
    import json
    doc = json.loads(json.dumps(doc))  # must survive JSON serialization
    rebuilt = sets_from_dict(doc)
    assert len(rebuilt) == len(res.sets)
    for s, r in zip(res.sets, rebuilt):
        assert np.allclose(s.vertices, r.vertices, atol=0)
        assert np.allclose(s.region_vertices, r.region_vertices, atol=0)
        assert s.lattice.n_faces == r.lattice.n_faces
        validate_set(r)


def test_large_unrelated_coordinate_keeps_real_pieces():
    # neuron 2 is the constant 1e9; the 0.3-wide piece x < 0 must not be
    # measured against it and pruned as a sliver
    net = relu_net([[1.0], [-1.0], [0.0]], [0.0, 0.0, 1e9],
                   [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], np.zeros(2),
                   ("a", "b"))
    spec = InputSpec([0.7], (0,), 1.0)
    res = reach(net, spec, ReachConfig())
    assert (res.set_count, res.truncated) == (2, False)
    v = verify(net, spec, ReachConfig())
    assert (v.status, v.set_count) == ("UNSAFE", 2)
    assert int(np.argmax(forward(net, v.witnesses[0][0]))) == 1


def test_two_neuron_sliver_repro_keeps_both_pieces():
    net = relu_net([[1.0], [0.0]], [0.0, 1e9], np.eye(2), np.zeros(2),
                   ("a", "b"))
    res = reach(net, InputSpec([0.0], (0,), 1.0), ReachConfig())
    assert (res.set_count, res.truncated) == (2, False)
    assert sorted(s.vertices[:, 0].max() for s in res.sets) == [0.0, 1.0]


@pytest.mark.parametrize("B", [1e3, 1e6, 1e9])
def test_crossed_pool_on_large_offset_keeps_both_pieces(B):
    # the pool's coordinates are B +- 0.01 x, B, B: the cut x_0 - x_1
    # crosses the segment even where B dwarfs the 0.01 x spread, and both
    # pieces hold inputs of class 0 (x = +-1) while the baseline is class 1
    net = Network((LayerDesc("affine", 1, 4, [[0.01], [-0.01], [0.0], [0.0]],
                             [B] * 4),
                   LayerDesc("maxpool", 4, 1,
                             pools=(PoolSpec((0, 1, 2, 3), 0),)),
                   LayerDesc("affine", 1, 2, [[1.0], [0.0]],
                             [-B - 0.005, 0.0])), 1, ("a", "b"))
    spec = InputSpec([0.0], (0,), 1.0)
    res = reach(net, spec, ReachConfig())
    assert (res.set_count, res.truncated) == (2, False)
    v = verify(net, spec, ReachConfig())
    assert v.status == "UNSAFE"
    assert int(np.argmax(forward(net, v.witnesses[0][0]))) == 0
