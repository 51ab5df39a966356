"""Lattice kernel tests: box construction, classification, splits, dumps."""

import itertools
import json
import math
import pickle

import numpy as np
import pytest

from latreach import (FaceLattice, LatticeSet, Hyperplane, LatticeError,
                      build_box_lattice, affine_transform, classify_vertices,
                      split_by_hyperplane, eliminate_dims, validate_lattice,
                      validate_set, set_to_dict, set_from_dict)
from latreach.lattice import coord_hyperplane, sides
from conftest import tetra_set, hull_face_counts_3d, children_of, counts_by_dim


def box_counts_oracle(d):
    """Independent face-count enumeration over {low, high, free}^d tags."""
    counts = {}
    for tags in itertools.product((0, 1, 2), repeat=d):
        k = sum(x == 2 for x in tags)
        counts[k] = counts.get(k, 0) + 1
    return counts


def test_box_lattice_counts():
    for d in range(1, 5):
        s = build_box_lattice([0.0] * d, [1.0] * d)
        validate_set(s)
        assert s.lattice.n_faces == 3 ** d
        assert s.lattice.n_vertices == 2 ** d
        assert counts_by_dim(s.lattice) == box_counts_oracle(d)
        # binomial structure: C(d,k) * 2^(d-k) faces of dim k
        for k, c in counts_by_dim(s.lattice).items():
            assert c == math.comb(d, k) * 2 ** (d - k)


def test_box_lattice_vertex_coords():
    s = build_box_lattice([-2.0, 3.0], [1.0, 4.0])
    got = sorted(map(tuple, s.vertices.tolist()))
    assert got == [(-2.0, 3.0), (-2.0, 4.0), (1.0, 3.0), (1.0, 4.0)]
    assert np.array_equal(s.vertices, s.region_vertices)


def test_box_lattice_errors():
    with pytest.raises(LatticeError):
        build_box_lattice([0.0, 0.0], [1.0])
    with pytest.raises(LatticeError):
        build_box_lattice([1.0], [0.0])
    with pytest.raises(LatticeError):
        build_box_lattice([0.0] * 11, [1.0] * 11)
    with pytest.raises(LatticeError):
        build_box_lattice([], [])
    # zero width is legal
    s = build_box_lattice([1.0, 2.0], [1.0, 3.0])
    validate_set(s)


def test_affine_transform():
    s = build_box_lattice([0.0, 0.0], [1.0, 2.0])
    W = np.array([[2.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([1.0, 0.0, 0.5])
    t = affine_transform(s, W, b)
    assert t.lattice is s.lattice
    assert np.allclose(t.vertices, s.vertices @ W.T + b)
    assert np.array_equal(t.region_vertices, s.region_vertices)
    with pytest.raises(LatticeError):
        affine_transform(s, np.eye(3), np.zeros(3))
    with pytest.raises(LatticeError):
        affine_transform(s, np.eye(2), np.zeros(3))


def test_classify_vertices_examples():
    s = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    cls = classify_vertices(s, Hyperplane([1.0, 0.0], -2.0))
    assert not cls.has_pos and cls.has_neg
    assert (cls.labels == -1).all()

    s2 = build_box_lattice([-1.0, -1.0], [1.0, 1.0])
    cls2 = classify_vertices(s2, Hyperplane([1.0, 0.0], 0.0))
    assert cls2.has_pos and cls2.has_neg
    assert (cls2.labels == 1).sum() == 2 and (cls2.labels == -1).sum() == 2

    # zero-width box sitting on the hyperplane: everything zero
    s3 = build_box_lattice([0.0, -1.0], [0.0, 1.0])
    cls3 = classify_vertices(s3, Hyperplane([1.0, 0.0], 0.0))
    assert not cls3.has_pos and not cls3.has_neg
    assert (cls3.labels == 0).all()


def test_classify_tolerance_is_relative():
    s = build_box_lattice([1e6], [2e6])
    # offset brings the value within the relative band at the low corner
    cls = classify_vertices(s, Hyperplane([1.0], -1e6 + 1e-4))
    assert cls.labels[list(map(tuple, s.vertices.tolist())).index((1e6,))] == 0


def test_split_square_basic():
    s = build_box_lattice([-1.0, -1.0], [1.0, 1.0])
    pos, neg = split_by_hyperplane(s, Hyperplane([1.0, 0.0], 0.0))
    for part in (pos, neg):
        validate_set(part)
        assert counts_by_dim(part.lattice) == {0: 4, 1: 4, 2: 1}
    assert sorted(map(tuple, pos.vertices.tolist())) == \
        [(0.0, -1.0), (0.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    assert sorted(map(tuple, neg.vertices.tolist())) == \
        [(-1.0, -1.0), (-1.0, 1.0), (0.0, -1.0), (0.0, 1.0)]
    # new vertices are shared: same ids on both sides
    new_pos = set(pos.lattice.ids.tolist()) - set(s.lattice.ids.tolist())
    new_neg = set(neg.lattice.ids.tolist()) - set(s.lattice.ids.tolist())
    assert new_pos == new_neg and len(new_pos) == 3  # 2 vertices + section edge
    assert pos.lattice.next_id == neg.lattice.next_id


def test_split_one_sided_returns_original():
    s = build_box_lattice([1.0, 1.0], [2.0, 2.0])
    pos, neg = split_by_hyperplane(s, Hyperplane([1.0, 0.0], 0.0))
    assert pos is s and neg is None
    pos, neg = split_by_hyperplane(s, Hyperplane([-1.0, 0.0], 0.0))
    assert pos is None and neg is s


def test_split_all_zero_goes_positive():
    s = build_box_lattice([0.0, -1.0], [0.0, 1.0])
    pos, neg = split_by_hyperplane(s, Hyperplane([1.0, 0.0], 0.0))
    assert pos is s and neg is None


def test_split_through_vertices():
    # diagonal through two opposite corners of the unit square
    s = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    pos, neg = split_by_hyperplane(s, Hyperplane([1.0, -1.0], 0.0))
    for part, extra in ((pos, (1.0, 0.0)), (neg, (0.0, 1.0))):
        validate_set(part)
        assert counts_by_dim(part.lattice) == {0: 3, 1: 3, 2: 1}
        vs = sorted(map(tuple, part.vertices.tolist()))
        assert (0.0, 0.0) in vs and (1.0, 1.0) in vs and extra in vs
    # the zero corners are shared unduplicated: same vertex ids
    shared_pos = set(pos.lattice.ids[:3].tolist())
    shared_neg = set(neg.lattice.ids[:3].tolist())
    assert len(shared_pos & shared_neg) == 2


def test_split_interpolation_parameter():
    s = build_box_lattice([0.0], [4.0])
    pos, neg = split_by_hyperplane(s, Hyperplane([1.0], -1.0))
    assert sorted(pos.vertices[:, 0].tolist()) == [1.0, 4.0]
    assert sorted(neg.vertices[:, 0].tolist()) == [0.0, 1.0]
    # same parameter applied to the region side
    assert sorted(pos.region_vertices[:, 0].tolist()) == [1.0, 4.0]


def test_split_region_tracks_input_space():
    s = build_box_lattice([0.0, 0.0], [2.0, 2.0])
    t = affine_transform(s, np.array([[1.0, 1.0], [1.0, -1.0]]),
                         np.array([0.0, 0.0]))
    pos, neg = split_by_hyperplane(t, Hyperplane([0.0, 1.0], 0.0))  # x=y line
    validate_set(pos)
    # region vertices stay in the original square
    for part in (pos, neg):
        r = part.region_vertices
        assert (r >= -1e-12).all() and (r <= 2.0 + 1e-12).all()
    # output vertex = affine image of its region vertex, row by row
    W = np.array([[1.0, 1.0], [1.0, -1.0]])
    for part in (pos, neg):
        assert np.allclose(part.vertices, part.region_vertices @ W.T, atol=1e-12)


def test_split_commutes_with_affine_on_regions(rng):
    # transform-then-split equals split-by-pullback-then-transform, region-wise
    for trial in range(10):
        d = int(rng.integers(2, 5))
        s = build_box_lattice(rng.uniform(-2, 0, d), rng.uniform(0.5, 2, d))
        W = rng.normal(size=(d, d)) + np.eye(d) * 2.0
        b = rng.normal(size=d)
        a = rng.normal(size=d)
        c = float(rng.normal() * 0.2)

        t = affine_transform(s, W, b)
        p1, n1 = split_by_hyperplane(t, Hyperplane(a, c))
        pulled = Hyperplane(W.T @ a, float(a @ b) + c)
        p2, n2 = split_by_hyperplane(s, Hyperplane(pulled.normal, pulled.offset))
        for x1, x2 in ((p1, p2), (n1, n2)):
            if x1 is None or x2 is None:
                assert x1 is None and x2 is None
                continue
            r1 = sorted(map(tuple, np.round(x1.region_vertices, 9).tolist()))
            r2 = sorted(map(tuple, np.round(x2.region_vertices, 9).tolist()))
            assert r1 == r2


def test_split_new_vertex_count_matches_cut_edges(rng):
    # new-vertex count equals the number of strictly crossing 1-faces
    for trial in range(20):
        d = int(rng.integers(2, 5))
        s = build_box_lattice(rng.uniform(-2, -0.1, d), rng.uniform(0.1, 2, d))
        W = rng.normal(size=(d, d)) + np.eye(d)
        s = affine_transform(s, W, rng.normal(size=d) * 0.1)
        h = Hyperplane(rng.normal(size=d), float(rng.normal() * 0.1))
        cls = classify_vertices(s, h)
        if not (cls.has_pos and cls.has_neg):
            continue
        lat = s.lattice
        lo, hi = lat.dim_range(1)
        crossing = 0
        for e in range(lo, hi):
            ch = children_of(lat, e)
            a, b = cls.labels[ch[0]], cls.labels[ch[1]]
            if a * b < 0:
                crossing += 1
        pos, neg = split_by_hyperplane(s, h)
        validate_set(pos)
        validate_set(neg)
        new_ids = set(pos.lattice.ids.tolist()) - set(lat.ids.tolist())
        n_new_vertices = sum(
            1 for p in range(pos.lattice.n_vertices)
            if int(pos.lattice.ids[p]) in new_ids)
        assert n_new_vertices == crossing


def test_split_sides_respect_hyperplane(rng):
    for trial in range(20):
        d = int(rng.integers(2, 6))
        s = build_box_lattice(rng.uniform(-2, -0.1, d), rng.uniform(0.1, 2, d))
        a = rng.normal(size=d)
        c = float(rng.normal() * 0.3)
        h = Hyperplane(a, c)
        pos, neg = split_by_hyperplane(s, h)
        if pos is not None:
            vals = pos.vertices @ h.normal + h.offset
            assert (vals >= -1e-8).all()
        if neg is not None:
            vals = neg.vertices @ h.normal + h.offset
            assert (vals <= 1e-8).all()


def test_split_euler_characteristic(rng):
    # split outputs of a 3-box satisfy sum (-1)^k f_k = 1
    for trial in range(10):
        s = build_box_lattice(rng.uniform(-2, -0.5, 3), rng.uniform(0.5, 2, 3))
        h = Hyperplane(rng.normal(size=3), float(rng.normal()))
        pos, neg = split_by_hyperplane(s, h)
        for part in (pos, neg):
            if part is None:
                continue
            validate_set(part)
            chi = sum((-1) ** k * c
                      for k, c in counts_by_dim(part.lattice).items())
            assert chi == 1


def test_tetra_split_against_hull_oracle():
    s = tetra_set()
    validate_set(s)
    assert s.lattice.n_faces == 15
    pos, neg = split_by_hyperplane(s, Hyperplane([1.0, 1.0, 1.0], -1.5))
    validate_set(pos)
    validate_set(neg)
    assert pos.n_vertices == 4
    assert neg.n_vertices == 6
    assert counts_by_dim(pos.lattice) == hull_face_counts_3d(pos.vertices)
    assert counts_by_dim(neg.lattice) == hull_face_counts_3d(neg.vertices)


def test_eliminate_dims():
    s = build_box_lattice([1.0, 2.0], [3.0, 4.0])
    e = eliminate_dims(s, [1, 0])
    assert np.array_equal(e.vertices, s.vertices[:, [1, 0]])
    with pytest.raises(LatticeError):
        eliminate_dims(s, [])
    with pytest.raises(LatticeError):
        eliminate_dims(s, [2])


def test_validator_catches_corruption():
    s = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    lat = s.lattice
    # duplicate ids
    bad = FaceLattice(np.zeros(lat.n_faces, dtype=np.int64), lat.dims,
                      lat.child_ptr, lat.child_idx, lat.next_id)
    with pytest.raises(LatticeError):
        validate_lattice(bad)
    # skipped dimension in containment
    dims = lat.dims.copy()
    dims[-1] = 3
    bad2 = FaceLattice(lat.ids, dims, lat.child_ptr, lat.child_idx,
                       lat.next_id)
    with pytest.raises(LatticeError):
        validate_lattice(bad2)
    # vertex count mismatch in the set
    with pytest.raises(LatticeError):
        validate_set(LatticeSet(lat, s.vertices[:2], s.region_vertices[:2]))


def test_hyperplane_validation():
    with pytest.raises(LatticeError):
        Hyperplane([0.0, 0.0], 1.0)
    with pytest.raises(LatticeError):
        Hyperplane([], 0.0)
    # a non-finite normal or offset has no side to put a vertex on
    for normal, offset in [([np.inf, 0.0], 0.0), ([np.nan, 1.0], 0.0),
                           ([1.0, 0.0], np.inf), ([1.0, 0.0], -np.inf),
                           ([1.0, 0.0], np.nan)]:
        with pytest.raises(LatticeError, match="finite"):
            Hyperplane(normal, offset)


def test_coord_hyperplane():
    h = coord_hyperplane(4, 2)
    assert h.normal.tolist() == [0.0, 0.0, 1.0, 0.0] and h.offset == 0.0
    h = coord_hyperplane(3, 2, 0, -0.5)
    assert h.normal.tolist() == [-1.0, 0.0, 1.0] and h.offset == -0.5
    with pytest.raises(LatticeError, match="nonzero"):
        coord_hyperplane(3, 1, 1)


def test_sides_zero_band():
    # the band is ZERO_TOL * max(1, scale): absolute below scale 1
    v = np.array([2e-9, -2e-9, 5e-10, 2e-9, -3e-9, np.nan])
    pos, neg = sides(v, np.array([0.0, 0.0, 0.0, 3.0, 2.0, 1.0]))
    assert pos.tolist() == [True, False, False, False, False, False]
    assert neg.tolist() == [False, True, False, False, True, False]


def test_lattice_sizes_follow_dims():
    s = build_box_lattice([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    lat = s.lattice
    assert (lat.n_vertices, lat.top_dim) == (8, 3)
    # a bare point: one 0-face that is also the top face
    pt = FaceLattice([7], [0], [0, 0], [], 8)
    assert (pt.n_vertices, pt.top_dim, pt.n_faces) == (1, 0, 1)
    validate_lattice(pt)
    with pytest.raises(LatticeError, match="empty lattice"):
        FaceLattice([], [], [0], [], 0)
    with pytest.raises(LatticeError, match="empty lattice"):
        set_from_dict({"faces": [], "vertices": [], "region": []})
    with pytest.raises(LatticeError, match="inconsistent array sizes"):
        FaceLattice([7], [0], [0], [], 8)


def test_lattice_values_must_fit_int32():
    lat = build_box_lattice([0.0], [1.0]).lattice
    args = [lat.ids, lat.dims, lat.child_ptr, lat.child_idx, lat.next_id]
    # an id, a pointer, an index or next_id past int32 raises, never wraps
    for i, value in [(0, [0, 1, 2 ** 31]), (2, [0, 0, 0, 2 ** 31]),
                     (3, [0, -2 ** 31 - 1]), (4, 2 ** 31)]:
        with pytest.raises(LatticeError, match="int32"):
            FaceLattice(*args[:i], value, *args[i + 1:])
    # in-range input of any integer type is stored as read-only int32
    wide = FaceLattice(*(np.asarray(a, dtype=np.int64) for a in args[:4]),
                       lat.next_id)
    for name in ("ids", "dims", "child_ptr", "child_idx"):
        x, y = getattr(wide, name), getattr(lat, name)
        assert x.dtype == np.int32 and np.array_equal(x, y), name
        assert not x.flags.writeable, name


def test_split_ids_must_fit_int32():
    # cutting the square adds 3 faces (2 vertices and the section edge),
    # numbered from next_id: one short of room raises on every side
    # request, and with room the last new id is the int32 maximum
    s = build_box_lattice([-1.0, -1.0], [1.0, 1.0])
    lat, h = s.lattice, Hyperplane([1.0, 0.0], 0.0)

    def at(next_id):
        near = FaceLattice(lat.ids, lat.dims, lat.child_ptr, lat.child_idx,
                           next_id)
        return LatticeSet(near, s.vertices, s.region_vertices)

    for keep in ((True, True), (True, False), (False, True)):
        with pytest.raises(LatticeError, match="int32"):
            split_by_hyperplane(at(2 ** 31 - 3), h, keep)
    pos, neg = split_by_hyperplane(at(2 ** 31 - 4), h)
    for side in (pos, neg):
        assert side.lattice.next_id == 2 ** 31 - 1
        assert side.lattice.ids.max() == 2 ** 31 - 2


def test_split_set_pickles_unchanged():
    # worker processes send sets back pickled
    s = build_box_lattice([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    pos, _ = split_by_hyperplane(s, Hyperplane([1.0, 1.0, 1.0], -1.2))
    back = pickle.loads(pickle.dumps(pos))
    for name in ("ids", "dims", "child_ptr", "child_idx"):
        x, y = getattr(back.lattice, name), getattr(pos.lattice, name)
        assert x.dtype == y.dtype == np.int32 and np.array_equal(x, y), name
    assert back.lattice.next_id == pos.lattice.next_id
    for name in ("vertices", "region_vertices"):
        x, y = getattr(back, name), getattr(pos, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert not x.flags.writeable, name


def test_dump_roundtrip(rng):
    s = build_box_lattice([-1.0, -1.0, -1.0], [1.0, 2.0, 0.5])
    pos, neg = split_by_hyperplane(s, Hyperplane(rng.normal(size=3), 0.1))
    d = set_to_dict(pos)
    back = set_from_dict(d)
    validate_set(back)
    assert np.allclose(back.vertices, pos.vertices)
    assert np.allclose(back.region_vertices, pos.region_vertices)
    assert counts_by_dim(back.lattice) == counts_by_dim(pos.lattice)
    # same children structure under the id relabeling
    by_id_orig = {int(pos.lattice.ids[f]):
                  sorted(int(pos.lattice.ids[c])
                         for c in children_of(pos.lattice, f))
                  for f in range(pos.lattice.n_faces)}
    by_id_back = {int(back.lattice.ids[f]):
                  sorted(int(back.lattice.ids[c])
                         for c in children_of(back.lattice, f))
                  for f in range(back.lattice.n_faces)}
    assert by_id_orig == by_id_back


def test_dump_text_is_pinned():
    # the --out format: faces keyed id/dim/children in that order, ints as
    # ints, vertex floats as repr'd by json
    s = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    _, neg = split_by_hyperplane(s, Hyperplane([0.3, 0.7], -0.2))
    assert json.dumps(set_to_dict(neg)) == (
        '{"faces": [{"id": 0, "dim": 0, "children": []}, '
        '{"id": 9, "dim": 0, "children": []}, '
        '{"id": 10, "dim": 0, "children": []}, '
        '{"id": 4, "dim": 1, "children": [0, 9]}, '
        '{"id": 6, "dim": 1, "children": [0, 10]}, '
        '{"id": 11, "dim": 1, "children": [9, 10]}, '
        '{"id": 8, "dim": 2, "children": [4, 6, 11]}], '
        '"vertices": [[0.0, 0.0], [0.0, 0.28571428571428575], '
        '[0.6666666666666667, 0.0]], '
        '"region": [[0.0, 0.0], [0.0, 0.28571428571428575], '
        '[0.6666666666666667, 0.0]]}')


def test_dump_reload_dump_is_identical(rng):
    s = build_box_lattice([-1.0] * 3, [1.0] * 3)
    cur = [s]
    for step in range(5):
        a = rng.normal(size=3)
        # every other cut passes through a vertex of the first set
        b = -float(a @ cur[0].vertices[0]) if step % 2 else rng.normal() * 0.3
        cur = [x for t in cur for x in split_by_hyperplane(t, Hyperplane(a, b))
               if x is not None]
    assert len(cur) >= 4
    for t in cur:
        text = json.dumps(set_to_dict(t))
        assert json.dumps(set_to_dict(set_from_dict(json.loads(text)))) == text


@pytest.mark.parametrize("bad_child", [5, 99, -1])
def test_dump_unknown_child_id_rejected(bad_child):
    # the split square has ids 0, 4, 6, 8-11: 5 falls between two of them
    s = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    _, neg = split_by_hyperplane(s, Hyperplane([0.3, 0.7], -0.2))
    d = set_to_dict(neg)
    d["faces"][-1]["children"][1] = bad_child
    with pytest.raises(LatticeError, match="child id"):
        set_from_dict(d)


@pytest.mark.parametrize("key, value", [
    ("id", 8.7), ("dim", 2.5), ("children", 5.2),
    ("id", True), ("dim", np.False_), ("children", True)])
def test_dump_non_integral_values_rejected(key, value):
    # an int64 cast would read 8.7 back as 8 and True as 1
    d = set_to_dict(build_box_lattice([0.0, 0.0], [1.0, 1.0]))
    top = d["faces"][-1]  # id 8, dim 2, children 4-7
    if key == "children":
        top["children"][1] = value
    else:
        top[key] = value
    with pytest.raises(LatticeError, match="must be an integer"):
        set_from_dict(d)


def test_dump_integral_floats_read_as_ints():
    box = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    d = set_to_dict(box)
    top = d["faces"][-1]
    top["id"], top["dim"] = 8.0, 2.0
    top["children"] = [float(c) for c in top["children"]]
    back = set_from_dict(d)
    assert back.lattice.ids.tolist() == box.lattice.ids.tolist()
    assert back.lattice.child_idx.tolist() == box.lattice.child_idx.tolist()


def test_dump_duplicate_face_id_rejected():
    d = set_to_dict(build_box_lattice([0.0, 0.0], [1.0, 1.0]))
    d["faces"][5]["id"] = d["faces"][4]["id"]
    with pytest.raises(LatticeError, match="duplicate"):
        set_from_dict(d)


def test_repeated_splits_keep_consistency(rng):
    # a chain of random splits preserves every structural invariant
    s = build_box_lattice([-1.0] * 4, [1.0] * 4)
    cur = [s]
    for step in range(6):
        h = Hyperplane(rng.normal(size=4), float(rng.normal() * 0.3))
        nxt = []
        for t in cur:
            pos, neg = split_by_hyperplane(t, h)
            nxt.extend(x for x in (pos, neg) if x is not None)
        cur = nxt
        for t in cur:
            validate_set(t)
    assert len(cur) >= 2
