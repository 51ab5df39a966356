"""Property tests for hyperplane splits, with weight on degenerate cuts.

Sets are boxes of dimension 1 to 5, optionally mapped by an affine map and
cut a few times; the final cut is a random plane, a plane through existing
vertices, or a plane parallel to a box facet or to an earlier cut.  Every
side that comes back must be a valid set on its closed half-space, and each
new vertex must sit on an edge of the input with its vertex row and its
region row interpolated by the same parameter.  Asking for one side, or
handing the split the caller's classification, changes no bit of a side.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from latreach import (ZERO_TOL, Hyperplane, LatticeSet, affine_transform,
                      build_box_lattice, classify_vertices, lattice,
                      split_by_hyperplane, validate_set)
from latreach.lattice import coord_hyperplane, sides
from conftest import hull_face_counts_3d, children_of, counts_by_dim

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _plane(draw, s, normals):
    """A cutting plane for ``s``, biased towards degenerate positions."""
    d = s.ambient_dim
    V = s.vertices
    kind = draw(st.sampled_from(["random", "vertex", "two_vertices",
                                 "parallel"]))
    if kind == "random":
        a = np.array(draw(st.lists(st.floats(-1, 1), min_size=d,
                                   max_size=d)))
        b = draw(st.floats(-1, 1))
    else:
        if kind == "parallel":
            a = draw(st.sampled_from(normals + [np.eye(d)[k]
                                                for k in range(d)]))
        else:
            a = np.array(draw(st.lists(st.integers(-2, 2), min_size=d,
                                       max_size=d)), dtype=float)
        i = draw(st.integers(0, len(V) - 1))
        if kind == "two_vertices":
            # make the plane contain vertex j as well as vertex i
            e = V[draw(st.integers(0, len(V) - 1))] - V[i]
            if e @ e > 0:
                a = a - (a @ e) / (e @ e) * e
        b = -float(a @ V[i])
        if kind == "parallel" and draw(st.booleans()):
            b += draw(st.sampled_from([-0.5, 0.25, 1.0]))
    if not np.any(a):
        a = np.eye(d)[0]
    return Hyperplane(a, b)


@st.composite
def split_cases(draw, dims=st.integers(1, 5), affine=True):
    """(set, W, c, plane) where the set's vertices are ``region @ W.T + c``."""
    d = draw(dims)
    lo = np.array(draw(st.lists(st.integers(-3, 0), min_size=d,
                                max_size=d)), dtype=float)
    hi = lo + np.array(draw(st.lists(st.integers(1, 3), min_size=d,
                                     max_size=d)), dtype=float)
    s = build_box_lattice(lo, hi)
    W, c = np.eye(d), np.zeros(d)
    if affine and draw(st.booleans()):
        # an integer map, possibly rank-deficient (a flattened image)
        m = draw(st.integers(1, d + 1))
        W = np.array(draw(st.lists(st.integers(-2, 2), min_size=m * d,
                                   max_size=m * d)),
                     dtype=float).reshape(m, d)
        c = np.array(draw(st.lists(st.integers(-1, 1), min_size=m,
                                   max_size=m)), dtype=float)
        s = affine_transform(s, W, c)
    normals = []
    for _ in range(draw(st.integers(0, 3))):
        h = _plane(draw, s, normals)
        normals.append(h.normal)
        sides = [x for x in split_by_hyperplane(s, h) if x is not None]
        s = sides[draw(st.integers(0, len(sides) - 1))]
    return s, W, c, _plane(draw, s, normals)


def _check_side(s, side, h, sign):
    validate_set(side)
    av = side.vertices @ h.normal
    tol = ZERO_TOL * np.maximum(1.0, np.abs(av) + abs(h.offset))
    assert np.all(sign * (av + h.offset) >= -tol)

    # every vertex is an old vertex or lies on a cut edge of the input, with
    # one interpolation parameter for its vertex and its region row
    lat, out = s.lattice, side.lattice
    pos_of_id = {int(i): p for p, i in enumerate(lat.ids)}
    for v in range(out.n_vertices):
        vid = int(out.ids[v])
        if vid < lat.next_id:
            p = pos_of_id[vid]
            assert np.array_equal(side.vertices[v], s.vertices[p])
            assert np.array_equal(side.region_vertices[v],
                                  s.region_vertices[p])
            continue
        edge = next(f for f in range(out.n_vertices, out.n_faces)
                    if out.ids[f] < lat.next_id and v in children_of(out, f))
        e0, e1 = children_of(lat, pos_of_id[int(out.ids[edge])])
        r0, r1 = s.region_vertices[e0], s.region_vertices[e1]
        t = ((side.region_vertices[v] - r0) @ (r1 - r0)
             / ((r1 - r0) @ (r1 - r0)))
        assert -1e-12 <= t <= 1 + 1e-12
        np.testing.assert_allclose(side.region_vertices[v],
                                   r0 + t * (r1 - r0), atol=1e-9)
        v0, v1 = s.vertices[e0], s.vertices[e1]
        np.testing.assert_allclose(side.vertices[v], v0 + t * (v1 - v0),
                                   atol=1e-9)


@PROPERTY
@given(split_cases())
def test_split_sides_are_valid_and_interpolated(case):
    s, W, c, h = case
    pos, neg = split_by_hyperplane(s, h)
    assert pos is not None or neg is not None
    for side, sign in ((pos, 1.0), (neg, -1.0)):
        if side is None or side is s:
            continue
        _check_side(s, side, h, sign)
        np.testing.assert_allclose(side.region_vertices @ W.T + c,
                                   side.vertices, atol=1e-9)


@PROPERTY
@given(split_cases(dims=st.just(1)))
def test_split_segments(case):
    # a 1-d set has one edge: a two-sided cut makes one new vertex, shared
    s, _, _, h = case
    pos, neg = split_by_hyperplane(s, h)
    if pos is not None and neg is not None:
        assert pos.n_vertices == neg.n_vertices == 2
        for side, sign in ((pos, 1.0), (neg, -1.0)):
            assert counts_by_dim(side.lattice) == {0: 2, 1: 1}
            _check_side(s, side, h, sign)
        assert int(pos.lattice.ids[1]) == int(neg.lattice.ids[1])


@PROPERTY
@given(split_cases(dims=st.just(3), affine=False))
def test_split_face_counts_match_hull_3d(case):
    s, _, _, h = case
    for side in split_by_hyperplane(s, h):
        if side is None:
            continue
        V = side.vertices
        gaps = np.linalg.norm(V[:, None] - V[None], axis=2)
        if gaps[np.triu_indices(len(V), 1)].min() < 1e-6:
            continue  # near-coincident vertices: qhull merges them
        assert counts_by_dim(side.lattice) == hull_face_counts_3d(V)


def _assert_bitwise_equal(got, want):
    if want is None:
        assert got is None
        return
    for name in ("ids", "dims", "child_ptr", "child_idx"):
        x, y = getattr(got.lattice, name), getattr(want.lattice, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert got.lattice.next_id == want.lattice.next_id
    for name in ("vertices", "region_vertices"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


@PROPERTY
@given(split_cases())
def test_one_sided_split_is_that_side_bit_for_bit(case):
    # asking for one side builds it exactly as the two-sided split does
    # and returns None for the other
    s, _, _, h = case
    both = split_by_hyperplane(s, h)
    for keep in ((True, False), (False, True)):
        got = split_by_hyperplane(s, h, keep)
        for side, want, kept in zip(got, both, keep):
            _assert_bitwise_equal(side, want if kept else None)
    assert split_by_hyperplane(s, h, (False, False)) == (None, None)


@PROPERTY
@given(split_cases())
def test_split_reuses_the_callers_classification(case):
    # a split handed the caller's classification classifies nothing itself
    # and returns what a split that classifies by itself does
    s, _, _, h = case
    cls = classify_vertices(s, h)
    for keep in ((True, True), (True, False), (False, True)):
        want = split_by_hyperplane(s, h, keep)
        with mock.patch.object(lattice, "classify_vertices",
                               side_effect=AssertionError("classified")):
            got = split_by_hyperplane(s, h, keep, cls)
        for x, y in zip(got, want):
            _assert_bitwise_equal(x, y)


def test_split_through_vertices_only():
    # the square's diagonal: no edge is crossed, so no new vertex; the
    # section is one new edge whose children are two existing vertices
    s = build_box_lattice([0.0, 0.0], [1.0, 1.0])
    pos, neg = split_by_hyperplane(s, Hyperplane([1.0, 1.0], -1.0))
    for side in (pos, neg):
        validate_set(side)
        assert counts_by_dim(side.lattice) == {0: 3, 1: 3, 2: 1}
        assert side.lattice.next_id == s.lattice.next_id + 1
    assert set(map(tuple, pos.vertices.tolist())) == {(1, 0), (0, 1), (1, 1)}
    assert set(map(tuple, neg.vertices.tolist())) == {(1, 0), (0, 1), (0, 0)}


@st.composite
def planted_sets(draw):
    """A split case's set with +-inf, nan and +-1e308 planted in its
    vertex matrix."""
    s = draw(split_cases())[0]
    v = s.vertices.copy()
    for at, x in draw(st.lists(st.tuples(
            st.integers(0, v.size - 1),
            st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308])),
            min_size=1, max_size=4)):
        v.flat[at] = x
    return LatticeSet(s.lattice, v, s.region_vertices)


@PROPERTY
@given(planted_sets(), st.data())
def test_coordinate_cut_reads_only_its_coordinates(s, data):
    # a cut on x_i - x_j (or x_i) labels each row by v_i - v_j alone, as
    # the ReLU sign pass and the settled-pool pass do; a non-finite entry
    # in another column changes nothing
    d = s.ambient_dim
    i = data.draw(st.integers(0, d - 1))
    j = data.draw(st.sampled_from([None] + [k for k in range(d) if k != i]))
    with np.errstate(invalid="ignore", over="ignore"):
        cls = classify_vertices(s, coord_hyperplane(d, i, j))
        diff = s.vertices[:, i] - (0.0 if j is None else s.vertices[:, j])
    pos, neg = sides(diff, np.abs(diff))
    assert np.array_equal(cls.labels, pos.astype(np.int8) - neg)


@PROPERTY
@given(planted_sets(), st.data())
def test_strictly_signed_values_are_finite(s, data):
    # a strictly signed value clears its zero band, so it is finite, and
    # a split interpolates every crossing edge with a finite parameter:
    # the region rows, finite here, stay finite on both sides
    d = s.ambient_dim
    entries = st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308]) | \
        st.floats(-1, 1)
    a = np.array(data.draw(st.lists(entries, min_size=d, max_size=d)))
    if not a.any():
        a[0] = 1.0
    h = Hyperplane(a, data.draw(entries))
    with np.errstate(invalid="ignore", over="ignore"):
        cls = classify_vertices(s, h)
        pos, neg = split_by_hyperplane(s, h, cls=cls)
    assert np.isfinite(cls.values[cls.labels != 0]).all()
    assert (pos is not None) == (cls.has_pos or not cls.has_neg)
    assert (neg is not None) == cls.has_neg
    for side in (pos, neg):
        assert side is None or np.isfinite(side.region_vertices).all()
