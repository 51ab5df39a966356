"""Property tests for hyperplane splits, with weight on degenerate cuts.

Sets are boxes of dimension 1 to 5, optionally mapped by an affine map and
cut a few times; the final cut is a random plane, a plane through existing
vertices, or a plane parallel to a box facet or to an earlier cut.  Every
side that comes back must be a valid set on its closed half-space, and each
new vertex must sit on an edge of the input with its vertex row and its
region row interpolated by the same parameter.  Asking for one side, or
handing the split the caller's classification, changes no bit of a side.
The lattice validator is checked against a reference on one-edit
corruptions of such sets.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from latreach import (ZERO_TOL, FaceLattice, Hyperplane, LatticeError,
                      LatticeSet, affine_transform, build_box_lattice,
                      classify_vertices, lattice, layers,
                      split_by_hyperplane, validate_lattice, validate_set)
from latreach.lattice import coord_hyperplane, sides
from latreach.layers import NeuronSelection, _pair_signs
from conftest import hull_face_counts_3d, children_of, counts_by_dim

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _plane(draw, s, normals):
    """A cutting plane for ``s``, biased towards degenerate positions and
    towards planes through the set, which cross it unless it is flat."""
    d = s.ambient_dim
    V = s.vertices
    kind = draw(st.sampled_from(["interior", "interior", "random", "vertex",
                                 "two_vertices", "parallel"]))
    if kind == "random":
        a = np.array(draw(st.lists(st.floats(-1, 1), min_size=d,
                                   max_size=d)))
        b = draw(st.floats(-1, 1))
    elif kind == "interior":
        # through a convex combination of every vertex: a relative interior
        # point of the set
        a = np.array(draw(st.lists(st.integers(-2, 2), min_size=d,
                                   max_size=d)), dtype=float)
        if not np.any(a):
            a[draw(st.integers(0, d - 1))] = 1.0
        w = np.array(draw(st.lists(st.integers(1, 3), min_size=len(V),
                                   max_size=len(V))), dtype=float)
        b = -float(a @ (w @ V) / w.sum())
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
        if not np.any(a):  # before b, so the plane still holds vertex i
            a = np.eye(d)[0]
        b = -float(a @ V[i])
        if kind == "parallel" and draw(st.booleans()):
            b += draw(st.sampled_from([-0.5, 0.25, 1.0]))
    if not np.any(a):  # a random draw: the axis plane x0 = -b
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
            got = split_by_hyperplane(s, cls, keep)
        for x, y in zip(got, want):
            _assert_bitwise_equal(x, y)


@settings(PROPERTY, max_examples=400)  # about 3 in 5 draws cross
@given(split_cases())
def test_larger_side_is_read_from_the_masks(case):
    # each side keeps the rows not strictly on the other and gains one row
    # per crossing edge, so the masks tell which side has more vertices
    # (ties: positive), and a layer's split on two unselected coordinates
    # builds that side alone, bit for bit
    s, _, _, h = case
    cut = classify_vertices(s, h)
    if not (cut[1].any() and cut[2].any()):
        return
    pos, neg = split_by_hyperplane(s, cut)
    assert (pos.n_vertices - neg.n_vertices
            == cut[1].sum() - cut[2].sum())
    big = pos.n_vertices >= neg.n_vertices
    assert (cut[1].sum() >= cut[2].sum()) == big
    stats = {}
    with mock.patch.object(layers, "split_by_hyperplane",
                           wraps=split_by_hyperplane) as split:
        got = layers._split(s, cut, (0, 1), (True, True),
                            NeuronSelection([False, False]), stats)
    assert split.call_args.args[2] == [big, not big]
    assert stats == {"splits": 1}
    _assert_bitwise_equal(got[0], pos if big else None)
    _assert_bitwise_equal(got[1], None if big else neg)


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
        _, cut_pos, cut_neg = classify_vertices(s, coord_hyperplane(d, i, j))
        diff = s.vertices[:, i] - (0.0 if j is None else s.vertices[:, j])
        if j is not None:  # the maxpool pair-sign pass labels the same cut
            _, pos, neg = _pair_signs(s, np.array([i, j, j, j]))
            assert np.array_equal(cut_pos, pos[:, 0])
            assert np.array_equal(cut_neg, neg[:, 0])
    pos, neg = sides(diff, np.abs(diff))
    assert np.array_equal(cut_pos, pos) and np.array_equal(cut_neg, neg)


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
        vals, cut_pos, cut_neg = cls = classify_vertices(s, h)
        pos, neg = split_by_hyperplane(s, cls)
    assert np.isfinite(vals[cut_pos | cut_neg]).all()
    assert (pos is not None) == (cut_pos.any() or not cut_neg.any())
    assert (neg is not None) == cut_neg.any()
    for side in (pos, neg):
        assert side is None or np.isfinite(side.region_vertices).all()


def reference_validate_lattice(lat):
    """``validate_lattice`` written the long way: a breadth-first walk from
    the top face for reachability and a lexsort of (owner, child) pairs for
    duplicate children.  Every check and message is the validator's, in
    its order."""
    nf, nv = lat.n_faces, lat.n_vertices
    if np.unique(lat.ids).size != nf:
        raise LatticeError("duplicate face id")
    if np.any(np.diff(lat.dims) < 0):
        raise LatticeError("faces are not sorted by ascending dimension")
    if np.any(lat.dims[:nv] != 0):
        raise LatticeError("vertex positions contain non-vertex faces")
    if int(np.count_nonzero(lat.dims == lat.top_dim)) != 1:
        raise LatticeError("top face is not unique")
    if np.any(lat.ids >= lat.next_id):
        raise LatticeError("next_id is not past every face id")
    if lat.child_ptr[0] != 0:
        raise LatticeError("child pointers do not start at 0")
    if lat.child_ptr[-1] != lat.child_idx.size:
        raise LatticeError("child pointers do not end at the child count")
    deg = np.diff(lat.child_ptr.astype(np.int64))
    if np.any(deg[:nv] != 0):
        raise LatticeError("a 0-face has children")
    if nf > nv and np.any(deg[nv:] < 2):
        raise LatticeError("a k-face with k >= 1 has fewer than 2 children")
    if lat.child_idx.size:
        owner = np.repeat(np.arange(nf), deg)
        if np.any(lat.child_idx < 0):
            raise LatticeError("a child position is negative")
        if np.any(lat.child_idx >= owner):
            raise LatticeError("a child does not precede its parent")
        if np.any(lat.dims[lat.child_idx] != lat.dims[owner] - 1):
            raise LatticeError("containment skips a dimension")
        pair_order = np.lexsort((lat.child_idx, owner))
        po, pc = owner[pair_order], lat.child_idx[pair_order]
        if np.any((np.diff(po) == 0) & (np.diff(pc) == 0)):
            raise LatticeError("duplicate child within a face")
    reached = np.zeros(nf, dtype=bool)
    frontier = [nf - 1]
    reached[frontier] = True
    while frontier:
        kids = {int(c) for f in frontier for c in children_of(lat, f)}
        frontier = [c for c in kids if not reached[c]]
        reached[frontier] = True
    if not reached.all():
        raise LatticeError("some faces are unreachable from the top face")


@st.composite
def corrupted_lattices(draw):
    """An engine-made lattice with at most one edit: a child retargeted, a
    child entry dropped, a dim moved by one, an id duplicated, next_id
    lowered, a child position made negative or the first or last child
    pointer moved by one."""
    lat = draw(split_cases())[0].lattice
    ids, dims = lat.ids.copy(), lat.dims.copy()
    ptr, kids = lat.child_ptr.copy(), lat.child_idx.copy()
    next_id, nf = lat.next_id, lat.n_faces
    face = st.integers(0, nf - 1)
    entry = st.integers(0, kids.size - 1)
    # "none" last: Hypothesis leans towards the first choices
    edits = ["id", "next_id", "dim", "pointer", "none"]
    if kids.size:
        edits = ["retarget", "drop", "negative"] + edits
    edit = draw(st.sampled_from(edits))
    if edit == "retarget":
        # any position, or another child of the same face, which makes a
        # duplicate child
        j = draw(entry)
        o = np.searchsorted(ptr, j, side="right") - 1
        siblings = np.delete(kids[ptr[o]:ptr[o + 1]], j - ptr[o])
        kids[j] = draw(st.integers(0, nf) | st.sampled_from(siblings.tolist()))
    elif edit == "drop":
        # any entry, or one of the top face's, which orphans a facet
        j = draw(entry | st.integers(ptr[-2], ptr[-1] - 1))
        kids = np.delete(kids, j)
        ptr[np.searchsorted(ptr, j, side="right"):] -= 1
    elif edit == "negative":
        kids[draw(entry)] = draw(st.integers(-3, -1))
    elif edit == "dim":
        # any face, or one next to a boundary between dimensions: the
        # first and last vertex, the first face past them, the one below
        # the top
        nv = lat.n_vertices
        at = draw(face | st.sampled_from([0, nv - 1, min(nv, nf - 1),
                                          max(nf - 2, 0)]))
        dims[at] += draw(st.sampled_from([-1, 1]))
    elif edit == "id":
        ids[draw(face)] = ids[draw(face)]
    elif edit == "next_id":
        next_id = draw(st.integers(int(ids.max()) - 2, next_id - 1))
    elif edit == "pointer":
        ptr[draw(st.sampled_from([0, -1]))] += draw(st.sampled_from([-1, 1]))
    return FaceLattice(ids, dims, ptr, kids, next_id)


def _verdict(check, lat):
    try:
        check(lat)
    except LatticeError as e:
        return str(e)
    return None


@settings(PROPERTY, max_examples=500)
@given(corrupted_lattices())
def test_validator_matches_reference(lat):
    assert _verdict(validate_lattice, lat) == \
        _verdict(reference_validate_lattice, lat)
