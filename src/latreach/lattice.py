"""Face-lattice polytopes: box construction, affine maps, hyperplane splits.

A bounded convex set is carried around as a pair: the combinatorial face
lattice (a DAG of faces graded by dimension) and the coordinates of its
vertices.  Affine maps only touch vertex values, so all combinatorial work
happens in :func:`split_by_hyperplane`, which rebuilds the two half-space
restrictions of a set without ever forming an H-representation or calling an
LP solver.

Conventions used throughout:

* faces are stored sorted by ascending dimension, so a child always sits at a
  lower array position than its parent, and position ``i < n_vertices`` is
  the 0-face of vertex row ``i``;
* every set also carries ``region_vertices``, the pre-images of its vertices
  in the space the analysis started from; the two matrices stay in
  one-to-one row correspondence because splits interpolate both with the
  same parameter;
* inside ``reach`` a set is a :class:`MappedSet` instead: its region rows
  in only the k perturbed input coordinates and one affine map of them, so
  a layer computes the vertex values it reads from the map
  (``MappedSet.columns``) and a split interpolates only the k-wide rows;
  ``reach`` builds each output's vertex rows once, from its map, when it
  turns the set into a LatticeSet (``model.unmap_set``);
* a vertex counts as lying on a hyperplane when ``|a.v + b|`` is within
  ``ZERO_TOL * max(1, |a.v| + |b|)``, where ``a.v`` sums only the terms
  whose normal entry is nonzero: a non-finite coordinate outside a cut
  does not change its labels, and a coordinate cut reads ``v_i - v_j``
  (or ``v_i``) exactly;
* a set lying entirely on a hyperplane goes to the positive side.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .affine import Conv, affine_rows

ZERO_TOL = 1e-9
MAX_BOX_DIM = 10
_I16, _I32 = np.iinfo(np.int16), np.iinfo(np.int32)

class LatticeError(ValueError):
    """Raised when a lattice or set violates a structural invariant."""


def as_int(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integral value raises
    LatticeError naming ``what`` instead of being truncated."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or isinstance(value, (bool, np.bool_)):
        raise LatticeError(f"{what} must be an integer, got {value!r}")
    return n


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane ``{x : a.x + b = 0}`` with normal ``a``."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = np.ascontiguousarray(self.normal, dtype=float)
        b = float(self.offset)
        if a.ndim != 1 or a.size == 0:
            raise LatticeError("hyperplane normal must be a non-empty vector")
        if not np.any(a):
            raise LatticeError("hyperplane normal must be nonzero")
        if not (np.isfinite(a).all() and np.isfinite(b)):
            raise LatticeError("hyperplane normal and offset must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", b)


def coord_hyperplane(ambient_dim: int, i: int, j: int | None = None,
                     offset: float = 0.0) -> Hyperplane:
    """``x[i] - x[j] + offset = 0``, or ``x[i] + offset = 0`` without ``j``;
    ``i == j`` leaves a zero normal, which Hyperplane rejects."""
    a = np.zeros(ambient_dim)
    a[i] = 1.0
    if j is not None:
        a[j] -= 1.0
    return Hyperplane(a, offset)


def sides(values, scale):
    """``(pos, neg)`` masks of ``values`` strictly above and strictly below
    the zero band ``ZERO_TOL * max(1, scale)``."""
    tol = ZERO_TOL * np.maximum(1.0, scale)
    return values > tol, values < -tol


def _buffer_dtype(size, next_id, wide):
    """The integer type of a lattice buffer of ``size`` entries: int16 when
    ``size`` and ``next_id`` fit it and no stored value is known to need
    more (``wide``), else int32; past int32 raises LatticeError.  Ids lie
    below ``next_id`` and positions and pointers below ``size``, so the
    first two bound every value a reach or a dump can store."""
    if size > _I32.max or not _I32.min <= next_id <= _I32.max:
        raise LatticeError("lattice does not fit int32")
    if wide or size > _I16.max or not _I16.min <= next_id <= _I16.max:
        return np.int32
    return np.int16


class FaceLattice:
    """Combinatorial face DAG of a bounded convex set.

    Children are stored in CSR form over face positions.  Faces are sorted by
    ascending dimension with the single top face last, so ``dims`` gives
    ``n_vertices`` (the 0-faces) and ``top_dim``; ``ids`` are stable
    across splits (kept faces keep their id, new faces draw from
    ``next_id``).  ``ids``, ``dims``, ``child_ptr`` and ``child_idx`` are
    read-only views of one integer buffer: int16 when every value, the
    buffer length and ``next_id`` fit it, else int32; a value or
    ``next_id`` outside int32 raises LatticeError.  Instances are
    immutable once built.
    """

    __slots__ = ("_buf", "n_faces", "n_vertices", "top_dim", "next_id")

    def __init__(self, ids, dims, child_ptr, child_idx, next_id):
        parts = [np.asarray(a) for a in (ids, dims, child_ptr, child_idx)]
        nf = parts[0].size
        if parts[1].size != nf or parts[2].size != nf + 1:
            raise LatticeError("inconsistent array sizes")
        if nf == 0:
            raise LatticeError("empty lattice")
        lo = min(int(a.min()) for a in parts if a.size)
        hi = max(int(a.max()) for a in parts if a.size)
        if lo < _I32.min or hi > _I32.max:
            raise LatticeError("lattice does not fit int32")
        next_id = int(next_id)
        size = 3 * nf + 1 + parts[3].size
        dtype = _buffer_dtype(size, next_id,
                              wide=lo < _I16.min or hi > _I16.max)
        self._adopt(np.concatenate(parts, dtype=dtype, casting="unsafe"),
                    nf, next_id)

    @classmethod
    def _of_buffer(cls, buf, n_faces, next_id):
        """A lattice over a ``buf`` already laid out as below, with no
        value scan (the split builds one, and a pickle holds one)."""
        lat = object.__new__(cls)
        lat._adopt(buf, n_faces, next_id)
        return lat

    def _adopt(self, buf, n_faces, next_id):
        buf.setflags(write=False)
        self._buf, self.n_faces, self.next_id = buf, n_faces, next_id
        self.top_dim = int(self.dims[-1])
        self.n_vertices = int(self.dims.searchsorted(1))

    # [ids | dims | child_ptr | child_idx], the first three n_faces long
    # (child_ptr one more); views are made on access, not stored
    ids = property(lambda self: self._buf[:self.n_faces])
    dims = property(lambda self: self._buf[self.n_faces:2 * self.n_faces])
    child_ptr = property(
        lambda self: self._buf[2 * self.n_faces:3 * self.n_faces + 1])
    child_idx = property(lambda self: self._buf[3 * self.n_faces + 1:])

    def dim_range(self, k: int):
        """Half-open position range of the faces of dimension ``k``."""
        lo, hi = self.dims.searchsorted((k, k + 1))
        return int(lo), int(hi)

    def __reduce__(self):
        return FaceLattice._of_buffer, (self._buf, self.n_faces, self.next_id)

    def __repr__(self):
        return (f"FaceLattice(n_faces={self.n_faces}, "
                f"n_vertices={self.n_vertices}, top_dim={self.top_dim})")


@dataclass(frozen=True, slots=True)
class LatticeSet:
    """A convex set: face lattice plus vertex coordinates.

    ``vertices`` lives in the current analysis space, ``region_vertices``
    holds the same vertices mapped back to the original input space (the
    V-representation of the linear region this set came from).  Row ``i`` of
    both matrices belongs to the 0-face at lattice position ``i``.
    """

    lattice: FaceLattice
    vertices: np.ndarray
    region_vertices: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=float)
        r = np.ascontiguousarray(self.region_vertices, dtype=float)
        v.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "region_vertices", r)

    def __setstate__(self, state):
        # the dataclass pickles the fields in order; unpickling would skip
        # __post_init__ and leave the arrays writable
        self.__init__(*state)

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def columns(self, cols, minus=None) -> np.ndarray:
        """The vertex rows' values in coordinates ``cols`` (an index
        array of any shape), less those in ``minus`` (same shape) when
        given, shaped ``(n_vertices, *cols.shape)``."""
        if minus is None:
            return self.vertices[:, cols]
        return self.vertices[:, cols] - self.vertices[:, minus]

    @property
    def rows(self) -> tuple:
        """The row matrices a split interpolates: the stored rows."""
        return self.vertices, self.region_vertices

    def with_rows(self, lattice, rows) -> LatticeSet:
        """The set over ``lattice`` whose stored rows are ``rows``."""
        return LatticeSet(lattice, *rows)


class MappedSet:
    """A set as ``reach`` carries it: its lattice, its region rows in only
    the k perturbed input coordinates, and one affine map of them.

    ``M`` holds the map ``[A | c]`` transposed, shape ``(k + 1, width)``:
    the vertex rows are ``region @ M[:k] + M[k]`` and are never stored.  A
    layer maps ``M`` once per set, zeroes or selects its columns, and a
    split interpolates only the k-wide ``region`` and hands ``M`` to both
    sides.  A coordinate whose column of ``M[:k]`` is zero is the constant
    ``M[k]`` at every vertex, exactly.  Both arrays are read-only, as
    sets share them.
    """

    __slots__ = ("lattice", "region", "M")

    def __init__(self, lattice: FaceLattice, region, M):
        self.lattice = lattice
        self.region, self.M = (np.ascontiguousarray(a, dtype=float)
                               for a in (region, M))
        self.region.setflags(write=False)
        self.M.setflags(write=False)

    @property
    def ambient_dim(self) -> int:
        return self.M.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.region.shape[0]

    def columns(self, cols, minus=None) -> np.ndarray:
        """As :meth:`LatticeSet.columns`, computed from the map: the
        difference of two coordinates is taken on their map columns, so
        two coordinates with equal columns differ by exactly 0."""
        M = self.M[:, cols]
        if minus is not None:
            M -= self.M[:, minus]
        flat = M.reshape(len(M), -1)
        return (self.region @ flat[:-1] + flat[-1]).reshape(
            (self.n_vertices,) + M.shape[1:])

    @property
    def rows(self) -> tuple:
        return (self.region,)

    def with_rows(self, lattice, rows) -> MappedSet:
        return MappedSet(lattice, *rows, self.M)


@functools.lru_cache(maxsize=MAX_BOX_DIM)
def _box_structure(d: int):
    """``(lattice, high)`` of the d-box: its FaceLattice and the
    ``(2^d, d)`` mask of the coordinates each vertex takes at the upper
    bound.  Both are read-only and shared by every box of dimension d.
    """
    LOW, HIGH, FREE = 0, 1, 2
    tags = sorted(itertools.product((LOW, HIGH, FREE), repeat=d),
                  key=lambda t: (sum(x == FREE for x in t), t))
    pos = {t: i for i, t in enumerate(tags)}

    dims = np.fromiter((sum(x == FREE for x in t) for t in tags),
                       dtype=np.int32, count=len(tags))
    children = []
    for t in tags:
        kids = []
        for axis, x in enumerate(t):
            if x == FREE:
                for rep in (LOW, HIGH):
                    kids.append(pos[t[:axis] + (rep,) + t[axis + 1:]])
        children.append(kids)
    ptr = np.zeros(len(tags) + 1, dtype=np.int32)
    ptr[1:] = np.cumsum([len(k) for k in children])
    idx = np.fromiter(itertools.chain.from_iterable(children),
                      dtype=np.int32, count=int(ptr[-1]))

    lat = FaceLattice(np.arange(len(tags), dtype=np.int32), dims, ptr, idx,
                      len(tags))
    high = np.array(tags[:lat.n_vertices]) == HIGH
    high.setflags(write=False)
    return lat, high


def build_box_lattice(lower, upper) -> LatticeSet:
    """Full face lattice of the axis-aligned box ``[lower, upper]``.

    Faces correspond to tag tuples in {low, high, free}^d, so the lattice has
    exactly 3^d faces and 2^d vertices.  Zero-width coordinates are allowed;
    ``d`` is capped at ``MAX_BOX_DIM`` because the lattice is exponential in d.
    """
    lo = np.ascontiguousarray(lower, dtype=float).ravel()
    hi = np.ascontiguousarray(upper, dtype=float).ravel()
    d = lo.size
    if hi.size != d:
        raise LatticeError("lower and upper must have the same length")
    if d == 0:
        raise LatticeError("box must have at least one dimension")
    if d > MAX_BOX_DIM:
        raise LatticeError(f"box dimension {d} exceeds limit {MAX_BOX_DIM}")
    if np.any(lo > hi):
        raise LatticeError("box has lower > upper in some coordinate")

    lat, high = _box_structure(d)
    verts = np.where(high, hi, lo)
    return LatticeSet(lat, verts, verts.copy())


def affine_transform(s, W, b: np.ndarray):
    """Image of ``s`` under ``x -> Wx + b``; the lattice is reused as-is.

    ``W`` is a dense matrix or an ``affine.Conv``.  A MappedSet's map is
    mapped: its k + 1 rows go through ``affine_rows`` and ``b`` joins the
    constant row.  The combinatorial
    structure of the image of a polytope under an affine map with full row
    meaning is kept conservatively: degenerate flattening only shows up in
    coordinates, never in the lattice.
    """
    if not isinstance(W, Conv):
        W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if len(W.shape) != 2 or W.shape[1] != s.ambient_dim:
        raise LatticeError(
            f"weight shape {W.shape} does not accept {s.ambient_dim}-dim points")
    if b.size != W.shape[0]:
        raise LatticeError("bias length does not match weight rows")
    if isinstance(s, MappedSet):
        M = affine_rows(W, 0.0, s.M)
        M[-1] += b
        return MappedSet(s.lattice, s.region, M)
    return LatticeSet(s.lattice, affine_rows(W, b, s.vertices),
                      s.region_vertices)


def classify_vertices(s: LatticeSet, h: Hyperplane):
    """The cut ``(values, pos, neg)`` of ``s`` by ``h``: the signed values
    ``a.v + b`` of the vertex rows and their ``sides`` masks.

    The zero band is relative: vertex ``v`` is on the hyperplane when
    ``|a.v + b| <= ZERO_TOL * max(1, |a.v| + |b|)``.  ``a.v`` sums only the
    terms where ``a`` is nonzero, so a non-finite coordinate outside the
    cut does not change the masks (``inf * 0`` would be nan).  A strictly
    signed value exceeds its band, so it is finite.
    """
    if h.normal.size != s.ambient_dim:
        raise LatticeError("hyperplane dimension does not match set")
    nz = h.normal.nonzero()[0]
    av = s.columns(nz) @ h.normal[nz]
    vals = av + h.offset
    return (vals, *sides(vals, np.abs(av) + abs(h.offset)))


def split_by_hyperplane(s: LatticeSet, cut, keep=(True, True)):
    """Split ``s`` into its closed positive and negative restrictions.

    Returns ``(positive, negative)``, building only the sides that ``keep``
    (a ``(positive, negative)`` pair of flags) asks for; a side not asked
    for comes back as None.  ``cut`` is a ``Hyperplane``, classified here
    by ``classify_vertices``, or the cut ``(values, pos, neg)`` of ``s``
    that such a call or a layer's own sign pass already gave.  A side without
    strictly-signed vertices comes back as None and the whole set is
    returned on the other side (an all-zero set counts as positive).
    When both sides are hit, the section faces on the hyperplane are found
    once for either side: new vertices are interpolated on the crossing
    edges (in both ``vertices`` and ``region_vertices`` with the same
    parameter), each cut face gains a section face one dimension lower, and
    existing all-zero faces are reused as sections instead of being
    duplicated.  New rows are interpolated in every row matrix the set
    stores (``s.rows``): both of a LatticeSet's, and only a MappedSet's
    region rows, whose map both sides share.

    Everything runs on whole CSR arrays: sign flags are reduced once per
    dimension level, all crossing edges are interpolated together, and the
    children of every new section face are gathered in one flattened pass.
    """
    vals, pos, neg = (classify_vertices(s, cut) if isinstance(cut, Hyperplane)
                      else cut)
    if not (pos.any() and neg.any()):
        pos, neg = (None, s) if neg.any() else (s, None)
        return pos if keep[0] else None, neg if keep[1] else None

    lat = s.lattice
    nf = lat.n_faces
    nv = lat.n_vertices
    # numpy converts int32 index arrays to intp on every use: convert once
    ptr, idx = lat.child_ptr.astype(np.intp), lat.child_idx.astype(np.intp)
    # dim k occupies positions start[k]:start[k + 1]
    start = lat.dims.searchsorted(np.arange(lat.top_dim + 2)).tolist()

    # sign bits per face: 1 = has a positive vertex, 2 = has a negative one,
    # so 3 marks a cut face and 0 an all-zero one; children live at lower
    # levels, so their flags are final when a level is reduced
    flags = np.zeros(nf, dtype=np.int8)
    flags[:nv] = pos + 2 * neg
    for k in range(1, lat.top_dim + 1):
        lo, hi = start[k], start[k + 1]
        a, b = ptr[lo], ptr[hi]
        flags[lo:hi] = np.bitwise_or.reduceat(flags[idx[a:b]], ptr[lo:hi] - a)
    cut = flags == 3
    all_zero = flags == 0
    # all-zero faces exist only where a vertex lies on the hyperplane; the
    # steps that look for them are skipped when none does
    on_plane = all_zero.any()

    # section[f]: position of the cut face f's section on the hyperplane,
    # either its first all-zero child or a new face coded as nf + j
    owner = np.repeat(np.arange(nf), ptr[1:] - ptr[:-1])
    section = np.full(nf, -1, dtype=np.int64)
    if on_plane:
        hit = (all_zero[idx] & cut[owner]).nonzero()[0]
        first = np.ones(hit.size, dtype=bool)
        first[1:] = owner[hit[1:]] != owner[hit[:-1]]
        section[owner[hit[first]]] = idx[hit[first]]

    # number the new section faces in position order, so the new vertices
    # (sections of the crossing edges) come first
    from_src = cut & (section < 0)
    src = from_src.nonzero()[0]
    n_new = src.size
    new = nf + np.arange(n_new)
    section[src] = new

    # crossing edges: interpolate all at once; both end values are
    # strictly signed, hence finite, so every parameter is finite and, as
    # |vals[n]| <= vals[p] - vals[n] also after rounding, within [0, 1]
    edges = src[:src.searchsorted(start[2])]
    v0, v1 = idx[ptr[edges]], idx[ptr[edges] + 1]
    v0_pos = pos[v0]
    p, n = np.where(v0_pos, v0, v1), np.where(v0_pos, v1, v0)
    t = (-vals[n] / (vals[p] - vals[n]))[:, None]
    new_rows = [m[n] + t * (m[p] - m[n]) for m in s.rows]

    # children of a new face of dimension >= 1 (coded by its source's
    # section): the sections of its source's cut children, then its
    # source's all-zero grandchildren, each once (a stable sort by key puts
    # a pair's first occurrence first); the entries stay ungrouped here,
    # _assemble_side groups them by owner stably
    from_src[:start[2]] = False
    at = from_src[owner].nonzero()[0]
    ch, sec_owner = idx[at], section[owner[at]]
    sec = section[ch]
    kid_owner, kid = sec_owner[sec >= 0], sec[sec >= 0]
    if on_plane:
        # the concatenated child lists of ch, and each entry's index in ch
        starts = ptr[ch]
        counts = ptr[ch + 1] - starts
        grank = np.repeat(np.arange(ch.size), counts)
        shift = starts - (np.cumsum(counts) - counts)
        grand = idx[np.arange(grank.size) + shift[grank]]
        zero = all_zero[grand]
        kid_owner = np.concatenate((kid_owner, sec_owner[grank[zero]]))
        kid = np.concatenate((kid, grand[zero]))
        key = kid_owner * (nf + n_new) + kid
        by_key = key.argsort(kind="stable")
        once = np.ones(key.size, dtype=bool)
        once[by_key[1:]] = key[by_key[1:]] != key[by_key[:-1]]
        kid_owner, kid = kid_owner[once], kid[once]

    # every face code in the order of both sides, by dimension with the
    # old faces first at each, so old vertex rows land first: the old
    # faces and the sections are each sorted by dimension, so a face's
    # rank is its place in its run plus the faces of the other run before it
    new_dims = lat.dims[src] - 1
    rank = np.concatenate((
        np.arange(nf) + new_dims.searchsorted(lat.dims, "left"),
        np.arange(n_new) + lat.dims.searchsorted(new_dims, "right")))
    merged = np.empty_like(rank)
    merged[rank] = np.arange(rank.size)

    # faces and child entries of both sides, new faces coded nf + j: the
    # old ones, then the sections (all-zero flags, so every side keeps
    # them), the section child of each source face and the children of
    # each new face; ids past int32 fail at next_id, checked when built.
    # Old ids join intp ones, so nothing wraps in an int16 lattice
    flags = np.concatenate((flags, np.zeros(n_new, dtype=np.int8)))
    faces = (np.concatenate((lat.ids, lat.next_id - nf + new)),
             np.concatenate((lat.dims, new_dims)),
             np.concatenate((owner, src, kid_owner)),
             np.concatenate((idx, new, kid)))
    return tuple(_assemble_side(s, flags != drop, merged, *faces, new_rows)
                 if wanted else None
                 for drop, wanted in ((2, keep[0]), (1, keep[1])))


def _assemble_side(s, keep, merged, ids, dims, owner, kid, new_rows):
    """One side of a split, written straight into its buffer: the faces
    and child entries that ``keep`` marks, in the order ``merged``, over
    the arrays of old and new faces that ``split_by_hyperplane`` builds
    once."""
    lat = s.lattice
    nf = lat.n_faces
    codes = merged[keep[merged]]
    n = codes.size
    pos_of = np.empty(ids.size, dtype=np.intp)
    pos_of[codes] = np.arange(n)
    # kept children of kept faces, old entries before section ones; a
    # stable sort by owner position keeps each face's old children first
    own = keep[owner] & keep[kid]
    kid_owner = pos_of[owner[own]]
    # new ids run from lat.next_id to next_id and old ids fit lat's width,
    # so int16 holds every value when lat does and the two bounds fit it
    size, next_id = 3 * n + 1 + kid_owner.size, lat.next_id + ids.size - nf
    buf = np.empty(size, dtype=_buffer_dtype(size, next_id,
                                             wide=lat._buf.itemsize > 2))
    buf[:n] = ids[codes]
    buf[n:2 * n] = dims[codes]
    buf[2 * n] = 0
    np.cumsum(np.bincount(kid_owner, minlength=n),
              out=buf[2 * n + 1:3 * n + 1])
    buf[3 * n + 1:] = pos_of[kid[own]][kid_owner.argsort(kind="stable")]

    old_v = keep[:lat.n_vertices]
    rows = [np.concatenate((m[old_v], new)) for m, new in zip(s.rows,
                                                              new_rows)]
    return s.with_rows(FaceLattice._of_buffer(buf, n, next_id), rows)


def eliminate_dims(s, keep):
    """Restrict the vertex matrix (a MappedSet: its map) to the ``keep``
    columns, in that order."""
    keep = np.asarray(keep)
    if keep.size == 0:
        raise LatticeError("cannot eliminate every coordinate")
    bad = (keep < 0) | (keep >= s.ambient_dim)
    if bad.any():
        raise LatticeError(f"coordinate {keep[bad][0]} out of range")
    if isinstance(s, MappedSet):
        return MappedSet(s.lattice, s.region, s.M[:, keep])
    return LatticeSet(s.lattice, s.vertices[:, keep], s.region_vertices)


def zero_dims(s, cols):
    """``s`` with the coordinates ``cols`` set to zero at every vertex (a
    MappedSet: its map's columns zeroed)."""
    if isinstance(s, MappedSet):
        M = s.M.copy()
        M[:, cols] = 0.0
        return MappedSet(s.lattice, s.region, M)
    v = s.vertices.copy()
    v[:, cols] = 0.0
    return LatticeSet(s.lattice, v, s.region_vertices)


def validate_lattice(lat: FaceLattice) -> None:
    """Check structural invariants, raising LatticeError on the first hit."""
    # int16 arithmetic wraps silently: pointer differences and dims + 1
    # are taken in intp
    ptr, dims = lat.child_ptr.astype(np.intp), lat.dims.astype(np.intp)
    kids = lat.child_idx
    ids = np.sort(lat.ids)
    if (ids[1:] == ids[:-1]).any():
        raise LatticeError("duplicate face id")
    if (dims[1:] < dims[:-1]).any():
        raise LatticeError("faces are not sorted by ascending dimension")
    # dims are sorted: a negative dim comes first, a second top second last
    if dims[0] < 0:
        raise LatticeError("vertex positions contain non-vertex faces")
    if lat.n_faces > 1 and dims[-2] == lat.top_dim:
        raise LatticeError("top face is not unique")
    if ids[-1] >= lat.next_id:
        raise LatticeError("next_id is not past every face id")

    if ptr[0] != 0:
        raise LatticeError("child pointers do not start at 0")
    if ptr[-1] != kids.size:
        raise LatticeError("child pointers do not end at the child count")
    deg = ptr[1:] - ptr[:-1]
    if deg[:lat.n_vertices].any():
        raise LatticeError("a 0-face has children")
    if (deg[lat.n_vertices:] < 2).any():
        raise LatticeError("a k-face with k >= 1 has fewer than 2 children")

    owner = np.repeat(np.arange(lat.n_faces), deg)
    if (kids < 0).any():
        raise LatticeError("a child position is negative")
    if (kids >= owner).any():
        raise LatticeError("a child does not precede its parent")
    if (dims[kids] + 1 != dims[owner]).any():
        raise LatticeError("containment skips a dimension")
    pairs = np.sort(owner * lat.n_faces + kids)
    if (pairs[1:] == pairs[:-1]).any():
        raise LatticeError("duplicate child within a face")
    # every link climbs one dimension and the top is the one face of its
    # dimension, so a face that is some face's child is reached from the top
    if not np.bincount(kids, minlength=lat.n_faces)[:-1].all():
        raise LatticeError("some faces are unreachable from the top face")


def validate_set(s: LatticeSet) -> None:
    """Validate the lattice and the vertex matrices of ``s``."""
    validate_lattice(s.lattice)
    if s.vertices.ndim != 2 or s.region_vertices.ndim != 2:
        raise LatticeError("vertex matrices must be 2-D")
    if s.vertices.shape[0] != s.lattice.n_vertices:
        raise LatticeError("vertex matrix rows do not match lattice vertices")
    if s.region_vertices.shape[0] != s.lattice.n_vertices:
        raise LatticeError("region matrix rows do not match lattice vertices")
    if not np.isfinite(s.vertices).all() or not np.isfinite(s.region_vertices).all():
        raise LatticeError("non-finite vertex coordinates")


def set_to_dict(s: LatticeSet) -> dict:
    """JSON-friendly dump: faces in position order plus both vertex matrices."""
    lat = s.lattice
    kid_ids = lat.ids[lat.child_idx].tolist()
    ptr = lat.child_ptr.tolist()
    faces = [{"id": i, "dim": k, "children": kid_ids[a:b]}
             for i, k, a, b in zip(lat.ids.tolist(), lat.dims.tolist(),
                                   ptr, ptr[1:])]
    return {"faces": faces,
            "vertices": s.vertices.tolist(),
            "region": s.region_vertices.tolist()}


# a dump chunk closes before the set that would take it past this many
# values (face ids, child ids and coordinates), and holds at least one set;
# formatting holds about 100 bytes per value, so a chunk stays near 1 MB
DUMP_CHUNK_VALUES = 1 << 13


# the literal text of a set record and of a face record around their
# values, and the separator of every array, shared by the templates below
# and by record_grammar
_SET_TEXT = ('{"faces": [', '], "vertices": [', '], "region": [', "]}")
_FACE_TEXT = ('{"id": ', ', "dim": ', ', "children": [', "]}")
_SEP = ", "


@functools.lru_cache(maxsize=1 << 10)
def _face_template(dim: int, n_kids: int) -> str:
    head, dim_key, kids_key, end = _FACE_TEXT
    return (head + "%d" + dim_key + str(dim) + kids_key
            + _SEP.join(["%d"] * n_kids) + end)


def _rows_template(m: np.ndarray) -> str:
    return _SEP.join(["[" + _SEP.join(["%s"] * m.shape[1]) + "]"] * len(m))


@functools.lru_cache(maxsize=1)
def record_grammar() -> re.Pattern:
    """The compiled grammar of one set record as :func:`_chunk_json` writes
    it: its literal text, unsigned JSON integers for ids and dims, and JSON
    numbers for coordinates.

    Any text it matches from its start is one JSON value that ends where
    the match ends, so ``json.loads`` accepts it.  ``NaN``, ``Infinity``,
    another key order and other whitespace do not match.  Compiled on first
    use, so ``import latreach`` does not pay for it.
    """
    def items(x):  # zero or more x, separated as the templates separate
        return f"(?:{x}(?:{re.escape(_SEP)}{x})*)?"

    def fill(literals, *values):  # the literal pieces around the values
        out = re.escape(literals[0])
        for value, literal in zip(values, literals[1:]):
            out += value + re.escape(literal)
        return out

    # [0-9], not \d, which takes other digits; ids and dims are natural
    # numbers, whose unsigned form matches faster
    natural = "(?!0[0-9])[0-9]+"
    number = "-?" + natural + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
    face = fill(_FACE_TEXT, natural, natural, items(natural))
    row = fill("[]", items(number))
    return re.compile(fill(_SET_TEXT, items(face), items(row), items(row)))


def _chunk_json(sets) -> str:
    """``", ".join(json.dumps(set_to_dict(s)) for s in sets)``, made by one
    ``%`` of a template over the ids and coordinates of all ``sets``.

    Each distinct float bit pattern is spelled once, by ``json.dumps``
    itself, so NaN, +-Infinity and -0.0 come out as it writes them.
    """
    lats = [s.lattice for s in sets]
    n_faces = [lat.n_faces for lat in lats]
    # pointers rise from 0, so their int16 differences cannot wrap, and
    # cumsum below sums int16 in intp
    n_kids = np.concatenate([np.diff(lat.child_ptr) for lat in lats])
    ids = np.concatenate([lat.ids for lat in lats])
    dims = np.concatenate([lat.dims for lat in lats])
    # child positions of the whole chunk, shifted to index ids
    shift = np.repeat(np.cumsum(n_faces) - n_faces,
                      [lat.child_idx.size for lat in lats])
    kids = ids[np.concatenate([lat.child_idx for lat in lats]) + shift]

    # one template per distinct (dim, child count) of the chunk
    keys, which = np.unique(dims.astype(np.int64) << 32 | n_kids,
                            return_inverse=True)
    faces = np.array([_face_template(k >> 32, k & 0xFFFFFFFF)
                      for k in keys.tolist()], dtype=object)[which].tolist()
    texts, counts, floats = [], [], []
    end = 0
    for s, n in zip(sets, n_faces):
        texts.append(_SET_TEXT[0] + _SEP.join(faces[end:end + n])
                     + _SET_TEXT[1] + _rows_template(s.vertices)
                     + _SET_TEXT[2] + _rows_template(s.region_vertices)
                     + _SET_TEXT[3])
        end += n
        counts += (n + s.lattice.child_idx.size,
                   s.vertices.size + s.region_vertices.size)
        floats += (s.vertices.ravel(), s.region_vertices.ravel())

    bits, inverse = np.unique(np.concatenate(floats).view(np.int64),
                              return_inverse=True)
    spelled = np.array(json.dumps(bits.view(float).tolist())[1:-1]
                       .split(", "), dtype=object)
    is_float = np.repeat(np.tile((False, True), len(sets)), counts)
    values = np.empty(is_float.size, dtype=object)
    # each face's id, then its child ids
    values[~is_float] = np.insert(kids, np.cumsum(n_kids) - n_kids, ids)
    values[is_float] = spelled[inverse]
    return _SEP.join(texts) % tuple(values.tolist())


def sets_json(sets):
    """Yield ``json.dumps(set_to_dict(s))`` of consecutive ``sets``, joined
    by ", ", one chunk of sets at a time (``DUMP_CHUNK_VALUES``)."""
    chunk, n = [], 0
    for s in sets:
        k = (s.lattice.n_faces + s.lattice.child_idx.size + s.vertices.size
             + s.region_vertices.size)
        if chunk and n + k > DUMP_CHUNK_VALUES:
            yield _chunk_json(chunk)
            chunk, n = [], 0
        chunk.append(s)
        n += k
    if chunk:
        yield _chunk_json(chunk)


def set_from_dict(d: dict) -> LatticeSet:
    """Rebuild a set from :func:`set_to_dict` output.

    Vertex rows are matched to dim-0 face records in listing order.  A
    missing or malformed field, a duplicate face id, a child id that names
    no face, and a bool or non-integral id, dim or child id raise
    LatticeError, and so does a set that :func:`validate_set` rejects.
    """
    try:
        recs = sorted(d["faces"], key=operator.itemgetter("dim"))  # stable
        ids = [r["id"] for r in recs]
        dims = [r["dim"] for r in recs]
        n_kids = [len(r["children"]) for r in recs]
        kids = list(itertools.chain.from_iterable(r["children"] for r in recs))
        rows = d["vertices"], d["region"]
    except (KeyError, TypeError):
        _name_fault(d)
        raise
    # one type scan; as_int converts 8.0 or raises for 8.7 and true
    if not set(map(type, itertools.chain(ids, dims, kids))) <= {int}:
        ids, dims, kids = ([as_int(x, what) for x in values]
                           for what, values in (("face id", ids),
                                                ("face dim", dims),
                                                ("child id", kids)))
    # int64, not int32: FaceLattice range-checks them, a cast could wrap
    ids, dims, kid_ids = (np.array(v, dtype=np.int64)
                          for v in (ids, dims, kids))
    ptr = np.zeros(len(recs) + 1, dtype=np.int32)
    ptr[1:] = np.cumsum(n_kids)
    by_id = np.argsort(ids)  # maps child ids to positions: needs unique ids
    sorted_ids = ids[by_id]
    if np.any(sorted_ids[1:] == sorted_ids[:-1]):
        raise LatticeError("duplicate face id")
    at = np.minimum(np.searchsorted(sorted_ids, kid_ids), ids.size - 1)
    if np.any(sorted_ids[at] != kid_ids):
        raise LatticeError("child id names no face")
    lat = FaceLattice(ids, dims, ptr, by_id[at], int(ids.max(initial=-1)) + 1)
    s = LatticeSet(lat, *rows)
    validate_set(s)
    return s


def _name_fault(d) -> None:
    """Raise a LatticeError naming the first field of set record ``d`` that
    :func:`set_from_dict` cannot read, if there is one; it runs only once
    that reading has failed, so a well-formed record pays for no check."""
    _check_record(d, "set record", ("faces", "vertices", "region"))
    for rec in d["faces"]:
        _check_record(rec, "face record", ("children", "id", "dim"))
        as_int(rec["dim"], "face dim")


def _check_record(rec, what, keys):
    """LatticeError unless ``rec`` is a JSON object that holds ``keys``,
    the first of them an array."""
    if not isinstance(rec, dict):
        raise LatticeError(f"{what} is not a JSON object")
    for k in keys:
        if k not in rec:
            raise LatticeError(f"{what} has no {k!r}")
    if not isinstance(rec[keys[0]], list):
        raise LatticeError(f"{what} {keys[0]!r} is not an array")
