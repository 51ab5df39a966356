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
* a vertex counts as lying on a hyperplane when ``|a.v + b|`` is within
  ``ZERO_TOL * max(1, |a.v| + |b|)``;
* a set lying entirely on a hyperplane goes to the positive side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

ZERO_TOL = 1e-9
MAX_BOX_DIM = 10

POSITIVE = 1
NEGATIVE = -1
ZERO = 0

# split sign bits indexed by label: ZERO -> 0, POSITIVE -> 1, NEGATIVE -> 2
_SIGN_BITS = np.array([0, 1, 2], dtype=np.int8)


class LatticeError(ValueError):
    """Raised when a lattice or set violates a structural invariant."""


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane ``{x : a.x + b = 0}`` with normal ``a``."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = np.ascontiguousarray(self.normal, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise LatticeError("hyperplane normal must be a non-empty vector")
        if not np.any(a):
            raise LatticeError("hyperplane normal must be nonzero")
        a.setflags(write=False)
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", float(self.offset))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Signed values ``a.x + b`` for a point or a matrix of row points."""
        return points @ self.normal + self.offset


def axis_hyperplane(ambient_dim: int, coord: int) -> Hyperplane:
    """The coordinate hyperplane ``x[coord] = 0`` in ``ambient_dim`` dims."""
    a = np.zeros(ambient_dim)
    a[coord] = 1.0
    return Hyperplane(a, 0.0)


@dataclass(frozen=True)
class VertexClassification:
    """Per-vertex position relative to a hyperplane.

    ``labels`` holds POSITIVE / NEGATIVE / ZERO per vertex row; ``values``
    keeps the raw signed distances ``a.v + b`` for later interpolation.
    """

    labels: np.ndarray
    has_pos: bool
    has_neg: bool
    values: np.ndarray


class FaceLattice:
    """Combinatorial face DAG of a bounded convex set.

    Children are stored in CSR form over face positions.  Faces are sorted by
    ascending dimension with the single top face last; ``ids`` are stable
    across splits (kept faces keep their id, new faces draw from
    ``next_id``).  Instances are treated as immutable once built.
    """

    __slots__ = ("ids", "dims", "child_ptr", "child_idx", "n_vertices",
                 "top_dim", "next_id", "_dim_start", "_parents")

    def __init__(self, ids, dims, child_ptr, child_idx, n_vertices, top_dim,
                 next_id):
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        self.dims = np.ascontiguousarray(dims, dtype=np.int16)
        self.child_ptr = np.ascontiguousarray(child_ptr, dtype=np.int64)
        self.child_idx = np.ascontiguousarray(child_idx, dtype=np.int32)
        self.n_vertices = int(n_vertices)
        self.top_dim = int(top_dim)
        self.next_id = int(next_id)
        for arr in (self.ids, self.dims, self.child_ptr, self.child_idx):
            arr.setflags(write=False)
        # dim k occupies positions dim_start[k]:dim_start[k+1]
        self._dim_start = np.searchsorted(
            self.dims, np.arange(self.top_dim + 2))
        self._parents = None

    @property
    def n_faces(self) -> int:
        return self.ids.size

    def dim_range(self, k: int):
        """Half-open position range of the faces of dimension ``k``."""
        return int(self._dim_start[k]), int(self._dim_start[k + 1])

    def children_of(self, pos: int) -> np.ndarray:
        return self.child_idx[self.child_ptr[pos]:self.child_ptr[pos + 1]]

    def _parent_csr(self):
        if self._parents is None:
            deg = np.diff(self.child_ptr)
            owner = np.repeat(np.arange(self.n_faces, dtype=np.int32), deg)
            order = np.argsort(self.child_idx, kind="stable")
            cnt = np.bincount(self.child_idx, minlength=self.n_faces)
            ptr = np.concatenate(([0], np.cumsum(cnt)))
            self._parents = (ptr, owner[order])
        return self._parents

    def parents_of(self, pos: int) -> np.ndarray:
        ptr, idx = self._parent_csr()
        return idx[ptr[pos]:ptr[pos + 1]]

    def counts_by_dim(self) -> dict:
        ks, cs = np.unique(self.dims, return_counts=True)
        return {int(k): int(c) for k, c in zip(ks, cs)}

    def __getstate__(self):
        return (self.ids, self.dims, self.child_ptr, self.child_idx,
                self.n_vertices, self.top_dim, self.next_id)

    def __setstate__(self, state):
        self.__init__(*state)

    def __repr__(self):
        return (f"FaceLattice(n_faces={self.n_faces}, "
                f"n_vertices={self.n_vertices}, top_dim={self.top_dim})")


@dataclass(frozen=True)
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

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


def build_box_lattice(lower, upper, max_dim: int = MAX_BOX_DIM) -> LatticeSet:
    """Full face lattice of the axis-aligned box ``[lower, upper]``.

    Faces correspond to tag tuples in {low, high, free}^d, so the lattice has
    exactly 3^d faces and 2^d vertices.  Zero-width coordinates are allowed;
    ``d`` is capped at ``max_dim`` because the lattice is exponential in d.
    """
    lo = np.ascontiguousarray(lower, dtype=float).ravel()
    hi = np.ascontiguousarray(upper, dtype=float).ravel()
    d = lo.size
    if hi.size != d:
        raise LatticeError("lower and upper must have the same length")
    if d == 0:
        raise LatticeError("box must have at least one dimension")
    if d > max_dim:
        raise LatticeError(f"box dimension {d} exceeds limit {max_dim}")
    if np.any(lo > hi):
        raise LatticeError("box has lower > upper in some coordinate")

    LOW, HIGH, FREE = 0, 1, 2
    tags = sorted(itertools.product((LOW, HIGH, FREE), repeat=d),
                  key=lambda t: (sum(x == FREE for x in t), t))
    pos = {t: i for i, t in enumerate(tags)}

    dims = np.fromiter((sum(x == FREE for x in t) for t in tags),
                       dtype=np.int16, count=len(tags))
    children = []
    for t in tags:
        kids = []
        for axis, x in enumerate(t):
            if x == FREE:
                for rep in (LOW, HIGH):
                    kids.append(pos[t[:axis] + (rep,) + t[axis + 1:]])
        children.append(kids)
    ptr = np.zeros(len(tags) + 1, dtype=np.int64)
    ptr[1:] = np.cumsum([len(k) for k in children])
    idx = np.fromiter(itertools.chain.from_iterable(children),
                      dtype=np.int32, count=int(ptr[-1]))

    n_vertices = 2 ** d
    lat = FaceLattice(np.arange(len(tags)), dims, ptr, idx,
                      n_vertices, d, len(tags))
    verts = np.empty((n_vertices, d))
    for i, t in enumerate(tags[:n_vertices]):
        verts[i] = np.where(np.array(t) == HIGH, hi, lo)
    return LatticeSet(lat, verts, verts.copy())


def affine_transform(s: LatticeSet, W: np.ndarray, b: np.ndarray) -> LatticeSet:
    """Image of ``s`` under ``x -> Wx + b``; the lattice is reused as-is.

    The combinatorial structure of the image of a polytope under an affine
    map with full row meaning is kept conservatively: degenerate flattening
    only shows up in coordinates, never in the lattice.
    """
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if W.ndim != 2 or W.shape[1] != s.ambient_dim:
        raise LatticeError(
            f"weight shape {W.shape} does not accept {s.ambient_dim}-dim points")
    if b.size != W.shape[0]:
        raise LatticeError("bias length does not match weight rows")
    return LatticeSet(s.lattice, s.vertices @ W.T + b, s.region_vertices)


def classify_vertices(s: LatticeSet, h: Hyperplane) -> VertexClassification:
    """Label each vertex positive / negative / zero relative to ``h``.

    The zero band is relative: vertex ``v`` is on the hyperplane when
    ``|a.v + b| <= ZERO_TOL * max(1, |a.v| + |b|)``.
    """
    if h.normal.size != s.ambient_dim:
        raise LatticeError("hyperplane dimension does not match set")
    av = s.vertices @ h.normal
    vals = av + h.offset
    tol = ZERO_TOL * np.maximum(1.0, np.abs(av) + abs(h.offset))
    labels = np.zeros(s.n_vertices, dtype=np.int8)
    labels[vals > tol] = POSITIVE
    labels[vals < -tol] = NEGATIVE
    return VertexClassification(labels, bool((labels > 0).any()),
                                bool((labels < 0).any()), vals)


def split_by_hyperplane(s: LatticeSet, h: Hyperplane):
    """Split ``s`` into its closed positive and negative restrictions.

    Returns ``(positive, negative)`` where a side without strictly-signed
    vertices comes back as None and the whole set is returned on the other
    side (an all-zero set counts as positive).  When both sides are hit, the
    section faces on the hyperplane are built once and shared: new vertices
    are interpolated on the crossing edges (in both ``vertices`` and
    ``region_vertices`` with the same parameter), each cut face gains a
    section face one dimension lower, and existing all-zero faces are reused
    as sections instead of being duplicated.

    Everything runs on whole CSR arrays: sign flags are reduced once per
    dimension level, all crossing edges are interpolated together, and the
    children of every new section face are gathered in one flattened pass.
    """
    cls = classify_vertices(s, h)
    if not cls.has_neg:
        return s, None
    if not cls.has_pos:
        return None, s

    lat = s.lattice
    nf = lat.n_faces
    nv = lat.n_vertices
    ptr, idx = lat.child_ptr, lat.child_idx
    labels = cls.labels
    vals = cls.values

    # sign bits per face: 1 = has a positive vertex, 2 = has a negative one,
    # so 3 marks a cut face and 0 an all-zero one; children live at lower
    # levels, so their flags are final when a level is reduced
    flags = np.zeros(nf, dtype=np.int8)
    flags[:nv] = _SIGN_BITS[labels]
    for k in range(1, lat.top_dim + 1):
        lo, hi = lat.dim_range(k)
        a, b = ptr[lo], ptr[hi]
        flags[lo:hi] = np.bitwise_or.reduceat(flags[idx[a:b]], ptr[lo:hi] - a)
    cut = flags == 3
    all_zero = flags == 0

    # section[f]: position of the cut face f's section on the hyperplane,
    # either its first all-zero child or a new face coded as nf + j
    owner = np.repeat(np.arange(nf), ptr[1:] - ptr[:-1])
    hit = (all_zero[idx] & cut[owner]).nonzero()[0]
    first = np.ones(hit.size, dtype=bool)
    first[1:] = owner[hit[1:]] != owner[hit[:-1]]
    section = np.full(nf, -1, dtype=np.int64)
    section[owner[hit[first]]] = idx[hit[first]]

    # crossing edges: interpolate all at once; an edge whose parameter is
    # not finite (interpolation underflow) is treated as non-intersecting
    lo, hi = lat.dim_range(1)
    edges = lo + (cut[lo:hi] & (section[lo:hi] < 0)).nonzero()[0]
    v0, v1 = idx[ptr[edges]], idx[ptr[edges] + 1]
    v0_pos = labels[v0] > 0
    p, n = np.where(v0_pos, v0, v1), np.where(v0_pos, v1, v0)
    t = -vals[n] / (vals[p] - vals[n])
    finite = np.isfinite(t)
    cut[edges[~finite]] = False
    p, n = p[finite], n[finite]
    t = np.minimum(np.maximum(t[finite], 0.0), 1.0)[:, None]
    new_verts = s.vertices[n] + t * (s.vertices[p] - s.vertices[n])
    new_regions = (s.region_vertices[n]
                   + t * (s.region_vertices[p] - s.region_vertices[n]))

    # cut is final now: number the new section faces in position order, so
    # the new vertices (sections of edges) come first
    src = (cut & (section < 0)).nonzero()[0]
    n_new = src.size
    section[src] = nf + np.arange(n_new)

    # children of a new face of dimension >= 1: the sections of its source's
    # cut children, then its source's all-zero grandchildren, each once (a
    # stable sort by key puts a pair's first occurrence first); the entries
    # stay ungrouped here, _assemble_side groups them by owner stably
    n_edges = p.size
    ch, rank = _gather(ptr, idx, src[n_edges:])
    grand, grank = _gather(ptr, idx, ch)
    sec = section[ch]
    kid_owner = np.concatenate((rank[sec >= 0], rank[grank[all_zero[grand]]]))
    kid = np.concatenate((sec[sec >= 0], grand[all_zero[grand]]))
    key = kid_owner * (nf + n_new) + kid
    by_key = key.argsort(kind="stable")
    once = np.ones(key.size, dtype=bool)
    once[by_key[1:]] = key[by_key[1:]] != key[by_key[:-1]]

    # entries shared by both sides: the section child of each source face,
    # then the children of each new face
    extra_owner = np.concatenate((src, nf + n_edges + kid_owner[once]))
    extra_kid = np.concatenate((nf + np.arange(n_new), kid[once]))
    shared = (owner, lat.dims[src] - 1, extra_owner, extra_kid, new_verts,
              new_regions)
    pos_set = _assemble_side(s, flags != 2, *shared)
    neg_set = _assemble_side(s, flags != 1, *shared)
    return pos_set, neg_set


def _gather(ptr, idx, rows):
    """Concatenated child lists of ``rows`` and each entry's index in rows."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    rank = np.repeat(np.arange(rows.size), counts)
    shift = starts - (np.cumsum(counts) - counts)
    return idx[np.arange(rank.size) + shift[rank]], rank


def _assemble_side(s, keep, owner, new_dims, extra_owner, extra_kid,
                   new_verts, new_regions):
    """Build one output of a two-sided split from kept faces plus sections."""
    lat = s.lattice
    nf = lat.n_faces
    n_new = new_dims.size
    # final positions sorted by (dim, old-before-new, original order); new
    # faces are coded nf + j so old kept vertex rows land first
    old = keep.nonzero()[0]
    codes = np.concatenate((old, nf + np.arange(n_new)))
    dims = np.concatenate((lat.dims[old], new_dims))
    order = (2 * dims + (codes >= nf)).argsort(kind="stable")
    codes, dims = codes[order], dims[order]
    pos_of = np.full(nf + n_new, -1, dtype=np.int64)
    pos_of[codes] = np.arange(codes.size)
    ids = np.concatenate((lat.ids, lat.next_id + np.arange(n_new)))[codes]

    # kept children of kept faces, then the shared section entries; a stable
    # sort by owner position keeps each face's old children first
    own = (keep[owner] & keep[lat.child_idx]).nonzero()[0]
    kid_owner = pos_of[np.concatenate((owner[own], extra_owner))]
    kids = pos_of[np.concatenate((lat.child_idx[own], extra_kid))]
    kids = kids[kid_owner.argsort(kind="stable")]
    ptr = np.zeros(codes.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(kid_owner, minlength=codes.size), out=ptr[1:])

    old_v = keep[:lat.n_vertices]
    verts = np.concatenate((s.vertices[old_v], new_verts))
    regions = np.concatenate((s.region_vertices[old_v], new_regions))
    out = FaceLattice(ids, dims, ptr, kids, verts.shape[0], int(dims[-1]),
                      lat.next_id + n_new)
    return LatticeSet(out, verts, regions)


def project_to_hyperplane(s: LatticeSet, coord: int) -> LatticeSet:
    """Orthogonal projection onto ``x[coord] = 0``; lattice reused as-is."""
    if not 0 <= coord < s.ambient_dim:
        raise LatticeError(f"coordinate {coord} out of range")
    v = s.vertices.copy()
    v[:, coord] = 0.0
    return LatticeSet(s.lattice, v, s.region_vertices)


def eliminate_dims(s: LatticeSet, keep) -> LatticeSet:
    """Restrict the vertex matrix to the ``keep`` columns, in that order."""
    keep = list(keep)
    if not keep:
        raise LatticeError("cannot eliminate every coordinate")
    for c in keep:
        if not 0 <= c < s.ambient_dim:
            raise LatticeError(f"coordinate {c} out of range")
    return LatticeSet(s.lattice, s.vertices[:, keep], s.region_vertices)


def validate_lattice(lat: FaceLattice) -> None:
    """Check structural invariants, raising LatticeError on the first hit."""
    nf = lat.n_faces
    if nf == 0:
        raise LatticeError("empty lattice")
    if lat.ids.size != lat.dims.size or lat.child_ptr.size != nf + 1:
        raise LatticeError("inconsistent array sizes")
    if np.unique(lat.ids).size != nf:
        raise LatticeError("face ids are not unique")
    if np.any(np.diff(lat.dims) < 0):
        raise LatticeError("faces are not sorted by ascending dimension")
    if np.any(lat.dims[:lat.n_vertices] != 0):
        raise LatticeError("vertex positions contain non-vertex faces")
    if lat.n_vertices < nf and lat.dims[lat.n_vertices] == 0:
        raise LatticeError("vertex count does not cover all 0-faces")
    if int(lat.dims[-1]) != lat.top_dim:
        raise LatticeError("last face is not of top dimension")
    if int(np.count_nonzero(lat.dims == lat.top_dim)) != 1:
        raise LatticeError("top face is not unique")
    if np.any(lat.ids >= lat.next_id):
        raise LatticeError("next_id is not past every face id")

    deg = np.diff(lat.child_ptr)
    if np.any(deg[:lat.n_vertices] != 0):
        raise LatticeError("a 0-face has children")
    if nf > lat.n_vertices and np.any(deg[lat.n_vertices:] < 2):
        raise LatticeError("a k-face with k >= 1 has fewer than 2 children")

    if lat.child_idx.size:
        owner = np.repeat(np.arange(nf), deg)
        if np.any(lat.child_idx >= owner):
            raise LatticeError("a child does not precede its parent")
        if np.any(lat.dims[lat.child_idx] != lat.dims[owner] - 1):
            raise LatticeError("containment skips a dimension")
        pair_order = np.lexsort((lat.child_idx, owner))
        po, pc = owner[pair_order], lat.child_idx[pair_order]
        if np.any((np.diff(po) == 0) & (np.diff(pc) == 0)):
            raise LatticeError("duplicate child within a face")

    reached = np.zeros(nf, dtype=bool)
    frontier = np.array([nf - 1])
    reached[frontier] = True
    while frontier.size:
        nxt = []
        for f in frontier:
            nxt.append(lat.children_of(int(f)))
        frontier = np.unique(np.concatenate(nxt)) if nxt else np.empty(0, int)
        frontier = frontier[~reached[frontier]]
        reached[frontier] = True
    if not reached.all():
        raise LatticeError("some faces are unreachable from the top face")


def validate_set(s: LatticeSet) -> None:
    """Validate the lattice and the vertex matrices of ``s``."""
    validate_lattice(s.lattice)
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


def set_from_dict(d: dict) -> LatticeSet:
    """Rebuild a set from :func:`set_to_dict` output.

    Vertex rows are matched to dim-0 face records in listing order.  A
    duplicate face id or a child id that names no face raises LatticeError.
    """
    recs = sorted(d["faces"], key=lambda r: r["dim"])  # stable
    ids = np.array([r["id"] for r in recs], dtype=np.int64)
    dims = np.array([r["dim"] for r in recs], dtype=np.int16)
    ptr = np.zeros(len(recs) + 1, dtype=np.int64)
    ptr[1:] = np.cumsum([len(r["children"]) for r in recs])
    kid_ids = np.fromiter(
        itertools.chain.from_iterable(r["children"] for r in recs),
        dtype=np.int64, count=int(ptr[-1]))
    by_id = np.argsort(ids)
    sorted_ids = ids[by_id]
    if np.any(sorted_ids[1:] == sorted_ids[:-1]):
        raise LatticeError("duplicate face id")
    at = np.minimum(np.searchsorted(sorted_ids, kid_ids), ids.size - 1)
    if np.any(sorted_ids[at] != kid_ids):
        raise LatticeError("child id names no face")
    n_vertices = int(np.count_nonzero(dims == 0))
    lat = FaceLattice(ids, dims, ptr, by_id[at], n_vertices,
                      int(dims[-1]) if dims.size else 0, int(ids.max()) + 1)
    verts = np.asarray(d["vertices"], dtype=float).reshape(n_vertices, -1)
    regions = np.asarray(d["region"], dtype=float).reshape(n_vertices, -1)
    return LatticeSet(lat, verts, regions)
