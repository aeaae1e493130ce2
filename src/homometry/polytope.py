"""Exact polytopes: convex hulls with their facets, and their lattice points.

Hulls are built on the stored form (D, the sorted integer points D p) of
the input's `PointSet`.  A two-dimensional hull, of a set in the plane or
of a flat set whose projection has rank 2, is read off Andrew's monotone
chain (`_kernels.hull_ring`): each ring edge is a facet with the primitive
outward normal of the edge.  Every other dimension runs an incremental
beneath-beyond.  Facet normals, visibility tests, the orientation test
and the final "every input point is inside" sweep are all integer dot
products, and every facet on either path passes the same checks.
Beneath-beyond takes every normal by one rule in every dimension: the
first simplex's from one inverse, each later one from the pencil of its
horizon ridge.  It keeps facets as oriented boundary simplices with
primitive integer normals; the final facet inequalities are their
deduplicated carrier hyperplanes <a, x> <= beta / D.  The vertices, kept
as input points so that sums of hulls add integers, and each facet's
vertices come from the boundary simplices (the ring's edges in the
plane), among whose vertices is every extreme point of every facet.
For d <= 3 a simplex vertex on d or more distinct facet planes is a
vertex: a point inside a face of dimension >= 1 lies on one facet, or on
two when that face has dimension d - 2.  From d = 4 on a point inside an
edge can lie on d facets, and the rank of the planes' normals decides.
A map from each ridge to the facets through it gives the horizon; it is
checked to hold two facets wherever an insertion changes it, so a
boundary that stops being a pseudomanifold fails loudly.
Input of rank r is projected onto r coordinates that map its affine hull
one to one onto R^r, and the hull there is lifted back by point index and
by placing each facet row at those coordinates; one elimination of the
differences gives the coordinates, the first simplex and the equalities,
for every r from 0 (a point) to d.  Every polytope keeps one constraint
system, equalities and inequalities with primitive integer rows and
rational right-hand sides, and its lattice points are one `box_scan` of
that system in the lattice's integer coordinates.
The Minkowski sum P + Q of two polytopes (`minkowski_hull`) is built
without a hull when it is two-dimensional in the plane: the summands'
counterclockwise edge cycles are merged by angle, two edges of one
direction as one.  A certificate stands in for the containment sweep
there: every edge's right-hand side is h_P(a) + h_Q(a) for its outward
normal a, and the normals differ, so the walk winds once.  Every other
sum, flat or in another dimension, is the hull of the vertex sums:
beneath-beyond when the sum has dimension 1 or at least 3, the monotone
chain when it is two-dimensional in a space of dimension 3 or more.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul, sub

from . import linalg, pointset
from ._kernels import box_scan, hull_ring
from .errors import InvariantError, LowerDimensionalError
from .linalg import Vec, vec, vneg

IntVec = tuple[int, ...]


def _idot(u: IntVec, v: IntVec) -> int:
    return sum(map(mul, u, v))


def _primitive(n) -> IntVec:
    """An int vector over the gcd of its entries (unchanged when zero)."""
    g = math.gcd(*n) or 1
    return tuple([c // g for c in n])


def _simplex_normals(pts: list[IntVec]) -> list[IntVec]:
    """Outward primitive normals of a d-simplex in Z^d, the k-th on the facet
    opposite pts[k].  Row k of the inverse of the edge matrix (columns
    p_k - p_0) is 1 on edge k and 0 on the others, so minus row k is outward
    opposite p_k, and the sum of the rows outward opposite p_0."""
    p0, d = pts[0], len(pts[0])
    edges = [tuple(map(sub, q, p0)) for q in pts[1:]]
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    _, rows = linalg.solve_scaled(edges, units)  # the rows of den * inverse, den > 0
    return [_primitive(n) for n in [list(map(sum, zip(*rows)))] + [vneg(r) for r in rows]]


def _facet_beta(k: pointset.PointSet, pts: list[IntVec], a: IntVec, inner: IntVec) -> int:
    """beta = <a, p> of the facet through the integer points pts of K with
    normal a, once a is checked: nonzero, constant on pts, and outward from
    `inner`, (d + 1) D times a point inside.  The witness is pts."""
    beta = _idot(a, pts[0])
    off = any(_idot(a, p) != beta for p in pts[1:])
    side = _idot(a, inner) - (k.dim + 1) * beta
    for bad, msg in (
        (not any(a), "degenerate facet simplex"),
        (off, "facet simplex is off its hyperplane"),
        (side == 0, "interior point on facet hyperplane"),
        (side > 0, "facet normal points inward"),
    ):
        if bad:
            raise InvariantError(msg, witness=[k._point(p) for p in pts])
    return beta


def _check_contains(k: pointset.PointSet, planes) -> None:
    """Raise unless every integer point of K satisfies <a, q> <= b on each plane."""
    for q in k.ints:
        if any(_idot(a, q) > b for a, b in planes):
            raise InvariantError("hull misses an input point", witness=k._point(q))


def _hull_plane(k: pointset.PointSet) -> "Polytope":
    """Hull of a two-dimensional planar set, off the monotone chain `hull_ring`.

    The ring runs counterclockwise over the vertices, so its edge from p to
    q has the outward normal (q_y - p_y, p_x - q_x), made primitive, and
    the facet <a, D x> <= <a, D p>.  Each edge passes beneath-beyond's facet
    checks, with a point inside from three ring vertices.
    """
    ring = hull_ring(k.ints)
    inner = tuple(map(sum, zip(*ring[:3])))  # 3 D times a point inside
    facets = []
    for p, q in _ring_edges(ring):
        a = _edge_normal(p, q)
        facets.append(((a, _facet_beta(k, [p, q], a, inner)), (p, q)))
    _check_contains(k, [plane for plane, _ in facets])
    return _ring_polytope(facets, k.den)


def _ring_edges(ring: list[IntVec]):
    return zip(ring, ring[1:] + ring[:1])


def _edge_normal(p: IntVec, q: IntVec) -> IntVec:
    """The primitive outward normal of a counterclockwise edge from p to q."""
    return _primitive((q[1] - p[1], p[0] - q[0]))


def _ring_polytope(facets, den: int) -> "Polytope":
    """The polygon of the facets ((a, beta), (p, q)), one a counterclockwise
    edge from p to q on <a, x> <= beta, in integers over den; the normals
    differ, so sorting the facets sorts them by plane."""
    facets.sort()
    verts = sorted([p for _, (p, _) in facets])
    pos = {v: n for n, v in enumerate(verts)}
    on_plane = [sorted((pos[p], pos[q])) for _, (p, q) in facets]
    return _polytope(2, den, [plane for plane, _ in facets], verts, on_plane)


def _hull_full_dim(k: pointset.PointSet, init: list[int]) -> "Polytope":
    """Beneath-beyond hull of a full-dimensional set, on its integer points;
    `_hull_full_rank` takes it in every dimension but 0 and 2.

    The first simplex, on the points `init`, takes its d + 1 normals from
    one inverse.  Every later facet passes through a horizon ridge r and
    the new point p.  With v the visible and u the kept facet through r,
    and e_v = <a_v, p> - b_v > 0 >= e_u = <a_u, p> - b_u, the pencil normal
    (-e_u) a_v + e_v a_u takes one value on r, as a_v and a_u do, and the
    same at p; it is a_u when e_u = 0.  It points outward: at a point c
    inside the hull <a_v, c> - b_v and <a_u, c> - b_u are negative, so its
    excess -e_u (<a_v, c> - b_v) + e_v (<a_u, c> - b_u) is too, and an
    orientation is only checked, never repaired.  The boundary simplices
    (d integer points each) tile the boundary and name the vertices: an
    extreme point p on a facet F is a vertex of
    a simplex that triangulates F, so the planes of p's simplices are all
    of p's facets, and p is a vertex iff their normals span R^d.  Any other
    boundary point lies inside a face G of dimension >= 1 and on exactly
    the facets through G.  For d <= 3, G is a facet or a (d - 2)-face, and
    a (d - 2)-face lies on exactly two facets, so such a point is on fewer
    than d facets (d = 1 has none): there a point on at least d distinct
    facet planes is a vertex, and no rank is taken.  From d = 4 on, a point
    inside an edge can lie on d facets: the midpoint of an apex edge of the
    pyramid with apex (0, 0, 0, 2) over the octahedron ±2 e_i lies on the
    four facets through that edge, whose normals have rank 3.  There the
    rank decides.
    """
    ipts, d = k.ints, k.dim
    # (d + 1) * D times the centroid of the first simplex: <a, inner> is
    # compared with (d + 1) * beta
    inner = tuple(map(sum, zip(*[ipts[i] for i in init])))
    # facet vertex set -> (normal, beta) with <normal, D x> <= beta on the hull
    facets: dict[frozenset[int], tuple[IntVec, int]] = {}
    # ridge (d - 1 vertex indices) -> the facets through it; two on a
    # pseudomanifold, so it is checked wherever an insertion changes it
    ridges: dict[frozenset[int], list[frozenset[int]]] = {}

    def add_facet(idx, a, touched):
        verts = frozenset(idx)
        facets[verts] = a, _facet_beta(k, [ipts[i] for i in idx], a, inner)
        for v in verts:
            r = verts - {v}
            ridges.setdefault(r, []).append(verts)
            touched.append(r)

    def check_ridges(touched):
        for r in dict.fromkeys(touched):  # each ridge once, in order
            if not ridges[r]:
                del ridges[r]
            elif len(ridges[r]) != 2:
                raise InvariantError(
                    "boundary is not a pseudomanifold at a ridge",
                    witness=[k._point(ipts[i]) for i in sorted(r)],
                )

    touched = []
    for i, a in zip(init, _simplex_normals([ipts[i] for i in init])):
        add_facet([j for j in init if j != i], a, touched)
    check_ridges(touched)

    init_set = set(init)
    # farthest-first insertion: interior points then cost one visibility scan
    order = sorted(
        (i for i in range(len(ipts)) if i not in init_set),
        key=lambda i: sum(((d + 1) * c - z) ** 2 for c, z in zip(ipts[i], inner)),
        reverse=True,
    )
    for idx in order:
        p = ipts[idx]
        visible = {verts: f for verts, f in facets.items() if _idot(f[0], p) > f[1]}
        touched, new = [], []
        for verts, (a_v, b_v) in visible.items():
            del facets[verts]
            e_v = _idot(a_v, p) - b_v
            for v in verts:
                r = verts - {v}
                through = ridges[r]
                through.remove(verts)
                touched.append(r)
                if through and through[0] not in visible:  # r is on the horizon
                    a_u, b_u = facets[through[0]]
                    e_u = _idot(a_u, p) - b_u
                    pencil = [e_v * y - e_u * x for x, y in zip(a_v, a_u)]
                    new.append(([*r, idx], _primitive(pencil)))
        for f, a in new:
            add_facet(f, a, touched)
        check_ridges(touched)

    planes = sorted(set(facets.values()))  # one row for coplanar simplices
    tight: dict[int, set] = {}  # a simplex vertex -> its simplices' planes
    for f, plane in facets.items():
        for i in f:
            tight.setdefault(i, set()).add(plane)
    verts = [i for i in sorted(tight) if len(tight[i]) >= d]  # fewer cannot span R^d
    if d >= 4:  # only there can a non-vertex lie on d facets
        verts = [i for i in verts if linalg.rank_of([a for a, _ in tight[i]]) == d]
    row = {plane: n for n, plane in enumerate(planes)}
    on_plane = [[] for _ in planes]
    for pos, i in enumerate(verts):
        for plane in tight[i]:
            on_plane[row[plane]].append(pos)
    return _full_polytope(k, planes, [ipts[i] for i in verts], on_plane)


def _hull_full_rank(k: pointset.PointSet, init: list[int]) -> "Polytope":
    """conv K of a full-dimensional K, `init` indexing d + 1 affinely
    independent points: off the ring in the plane, else by beneath-beyond
    but in R^0, where K is one point on no facet."""
    if k.dim == 2:
        return _hull_plane(k)
    return _hull_full_dim(k, init) if k.dim else _full_polytope(k, [], k.ints, [])


def _full_polytope(k: pointset.PointSet, planes, verts: list[IntVec], on_plane) -> "Polytope":
    """The hull of a full-dimensional K from its sorted planes and vertices
    (`_polytope`), once every point of K passes the containment sweep."""
    _check_contains(k, planes)
    return _polytope(k.dim, k.den, planes, verts, on_plane)


def _polytope(d: int, den: int, planes, verts: list[IntVec], on_plane) -> "Polytope":
    """A d-polytope in R^d from its sorted planes (a, beta), <a, x> <= beta
    over den, its sorted integer vertices over den and each plane's vertex
    positions in them."""
    data = {
        "eqs": (),
        "hyps": tuple((a, Fraction(b, den)) for a, b in planes),
        "facet_vertices": tuple(map(tuple, on_plane)),
    }
    vset = pointset.PointSet.from_scaled(verts, den)
    return Polytope(_vertices=vset, _ambient=d, _dim=d, _internal=data)


class Polytope:
    """Convex hull of finitely many rational points, exact throughout."""

    def __init__(self, *, _vertices, _ambient, _dim, _internal):
        self.vertex_set: pointset.PointSet = _vertices
        self.ambient: int = _ambient
        self.dim: int = _dim
        # "eqs" and "hyps", the constraint system; the facets' vertices when
        # full-dimensional
        self._data = _internal

    # -- construction -----------------------------------------------------

    @staticmethod
    def hull(points) -> "Polytope":
        """conv of a PointSet, or of the PointSet of any nonempty points.

        One elimination of the differences D (p - p0) serves every rank r:
        its kept rows start the hull, their sorted lead columns map aff(K)
        one to one onto R^r, and its pivots' kernel gives the equalities.
        A point is r = 0: no row is kept, so its equalities are x_i = p_i.
        """
        k = points if isinstance(points, pointset.PointSet) else pointset.PointSet(points)
        ambient, ints = k.dim, k.ints
        p0 = ints[0]
        diffs = [tuple(map(sub, p, p0)) for p in ints]  # diffs[0] is zero and never kept
        frame, pivots, den, _ = linalg._gauss_jordan(diffs, ambient)
        r = len(frame)
        if r == ambient:
            return _hull_full_rank(k, [0] + frame)
        cols = sorted(lead for lead, _ in pivots)
        projected = [tuple([p[i] for i in cols]) for p in ints]
        flat_k = pointset.PointSet.from_scaled(projected)
        at = {q: i for i, q in enumerate(flat_k.ints)}
        flat = _hull_full_rank(flat_k, [at[projected[i]] for i in [0] + frame])
        index = dict(zip(projected, ints))
        verts = pointset.PointSet.from_scaled([index[v] for v in flat.vertex_set.ints], k.den)
        hyps = []
        for a, b in flat._data["hyps"]:  # <a, D p at cols> <= b
            row = [0] * ambient
            for i, c in zip(cols, a):
                row[i] = c
            hyps.append((tuple(row), b / k.den))
        eqs = [(n, Fraction(_idot(n, p0), k.den)) for n in linalg._kernel(pivots, den, ambient)]
        data = {"eqs": tuple(eqs), "hyps": tuple(hyps)}
        return Polytope(_vertices=verts, _ambient=ambient, _dim=r, _internal=data)

    @property
    def vertices(self) -> tuple[Vec, ...]:
        """The extreme points, sorted."""
        return self.vertex_set.points

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertex_set == other.vertex_set

    def __hash__(self):
        return hash(self.vertex_set)

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)})"

    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient

    def facets(self) -> tuple[tuple[Vec, Fraction], ...]:
        """Irredundant facet inequalities <a, x> <= b (full-dimensional only)."""
        if not self.is_full_dimensional():
            raise LowerDimensionalError("facets of a lower-dimensional polytope")
        return tuple((vec(a), b) for a, b in self._data["hyps"])

    def facet_vertex_sets(self):
        """Pairs (primitive integer normal, vertices on that facet)."""
        if not self.is_full_dimensional():
            raise LowerDimensionalError("facets of a lower-dimensional polytope")
        verts, hyps, on = self.vertices, self._data["hyps"], self._data["facet_vertices"]
        return tuple([(a, tuple([verts[j] for j in f])) for (a, _), f in zip(hyps, on)])

    def constraint_system(self):
        """Ambient description: (equalities, inequalities) as (row, rhs) pairs,
        both made by `hull` for every dimension (a point's are x_i = p_i).

        Each row is a primitive int tuple and each rhs a Fraction; x belongs
        to the polytope iff <row, x> = rhs for every equality and
        <row, x> <= rhs for every inequality.
        """
        return self._data["eqs"], self._data["hyps"]

    # -- lattice interaction ------------------------------------------------

    def lattice_points(self, lattice, missing_from=None) -> "pointset.PointSet | None":
        """Exactly lattice ∩ P as a PointSet, or None when it is empty.

        With `missing_from` = K, a set of lattice points of P, only the
        lattice points of P that K misses, or None when it misses none.  K
        then misses none iff the scan counts |K| points, so no scanned point
        is mapped to the ambient space unless one is missing.
        """
        zs = self._lattice_scan(lattice)
        if missing_from is not None and len(zs) == len(missing_from):
            return None
        return _scanned_set(lattice, zs, missing_from)

    def _lattice_scan(self, lattice) -> list[IntVec]:
        """The integer coordinates z of the lattice points x = B z, in
        lexicographic order, found in integers only.

        The box comes from the vertices' lattice coordinates, and a
        constraint <r, x> ~ rhs with r integral becomes <r, (F B) z> ~ F rhs,
        cleared of the denominator of F rhs.
        """
        m, zverts = lattice.scaled_coordinates(self.vertex_set.ints, self.vertex_set.den)
        # integer coordinates between the vertices' least and greatest
        lo = [-(-min(col) // m) for col in zip(*zverts)]
        hi = [max(col) // m for col in zip(*zverts)]
        f, basis_rows = lattice.integer_basis
        basis_cols = list(zip(*basis_rows))

        def integer_rows(system):
            rows, rhss = [], []
            for r, rhs in system:
                q, n = rhs.denominator, f * rhs.numerator
                row = [q * _idot(r, col) for col in basis_cols]
                g = math.gcd(n, *row)
                rows.append(tuple([c // g for c in row]))
                rhss.append(n // g)
            return rows, rhss

        eqs, ineqs = self.constraint_system()
        eq_rows, eq_rhs = integer_rows(eqs)
        le_rows, le_rhs = integer_rows(ineqs)
        return box_scan(lo, hi, eq_rows, eq_rhs, le_rows, le_rhs)


def _scanned_ints(lattice, zs: list[IntVec], known) -> tuple[int, list[IntVec]]:
    """(F, the integer vectors (F B) z of a scan's lattice points B z, less
    those of the PointSet `known` unless it is None).  Every lattice point
    is an integer vector over F, so D_known divides F when `known` holds
    lattice points only."""
    f, rows = lattice.integer_basis
    pts = [tuple([_idot(r, z) for r in rows]) for z in zs]
    if known is not None:
        a = f // known.den
        drop = {tuple([a * c for c in p]) for p in known.ints}
        pts = [p for p in pts if p not in drop]
    return f, pts


def _scanned_set(lattice, zs: list[IntVec], known=None) -> "pointset.PointSet | None":
    """The lattice points of a scan, less those of `known`, as the PointSet
    of the integer vectors (F B) z over F, so none is made a Fraction
    unless `points` is read; None when none is left."""
    f, pts = _scanned_ints(lattice, zs, known)
    return pointset.PointSet.from_scaled(pts, f) if pts else None


def _least_missing(lattice, zs: list[IntVec], known: "pointset.PointSet") -> Vec:
    """The least lattice point of a scan that the PointSet `known` misses,
    the only one made a Fraction; the scan must hold one."""
    f, pts = _scanned_ints(lattice, zs, known)
    return tuple([Fraction(c, f) for c in min(pts)])


def hull(points) -> Polytope:
    """Convex hull of rational points; vertex set is exactly the extreme points."""
    return Polytope.hull(points)


def minkowski_hull(p: Polytope, q: Polytope) -> Polytope:
    """conv(P + Q) = P + Q for polytopes P and Q in one space.

    A two-dimensional sum in the plane is `_planar_sum`, the merge of the
    summands' edge cycles, with no hull.  Any other sum, flat or in
    another dimension, is the `Polytope.hull` of the |V_P| |V_Q| vertex
    sums: beneath-beyond for a sum of dimension 1 or at least 3, the
    monotone chain for a two-dimensional sum in R^3 or beyond.
    """
    if p.ambient == q.ambient == 2:
        total = _planar_sum(p.vertex_set, q.vertex_set)
        if total is not None:
            return total
    return Polytope.hull(pointset._sum(p.vertex_set, q.vertex_set))


def _ccw_ring(verts: list[IntVec]) -> list[IntVec]:
    """The sorted vertices of a planar polygon, segment or point as their
    counterclockwise cycle from the least: the least, the vertices below
    the chord to the greatest, the greatest, then those above it backwards
    (no other vertex of a polygon lies on the chord).  A segment is the
    cycle of its two ends and a point the cycle of itself.
    """
    (x0, y0), (x1, y1) = verts[0], verts[-1]
    dx, dy = x1 - x0, y1 - y0
    side = [dx * (y - y0) - dy * (x - x0) for x, y in verts[1:-1]]
    below = [v for v, c in zip(verts[1:-1], side) if c <= 0]
    above = [v for v, c in zip(verts[1:-1], side) if c > 0]
    return [verts[0], *below, verts[-1], *reversed(above)][: len(verts)]


def _angle_order(u: IntVec, v: IntVec) -> int:
    """Negative, zero or positive as the direction u comes before, with or
    after v counterclockwise from straight down, that is by angle in
    (-90, 270] degrees: the half x > 0 or (x = 0 < y) first, then by the
    sign of the cross product within a half."""
    hu = u[0] < 0 or (u[0] == 0 and u[1] < 0)
    hv = v[0] < 0 or (v[0] == 0 and v[1] < 0)
    return hu - hv or v[0] * u[1] - u[0] * v[1]


def _planar_sum(ks: pointset.PointSet, kq: pointset.PointSet) -> Polytope | None:
    """conv(K) + conv(Q) of the vertex sets of two planar polytopes, or None
    when the sum is flat.

    In integers over lcm(D_K, D_Q), both vertex cycles (`_ccw_ring`) start
    at their least points and their edges run counterclockwise from
    straight down, by angle in (-90, 270] degrees.  So do the sum's, from
    the sum of the least points: the walk takes the summands' edges in
    that order (`_angle_order`), two of one direction as one, and each of
    its vertices is the sum of the current vertices of the two cycles (de
    Berg, Cheong, van Kreveld and Overmars, Computational Geometry, 3rd
    ed., 2008, section 13.3).  A segment is a cycle of two edges and a
    point of none; fewer than three edges make a flat sum.

    The certificate replaces the containment sweep.  Each edge's right-hand
    side <a, v> must equal h_K(a) + h_Q(a), the largest <a, x> over each
    cycle, so the edge lies on a face of the sum that its outward normal a
    supports, and the normals must differ.  The walk's vertices are sums
    of vertices, so it stays in the sum, and it moves counterclockwise
    along the sum's boundary without a face twice: it winds once, over
    every edge of the sum, and each of its vertices is a vertex of the sum.
    A failure raises InvariantError with the edge, or the repeated normal,
    as the witness.
    """
    den = math.lcm(ks.den, kq.den)
    rk = _ccw_ring([tuple([den // ks.den * c for c in v]) for v in ks.ints])
    rq = _ccw_ring([tuple([den // kq.den * c for c in v]) for v in kq.ints])
    ek = [tuple(map(sub, w, v)) for v, w in _ring_edges(rk)] if len(rk) > 1 else []
    eq = [tuple(map(sub, w, v)) for v, w in _ring_edges(rq)] if len(rq) > 1 else []
    nk, nq = len(ek), len(eq)
    walk, i, j = [], 0, 0
    while i < nk or j < nq:
        # a cycle has as many edges as vertices, a point none, so rk[i - nk]
        # is the current vertex, the least again once i = nk
        (x, y), (u, v) = rk[i - nk], rq[j - nq]
        walk.append((x + u, y + v))
        order = -1 if j == nq else 1 if i == nk else _angle_order(ek[i], eq[j])
        i += order <= 0
        j += order >= 0
    if len(walk) < 3:
        return None
    facets = []
    for v, w in _ring_edges(walk):
        a0, a1 = a = _edge_normal(v, w)
        beta = a0 * v[0] + a1 * v[1]
        if beta != max([a0 * x + a1 * y for x, y in rk]) + max([a0 * x + a1 * y for x, y in rq]):
            witness = [tuple([Fraction(c, den) for c in x]) for x in (v, w)]
            raise InvariantError("sum edge is off the summands' supporting lines", witness=witness)
        facets.append(((a, beta), (v, w)))
    facets.sort()
    twice = next((a for ((a, _), _), ((b, _), _) in zip(facets, facets[1:]) if a == b), None)
    if twice is not None:
        raise InvariantError("sum edges repeat an outward normal", witness=twice)
    return _ring_polytope(facets, den)
