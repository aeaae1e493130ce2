"""Exact V-representation polytopes with lazily derived facet structure.

The hull construction is an incremental beneath-beyond on the stored
form (D, the sorted integer points D p) of the input's `PointSet`.
Facet normals, visibility tests, the orientation test and the final
"every input point is inside" sweep are all integer dot products, and
every normal comes from one rule in every dimension: the first simplex's
from one inverse, each later one from the pencil of its horizon ridge.
Facets are kept as oriented boundary simplices with primitive integer
normals; the final facet inequalities are their deduplicated carrier
hyperplanes <a, x> <= beta / D.  The vertices, input points so that sums
of hulls add integers, and each facet's vertices come from the boundary
simplices, among whose vertices is every extreme point of every facet.
For d <= 3 a simplex vertex on d or more distinct facet planes is a
vertex: a point inside a face of dimension >= 1 lies on one facet, or on
two when that face has dimension d - 2.  From d = 4 on a point inside an
edge can lie on d facets, and the rank of the planes' normals decides.
A map from each ridge to the facets through it gives the horizon; it is
checked to hold two facets wherever an insertion changes it, so a
boundary that stops being a pseudomanifold fails loudly.
Lower-dimensional input of rank r is projected onto r coordinates that
map its affine hull one to one onto R^r; the full-dimensional hull there
is lifted back by point index and by placing each facet row at those
coordinates.  Every polytope keeps one constraint system, equalities and
inequalities with primitive integer rows and rational right-hand sides.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul, sub

from . import linalg, pointset
from ._kernels import box_scan
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


def _hull_full_dim(k: pointset.PointSet, init: list[int]) -> "Polytope":
    """Beneath-beyond hull of a full-dimensional set, on its integer points.

    The first simplex, on the points `init`, takes its d + 1 normals from
    one inverse.  Every later facet passes through a horizon ridge r and
    the new point p.  With v the visible and u the kept facet through r,
    and e_v = <a_v, p> - b_v > 0 >= e_u = <a_u, p> - b_u, the pencil normal
    (-e_u) a_v + e_v a_u takes one value on r, as a_v and a_u do, and the
    same at p; it is a_u when e_u = 0.  It points outward: at a point c
    inside the hull <a_v, c> - b_v and <a_u, c> - b_u are negative, so its
    excess -e_u (<a_v, c> - b_v) + e_v (<a_u, c> - b_u) is too, and an
    orientation is only checked, never repaired.  The boundary simplices
    (d integer points each) tile the boundary, which gives exact volumes,
    and name the vertices: an extreme point p on a facet F is a vertex of
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
    den, ipts, d = k.den, k.ints, k.dim
    # (d + 1) * D times the centroid of the first simplex: <a, inner> is
    # compared with (d + 1) * beta
    inner = tuple(map(sum, zip(*[ipts[i] for i in init])))
    # facet vertex set -> (normal, beta) with <normal, D x> <= beta on the hull
    facets: dict[frozenset[int], tuple[IntVec, int]] = {}
    # ridge (d - 1 vertex indices) -> the facets through it; two on a
    # pseudomanifold, so it is checked wherever an insertion changes it
    ridges: dict[frozenset[int], list[frozenset[int]]] = {}

    def add_facet(idx, a, touched):
        beta = _idot(a, ipts[idx[0]])
        off = any(_idot(a, ipts[i]) != beta for i in idx[1:])
        side = _idot(a, inner) - (d + 1) * beta
        for bad, msg in (
            (not any(a), "degenerate facet simplex"),
            (off, "facet simplex is off its hyperplane"),
            (side == 0, "interior point on facet hyperplane"),
            (side > 0, "facet normal points inward"),
        ):
            if bad:
                raise InvariantError(msg, witness=[k.points[i] for i in idx])
        verts = frozenset(idx)
        facets[verts] = a, beta
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
                    witness=[k.points[i] for i in sorted(r)],
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
    for i, q in enumerate(ipts):
        if any(_idot(a, q) > b for a, b in planes):
            raise InvariantError("hull misses an input point", witness=k.points[i])
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
    data = {
        "eqs": (),
        "hyps": tuple((a, Fraction(b, den)) for a, b in planes),
        "facet_vertices": tuple(map(tuple, on_plane)),
        # the boundary simplices' points D p, and (d + 1) D times a point inside
        "simplices": tuple(tuple(ipts[i] for i in sorted(f)) for f in facets),
        "inner": inner,
        "scale": (d + 1) * den,
    }
    vset = pointset.PointSet.from_scaled([ipts[i] for i in verts], den)
    return Polytope(_vertices=vset, _ambient=d, _dim=d, _internal=data)


class Polytope:
    """Convex hull of finitely many rational points, exact throughout."""

    def __init__(self, *, _vertices, _ambient, _dim, _internal):
        self.vertex_set: pointset.PointSet = _vertices
        self.ambient: int = _ambient
        self.dim: int = _dim
        # "eqs" and "hyps", the constraint system; the volume's simplices and
        # the facets' vertices when full-dimensional
        self._data = _internal

    # -- construction -----------------------------------------------------

    @staticmethod
    def hull(points) -> "Polytope":
        """conv of a PointSet, or of the PointSet of any nonempty points."""
        k = points if isinstance(points, pointset.PointSet) else pointset.PointSet(points)
        ambient, ints = k.dim, k.ints
        if len(ints) == 1:  # its equalities x_i = p_i are built on first read
            return Polytope(_vertices=k, _ambient=ambient, _dim=0, _internal={"hyps": ()})
        p0 = ints[0]
        diffs = [tuple(map(sub, p, p0)) for p in ints]  # diffs[0] is zero and never picked
        frame = linalg.independent_subset(diffs)
        dirs = tuple(diffs[i] for i in frame)
        r = len(dirs)
        if r == ambient:
            return _hull_full_dim(k, [0] + frame)
        # flat: r coordinates on which the directions are independent map aff(K)
        # one to one onto R^r, where the projected points D p are full-dimensional
        cols = linalg.independent_subset(tuple(zip(*dirs)))
        projected = [tuple([p[i] for i in cols]) for p in ints]
        flat_k = pointset.PointSet.from_scaled(projected)
        at = {q: i for i, q in enumerate(flat_k.ints)}
        flat = _hull_full_dim(flat_k, [at[projected[i]] for i in [0] + frame])
        index = dict(zip(projected, ints))
        verts = pointset.PointSet.from_scaled([index[v] for v in flat.vertex_set.ints], k.den)
        hyps = []
        for a, b in flat._data["hyps"]:  # <a, D p at cols> <= b
            row = [0] * ambient
            for i, c in zip(cols, a):
                row[i] = c
            hyps.append((tuple(row), b / k.den))
        data = {
            "eqs": tuple([(n, Fraction(_idot(n, p0), k.den)) for n in linalg.nullspace(dirs)]),
            "hyps": tuple(hyps),
        }
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
        """Ambient description: (equalities, inequalities) as (row, rhs) pairs.

        Each row is a primitive int tuple and each rhs a Fraction; x belongs
        to the polytope iff <row, x> = rhs for every equality and
        <row, x> <= rhs for every inequality.
        """
        data = self._data
        if "eqs" not in data:  # a single point p: x_i = p_i
            (p,), den, d = self.vertex_set.ints, self.vertex_set.den, self.ambient
            units = [tuple([int(i == j) for j in range(d)]) for i in range(d)]
            data["eqs"] = tuple([(u, Fraction(c, den)) for u, c in zip(units, p)])
        return data["eqs"], data["hyps"]

    # -- geometry ----------------------------------------------------------

    @cached_property
    def _volume(self) -> Fraction:
        if self.dim < self.ambient:
            return Fraction(0)
        d, data = self.ambient, self._data
        inner = data["inner"]
        total = 0
        for simplex in data["simplices"]:
            cols = tuple([tuple([(d + 1) * c - z for c, z in zip(q, inner)]) for q in simplex])
            total += abs(linalg.det(cols))
        return Fraction(total, math.factorial(d) * data["scale"] ** d)

    def volume(self) -> Fraction:
        """Exact ambient-dimensional volume (0 for flat polytopes)."""
        return self._volume

    # -- lattice interaction ------------------------------------------------

    def lattice_points(self, lattice, missing_from=None) -> "pointset.PointSet | None":
        """Exactly lattice ∩ P as a PointSet, or None when it is empty.

        With `missing_from` = K, a set of lattice points of P, only the
        lattice points of P that K misses, or None when it misses none.  K
        then misses none iff the scan counts |K| points, so no scanned point
        is mapped to the ambient space unless one is missing.
        """
        zs = self._lattice_scan(lattice, strict=False)
        if missing_from is not None and len(zs) == len(missing_from):
            return None
        return _scanned_set(lattice, zs, missing_from)

    def interior_lattice_points(self, lattice) -> "pointset.PointSet | None":
        """The lattice points of the interior, as `lattice_points`."""
        if not self.is_full_dimensional():
            raise LowerDimensionalError("interior of a lower-dimensional polytope")
        return _scanned_set(lattice, self._lattice_scan(lattice, strict=True))

    def _lattice_scan(self, lattice, strict: bool) -> list[IntVec]:
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
        return box_scan(lo, hi, eq_rows, eq_rhs, le_rows, le_rhs, strict=strict)


def _scanned_set(lattice, zs: list[IntVec], known=None) -> "pointset.PointSet | None":
    """The lattice points B z of a scan, less those of the PointSet `known`,
    as the PointSet of the integer vectors (F B) z over F, so none is made a
    Fraction unless `points` is read; None when none is left.  Every lattice
    point is an integer vector over F, so D_known divides F when `known`
    holds lattice points only."""
    f, rows = lattice.integer_basis
    pts = [tuple([_idot(r, z) for r in rows]) for z in zs]
    if known is not None:
        a = f // known.den
        drop = {tuple([a * c for c in p]) for p in known.ints}
        pts = [p for p in pts if p not in drop]
    return pointset.PointSet.from_scaled(pts, f) if pts else None


def hull(points) -> Polytope:
    """Convex hull of rational points; vertex set is exactly the extreme points."""
    return Polytope.hull(points)


def minkowski_hull(p: Polytope, q: Polytope) -> Polytope:
    """conv(P + Q) from vertex sums only (far fewer points than the full sum)."""
    return Polytope.hull(pointset._sum(p.vertex_set, q.vertex_set))
