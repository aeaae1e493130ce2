"""Exact V-representation polytopes with lazily derived facet structure.

The hull construction is an incremental beneath-beyond on an integer view
of the input: every coordinate is scaled once by the common denominator D,
so facet normals, visibility tests, the orientation test and the final
"every input point is inside" sweep are all integer dot products.  Facets
are kept as oriented boundary simplices with primitive integer normals;
the final facet inequalities are their deduplicated carrier hyperplanes
<a, x> <= beta / D.  A ridge -> facet-count map is updated on the ridges
each insertion touches and checked there, so a boundary that stops being
a pseudomanifold fails loudly instead of silently producing a wrong hull.
Lower-dimensional input is reduced to exact affine coordinates and handled
recursively.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from ._kernels import box_scan
from .errors import (
    InvariantError,
    LowerDimensionalError,
    OriginNotInteriorError,
)
from .linalg import Vec, frac, vadd, vdot, vec, vneg, vscale, vsub

IntVec = tuple[int, ...]


def _idot(u: IntVec, v: IntVec) -> int:
    return sum(map(mul, u, v))


def _primitive_normal(pts: list[IntVec]) -> IntVec | None:
    """Primitive normal of the hyperplane through d integer points of Z^d.

    Cofactors of the d-1 edge vectors from pts[0]; None when the points
    are affinely dependent.
    """
    p0 = pts[0]
    rows = [tuple(x - y for x, y in zip(q, p0)) for q in pts[1:]]
    d = len(p0)
    if d == 2:
        ((x, y),) = rows
        normal = (y, -x)
    elif d == 3:
        (a1, a2, a3), (b1, b2, b3) = rows
        normal = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    else:
        normal = tuple(
            (-1) ** j * int(linalg.det(tuple(r[:j] + r[j + 1 :] for r in rows)))
            for j in range(d)
        )
    g = math.gcd(*normal)
    return tuple(c // g for c in normal) if g else None


def _hull_full_dim(points: list[Vec], d: int, init: list[int]):
    """Beneath-beyond hull of full-dimensional points.

    Returns (hyperplanes, boundary simplices, interior point, vertices).
    Each boundary simplex is a tuple of d point indices; simplices tile the
    boundary exactly, which later gives exact volumes for free.
    """
    den, ipts = linalg.clear_denominators(points)
    # (d + 1) * D times the centroid of the first simplex: <a, inner> is
    # compared with (d + 1) * beta
    inner = tuple(map(sum, zip(*[ipts[i] for i in init])))

    def make_facet(idx):
        a = _primitive_normal([ipts[i] for i in idx])
        if a is None:
            raise InvariantError(
                "degenerate facet simplex", witness=[points[i] for i in idx]
            )
        beta = _idot(a, ipts[idx[0]])
        if any(_idot(a, ipts[i]) != beta for i in idx[1:]):
            raise InvariantError(
                "facet simplex is off its hyperplane", witness=[points[i] for i in idx]
            )
        side = _idot(a, inner) - (d + 1) * beta
        if side > 0:
            a, beta = tuple(-c for c in a), -beta
        elif side == 0:
            raise InvariantError(
                "interior point on facet hyperplane", witness=[points[i] for i in idx]
            )
        return a, beta

    # facet vertex set -> (normal, beta) with <normal, D x> <= beta on the hull
    facets: dict[frozenset[int], tuple[IntVec, int]] = {}
    # ridge (d - 1 vertex indices) -> number of facets through it; 2 on a
    # pseudomanifold, so it is checked wherever an insertion changes it
    ridges: dict[frozenset[int], int] = {}

    def add_facets(vertex_lists, touched):
        for idx in vertex_lists:
            verts = frozenset(idx)
            facets[verts] = make_facet(idx)
            for v in verts:
                r = verts - {v}
                ridges[r] = ridges.get(r, 0) + 1
                touched.append(r)
        for r in dict.fromkeys(touched):  # each ridge once, in order
            c = ridges[r]
            if c == 0:
                del ridges[r]
            elif c != 2:
                raise InvariantError(
                    "boundary is not a pseudomanifold at a ridge",
                    witness=[points[i] for i in sorted(r)],
                )

    add_facets([[i for i in init if i != leave_out] for leave_out in init], [])

    init_set = set(init)
    # farthest-first insertion: interior points then cost one visibility scan
    order = sorted(
        (i for i in range(len(points)) if i not in init_set),
        key=lambda i: sum(((d + 1) * c - z) ** 2 for c, z in zip(ipts[i], inner)),
        reverse=True,
    )
    for idx in order:
        p = ipts[idx]
        visible = [verts for verts, (a, b) in facets.items() if _idot(a, p) > b]
        if not visible:
            continue
        crossed = Counter(verts - {v} for verts in visible for v in verts)
        for verts in visible:
            del facets[verts]
        for r, c in crossed.items():
            ridges[r] -= c
        # the horizon: ridges of exactly one visible facet, counted apart
        # from `ridges` so that the check below tests the bookkeeping
        horizon = [r for r, c in crossed.items() if c == 1]
        add_facets([[*r, idx] for r in horizon], list(crossed))

    for p, q in zip(points, ipts):
        if any(_idot(a, q) > b for a, b in facets.values()):
            raise InvariantError("hull misses an input point", witness=p)

    planes = sorted(set(facets.values()))
    hyperplanes = tuple((a, Fraction(b, den)) for a, b in planes)
    simplices = tuple(tuple(sorted(verts)) for verts in facets)
    centroid = tuple(Fraction(c, (d + 1) * den) for c in inner)
    return hyperplanes, simplices, centroid, _vertices_from_hyperplanes(
        points, ipts, planes, d
    )


class Polytope:
    """Convex hull of finitely many rational points, exact throughout."""

    def __init__(self, *, _vertices, _ambient, _dim, _internal):
        self.vertices: tuple[Vec, ...] = _vertices
        self.ambient: int = _ambient
        self.dim: int = _dim
        # internal structure, depends on dimension case
        self._data = _internal

    # -- construction -----------------------------------------------------

    @staticmethod
    def hull(points) -> "Polytope":
        pts = sorted({vec(p) for p in points})
        if not pts:
            raise ValueError("hull of an empty point list")
        ambient = len(pts[0])
        if any(len(p) != ambient for p in pts):
            raise ValueError("mixed dimensions in hull input")
        if len(pts) == 1:
            return Polytope(
                _vertices=(pts[0],), _ambient=ambient, _dim=0, _internal=None
            )
        p0 = pts[0]
        diffs = [vsub(p, p0) for p in pts]  # diffs[0] is zero and never picked
        frame = linalg.independent_subset(diffs)
        dirs = tuple(diffs[i] for i in frame)
        r = len(dirs)
        if r == ambient:
            init = [0] + frame
            hyps, simplex_idx, inner, verts = _hull_full_dim(pts, ambient, init)
            data = {
                "hyps": hyps,
                "simplices": tuple(tuple(pts[i] for i in s) for s in simplex_idx),
                "inner": inner,
            }
            return Polytope(
                _vertices=verts, _ambient=ambient, _dim=ambient, _internal=data
            )
        # lower-dimensional: reduce to exact affine coordinates and recurse
        row_idx, coord_mat, reduced = linalg.span_coordinates(dirs, diffs)
        inner_poly = Polytope.hull(reduced)
        eq_rows = linalg.nullspace(dirs)
        eqs = tuple((n, vdot(n, p0)) for n in eq_rows)
        verts = tuple(
            sorted(vadd(p0, linalg.mat_vec(dirs, lam)) for lam in inner_poly.vertices)
        )
        data = {
            "p0": p0,
            "row_idx": row_idx,
            "coord_mat": coord_mat,
            "eqs": eqs,
            "reduced": inner_poly,
        }
        return Polytope(_vertices=verts, _ambient=ambient, _dim=r, _internal=data)

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)})"

    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient

    def support(self, u) -> Fraction:
        u = vec(u)
        return max(vdot(u, v) for v in self.vertices)

    def width(self, u) -> Fraction:
        u = vec(u)
        return self.support(u) + self.support(vneg(u))

    def facets(self) -> tuple[tuple[Vec, Fraction], ...]:
        """Irredundant facet inequalities <a, x> <= b (full-dimensional only)."""
        if not self.is_full_dimensional():
            raise LowerDimensionalError("facets of a lower-dimensional polytope")
        return tuple((vec(a), b) for a, b in self._data["hyps"])

    def facet_vertex_sets(self):
        """Pairs (primitive integer normal, vertices on that facet)."""
        if not self.is_full_dimensional():
            raise LowerDimensionalError("facets of a lower-dimensional polytope")
        out = []
        for a, b in self._data["hyps"]:
            av = vec(a)
            out.append((a, tuple(v for v in self.vertices if vdot(av, v) == b)))
        return tuple(out)

    def contains(self, x) -> bool:
        x = vec(x)
        eqs, ineqs = self.constraint_system()
        return all(vdot(r, x) == rhs for r, rhs in eqs) and all(
            vdot(r, x) <= rhs for r, rhs in ineqs
        )

    def constraint_system(self):
        """Ambient description: (equalities, inequalities) as (row, rhs) pairs.

        x belongs to the polytope iff all equalities hold and every
        inequality <row, x> <= rhs is satisfied.
        """
        if self.dim == 0:
            p = self.vertices[0]
            eqs = tuple(
                (tuple(Fraction(int(i == j)) for j in range(self.ambient)), p[i])
                for i in range(self.ambient)
            )
            return eqs, ()
        if self.is_full_dimensional():
            return (), tuple((vec(a), b) for a, b in self._data["hyps"])
        d = self._data
        eqs = d["eqs"]
        ineqs = []
        for f, gamma in d["reduced"].facets():
            # lift reduced inequality f . lam <= gamma to ambient coordinates
            coeff = linalg.mat_vec(linalg.transpose(d["coord_mat"]), f)
            row = [Fraction(0)] * self.ambient
            for pos, c in zip(d["row_idx"], coeff):
                row[pos] = c
            row = tuple(row)
            ineqs.append((row, gamma + vdot(row, d["p0"])))
        return eqs, tuple(ineqs)

    # -- geometry ----------------------------------------------------------

    def translate(self, t) -> "Polytope":
        t = vec(t)
        return Polytope.hull([vadd(v, t) for v in self.vertices])

    def scale(self, c) -> "Polytope":
        c = frac(c)
        return Polytope.hull([vscale(c, v) for v in self.vertices])

    def negate(self) -> "Polytope":
        return Polytope.hull([vneg(v) for v in self.vertices])

    def difference_body(self) -> "Polytope":
        """The origin-symmetric body of pairwise vertex differences."""
        return Polytope.hull(
            [vsub(a, b) for a in self.vertices for b in self.vertices]
        )

    @cached_property
    def _volume(self) -> Fraction:
        if self.dim < self.ambient:
            return Fraction(0)
        d = self.ambient
        inner = self._data["inner"]
        total = Fraction(0)
        fact = math.factorial(d)
        for simplex in self._data["simplices"]:
            cols = tuple(vsub(q, inner) for q in simplex)
            total += abs(linalg.det(cols))
        return total / fact

    def volume(self) -> Fraction:
        """Exact ambient-dimensional volume (0 for flat polytopes)."""
        return self._volume

    def polar_body(self) -> "Polytope":
        """The polar {x : <x, y> <= 1 for all y in P}; needs o interior."""
        if not self.is_full_dimensional():
            raise OriginNotInteriorError("polar of a lower-dimensional polytope")
        verts = []
        for a, b in self._data["hyps"]:
            if b <= 0:
                raise OriginNotInteriorError("origin is not interior")
            verts.append(vscale(Fraction(1) / b, vec(a)))
        return Polytope.hull(verts)

    # -- lattice interaction ------------------------------------------------

    def lattice_points(self, lattice) -> list[Vec]:
        """Exactly lattice ∩ P, via an integer box scan in basis coordinates."""
        return self._lattice_scan(lattice, strict=False)

    def interior_lattice_points(self, lattice) -> list[Vec]:
        if not self.is_full_dimensional():
            raise LowerDimensionalError("interior of a lower-dimensional polytope")
        return self._lattice_scan(lattice, strict=True)

    def _lattice_scan(self, lattice, strict: bool) -> list[Vec]:
        basis = lattice.basis
        inv = lattice.inverse_basis
        zverts = [linalg.mat_vec(inv, v) for v in self.vertices]
        lo = [min(math.floor(v[i]) for v in zverts) for i in range(self.ambient)]
        hi = [max(math.ceil(v[i]) for v in zverts) for i in range(self.ambient)]
        eqs, ineqs = self.constraint_system()

        def integer_rows(system):
            # <r, B z> ~ rhs as integer (row, rhs) pairs, one scale per row
            rows, rhss = [], []
            for r, rhs in system:
                _, (irow,) = linalg.clear_denominators(
                    [[vdot(r, col) for col in basis] + [rhs]]
                )
                rows.append(irow[:-1])
                rhss.append(irow[-1])
            return rows, rhss

        eq_rows, eq_rhs = integer_rows(eqs)
        le_rows, le_rhs = integer_rows(ineqs)
        pts = box_scan(lo, hi, eq_rows, eq_rhs, le_rows, le_rhs, strict=strict)
        return sorted(linalg.mat_vec(basis, z) for z in pts)


def _vertices_from_hyperplanes(points, ipts, planes, d) -> tuple[Vec, ...]:
    """Extreme points: input points whose tight facet normals span R^d.

    `ipts` and `planes` are the integer view of `points` and of the facets.
    """
    verts = []
    for p, q in zip(points, ipts):
        tight = [a for a, b in planes if _idot(a, q) == b]
        if len(tight) >= d and linalg.rank_of(tight) == d:
            verts.append(p)
    return tuple(sorted(verts))


def hull(points) -> Polytope:
    """Convex hull of rational points; vertex set is exactly the extreme points."""
    return Polytope.hull(points)


def minkowski_hull(p: Polytope, q: Polytope) -> Polytope:
    """conv(P + Q) from vertex sums only (far fewer points than the full sum)."""
    return Polytope.hull([vadd(a, b) for a in p.vertices for b in q.vertices])
