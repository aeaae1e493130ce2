"""Exact V-representation polytopes with lazily derived facet structure.

The hull construction is an incremental beneath-beyond over exact rationals.
Facets are kept as oriented boundary simplices while inserting; the final
facet inequalities are the deduplicated carrier hyperplanes, normalized to
primitive integer normals.  A pseudomanifold check runs after every
insertion, so degenerate inputs fail loudly instead of silently producing a
wrong hull.  Lower-dimensional input is reduced to exact affine coordinates
and handled recursively.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property

from . import linalg
from ._kernels import box_scan
from .errors import (
    InvariantError,
    LowerDimensionalError,
    OriginNotInteriorError,
)
from .linalg import Vec, frac, is_zero, vadd, vdot, vec, vneg, vscale, vsub

IntVec = tuple[int, ...]


def _normal_through(pts: list[Vec]) -> Vec | None:
    """Normal of the hyperplane through d points of R^d (generalized cross).

    Returns None when the points are affinely dependent.
    """
    d = len(pts)
    rows = [vsub(q, pts[0]) for q in pts[1:]]
    normal = []
    for j in range(d):
        minor = tuple(tuple(r[i] for i in range(d) if i != j) for r in rows)
        # minor is (d-1) columns? build as columns-of-rows: transpose needed
        cols = tuple(tuple(minor[r][c] for r in range(d - 1)) for c in range(d - 1))
        val = linalg.det(cols)
        normal.append(val if j % 2 == 0 else -val)
    n = tuple(normal)
    return None if is_zero(n) else n


def _normalize_hyperplane(a: Vec, beta: Fraction) -> tuple[IntVec, Fraction]:
    scale = math.lcm(*[e.denominator for e in a])
    ints = [int(e * scale) for e in a]
    g = math.gcd(*ints)
    t = Fraction(scale, g)
    return tuple(x // g for x in ints), beta * t


def _hull_full_dim(points: list[Vec], d: int, init: list[int]):
    """Beneath-beyond hull of full-dimensional points.

    Returns (hyperplanes, boundary simplices, interior point).  Each
    boundary simplex is a tuple of d point indices; simplices tile the
    boundary exactly, which later gives exact volumes for free.
    """
    inner = vscale(Fraction(1, d + 1), tuple(map(sum, zip(*[points[i] for i in init]))))

    facets: list[tuple[Vec, Fraction, frozenset[int]]] = []

    def make_facet(idx_set, apex_pt=None):
        pts = [points[i] for i in idx_set]
        a = _normal_through(pts)
        if a is None:
            raise InvariantError("degenerate facet simplex", witness=pts)
        beta = vdot(a, pts[0])
        side = vdot(a, inner)
        if side > beta:
            a, beta = vneg(a), -beta
        elif side == beta:
            raise InvariantError("interior point on facet hyperplane", witness=pts)
        return (a, beta, frozenset(idx_set))

    for leave_out in init:
        facets.append(make_facet([i for i in init if i != leave_out]))

    def check_pseudomanifold():
        counts = Counter()
        for _, _, verts in facets:
            for v in verts:
                counts[verts - {v}] += 1
        bad = [r for r, c in counts.items() if c != 2]
        if bad:
            ridge = [points[i] for i in sorted(bad[0])]
            raise InvariantError(
                "boundary is not a pseudomanifold at a ridge", witness=ridge
            )

    init_set = set(init)
    # farthest-first insertion: interior points then cost one visibility scan
    order = sorted(
        (i for i in range(len(points)) if i not in init_set),
        key=lambda i: sum((c - z) ** 2 for c, z in zip(points[i], inner)),
        reverse=True,
    )
    for idx in order:
        p = points[idx]
        visible = [k for k, (a, b, _) in enumerate(facets) if vdot(a, p) > b]
        if not visible:
            continue
        ridge_count: Counter = Counter()
        for k in visible:
            verts = facets[k][2]
            for v in verts:
                ridge_count[verts - {v}] += 1
        horizon = [r for r, c in ridge_count.items() if c == 1]
        visible_set = set(visible)
        facets = [f for k, f in enumerate(facets) if k not in visible_set]
        for ridge in horizon:
            facets.append(make_facet(list(ridge) + [idx]))
        check_pseudomanifold()

    for p in points:
        if any(vdot(a, p) > b for a, b, _ in facets):
            raise InvariantError("hull misses an input point", witness=p)

    seen = {}
    for a, beta, _ in facets:
        key = _normalize_hyperplane(a, beta)
        seen[key] = True
    hyperplanes = tuple(sorted(seen.keys()))
    simplices = tuple(tuple(sorted(verts)) for _, _, verts in facets)
    return hyperplanes, simplices, inner


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
        if ambient == 1:
            lo, hi = pts[0], pts[-1]
            hyps = (((-1,), -lo[0]), ((1,), hi[0]))
            data = {"hyps": hyps, "simplices": ((lo,), (hi,)), "inner": None}
            return Polytope(
                _vertices=(lo, hi), _ambient=1, _dim=1, _internal=data
            )
        if r == ambient:
            init = [0] + frame
            hyps, simplex_idx, inner = _hull_full_dim(pts, ambient, init)
            verts = _vertices_from_hyperplanes(pts, hyps, ambient)
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
        if d == 1:
            return self.vertices[-1][0] - self.vertices[0][0]
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
        eq_rows, eq_rhs = [], []
        for r, rhs in eqs:
            row = tuple(vdot(r, col) for col in basis)
            irow, irhs = _clear_denominators(row, rhs)
            eq_rows.append(irow)
            eq_rhs.append(irhs)
        le_rows, le_rhs = [], []
        for r, rhs in ineqs:
            row = tuple(vdot(r, col) for col in basis)
            irow, irhs = _clear_denominators(row, rhs)
            le_rows.append(irow)
            le_rhs.append(irhs)
        pts = box_scan(lo, hi, eq_rows, eq_rhs, le_rows, le_rhs, strict=strict)
        return sorted(linalg.mat_vec(basis, z) for z in pts)


def _clear_denominators(row: Vec, rhs: Fraction) -> tuple[IntVec, int]:
    scale = math.lcm(rhs.denominator, *[e.denominator for e in row])
    return tuple(int(e * scale) for e in row), int(rhs * scale)


def _vertices_from_hyperplanes(pts, hyps, d) -> tuple[Vec, ...]:
    """Extreme points: input points whose tight facet normals span R^d."""
    verts = []
    for p in pts:
        tight = [vec(a) for a, b in hyps if vdot(vec(a), p) == b]
        if len(tight) >= d and linalg.rank_of(tight) == d:
            verts.append(p)
    return tuple(sorted(verts))


def hull(points) -> Polytope:
    """Convex hull of rational points; vertex set is exactly the extreme points."""
    return Polytope.hull(points)


def minkowski_hull(p: Polytope, q: Polytope) -> Polytope:
    """conv(P + Q) from vertex sums only (far fewer points than the full sum)."""
    return Polytope.hull([vadd(a, b) for a in p.vertices for b in q.vertices])
