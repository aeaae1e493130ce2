"""Tilings (M, L, T): verification, thin directions, widths, condition checks.

A tiling is a triple of an ambient lattice M, a translation lattice L ⊆ M
and a finite M-convex tile T with M = L ⊕ T.  The thin-direction set

    W(T, L) = {u in L* \\ {o} : w(T, u) < 1}

drives every convexity condition here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, pointset, polytope
from ._kernels import box_scan, thin_directions
from .errors import (
    InvariantError,
    LowerDimensionalError,
    LowerDimensionalTileError,
    NotASublatticeError,
    NotATilingError,
    NotDirectError,
    NotInLatticeError,
    NotLatticeConvexError,
    SingularMatrixError,
    UnsupportedDimensionError,
)
from .lattice import Lattice, index
from .linalg import Vec, mat, mat_vec, transpose, vadd, vdot, vec, vneg, vsub
from .pointset import PointSet


@dataclass(frozen=True)
class Tiling:
    ambient: Lattice  # M
    translations: Lattice  # L
    tile: PointSet  # T
    verified: bool = False

    def to_json(self):
        return {
            "M": self.ambient.to_json(),
            "L": self.translations.to_json(),
            "T": self.tile.to_json(),
        }


@dataclass(frozen=True)
class WSetResult:
    vectors: tuple[Vec, ...]
    widths: dict

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __contains__(self, u):
        return vec(u) in self.widths


def width_of(obj, u) -> Fraction:
    """w(K, u) = h(K, u) + h(K, -u) for a PointSet or Polytope."""
    u = vec(u)
    pts = obj.vertices if isinstance(obj, polytope.Polytope) else obj.points
    vals = [vdot(u, p) for p in pts]
    return max(vals) - min(vals)


def verify_tiling(ambient: Lattice, translations: Lattice, tile: PointSet) -> Tiling:
    """Checks M = L ⊕ T with an M-convex tile and returns the verified triple.

    The direct-sum condition is decided by counting: T must hit each of the
    index-many cosets of L in M exactly once.
    """
    if not (ambient.dim == translations.dim == tile.dim):
        raise ValueError("dimension mismatch between lattices and tile")
    if not translations.is_sublattice_of(ambient):
        raise NotASublatticeError("L is not a sublattice of M")
    for p in tile.points:
        if not ambient.contains(p):
            raise NotATilingError(f"tile point {p} is outside M", witness=p)
    idx = index(translations, ambient)
    if len(tile) != idx:
        raise NotATilingError(
            f"tile has {len(tile)} points but the index [M:L] is {idx}"
        )
    seen = {}
    for p in tile.points:
        r = translations.canonical_residue(p)
        if r in seen:
            raise NotATilingError(
                f"tile points {seen[r]} and {p} lie in the same coset of L",
                witness=(seen[r], p),
            )
        seen[r] = p
    gap = pointset.lattice_convexity_witness(tile, ambient)
    if gap is not None:
        raise NotLatticeConvexError(f"tile misses the M-point {gap}", witness=gap)
    return Tiling(ambient, translations, tile, verified=True)


# -- thin directions -------------------------------------------------------


def _independent_differences(points: tuple[Vec, ...]) -> list[Vec]:
    """Greedy linearly independent difference vectors from the first point."""
    diffs = [vsub(p, points[0]) for p in points[1:]]
    return [diffs[i] for i in linalg.independent_subset(diffs)]


def _lattice_coordinates(points, lat: Lattice):
    """(scale, the integer points scale * B^-1 p) with the least common scale."""
    return linalg.clear_denominators(mat_vec(lat.inverse_basis, p) for p in points)


def _thin_widths(points, lat: Lattice, bound, strict=False):
    """(u, w(points, u)) for every u in L* \\ {o} of width <= bound (< if strict).

    For u = B* m, <u, p> = <m, B^-1 p>, so the kernel's spreads over the
    integer coordinates are the widths times the scale.  Raises
    LowerDimensionalError when the points do not span the space.
    """
    scale, ints = _lattice_coordinates(points, lat)
    bstar = transpose(lat.inverse_basis)
    for m, spread in thin_directions(ints, bound * scale, strict):
        yield mat_vec(bstar, m), Fraction(spread, scale)


def w_set(tile: PointSet, lat: Lattice) -> WSetResult:
    """The exact finite set W(T, L) with the width of every member."""
    try:
        found = dict(_thin_widths(tile.points, lat, 1, strict=True))
    except LowerDimensionalError:
        raise LowerDimensionalTileError(
            "W is infinite for tiles that do not span the space"
        ) from None
    return WSetResult(vectors=tuple(sorted(found)), widths=found)


def lattice_width(obj, lat: Lattice) -> tuple[Fraction, Vec]:
    """min of w(K, u) over u in L* \\ {o}, with a witnessing minimizer.

    Among minimizers the smallest u wins.  Flat sets get width 0 together
    with an orthogonal dual vector (always present for rational data).
    """
    pts = obj.vertices if isinstance(obj, polytope.Polytope) else obj.points
    bstar = transpose(lat.inverse_basis)
    w0 = min(width_of(obj, col) for col in bstar)
    try:
        return min((w, u) for u, w in _thin_widths(pts, lat, w0))
    except LowerDimensionalError:
        pass
    dirs = _independent_differences(pts)
    if not dirs:  # single point: any dual vector works
        return Fraction(0), bstar[0]
    rows = tuple(tuple(vdot(v, col) for col in bstar) for v in dirs)
    m = linalg.primitive_integer_direction(linalg.nullspace(rows)[0])
    return Fraction(0), mat_vec(bstar, m)


# -- Dirichlet cells and tile enumeration -----------------------------------


def dirichlet_tile(ambient: Lattice, cell_basis, v) -> PointSet:
    """Points of M inside the half-open cell v + (0,1] b_1 + ... + (0,1] b_d."""
    cell_basis = mat(cell_basis)
    for col in cell_basis:
        if not ambient.contains(col):
            raise NotInLatticeError(f"cell basis vector {col} is outside M")
    v = vec(v)
    d = ambient.dim
    inv_cell = linalg.inverse(cell_basis)
    corners = []
    for picks in itertools.product((0, 1), repeat=d):
        corner = v
        for take, col in zip(picks, cell_basis):
            if take:
                corner = vadd(corner, col)
        corners.append(mat_vec(ambient.inverse_basis, corner))
    lo = [min(math.floor(c[i]) for c in corners) for i in range(d)]
    hi = [max(math.ceil(c[i]) for c in corners) for i in range(d)]
    # coordinates of x = B_M z in the cell basis: rows of inv_cell applied to
    # x, so x - v has cell coordinates c_i = row_i·z - t_i
    t = mat_vec(inv_cell, v)
    le_rows, le_rhs = [], []
    for i in range(d):
        row = [
            vdot(tuple(inv_cell[k][i] for k in range(d)), col)
            for col in ambient.basis
        ]
        # irow = scale * row_i and ti = scale * t_i are integral
        scale, ((*irow, ti),) = linalg.clear_denominators([row + [t[i]]])
        # c_i <= 1  ->  irow·z <= ti + scale
        le_rows.append(tuple(irow))
        le_rhs.append(ti + scale)
        # c_i > 0   ->  irow·z >= ti + 1, as the integers are spaced by 1
        le_rows.append(tuple(-e for e in irow))
        le_rhs.append(-(ti + 1))
    pts = box_scan(lo, hi, [], [], le_rows, le_rhs, strict=False)
    return PointSet([mat_vec(ambient.basis, z) for z in pts])


def enumerate_tiles_tq(basis) -> list[PointSet]:
    """All candidate tiles T_q of the integer lattice for a sublattice basis.

    The admissible offsets q_i run over {0, ..., L-1} in steps of n_i, the
    gcd of the i-th adjugate row; tiles are the integer points of the closed
    cells sum_i [(q_i+n_i)/L, (q_i+L)/L] b_i, deduplicated.
    """
    basis = mat(basis)
    if not linalg.is_integral(basis):
        raise ValueError("tile enumeration needs an integral basis")
    d = len(basis)
    det = linalg.det(basis)
    if det == 0:
        raise SingularMatrixError("singular basis")
    if det < 0:
        raise ValueError("basis must be positively oriented (det > 0)")
    big_l = int(det)
    adj = linalg.adjugate(basis)
    rows = [tuple(int(adj[j][i]) for j in range(d)) for i in range(d)]
    ns = [math.gcd(*[abs(e) for e in row]) for row in rows]
    seen = set()
    tiles = []
    for q in itertools.product(*[range(0, big_l, n) for n in ns]):
        lo_vals = [q[i] + ns[i] for i in range(d)]
        hi_vals = [q[i] + big_l for i in range(d)]
        corners = []
        for picks in itertools.product((0, 1), repeat=d):
            c = tuple(
                Fraction(hi_vals[i] if picks[i] else lo_vals[i], big_l)
                for i in range(d)
            )
            corners.append(mat_vec(basis, c))
        lo = [min(math.floor(c[i]) for c in corners) for i in range(d)]
        hi = [max(math.ceil(c[i]) for c in corners) for i in range(d)]
        le_rows, le_rhs = [], []
        for i in range(d):
            le_rows.append(rows[i])
            le_rhs.append(hi_vals[i])
            le_rows.append(tuple(-e for e in rows[i]))
            le_rhs.append(-lo_vals[i])
        pts = box_scan(lo, hi, [], [], le_rows, le_rhs, strict=False)
        if not pts:
            continue
        key = frozenset(pts)
        if key not in seen:
            seen.add(key)
            tiles.append(PointSet(pts))
    return sorted(tiles, key=lambda t: t.points)


# -- the sufficient/necessary convexity conditions ---------------------------


def _require_verified(t: Tiling):
    if not t.verified:
        raise ValueError("tiling must come from verify_tiling")


def _convex_summand_hull(s: PointSet, t: Tiling):
    """conv(S) when S is L-convex, else None: the prologue of (a) and (c).

    Raises unless t is verified, S lies in L and S is full-dimensional.
    """
    _require_verified(t)
    lat = t.translations
    for p in s.points:
        if not lat.contains(p):
            raise NotInLatticeError(f"S point {p} is outside L")
    s_hull = s.hull()
    if not s_hull.is_full_dimensional():
        raise LowerDimensionalError("S must be full-dimensional")
    return s_hull if pointset.is_lattice_convex(s, lat) else None


def check_condition_a(s: PointSet, t: Tiling) -> bool:
    holds, _ = condition_a_witness(s, t)
    return holds


def condition_a_witness(s: PointSet, t: Tiling):
    """(holds, witness): witness is a facet normal of width >= 1 if any."""
    s_hull = _convex_summand_hull(s, t)
    if s_hull is None:
        return False, None
    tile_hull = t.tile.hull()
    dual = t.translations.dual()
    for a, _ in s_hull.facets():
        u = dual.primitive_parallel(a)
        if width_of(tile_hull, u) >= 1:
            return False, u
    return True, None


def check_condition_b(s: PointSet, t: Tiling) -> bool:
    holds, _ = condition_b_witness(s, t)
    return holds


def condition_b_witness(s: PointSet, t: Tiling):
    """(holds, witness): witness is an M-point of the convexity gap if any."""
    _require_verified(t)
    try:
        total = pointset.direct_sum(s, t.tile)
    except NotDirectError:
        return False, None
    gap = pointset.sum_convexity_witness(s, t.tile, total, t.ambient)
    return (gap is None), gap


def check_condition_c(s: PointSet, t: Tiling) -> bool:
    holds, _ = condition_c_witness(s, t)
    return holds


def condition_c_witness(s: PointSet, t: Tiling):
    _require_verified(t)
    if t.ambient.dim > 3:
        raise UnsupportedDimensionError("condition (c) is implemented for d <= 3")
    s_hull = _convex_summand_hull(s, t)
    if s_hull is None:
        return False, None
    lat = t.translations
    tile_hull = t.tile.hull()
    dual = lat.dual()
    for a, verts in s_hull.facet_vertex_sets():
        facet = polytope.hull(verts)
        if not affine_covering_test(facet, lat):
            continue
        u = dual.primitive_parallel(vec(a))
        if width_of(tile_hull, u) >= 1:
            return False, u
    return True, None


def check_abc(s: PointSet, t: Tiling):
    """All three condition checks with witnesses, for reporting."""
    a, wa = condition_a_witness(s, t)
    b, wb = condition_b_witness(s, t)
    if t.ambient.dim <= 3:
        c, wc = condition_c_witness(s, t)
    else:
        c, wc = None, None
    return {"a": (a, wa), "b": (b, wb), "c": (c, wc)}


# -- the facet covering test aff(F) ⊆ F + L ----------------------------------


def affine_covering_test(facet: polytope.Polytope, lat: Lattice) -> bool:
    """Whether the affine hull of a facet is covered by its L-translates.

    Every dimension works in one frame: the L-coordinates of the facet's
    vertices relative to its first vertex, scaled by their least common
    denominator D.  There the facet is an integer polytope Q through the
    origin and L is D Z^d, so the question is whether the translates of Q
    by D Z^d inside its linear span cover that span.

    - d = 1: a facet is a point, which is its own affine hull.
    - d = 2: Q is a segment [0, z]; the translations along its line are the
      multiples of D z / gcd(z), so it covers iff gcd(z) >= D.
    - d = 3: the span meets Z^3 in the lattice spanned by the integer kernel
      of the primitive normal w, and on that basis Q has integer vertices
      and D Z^3 becomes D Z^2.  The uncovered set is open and periodic, so
      Q covers iff its translates clipped to the closed cell [0, D]^2 fill
      the cell's area.  The clipped pieces are kept disjoint, so the covered
      area only grows and the test returns as soon as it reaches the cell's.
    """
    d = lat.dim
    if d > 3:
        raise UnsupportedDimensionError("covering test is implemented for d <= 3")
    if facet.dim != d - 1:
        raise ValueError("expected a facet of dimension d-1")
    if d == 1:
        return True
    f0 = facet.vertices[0]
    scale, ints = _lattice_coordinates([vsub(v, f0) for v in facet.vertices], lat)
    if d == 2:
        return math.gcd(*ints[-1]) >= scale
    # any three vertices of a convex polygon are affinely independent
    w = linalg.primitive_integer_direction(linalg.nullspace(ints[1:3])[0])
    _, _, coords = linalg.span_coordinates(linalg.integer_kernel([w]), ints)
    poly = []
    for v, xy in zip(facet.vertices, coords):
        if any(c.denominator != 1 for c in xy):
            raise InvariantError("facet vertex is off the integer grid", witness=v)
        poly.append(tuple(int(c) for c in xy))
    # counterclockwise: the lower chain from the lex-first to the lex-last
    # vertex, then the upper chain back
    poly.sort()
    (x0, y0), (x1, y1) = poly[0], poly[-1]
    side = [(x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) for x, y in poly]
    poly = [p for p, s in zip(poly, side) if s <= 0] + [
        p for p, s in zip(reversed(poly), reversed(side)) if s > 0
    ]
    cell = [(0, 0), (scale, 0), (scale, scale), (0, scale)]
    xs, ys = [x for x, _ in poly], [y for _, y in poly]
    covered2, pieces = 0, []
    # the translates (a D, b D) that meet the cell
    for a in range(-(max(xs) // scale), (scale - min(xs)) // scale + 1):
        for b in range(-(max(ys) // scale), (scale - min(ys)) // scale + 1):
            moved = [(x + a * scale, y + b * scale) for x, y in poly]
            parts = [p for p in [_clip_to_convex(moved, cell)] if _polygon_area2(p)]
            for prev in pieces:
                if not parts:
                    break
                parts = [q for part in parts for q in _convex_difference(part, prev)]
            covered2 += sum(_polygon_area2(part) for part in parts)
            pieces.extend(parts)
            if covered2 == 2 * scale * scale:
                return True
    return False


# exact 2D polygon helpers ---------------------------------------------------


def _polygon_area2(poly) -> Fraction:
    """Twice the signed shoelace area (positive for ccw polygons)."""
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def _clip(poly, a, b, rhs):
    """Clip a convex ccw polygon to the halfplane a*x + b*y <= rhs.

    New vertices are exact Fractions, also on int input.
    """
    if not poly:
        return []
    out = []
    n = len(poly)
    vals = [a * p[0] + b * p[1] - rhs for p in poly]
    for i in range(n):
        p, vp = poly[i], vals[i]
        q, vq = poly[(i + 1) % n], vals[(i + 1) % n]
        if vp <= 0:
            out.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = Fraction(vp) / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _edge_halfplane(p1, p2):
    """(a, b, rhs) with the left side of p1->p2 given by a*x + b*y >= rhs."""
    a = -(p2[1] - p1[1])
    b = p2[0] - p1[0]
    return a, b, a * p1[0] + b * p1[1]


def _clip_to_convex(poly, convex_ccw):
    cur = poly
    n = len(convex_ccw)
    for i in range(n):
        a, b, rhs = _edge_halfplane(convex_ccw[i], convex_ccw[(i + 1) % n])
        cur = _clip(cur, -a, -b, -rhs)  # keep the inside (>= rhs)
        if not cur:
            return []
    return cur


def _convex_difference(poly, cutter):
    """Disjoint convex pieces of poly minus cutter (both convex, ccw)."""
    pieces = []
    current = poly
    n = len(cutter)
    for i in range(n):
        a, b, rhs = _edge_halfplane(cutter[i], cutter[(i + 1) % n])
        outside = _clip(current, a, b, rhs)  # beyond this edge (<= rhs)
        if len(outside) >= 3 and _polygon_area2(outside) != 0:
            pieces.append(outside)
        current = _clip(current, -a, -b, -rhs)
        if not current:
            break
    return pieces


# -- parity and finiteness helpers -------------------------------------------


def parity_check(t: Tiling) -> bool:
    """(2 L*) ∩ int(D(T)°) = {o}: no nonzero u in L* with w(T, u) < 1/2."""
    _require_verified(t)
    try:
        thin = _thin_widths(t.tile.points, t.translations, Fraction(1, 2), strict=True)
        return next(thin, None) is None
    except LowerDimensionalError:
        raise LowerDimensionalTileError(
            "parity check needs a full-dimensional tile"
        ) from None


def thin_cover_basis(wset: WSetResult, lat: Lattice):
    """A basis b_1..b_d of L with |<w, b_i>| <= 2 (3/2)^(d-2) (d!)^2 for all w.

    Existence is guaranteed whenever W spans; the search is bounded and
    returns None when it fails to locate one.
    """
    d = lat.dim
    kappa = Fraction(2 * 3 ** (d - 2) * math.factorial(d) ** 2, 2 ** (d - 2))
    if all(abs(vdot(w, b)) <= kappa for b in lat.basis for w in wset.vectors):
        return lat.basis, kappa
    # In dual coordinates the points ±w become ±B^T w, over which b = B z
    # has spread 2 max |<w, b>|; the kernel scans the z with spread <= 2 kappa.
    signed = [v for w in wset.vectors for v in (w, vneg(w))]
    scale, pts = _lattice_coordinates(signed, lat.dual())
    try:
        cands = sorted((spread, z) for z, spread in thin_directions(pts, 2 * kappa * scale))
    except LowerDimensionalError:
        return None, kappa
    shortlist = [z for _, z in cands[:30]]
    for combo in itertools.combinations(shortlist, d):
        if abs(linalg.det(mat(combo))) == 1:
            return tuple(mat_vec(lat.basis, z) for z in combo), kappa
    return None, kappa
