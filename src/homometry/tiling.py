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
from operator import mul, sub

from . import linalg, pointset, polytope
from ._kernels import box_scan, planar_width
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
from .lattice import Lattice
from .linalg import Vec, mat, mat_vec, vdot, vec, vec_str, vneg, vsub
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
    """w(K, u) = h(K, u) + h(K, -u) for a PointSet or Polytope, in integers:
    with q u and D p integral, it is the spread of <q u, D p> over q D."""
    k = obj.vertex_set if isinstance(obj, polytope.Polytope) else obj
    q, (n,) = linalg.clear_denominators([vec(u)])
    if len(n) != k.dim:
        raise ValueError(f"expected a direction of dimension {k.dim}, got {len(n)}")
    vals = [sum(map(mul, n, p)) for p in k.ints]
    return Fraction(max(vals) - min(vals), q * k.den)


def verify_tiling(ambient: Lattice, translations: Lattice, tile: PointSet) -> Tiling:
    """Checks M = L ⊕ T with an M-convex tile and returns the verified triple.

    The direct-sum condition is decided by counting: T must hit each of the
    index-many cosets of L in M exactly once.  A tile with fewer points than
    the index fails on its count; any other one is walked coset by coset,
    so a tile with more points names two in one coset (pigeonhole), and a
    tile that passes the walk has at most, hence exactly, index-many points.
    """
    if not (ambient.dim == translations.dim == tile.dim):
        raise ValueError("dimension mismatch between lattices and tile")
    b = next((b for b in translations.basis if not ambient.contains(b)), None)
    if b is not None:
        msg = f"L is not a sublattice of M: its basis vector {vec_str(b)} is outside M"
        raise NotASublatticeError(msg, witness=b)
    p = pointset._first_outside(ambient, tile)
    if p is not None:
        raise NotATilingError(f"tile point {vec_str(p)} is outside M", witness=p)
    idx = translations.determinant / ambient.determinant  # [M:L], an integer as L ⊆ M
    if len(tile) < idx:
        raise NotATilingError(
            f"tile has {len(tile)} points but the index [M:L] is {idx}"
        )
    m, zs = translations.scaled_coordinates(tile.ints, tile.den)
    seen = {}
    for p, z in zip(tile.ints, zs):
        r = tuple([c % m for c in z])  # the coordinates m B^-1 p mod m name the coset
        if r in seen:
            first, p = tile._point(seen[r]), tile._point(p)
            raise NotATilingError(
                f"tile points {vec_str(first)} and {vec_str(p)} lie in the same coset of L",
                witness=(first, p),
            )
        seen[r] = p
    gap = pointset._convexity_gap(tile, tile.hull(), ambient)
    if gap is not None:
        raise NotLatticeConvexError(f"tile misses the M-point {vec_str(gap)}", witness=gap)
    return Tiling(ambient, translations, tile, verified=True)


# -- thin directions -------------------------------------------------------


def _thin_body(obj, lat: Lattice):
    """(m, D(C)) for `_thin_scan`: C holds the integers c = m B^-1 v over the
    vertices v of K, a PointSet or a Polytope, whose hull is then K itself.
    Raises LowerDimensionalError when K is flat, and so D(C)."""
    given = isinstance(obj, polytope.Polytope)
    dim = obj.ambient if given else obj.dim
    if dim != lat.dim:
        dims = f"a set of dimension {dim} against a lattice of dimension {lat.dim}"
        raise ValueError(f"cannot take the widths of {dims}")
    k_hull = obj if given else obj.hull()
    if not k_hull.is_full_dimensional():
        raise LowerDimensionalError("point set is not full-dimensional")
    vs = k_hull.vertex_set
    m, cs = lat.scaled_coordinates(vs.ints, vs.den)
    return m, polytope.hull(PointSet.from_scaled([tuple(map(sub, p, q)) for p in cs for q in cs]))


def _thin_scan(body, mb, strict=False):
    """The pairs (spread, z), in lexicographic order of z, for the u = B^-T z
    in L* with w(K, u) <= bound (< bound if strict), o included when it
    counts, given (m, D(C)) = `_thin_body(K, L)` and mb = m bound.

    With the integers c = m B^-1 v over the vertices v of K, <z, c> = m <u, v>,
    so m w(K, u) is the spread of <z, c>, the support of D(C) = C - C in
    direction z.  The z are the integer points of m bound D(C)°: a row
    <v, z> <= m bound for each vertex v of D(C), in the box of that polar's
    vertices m bound a / beta over the facets <a, x> <= beta of D(C), which
    is symmetric as D(C) is.
    """
    facets = body.facets()
    hi = [max([math.floor(mb * a[i] / beta) for a, beta in facets]) for i in range(body.ambient)]
    rows = body.vertex_set.ints
    # <v, z> is an integer: <v, z> < mb iff <v, z> <= ceil(mb) - 1
    rhs = math.ceil(mb) - 1 if strict else math.floor(mb)
    zs = box_scan([-h for h in hi], hi, [], [], rows, [rhs] * len(rows))
    return [(max([sum(map(mul, v, z)) for v in rows]), z) for z in zs]


def w_set(tile: PointSet, lat: Lattice) -> WSetResult:
    """The exact finite set W(T, L) with the width of every member: W(T, L)
    is L* ∩ int(D(T)°) \\ {o}, the nonzero z of `_thin_scan` at bound 1,
    strictly, mapped to u = B^-T z, sorted by u."""
    try:
        m, body = _thin_body(tile, lat)
    except LowerDimensionalError:
        raise LowerDimensionalTileError(
            "W is infinite for tiles that do not span the space"
        ) from None
    dual = lat.dual().basis
    found = _thin_scan(body, m, strict=True)
    widths = dict(sorted((mat_vec(dual, z), Fraction(w, m)) for w, z in found if any(z)))
    return WSetResult(vectors=tuple(widths), widths=widths)


def lattice_width(obj, lat: Lattice) -> tuple[Fraction, Vec]:
    """min of w(K, u) over u in L* \\ {o}, with a witnessing minimizer.

    The candidates are the nonzero z of a `_thin_scan`, with u = B^-T z.
    Its bound starts at min beta / (m a_i) over the facets <a, x> <= beta
    of D(C) with a_i > 0, below which the box holds no nonzero cell, and
    doubles until a scan finds a nonzero z, never past the least width over
    the dual basis, where a basis vector is found.  That scan holds every z
    whose width is at most its bound, so every minimizer.  Among minimizers
    the smallest u wins, and the order of z is not the order of u.  Flat
    sets get width 0 together with an orthogonal dual vector (always
    present for rational data).
    """
    dual = lat.dual()
    try:
        m, body = _thin_body(obj, lat)
    except LowerDimensionalError:
        k = obj.vertex_set if isinstance(obj, polytope.Polytope) else obj
        _, rel = k.offsets  # D (p - lexmin), spanning what the differences of K span
        dirs = [rel[i] for i in linalg.independent_subset(rel)]
        if not dirs:  # single point: any dual vector works
            return Fraction(0), dual.basis[0]
        rows = tuple(tuple(vdot(v, col) for col in dual.basis) for v in dirs)
        return Fraction(0), mat_vec(dual.basis, linalg.nullspace(rows)[0])
    rows, d = body.vertex_set.ints, body.ambient
    w0 = min(max(v[i] for v in rows) for i in range(d))  # m w(K, u) for u = B^-T e_i
    mb = min(beta / a[i] for a, beta in body.facets() for i in range(d) if a[i] > 0)
    while not (found := [(w, z) for w, z in _thin_scan(body, mb) if any(z)]):
        mb = min(2 * mb, w0)
    least = min(w for w, _ in found)
    return Fraction(least, m), min(mat_vec(dual.basis, z) for w, z in found if w == least)


# -- Dirichlet cells and tile enumeration -----------------------------------


def _cell_points(rows, inverse, lo, hi) -> list[tuple[int, ...]]:
    """The integer z with lo_i <= <rows_i, z> <= hi_i, in lexicographic order.

    The rows R are d independent integer vectors and the bounds integers: as
    <rows_i, z> is an integer, an open bound b is the closed bound
    floor(b) + 1 from below and ceil(b) - 1 from above.  `inverse` is
    (m, the integer rows of m R^-1) for an m > 0, and the scan's box is that
    of z = R^-1 c over the corners c of the box [lo, hi].
    """
    m, inv_rows = inverse
    box_lo, box_hi = [], []
    for row in inv_rows:
        box_lo.append(-(-sum([min(a * l, a * h) for a, l, h in zip(row, lo, hi)]) // m))
        box_hi.append(sum([max(a * l, a * h) for a, l, h in zip(row, lo, hi)]) // m)
    le_rows = [*rows, *[tuple(-e for e in r) for r in rows]]
    return box_scan(box_lo, box_hi, [], [], le_rows, [*hi, *[-b for b in lo]])


def dirichlet_tile(ambient: Lattice, cell_basis, v) -> PointSet:
    """Points of M inside the half-open cell v + (0,1] b_1 + ... + (0,1] b_d."""
    cell_basis = mat(cell_basis)
    for col in cell_basis:
        if not ambient.contains(col):
            msg = f"cell basis vector {vec_str(col)} is outside M"
            raise NotInLatticeError(msg, witness=col)
    # with the cell basis K in M-coordinates, x = B_M z has cell coordinates
    # c = K^-1 (z - y), y the M-coordinates of v, and E K^-1 is integral
    _, k_cols = ambient.integer_coordinates(cell_basis)
    e, rows = Lattice(k_cols).integer_inverse
    y = ambient.coordinates(v)
    # 0 < c_i <= 1 is <row_i, y> < <row_i, z> <= <row_i, y> + E; E (E K^-1)^-1 is K
    floors = [math.floor(vdot(row, y)) for row in rows]
    lo, hi = [f + 1 for f in floors], [f + e for f in floors]
    pts = _cell_points(rows, (e, tuple(zip(*k_cols))), lo, hi)
    return PointSet([mat_vec(ambient.basis, z) for z in pts])


def enumerate_tiles_tq(basis) -> list[PointSet]:
    """All candidate tiles T_q of the integer lattice for a sublattice basis.

    With L = det(B), the rows a_i of L B^-1 (the adjugate) are integral, and
    the admissible offsets q_i run over {0, ..., L-1} in steps of n_i, the
    gcd of a_i; tiles are the integer points t of the closed cells
    q_i + n_i <= <a_i, t> <= q_i + L, deduplicated.
    """
    basis = mat(basis)
    if not linalg.is_integral(basis):
        raise ValueError("tile enumeration needs an integral basis")
    det = linalg.det(basis)
    if det == 0:
        raise SingularMatrixError("singular basis")
    if det < 0:
        raise ValueError("basis must be positively oriented (det > 0)")
    big_l = int(det)
    e, e_rows = Lattice(basis).integer_inverse
    rows = [tuple(big_l // e * c for c in row) for row in e_rows]
    # L (L B^-1)^-1 is B, the same for every offset
    inverse = (big_l, tuple([tuple(map(int, r)) for r in zip(*basis)]))
    ns = [math.gcd(*row) for row in rows]
    tiles = set()
    for q in itertools.product(*[range(0, big_l, n) for n in ns]):
        lo = [qi + n for qi, n in zip(q, ns)]
        pts = _cell_points(rows, inverse, lo, [qi + big_l for qi in q])
        if pts:
            tiles.add(PointSet.from_scaled(pts))
    return sorted(tiles, key=lambda t: t.ints)


# -- the sufficient/necessary convexity conditions ---------------------------


def _require_verified(t: Tiling):
    if not t.verified:
        raise ValueError("tiling must come from verify_tiling")


def _facet_conditions(s: PointSet, t: Tiling, with_c: bool):
    """(a) and (c) as (holds, witness) pairs from one prologue and one scan.

    The prologue raises unless t is verified, S lies in L and S is
    full-dimensional; when S is not L-convex, (a) and (c) fail with the
    least L-point of conv(S) that S misses (`lattice_convexity_witness`)
    as the witness.  A facet's primitive normal a has the coordinates
    B^T a in the dual basis B^-T, so its primitive dual direction is
    u = B^-T z with z = F B^T a / gcd, F B^T a being the integers
    <F b_j, a>.  With the integers c_p = m B^-1 p for the points p of T,
    <z, c_p> = m <u, p>, so w(T, u) >= 1 iff the <z, c_p> spread by m or
    more; u is built only for such a wide facet.  (a) fails on the first
    wide facet, (c) on the first wide facet F with aff(F) ⊆ F + L.
    Without with_c, (c) is (None, None).
    """
    _require_verified(t)
    lat = t.translations
    gap = pointset.lattice_convexity_witness(s, lat)
    s_hull = s.hull()
    if not s_hull.is_full_dimensional():
        raise LowerDimensionalError("S must be full-dimensional")
    if gap is not None:
        return (False, gap), ((False, gap) if with_c else (None, None))
    basis_cols = list(zip(*lat.integer_basis[1]))  # the columns F b_j
    m, coords = lat.scaled_coordinates(t.tile.ints, t.tile.den)
    wa = wc = None
    for a, verts in s_hull.facet_vertex_sets():
        z = polytope._primitive([sum(map(mul, col, a)) for col in basis_cols])
        vals = [sum(map(mul, z, c)) for c in coords]
        if max(vals) - min(vals) < m:
            continue
        u = mat_vec(lat.dual().basis, z)
        wa = wa or u
        if not with_c or affine_covering_test(verts, lat):
            wc = u
            break
    return (wa is None, wa), ((wc is None, wc) if with_c else (None, None))


def check_condition_a(s: PointSet, t: Tiling) -> bool:
    return condition_a_witness(s, t)[0]


def condition_a_witness(s: PointSet, t: Tiling):
    """(holds, witness): witness is a facet normal of width >= 1 if any, or
    the L-point of conv(S) that S misses when S is not L-convex."""
    return _facet_conditions(s, t, with_c=False)[0]


def check_condition_b(s: PointSet, t: Tiling) -> bool:
    return condition_b_witness(s, t)[0]


def condition_b_witness(s: PointSet, t: Tiling):
    """(holds, witness): witness is the least M-point of the convexity gap
    of S + T if any (`sum_convexity_witness`, which builds S + T only when
    the scan of conv(S) + conv(T) finds a gap).

    When S + T is not direct, the witness is the two pairs (s', t') and
    (s, t) != (s', t') of S x T with s + t = s' + t' that the
    NotDirectError of `sum_convexity_witness` names, the pairs `direct_sum`
    names.  `check_abc` never reports them: its (a)/(c) prologue refuses an
    S outside L first, and an S in L makes S + T direct.
    """
    _require_verified(t)
    try:
        gap = pointset.sum_convexity_witness(s, t.tile, t.ambient)
    except NotDirectError as exc:
        return False, exc.witness
    return (gap is None), gap


def check_condition_c(s: PointSet, t: Tiling) -> bool:
    return condition_c_witness(s, t)[0]


def condition_c_witness(s: PointSet, t: Tiling):
    """(holds, witness): witness is the normal of a wide covering facet if any."""
    _require_verified(t)
    if t.ambient.dim > 3:
        raise UnsupportedDimensionError("condition (c) is implemented for d <= 3")
    return _facet_conditions(s, t, with_c=True)[1]


def check_abc(s: PointSet, t: Tiling):
    """All three condition checks with witnesses; (c) is (None, None) for d > 3.

    (a) and (c) run first and raise NotInLatticeError unless S lies in L.
    Every tile T of M/L meets each coset of L once, so for S in L the sum
    S + T is direct, and (b) never fails for a non-direct sum here.
    """
    a, c = _facet_conditions(s, t, with_c=t.ambient.dim <= 3)
    return {"a": a, "b": condition_b_witness(s, t), "c": c}


# -- the facet covering test aff(F) ⊆ F + L ----------------------------------


def affine_covering_test(vertices, lat: Lattice) -> bool:
    """Whether the affine hull of a lattice facet is covered by its L-translates.

    The facet is given by its extreme points, whose L-coordinates relative
    to the first must be integers of rank d - 1, else a ValueError; the
    facets of conv(S) for an S in L, as in condition (c), are such.

    - d = 1: the facet is a point, its own affine hull.
    - d = 2: the Z-translates of a lattice segment cover its line.
    - d = 3: on a basis of the integer kernel of the primitive normal, the
      facet is a lattice polygon Q, translated by Z^2.  With
      (w, m) = `planar_width(Q)`, Q covers iff w >= 2, or w = 1 and each
      lattice line <m, x> = c, c + 1 holds at least two vertices of Q.

    For w = 1, a line strictly between those two meets Q in a chord of
    length (1 - t) l0 + t l1, l0 and l1 the lattice lengths of Q on them;
    only the translates along the line reach it, and they cover it iff the
    chord has length >= 1.  The uncovered set is open, so Q covers iff
    l0 >= 1 and l1 >= 1.  For w >= 2: a lattice polygon with no interior
    lattice point has width <= 1 or is unimodularly equivalent to 2Δ
    (Arkinstall, "Minimal requirements for Minkowski's theorem in the plane
    I", 1980), which holds a unit square; one with an interior lattice
    point has covering radius <= 1, so Q + Z^2 is the plane (the d = 2 case
    in Codenotti, Santos and Schymura, "The covering radius and a discrete
    surface area for non-hollow simplices", DCG 2022).
    """
    d = lat.dim
    if d > 3:
        raise UnsupportedDimensionError("covering test is implemented for d <= 3")
    scale, ints = lat.integer_coordinates([vsub(v, vertices[0]) for v in vertices])
    normals = linalg.nullspace(ints)
    if len(normals) != 1:
        raise ValueError("expected the vertices of a facet, spanning a (d-1)-flat")
    if scale != 1:
        raise ValueError("expected a lattice facet, whose vertices differ by vectors of L")
    if d < 3:
        return True
    _, _, coords = linalg.span_coordinates(linalg.integer_kernel([normals[0]]), ints)
    poly = set()
    for v, xy in zip(vertices, coords):
        if any(c.denominator != 1 for c in xy):
            raise InvariantError("facet vertex is off the integer grid", witness=v)
        poly.add(tuple(int(c) for c in xy))
    w, m = planar_width(poly)
    heights = sorted([m[0] * x + m[1] * y for x, y in poly])  # two values when w = 1
    return w > 1 or (heights[0] == heights[1] and heights[-2] == heights[-1])


# -- the thin-cover basis --------------------------------------------------


def thin_cover_basis(wset: WSetResult, lat: Lattice):
    """A basis b_1..b_d of L with |<w, b_i>| <= 2 (3/2)^(d-2) (d!)^2 for all w.

    Existence is guaranteed whenever W spans, but the search is neither
    cheap nor complete.  Its candidates are the b in L ∩ kappa conv(±W)°,
    the u = B z of `_thin_scan` of ±W on L* at bound 2 kappa, as
    D(±W) = 2 conv(±W), the dual of L* being L, whose box a skewed basis
    makes huge.  They are ordered by w(±W, b), that is 2 max |<w, b>|, then
    by b's L-coordinates z, and only the 30 first are tried as bases, so it
    returns None whenever no basis is among them, even when one exists.
    ROADMAP item 15 replaces the search by a lattice reduction.
    """
    d = lat.dim
    kappa = 2 * math.factorial(d) ** 2 * Fraction(3, 2) ** (d - 2)
    if all(abs(vdot(w, b)) <= kappa for b in lat.basis for w in wset.vectors):
        return lat.basis, kappa
    signed = PointSet([v for w in wset.vectors for v in (w, vneg(w))])
    try:
        m, body = _thin_body(signed, lat.dual())
    except LowerDimensionalError:
        return None, kappa
    shortlist = [z for _, z in sorted(_thin_scan(body, 2 * kappa * m)) if any(z)][:30]
    for combo in itertools.combinations(shortlist, d):
        if abs(linalg.det(mat(combo))) == 1:
            return tuple(mat_vec(lat.basis, z) for z in combo), kappa
    return None, kappa
