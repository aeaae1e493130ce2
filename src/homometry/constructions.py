"""Generators for the documented tilings, homometric pairs and counterexamples."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg, pointset, tiling
from ._kernels import box_scan
from .errors import (
    InvalidBaseError,
    InvalidParametersError,
    InvalidSError,
    InvariantError,
    NotInLatticeError,
)
from .lattice import Lattice
from .linalg import frac, mat, mat_mul, mat_vec, transpose, vdot, vec, vec_str, vsub
from .pointset import (
    PointSet,
    centrally_symmetric,
    covariogram,
    direct_sum,
    homometric,
    is_lattice_convex,
    lattice_convexity_witness,
    trivially_homometric,
)
from .polytope import hull
from .tiling import Tiling, verify_tiling, w_set


@dataclass(frozen=True)
class HomometricPair:
    """S ⊕ T together with S ⊕ (-T) over a verified tiling."""

    sum_plus: PointSet  # K = S ⊕ T
    sum_minus: PointSet  # L = S ⊕ (-T)
    tiling: Tiling
    s: PointSet
    nontrivial: bool

    def to_json(self):
        return {
            "K": self.sum_plus.to_json(),
            "L": self.sum_minus.to_json(),
            "tiling": self.tiling.to_json(),
            "S": self.s.to_json(),
            "nontrivial": self.nontrivial,
        }


def _build_pair(s: PointSet, t: Tiling) -> HomometricPair:
    plus = direct_sum(s, t.tile)
    minus = direct_sum(s, t.tile.negate())
    return HomometricPair(
        sum_plus=plus,
        sum_minus=minus,
        tiling=t,
        s=s,
        nontrivial=not trivially_homometric(plus, minus),
    )


def planar_family_tiling(k: int) -> Tiling:
    """The planar tiling with basis (k+1,-1), (k,1) and the two-row tile."""
    if k < 1:
        raise InvalidParametersError("k must be a positive integer")
    ambient = Lattice.standard(2)
    translations = Lattice(((k + 1, -1), (k, 1)))
    tile = PointSet(
        [(x, 0) for x in range(k + 1)] + [(x, 1) for x in range(k)]
    )
    return verify_tiling(ambient, translations, tile)


def planar_family(k: int, s: PointSet | None = None) -> HomometricPair:
    """The two-dimensional family; default S is {o, b1, b2}."""
    t = planar_family_tiling(k)
    b1, b2 = t.translations.basis
    if s is None:
        s = PointSet([(0, 0), b1, b2])
    else:
        _validate_planar_s(s, t, (b1, b2, vsub(b2, b1)))
    return _build_pair(s, t)


def _validate_planar_s(s: PointSet, t: Tiling, allowed_edges):
    try:
        gap = lattice_convexity_witness(s, t.translations)
    except NotInLatticeError as exc:
        p = exc.witness
        raise InvalidSError(f"S point {vec_str(p)} is outside L", witness=p) from exc
    if gap is not None:
        msg = f"S is not L-convex: conv(S) holds the L-point {vec_str(gap)}, which S misses"
        raise InvalidSError(msg, witness=gap)
    s_hull = s.hull()
    if s_hull.dim != 2:
        raise InvalidSError("S must be two-dimensional")
    for _, verts in s_hull.facet_vertex_sets():
        edge = vsub(verts[-1], verts[0])
        if all(edge[0] * w[1] - edge[1] * w[0] != 0 for w in allowed_edges):
            raise InvalidSError(
                f"edge {vec_str(verts[0])}..{vec_str(verts[-1])}"
                " is parallel to no allowed direction",
                witness=edge,
            )


def generalized_family_tiling(d: int, k: int) -> Tiling:
    """Union of d parallel segments tiling Z^d by the hyperplane sublattice."""
    if d < 2 or k < 1:
        raise InvalidParametersError("need d >= 2 and k >= 1")
    tile_pts = [tuple(x if i == 0 else 0 for i in range(d)) for x in range(k + 1)]
    for j in range(1, d):
        for x in range(k):
            p = [0] * d
            p[0] = x
            p[j] = 1
            tile_pts.append(tuple(p))
    tile = PointSet(tile_pts)
    r = d * k + 1
    a = tuple((i - 1) * k + 1 for i in range(1, d + 1))
    basis = []
    for i in range(1, d + 1):
        col = [0] * d
        if i == 1:
            col[0] = k + 1
            col[1] = -1
        elif i < d:
            col[0] = k
            col[i - 1] = 1
            col[i] = -1
        else:
            col[0] = k
            col[d - 1] = 1
        basis.append(tuple(col))
    translations = Lattice(basis)
    t = verify_tiling(Lattice.standard(d), translations, tile)
    values = sorted(int(vdot(vec(a), p)) for p in tile.points)
    if values != list(range(r)):
        raise InvariantError("tile does not map bijectively onto 0..r-1", witness=values)
    return t


def generalized_family(
    d: int, k: int, variant: str = "simplex", n: int | None = None, m: int | None = None
) -> HomometricPair:
    """The d-dimensional family; S is the basis simplex or a truncated box."""
    t = generalized_family_tiling(d, k)
    basis = t.translations.basis
    if variant == "simplex":
        s = PointSet([tuple([0] * d)] + list(basis))
    elif variant == "truncated_box":
        if n is None or m is None or not (0 < m < d * n):
            raise InvalidParametersError("truncated box needs 0 < m < d*n")
        pts = []
        for combo in itertools.product(range(n + 1), repeat=d):
            if sum(combo) <= m:
                pts.append(mat_vec(basis, combo))
        s = PointSet(pts)
    else:
        raise InvalidParametersError(f"unknown variant {variant!r}")
    return _build_pair(s, t)


def _block_diag(b1, b2):
    d1, d2 = len(b1[0]), len(b2[0])
    cols = []
    for col in b1:
        cols.append(tuple(col) + tuple([Fraction(0)] * d2))
    for col in b2:
        cols.append(tuple([Fraction(0)] * d1) + tuple(col))
    return mat(cols)


def cartesian_product(
    f1: tuple[PointSet, Tiling], f2: tuple[PointSet, Tiling]
) -> HomometricPair:
    """Product pair (S1 x S2) ⊕ (T1 x T2) of two factors (S_i, tiling_i);
    homometry re-verified directly."""
    (s1, t1), (s2, t2) = f1, f2
    ambient = Lattice(_block_diag(t1.ambient.basis, t2.ambient.basis))
    translations = Lattice(_block_diag(t1.translations.basis, t2.translations.basis))
    tile = PointSet(
        [tuple(a) + tuple(b) for a in t1.tile.points for b in t2.tile.points]
    )
    t = verify_tiling(ambient, translations, tile)
    s = PointSet([tuple(a) + tuple(b) for a in s1.points for b in s2.points])
    pair = _build_pair(s, t)
    plus, minus = covariogram(pair.sum_plus), covariogram(pair.sum_minus)
    if plus != minus:
        support = plus.entries.keys() | minus.entries.keys()
        u = min(u for u in support if plus[u] != minus[u])
        raise InvariantError("product pair failed the covariogram check", witness=u)
    return pair


def parabola_construction(n: int, base: Tiling | None = None) -> HomometricPair:
    """Lift a planar tiling to R^3 and pair it with a prism over a parabola arc.

    The resulting conv(S) has 2n+3 facets, all with normals of thin
    directions of the lifted tile; the tile itself is flat in R^3.
    """
    if n < 1:
        raise InvalidParametersError("n must be a positive integer")
    if base is None:
        base = planar_family_tiling(1)
    if base.ambient.dim != 2:
        raise InvalidBaseError("base tiling must be planar")
    if centrally_symmetric(base.tile):
        raise InvalidBaseError("base tile must be noncentrally symmetric")
    wset = w_set(base.tile, base.translations)
    dual = base.translations.dual()
    pair_uv = None
    for u1, u2 in itertools.combinations(wset.vectors, 2):
        z1 = dual.coordinates(u1)
        z2 = dual.coordinates(u2)
        if abs(z1[0] * z2[1] - z1[1] * z2[0]) == 1:
            pair_uv = (u1, u2)
            break
    if pair_uv is None:
        raise InvalidBaseError("no dual-basis pair of thin directions found")
    # change coordinates so the two thin directions become e1, e2
    a_cols = transpose(mat(pair_uv))
    ambient2 = Lattice(mat_mul(a_cols, base.ambient.basis))
    tile2 = [mat_vec(a_cols, p) for p in base.tile.points]

    ambient = Lattice(_block_diag(ambient2.basis, ((1,),)))
    translations = Lattice.standard(3)
    tile = PointSet([tuple(p) + (Fraction(0),) for p in tile2])
    t = verify_tiling(ambient, translations, tile)

    parabola = [(Fraction(i * i), Fraction(i)) for i in range(-n, n + 1)]
    prism = hull([(e,) + p for e in (0, 1) for p in parabola])
    s = prism.lattice_points(translations)
    facets = prism.facets()
    if len(facets) != 2 * n + 3:
        raise InvariantError(
            f"expected {2 * n + 3} facets, found {len(facets)}",
            witness=[a for a, _ in facets],
        )
    return _build_pair(s, t)


def counterexample_ab(d: int) -> tuple[PointSet, Tiling]:
    """Half-integer two-point tile: condition (b) holds while (a) fails."""
    if d < 3:
        raise InvalidParametersError("needs d >= 3")
    a = tuple(Fraction(1, 2) for _ in range(d))
    cols = [tuple(int(i == j) for i in range(d)) for j in range(d - 1)] + [a]
    ambient = Lattice(cols)
    translations = Lattice.standard(d)
    tile = PointSet([tuple([0] * d), a])
    t = verify_tiling(ambient, translations, tile)
    s = PointSet([tuple([0] * d)] + [tuple(int(i == j) for i in range(d)) for j in range(d)])
    return s, t


def counterexample_bc(d: int) -> tuple[PointSet, Tiling]:
    """Box tile over the dilated lattice: (c) holds while (b) fails."""
    if d < 3:
        raise InvalidParametersError("needs d >= 3")
    ambient = Lattice.standard(d)
    translations = Lattice([tuple(d * int(i == j) for i in range(d)) for j in range(d)])
    tile = PointSet(itertools.product(range(d), repeat=d))
    t = verify_tiling(ambient, translations, tile)
    s = PointSet(
        [tuple([0] * d)] + [tuple(d * int(i == j) for i in range(d)) for j in range(d)]
    )
    return s, t


def irregular_examples() -> dict:
    """The documented irregular pairs with their properties machine-checked."""
    out = {}

    s1 = PointSet([(0,), (1,), (4,), (5,)])
    t1 = PointSet([(0,), (2,), (8,), (10,)])
    total = direct_sum(s1, t1)
    out["segments_1d"] = {
        "S": s1,
        "T": t1,
        "sum": total,
        "checks": {
            "sum_is_direct": pointset.is_direct_sum(s1, t1),
            "sum_is_lattice_convex": is_lattice_convex(total, Lattice.standard(1)),
            "S_intrinsically_lattice_convex": pointset.intrinsically_lattice_convex(s1),
            "T_intrinsically_lattice_convex": pointset.intrinsically_lattice_convex(t1),
        },
    }

    s3 = PointSet(
        [
            (0, 0, 0), (0, 1, -1), (0, 2, 1),
            (2, 0, 0), (2, 1, -1), (2, 2, 1),
            (4, 1, 0),
        ]
    )
    t3 = PointSet(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
    )
    z3 = Lattice.standard(3)
    plus = direct_sum(s3, t3)
    minus = direct_sum(s3, t3.negate())
    out["prism_3d"] = {
        "S": s3,
        "T": t3,
        "sum": plus,
        "sum_minus": minus,
        "checks": {
            "sum_is_direct": pointset.is_direct_sum(s3, t3),
            "T_lattice_convex": is_lattice_convex(t3, z3),
            "sum_plus_lattice_convex": is_lattice_convex(plus, z3),
            "sum_minus_lattice_convex": is_lattice_convex(minus, z3),
            "S_intrinsically_lattice_convex": pointset.intrinsically_lattice_convex(s3),
            "pair_nontrivially_homometric": homometric(plus, minus)
            and not trivially_homometric(plus, minus),
        },
    }
    return out


def build_truncated_cube_s(lat: Lattice, u_basis, u_extra, eps) -> PointSet:
    """S from the truncated-cube construction over a thin-direction basis.

    In the coordinates y of the basis of L dual to u_1..u_d, P is the cube
    [-1,1]^d cut by <b, y> <= rhs = h(C, b) - eps, with b the (integer)
    coordinate vector of u_extra.  S is L ∩ D P, for D the least common
    denominator of P's vertices: the integer y of the box [-D, D]^d on the
    one row <b, y> <= floor(D rhs).  The cube's vertices in P are integral;
    every other vertex of P lies on an edge from a cube vertex v with
    <b, v> > rhs to its flip in a coordinate j with b_j != 0 that is in P,
    and differs from v only in y_j = v_j - (<b, v> - rhs) / b_j.
    """
    d = lat.dim
    u_basis = [vec(u) for u in u_basis]
    dual = lat.dual()
    coords = [dual.coordinates(u) for u in u_basis]
    integral = all(c.denominator == 1 for z in coords for c in z)
    if not integral or abs(linalg.det(mat(coords))) != 1:
        raise InvalidParametersError("u_basis is not a basis of the dual lattice")
    b = linalg.solve(mat(u_basis), vec(u_extra))
    if any(c.denominator != 1 for c in b):
        raise InvalidParametersError("u_extra is not an integer combination of u_basis")
    b = tuple(int(c) for c in b)
    if sum(1 for c in b if c) < 2:
        raise InvalidParametersError("u_extra must not be parallel to a basis vector")
    eps = frac(eps)
    height = sum(abs(c) for c in b)
    if not (0 < eps < height):
        raise InvalidParametersError("eps must lie strictly between 0 and h(C, b)")
    rhs = height - eps
    den = 1
    for v in itertools.product((-1, 1), repeat=d):
        val = sum(map(mul, b, v))
        if val > rhs:
            cuts = [(val - rhs) / c for c, vj in zip(b, v) if c and val - 2 * c * vj <= rhs]
            den = math.lcm(den, *[t.denominator for t in cuts])
    ys = box_scan([-den] * d, [den] * d, [], [], [b], [math.floor(den * rhs)])
    # y-coordinates correspond to the basis dual to u_1..u_d, a basis of L,
    # the rows of the inverse of [u_1 .. u_d]: x_i is y dotted with its column i
    f, rows = linalg.clear_denominators(linalg.inverse(mat(u_basis)))
    return PointSet.from_scaled([tuple([sum(map(mul, r, y)) for r in rows]) for y in ys], f)
