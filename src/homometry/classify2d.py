"""The planar tile classification search over sublattice determinants 7..18.

For each determinant the candidate sublattices of Z^2 are the bases
b1 = (l, 0), b2 = (s, h); a base is searched only when the triangle
conv{o, b1, b2} passes the width window `WIDTH_WINDOW` (width 3 with
determinant 7..18, width 4 with determinant 12..16).  The triangle's lattice
width is the planar Gauss reduction `_kernels.reduce_width` run on its three
edges b1, b2 - b1, -b2, with no hull ring; the tiles' widths below take the
same reduction through `_kernels.planar_width`, which first builds the ring
and passes its edges.  The per-base tile scan runs in an integer
kernel that scans one tile of each class of translates, walks its rows by
their end points, and keeps every offset of the classes whose tile passes its
dimension and diagonal-width filters.  Every tile it keeps is rebuilt and
keyed by its integer offsets `PointSet.offsets`; equal keys mean T' = T + z
with z in Z^2, and every check below is invariant under that translation.
So the exact re-check runs once per key of a base, its flatness read from
the hull ring `_kernels.hull_ring` and its lattice width, by the same planar
Gauss reduction, deciding whether it exceeds 1; each kept key is verified to
tile once per base, on its hull from the same monotone chain
(`Polytope.hull` takes beneath-beyond only for d != 2); and tiles with equal
unimodular normal forms (`normal_form`, read off the ring's edges, taken once
per key) form one class.  Every other tile is certified by the exact
equality of its offsets with a checked one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg, tiling
from ._kernels import hull_ring, planar_width, reduce_width, search_base_raw
from .errors import InvariantError, LowerDimensionalError, NotATilingError, NotLatticeConvexError
from .lattice import Lattice, lattice_from_lhs
from .linalg import mat, mat_vec, vadd, vneg, vscale, vsub
from .pointset import PointSet, centrally_symmetric


# (det_lo, det_hi, width): a base of determinant det_lo..det_hi is searched
# when its triangle conv{o, b1, b2} has this lattice width
WIDTH_WINDOW = ((7, 18, 3), (12, 16, 4))


@dataclass(frozen=True)
class SearchConfig:
    det_lo: int = 7
    det_hi: int = 18
    # the search runs in one process; the field stays for callers that pass 1
    workers: int = 1

    def __post_init__(self):
        if self.det_lo < 1 or self.det_hi < self.det_lo:
            raise ValueError("bad determinant range")
        if self.workers != 1:
            raise ValueError("the search runs in one process: workers must be 1")


@dataclass
class TileClass:
    representative: PointSet
    centrally_symmetric: bool
    members: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)


def shear_normal_bases(det_value: int) -> list[tuple[int, int, int]]:
    """All (l, h, s) with l*h = det_value, 0 <= s < h; basis (l,0), (s,h).

    These are the sublattice bases up to the ambient shear, not distinct
    lattices.  The shear (x, y) -> (x + t*y, y) is unimodular, fixes (l, 0)
    and moves (s, h) to (s + t*h, h), so it changes s by multiples of h.
    The tile is free, and the search classifies tiles only up to unimodular
    maps, so the bases with 0 <= s < h stand for all of them.
    """
    divisors = [l for l in range(1, det_value + 1) if det_value % l == 0]
    return [(l, det_value // l, s) for l in divisors for s in range(det_value // l)]


def delta_width(l: int, h: int, s: int) -> int:
    """Lattice width of the half-cell triangle conv{o, (l,0), (s,h)} in Z^2.

    The least spread of <m, t> over the three vertices, m a nonzero integer
    vector.  The triangle's edges (l, 0), (s - l, h), (-s, -h) are its edge
    cycle, so they go straight to the Gauss reduction `reduce_width`, the
    one `planar_width` runs after building a hull ring.
    """
    return reduce_width(((l, 0), (s - l, h), (-s, -h)))[0]


def search_bases_with_det(det_value: int) -> list[tuple[int, int, int]]:
    """The base triples of this determinant whose triangle width `WIDTH_WINDOW` admits."""
    widths = {w for lo, hi, w in WIDTH_WINDOW if lo <= det_value <= hi}
    if not widths:
        return []
    least = min(widths)
    out = []
    for l, h, s in shear_normal_bases(det_value):
        # the direction (0, 1) spreads the triangle by h, which bounds its width
        if h >= least and delta_width(l, h, s) in widths:
            out.append((l, h, s))
    return out


def tile_points(l: int, h: int, s: int, q1: int, q2: int) -> PointSet:
    """The tile T_q of a base and an offset pair, read from its cell.

    The cell's rows are the adjugate rows a1 = (h, -s), a2 = (0, l), and
    L (a1; a2)^-1 has the integer rows (l, s), (0, h).
    """
    big_l = l * h
    rows, inverse = ((h, -s), (0, l)), (big_l, ((l, s), (0, h)))
    lo, hi = (q1 + math.gcd(h, s), q2 + l), (q1 + big_l, q2 + big_l)
    return PointSet.from_scaled(tiling._cell_points(rows, inverse, lo, hi))


def _exact_filters(pts: PointSet, l: int, h: int, s: int):
    """(passes, diagonal width, lattice width) of a tile in exact arithmetic.

    A tile passes the kernel's filters when it is two-dimensional (it has a
    hull ring) and its points span < 1 in the direction b1* + b2*; only then
    is its lattice width taken, by the planar Gauss reduction `planar_width`.
    The dual basis is the adjugate rows (h, -s), (0, l) over l h, so
    b1* + b2* = (h, l - s) / (l h).
    """
    try:
        hull_ring(pts.ints)
    except LowerDimensionalError:
        return False, None, None
    diag_width = tiling.width_of(pts, (Fraction(h, l * h), Fraction(l - s, l * h)))
    if diag_width >= 1:
        return False, diag_width, None
    return True, diag_width, Fraction(planar_width(pts.ints)[0], pts.den)


def search_tiles_with_base(l: int, h: int, s: int) -> dict:
    """Scan all tile candidates for one base.

    Each tile the kernel keeps is rebuilt and kept when its lattice width
    exceeds 1.  The exact re-check runs on the first tile of each key
    `PointSet.offsets`: a tile with the key of a checked one is its translate
    by a vector of Z^2, which keeps flatness and both widths, so it takes
    that tile's answer.  The stats are the kernel's, then width_one_rejects.
    """
    stats, raw_survivors = search_base_raw(l, h, s)
    stats["width_one_rejects"] = 0
    survivors, checked = [], {}
    for q1, q2 in raw_survivors:
        pts = tile_points(l, h, s, q1, q2)
        if pts.offsets not in checked:
            checked[pts.offsets] = _exact_filters(pts, l, h, s)
        ok, diag_width, lattice_w = checked[pts.offsets]
        if not ok:
            raise InvariantError(
                f"kernel survivor fails exact re-check at base ({l},{h},{s}), q=({q1},{q2})",
                witness={"base": (l, h, s), "q": (q1, q2)},
            )
        if lattice_w <= 1:
            stats["width_one_rejects"] += 1
            continue
        survivors.append(
            {
                "l": l,
                "h": h,
                "s": s,
                "q": (q1, q2),
                "points": pts,
                "diag_width": diag_width,
                "lattice_width": lattice_w,
            }
        )
    return {"base": (l, h, s), "stats": stats, "survivors": survivors}


def normal_form(k: PointSet):
    """(key, U, t): the least image U(K) + t of a two-dimensional planar set K.

    U is integral with |det U| = 1.  The key is (D, the sorted points of
    D (U(K) + t)), D the least integer that makes the differences of K
    integral, so two sets are unimodularly equivalent iff their keys agree
    (the PALP normal form idea: Kreuzer-Skarke 2004, arXiv:1301.6641).  Each
    edge of the hull ring of the integer offsets D (K - lexmin), walked from
    either endpoint v, gives one image: v goes to o and the edge's primitive
    direction to e1 by a Bezout matrix, y is negated so that the image lies
    in y >= 0, and a shear x -> x + m y puts the leftmost point of the lowest
    positive row at 0 <= x < that row's height.  U and t come from the least.
    """
    den, ipts = k.offsets
    try:
        ring = hull_ring(ipts if k.dim == 2 else ())
    except LowerDimensionalError:
        raise ValueError("the unimodular normal form needs a two-dimensional planar set") from None
    best = None
    for edge in zip(ring, ring[1:] + ring[:1]):
        for (vx, vy), (wx, wy) in (edge, edge[::-1]):
            g = math.gcd(wx - vx, wy - vy)
            dx, dy = (wx - vx) // g, (wy - vy) // g
            inv = pow(dx, -1, abs(dy)) if dy else dx
            # the Bezout matrix with rows (u11, u12), (u21, u22) maps (dx, dy) to e1
            u11, u12, u21, u22 = inv, (1 - inv * dx) // dy if dy else 0, -dy, dx
            rel = [(x - vx, y - vy) for x, y in ipts]
            image = [(u11 * x + u12 * y, u21 * x + u22 * y) for x, y in rel]
            if min(y for _, y in image) < 0:
                u21, u22, image = dy, -dx, [(x, -y) for x, y in image]
            height, x0 = min((y, x) for x, y in image if y > 0)
            m = -(x0 // height)
            image = sorted((x + m * y, y) for x, y in image)
            if best is None or image < best[0]:
                best = image, (u11 + m * u21, u12 + m * u22, u21, u22), (vx, vy)
    image, (u11, u12, u21, u22), v = best
    u = mat([(u11, u21), (u12, u22)])
    return (den, tuple(image)), u, vneg(mat_vec(u, vadd(k.lexmin(), vscale(Fraction(1, den), v))))


def unimodular_equivalent(a: PointSet, b: PointSet):
    """(True, (U, t)) with U(A) + t = B, U integral, |det U| = 1; else (False, None).

    The witness comes from the normal forms, U = U_b^-1 U_a and
    t = U_b^-1 (t_a - t_b), and is re-checked by mapping A onto B.  Both sets
    must be planar and A two-dimensional; a flat B is not equivalent to A.
    """
    if a.dim != 2 or b.dim != 2:
        raise ValueError("unimodular equivalence is implemented for d = 2")
    if len(a) != len(b):
        return False, None
    key_a, u_a, t_a = normal_form(a)
    try:
        key_b, u_b, t_b = normal_form(b)
    except ValueError:  # a flat B
        return False, None
    if key_a != key_b:
        return False, None
    u_b_inv = linalg.inverse(u_b)
    u, t = linalg.mat_mul(u_b_inv, u_a), mat_vec(u_b_inv, vsub(t_a, t_b))
    if PointSet(vadd(mat_vec(u, p), t) for p in a.points) != b:
        raise InvariantError(
            "equal normal forms give a map that does not take A onto B",
            witness={"a": a.points, "b": b.points},
        )
    return True, (u, t)


def classify(config: SearchConfig = SearchConfig()) -> dict:
    """Run the full search and group the surviving tiles into classes.

    With the default determinants 7..18 this reproduces the paper's planar
    claim, in these terms:

    * the tiles T: Z^2-convex tiles of a lattice L (T ⊕ L = Z^2 and
      T = conv(T) ∩ Z^2) of lattice width w(T, Z^2) >= 2 and of width < 1
      in the direction b1* + b2* of the dual basis;
    * the lattices L: the bases b1 = (l, 0), b2 = (s, h) with 0 <= s < h and
      determinant l*h in 7..18 whose triangle conv{o, b1, b2} lies in the
      width window (`search_bases_with_det`);
    * the equivalence: unimodular maps of Z^2 followed by translations;
    * the result: one class, the cross {o, ±e1, ±e2, ±(e1 + e2)}, centrally
      symmetric, with 14 tiles, 7 on each of the bases (1, 0), (3, 7) and
      (1, 0), (5, 7).

    The search takes from the paper that every such tile is a translate of
    one of the cells T_q it scans, not that this pruning is complete.  It
    re-checks every tile it keeps: the exact filters, the normal form and
    the tiling verification run on the first tile of each key
    `PointSet.offsets` (of each base, for the filters and the verification),
    and a tile with that key is the checked one translated by a vector of
    Z^2, which keeps the widths, the normal form, M = L ⊕ T and M-convexity.
    Tiles of lattice width 1, the two-row sets {0..k} x {0} ∪ {0..m} x {1},
    are left out by design.
    """
    results = [
        {"det": det_value, **search_tiles_with_base(l, h, s)}
        for det_value in range(config.det_lo, config.det_hi + 1)
        for l, h, s in search_bases_with_det(det_value)
    ]
    survivors = [surv for res in results for surv in res["survivors"]]

    by_key: dict[tuple, TileClass] = {}
    keys = {}  # offsets -> normal-form key
    for surv in survivors:
        pts = surv["points"]
        if pts.offsets not in keys:
            keys[pts.offsets] = normal_form(pts)[0]
        key = keys[pts.offsets]
        if key not in by_key:
            rep = pts.normalized()
            witnesses = {"diag_width": surv["diag_width"], "lattice_width": surv["lattice_width"]}
            by_key[key] = TileClass(rep, centrally_symmetric(rep), witnesses=witnesses)
        by_key[key].members.append(surv)
    classes = list(by_key.values())

    plane, bases, verified = Lattice.standard(2), {}, set()  # one Lattice a base, its views cached
    for surv in survivors:
        lhs = surv["l"], surv["h"], surv["s"]
        if (lhs, surv["points"].offsets) in verified:
            continue
        if lhs not in bases:
            bases[lhs] = lattice_from_lhs(*lhs)
        try:
            tiling.verify_tiling(plane, bases[lhs], surv["points"])
        except (NotATilingError, NotLatticeConvexError) as exc:
            raise InvariantError(
                f"survivor does not tile: {exc}",
                witness={"base": lhs, "q": surv["q"]},
            ) from exc
        verified.add((lhs, surv["points"].offsets))

    central = [c for c in classes if c.centrally_symmetric]
    noncentral = [c for c in classes if not c.centrally_symmetric]
    return {
        "config": {
            "det_range": [config.det_lo, config.det_hi],
            "workers": config.workers,
            "width_window": [list(window) for window in WIDTH_WINDOW],
        },
        "cases": [
            {
                "det": res["det"],
                "base": list(res["base"]),
                "stats": res["stats"],
                "survivors": len(res["survivors"]),
            }
            for res in results
        ],
        "survivor_count": len(survivors),
        "classes": classes,
        "centrally_symmetric_classes": central,
        "noncentrally_symmetric_classes": noncentral,
    }
