"""The planar tile classification search over sublattice determinants 7..18.

For each determinant the candidate sublattices of Z^2 are the bases
b1 = (l, 0), b2 = (s, h); a base is searched only when the triangle
conv{o, b1, b2} passes the width window (width 3 with determinant 7..18,
width 4 with determinant 12..16).  The per-base tile scan runs in an
integer kernel; every survivor is rebuilt and re-checked in exact rational
arithmetic and verified to tile, and tiles with equal unimodular normal forms
(`normal_form`) form one class.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

from . import linalg, tiling
from ._kernels import search_base_raw, thin_directions, tile_grid
from .errors import InvariantError, NotATilingError, NotLatticeConvexError
from .lattice import Lattice, lattice_from_lhs
from .linalg import mat, mat_vec, vadd, vneg, vsub
from .pointset import PointSet, centrally_symmetric


@dataclass(frozen=True)
class SearchConfig:
    det_lo: int = 7
    det_hi: int = 18
    include_width_one_case: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.det_lo < 1 or self.det_hi < self.det_lo:
            raise ValueError("bad determinant range")
        if self.workers < 1:
            raise ValueError("workers must be positive")


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
    """Lattice width of the half-cell triangle conv{o, (l,0), (s,h)} in Z^2."""
    # the direction (0, 1) has spread h, so the minimum lies within that bound
    return min(spread for _, spread in thin_directions(((0, 0), (l, 0), (s, h)), h))


def search_bases_with_det(det_value: int) -> list[tuple[int, int, int]]:
    """Base triples passing the triangle-width window for this determinant."""
    out = []
    for l, h, s in shear_normal_bases(det_value):
        if h < 3:
            continue
        w = delta_width(l, h, s)
        if (12 <= det_value <= 16 and w == 4) or (7 <= det_value <= 18 and w == 3):
            out.append((l, h, s))
    return out


def tile_points(l: int, h: int, s: int, q1: int, q2: int) -> PointSet:
    """Exact reconstruction of the tile T_q for a surviving offset pair."""
    return PointSet(tile_grid(l, h, s, q1, q2))


def _exact_filters(pts: PointSet, l: int, h: int, s: int):
    """Re-derive the three survivor filters with exact rational arithmetic."""
    hull = pts.hull()
    if hull.dim != 2:
        return False, None, None
    base = lattice_from_lhs(l, h, s)
    bstar = linalg.dual_basis(base.basis)
    diagonal = tuple(a + b for a, b in zip(bstar[0], bstar[1]))
    diag_width = tiling.width_of(hull, diagonal)
    lw, _ = tiling.lattice_width(hull, Lattice.standard(2))
    ok = diag_width < 1 and lw > 1
    return ok, diag_width, lw


def search_tiles_with_base(l: int, h: int, s: int) -> dict:
    """Scan all tile candidates for one base; kernel output is re-verified."""
    stats, raw_survivors = search_base_raw(l, h, s)
    survivors = []
    for q1, q2 in raw_survivors:
        pts = tile_points(l, h, s, q1, q2)
        ok, diag_width, lattice_w = _exact_filters(pts, l, h, s)
        if not ok:
            raise InvariantError(
                f"kernel survivor fails exact re-check at base ({l},{h},{s}), q=({q1},{q2})",
                witness={"base": (l, h, s), "q": (q1, q2)},
            )
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
    hull edge and endpoint v give one image: v goes to o and the edge's
    primitive direction to e1 by a Bezout matrix, y is negated so that the
    image lies in y >= 0, and a shear x -> x + m y puts the leftmost point of
    the lowest positive row at 0 <= x < that row's height.
    """
    if k.dim != 2 or k.hull().dim != 2:
        raise ValueError("the unimodular normal form needs a two-dimensional planar set")
    # integer view: D times the offsets from the first point
    den, ipts = linalg.clear_denominators([vsub(p, k.points[0]) for p in k.points])
    index = dict(zip(k.points, ipts))
    best = None
    for _, edge in k.hull().facet_vertex_sets():
        for v, w in (edge, edge[::-1]):
            (vx, vy), (wx, wy) = index[v], index[w]
            dx, dy = linalg.primitive_integer_direction((wx - vx, wy - vy))
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
                best = image, mat([(u11 + m * u21, u21), (u12 + m * u22, u22)]), v
    image, u, v = best
    return (den, tuple(image)), u, vneg(mat_vec(u, v))


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
    if b.hull().dim != 2:
        return False, None
    key_b, u_b, t_b = normal_form(b)
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


def _search_case(args):
    det_value, l, h, s = args
    result = search_tiles_with_base(l, h, s)
    result["det"] = det_value
    return result


def classify(config: SearchConfig = SearchConfig()) -> dict:
    """Run the full search and group the surviving tiles into classes."""
    cases = []
    for det_value in range(config.det_lo, config.det_hi + 1):
        for l, h, s in search_bases_with_det(det_value):
            cases.append((det_value, l, h, s))

    if config.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(config.workers) as pool:
            results = list(pool.map(_search_case, cases))
    else:
        results = [_search_case(c) for c in cases]

    survivors = [surv for res in results for surv in res["survivors"]]

    by_key: dict[tuple, TileClass] = {}
    for surv in survivors:
        key = normal_form(surv["points"])[0]
        if key not in by_key:
            rep = surv["points"].normalized()
            witnesses = {"diag_width": surv["diag_width"], "lattice_width": surv["lattice_width"]}
            by_key[key] = TileClass(rep, centrally_symmetric(rep), witnesses=witnesses)
        by_key[key].members.append(surv)
    classes = list(by_key.values())

    for surv in survivors:
        base = lattice_from_lhs(surv["l"], surv["h"], surv["s"])
        try:
            tiling.verify_tiling(Lattice.standard(2), base, surv["points"])
        except (NotATilingError, NotLatticeConvexError) as exc:
            raise InvariantError(
                f"survivor does not tile: {exc}",
                witness={"base": (surv["l"], surv["h"], surv["s"]), "q": surv["q"]},
            ) from exc

    central = [c for c in classes if c.centrally_symmetric]
    noncentral = [c for c in classes if not c.centrally_symmetric]
    report = {
        "config": {
            "det_range": [config.det_lo, config.det_hi],
            "include_width_one_case": config.include_width_one_case,
            "workers": config.workers,
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
    if config.include_width_one_case:
        report["width_one_family"] = {
            "note": (
                "tiles of lattice width 1 are excluded from the search; up to "
                "unimodular equivalence they form the documented family below "
                "and are classified in prior work"
            ),
            "family": "T = {0..k} x {0} union {0..l} x {1}, k >= 1, 0 <= l <= k",
            "samples": [
                [[x, 0] for x in range(k + 1)] + [[x, 1] for x in range(le + 1)]
                for k in (1, 2, 3)
                for le in (0, k - 1)
            ],
        }
    return report
