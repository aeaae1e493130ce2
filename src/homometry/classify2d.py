"""The planar tile classification search over sublattice determinants 7..18.

For each determinant the candidate sublattices of Z^2 are the bases
b1 = (l, 0), b2 = (s, h); a base is searched only when the triangle
conv{o, b1, b2} passes the width window (width 3 with determinant 7..18,
width 4 with determinant 12..16).  The per-base tile scan runs in an
integer kernel; every survivor is rebuilt and re-checked in exact rational
arithmetic and verified to tile before being classified.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

from . import linalg, tiling
from ._kernels import search_base_raw, thin_directions, tile_grid
from .errors import InvariantError, NotATilingError, NotLatticeConvexError
from .lattice import Lattice, lattice_from_lhs
from .linalg import mat, mat_vec, vsub
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


def unimodular_equivalent(a: PointSet, b: PointSet):
    """Search for U (|det U| = 1, integral) and t with U(A) + t = B.

    Complete for full-dimensional planar sets: two independent anchored
    differences of A must map to difference vectors of B, which leaves
    finitely many candidate matrices.
    """
    if a.dim != 2 or b.dim != 2:
        raise ValueError("unimodular equivalence search is implemented for d = 2")
    if len(a) != len(b):
        return False, None
    a0 = a.normalized()
    b0 = b.normalized()
    anchor = a0.points[0]
    diffs_a = [vsub(p, anchor) for p in a0.points[1:]]
    v1 = diffs_a[0]
    v2 = next(
        (v for v in diffs_a[1:] if v1[0] * v[1] - v1[1] * v[0] != 0), None
    )
    if v2 is None:
        raise ValueError("sets must be two-dimensional")
    vmat = mat([v1, v2])
    vinv = linalg.inverse(vmat)
    diffs_b = [d for d in b0.differences() if any(d)]
    for w1 in diffs_b:
        for w2 in diffs_b:
            if w1[0] * w2[1] - w1[1] * w2[0] == 0:
                continue
            u = linalg.mat_mul(mat([w1, w2]), vinv)
            if not linalg.is_integral(u):
                continue
            if abs(linalg.det(u)) != 1:
                continue
            image = PointSet([mat_vec(u, p) for p in a.points])
            t = vsub(b.points[0], image.points[0])
            if image.translate(t) == b:
                return True, (u, t)
    return False, None


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

    survivors = []
    for res in results:
        survivors.extend(res["survivors"])

    classes: list[TileClass] = []
    for surv in survivors:
        rep = surv["points"].normalized()
        placed = False
        for cls in classes:
            eq, _ = unimodular_equivalent(rep, cls.representative)
            if eq:
                cls.members.append(surv)
                placed = True
                break
        if not placed:
            classes.append(
                TileClass(
                    representative=rep,
                    centrally_symmetric=centrally_symmetric(rep),
                    members=[surv],
                    witnesses={
                        "diag_width": surv["diag_width"],
                        "lattice_width": surv["lattice_width"],
                    },
                )
            )

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
