"""Integer hot loops: the lattice-point box scan, the thin-direction search,
the planar tile grid and the planar tile search.

Everything here is exact Python integer arithmetic, so coefficients and
coordinates of any size are safe.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from . import linalg
from .errors import LowerDimensionalError


def box_scan(lo, hi, eq_rows, eq_rhs, le_rows, le_rhs, strict=False):
    """Integer points z in the box with eq_rows@z == eq_rhs, le_rows@z <= le_rhs.

    With strict=True the inequalities are evaluated strictly.  Returns a list
    of int tuples in lexicographic order.  The scan runs over the first d-1
    coordinates only: for each prefix every row bounds the last coordinate
    to an interval, so the work and memory follow the output, not the box.
    """
    if any(b < a for a, b in zip(lo, hi)):
        return []
    rows = [(r[:-1], r[-1], rhs, True) for r, rhs in zip(eq_rows, eq_rhs)]
    # for integers, v < rhs is v <= rhs - 1
    rows += [
        (r[:-1], r[-1], rhs - 1 if strict else rhs, False)
        for r, rhs in zip(le_rows, le_rhs)
    ]
    out = []
    for prefix in itertools.product(*[range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1])]):
        t_lo, t_hi = lo[-1], hi[-1]
        for head, c, rhs, is_eq in rows:
            rest = rhs - sum(r * z for r, z in zip(head, prefix))
            if c == 0:
                if (rest != 0) if is_eq else (rest < 0):
                    break
            elif is_eq:
                if rest % c:
                    break
                t_lo = max(t_lo, rest // c)
                t_hi = min(t_hi, rest // c)
            elif c > 0:
                t_hi = min(t_hi, rest // c)
            else:
                t_lo = max(t_lo, -(-rest // c))
            if t_hi < t_lo:
                break
        else:
            out.extend(prefix + (t,) for t in range(t_lo, t_hi + 1))
    return out


def thin_directions(points, bound, strict=False):
    """Every nonzero integer m whose spread over the integer points is small.

    The spread is max - min of <m, p> over the points; it must be at most
    `bound` (below it with strict=True).  Yields (m, spread) with m in
    lexicographic order.  Any such m has |<m, v_k>| <= spread on d
    independent differences v_k, the columns of A, so
    |m_j| <= spread * sum_k |(A^T)^-1_jk|: the box is finite and exact.
    Raises LowerDimensionalError when the points do not span the space.
    """
    p0 = points[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in points[1:]]
    frame = [diffs[i] for i in linalg.independent_subset(diffs)]
    if len(frame) < len(p0):
        raise LowerDimensionalError("point set is not full-dimensional")
    # spreads are integers: <= bound is <= floor(bound), < bound is <= ceil(bound) - 1
    cap = math.ceil(bound) - 1 if strict else math.floor(bound)
    # column j of A^-1 is row j of (A^T)^-1
    tops = [math.floor(cap * sum(map(abs, col))) for col in linalg.inverse(frame)]
    ranges = [range(-top, top + 1) for top in tops]
    for m in itertools.product(*ranges):
        if not any(m):
            continue
        lo = hi = sum(map(mul, m, p0))
        for p in points:
            v = sum(map(mul, m, p))
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo > cap:
                break
        else:
            yield m, hi - lo


# ---------------------------------------------------------------------------
# Planar tile search kernel (the classify2d inner loop).
#
# For a sublattice basis b1=(l,0), b2=(s,h) of Z^2 with determinant L=l*h and
# adjugate rows a1=(h,-s), a2=(0,l), the candidate tiles are
#
#   T_q = {t in Z^2 : q_i + n_i <= <t, a_i> <= q_i + L},    q_i in n_i*Z,
#
# with n1 = gcd(h, s) and n2 = l, and a tile survives when it is
# two-dimensional, its width in direction b1*+b2* is < 1 (after clearing
# denominators: spread of <t, a1+a2> < L) and its lattice width w(T, Z^2)
# exceeds 1.
# ---------------------------------------------------------------------------


def tile_grid(l: int, h: int, s: int, q1: int, q2: int) -> list[tuple[int, int]]:
    """The integer points of T_q, row by row in increasing y, then x."""
    big_l = l * h
    n1 = math.gcd(h, s)
    pts = []
    for y in range(-((-(q2 + l)) // l), (q2 + big_l) // l + 1):
        xlo = -((-(q1 + n1 + s * y)) // h)
        xhi = (q1 + big_l + s * y) // h
        for x in range(xlo, xhi + 1):
            pts.append((x, y))
    return pts


def _is_two_dimensional(pts):
    if len(pts) < 3:
        return False
    x0, y0 = pts[0]
    v1 = (pts[1][0] - x0, pts[1][1] - y0)
    for x, y in pts[2:]:
        if v1[0] * (y - y0) - v1[1] * (x - x0) != 0:
            return True
    return False


def search_base_raw(l: int, h: int, s: int):
    """Run the tile scan for one base triple; returns (stats dict, [(q1, q2)]).

    Stats record how many tile candidates were tried and why candidates were
    rejected, mirroring the three filters.
    """
    big_l = l * h
    stats = {
        "q_candidates": 0,
        "dimension_rejects": 0,
        "diagonal_width_rejects": 0,
        "width_one_rejects": 0,
    }
    survivors = []
    dx, dy = h, l - s  # a1 + a2
    for q1 in range(0, big_l, math.gcd(h, s)):
        for q2 in range(0, big_l, l):
            stats["q_candidates"] += 1
            pts = tile_grid(l, h, s, q1, q2)
            if not _is_two_dimensional(pts):
                stats["dimension_rejects"] += 1
                continue
            vals = [dx * x + dy * y for x, y in pts]
            if max(vals) - min(vals) >= big_l:
                stats["diagonal_width_rejects"] += 1
                continue
            if next(thin_directions(pts, 1), None) is not None:
                stats["width_one_rejects"] += 1
                continue
            survivors.append((q1, q2))
    return stats, survivors
