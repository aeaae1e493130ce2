"""Integer hot loops: lattice-point box scans and the planar tile search.

Everything here is exact Python integer arithmetic, so coefficients and
coordinates of any size are safe.
"""

from __future__ import annotations

import itertools
import math


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


def _has_width_at_most_one(pts):
    # Any direction u with spread <= 1 satisfies |<u, v_i>| <= 1 for the two
    # independent differences below, which bounds the search box exactly.
    x0, y0 = pts[0]
    v1 = (pts[1][0] - x0, pts[1][1] - y0)
    v2 = None
    for x, y in pts[2:]:
        if v1[0] * (y - y0) - v1[1] * (x - x0) != 0:
            v2 = (x - x0, y - y0)
            break
    det = v1[0] * v2[1] - v1[1] * v2[0]
    u1max = (abs(v1[1]) + abs(v2[1])) // abs(det)
    u2max = (abs(v1[0]) + abs(v2[0])) // abs(det)
    for u1 in range(-u1max, u1max + 1):
        for u2 in range(-u2max, u2max + 1):
            if u1 == 0 and u2 == 0:
                continue
            vmin = vmax = u1 * pts[0][0] + u2 * pts[0][1]
            thin = True
            for x, y in pts[1:]:
                v = u1 * x + u2 * y
                if v < vmin:
                    vmin = v
                elif v > vmax:
                    vmax = v
                if vmax - vmin > 1:
                    thin = False
                    break
            if thin:
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
            if _has_width_at_most_one(pts):
                stats["width_one_rejects"] += 1
                continue
            survivors.append((q1, q2))
    return stats, survivors
