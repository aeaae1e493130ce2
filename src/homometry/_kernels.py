"""Integer hot loops: the lattice-point box scan, the planar hull ring, the
planar lattice width and the planar tile search.

The box scan is the package's one lattice-point scan: every hull's lattice
points, every convexity test, the thin-direction slices of `tiling` and the
tile cells of `classify2d` come from `box_scan`.  It solves the last
coordinate's interval per prefix cell, with each row's dot product over the
outer coordinates taken once per outer cell and stepped along the last
prefix coordinate.

The hull ring, Andrew's monotone chain, is the plane's hull: `polytope`
reads every two-dimensional hull off it, and beneath-beyond runs only for
the other dimensions.  `classify2d` reads a tile's flatness and its
normal form off the same ring.  The lattice width is one Gauss reduction
over a polygon's edge cycle, `reduce_width`: `planar_width` feeds it the
edges of a hull ring, and `classify2d` a triangle's three edges directly.

Everything here is exact Python integer arithmetic, so coefficients and
coordinates of any size are safe.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from .errors import LowerDimensionalError


def box_scan(lo, hi, eq_rows, eq_rhs, le_rows, le_rhs):
    """Integer points z in the box with eq_rows@z == eq_rhs, le_rows@z <= le_rhs.

    Returns a list of int tuples in lexicographic order.  The scan runs over
    the prefix cells, the box over the first d-1 coordinates: for each
    prefix every row bounds the last coordinate t to an interval.  Each row
    splits once into its head over the first d-2 coordinates, its
    coefficient h of the last prefix coordinate x and its coefficient c of
    t.  For each outer cell, the box over the first d-2 coordinates, the
    scan takes one dot product per row, r = rhs - <head, outer>; along x
    the residual is r - h x, one multiply-subtract per row per prefix cell.
    So the memory follows the output, but the work follows the prefix
    cells, whether or not a prefix keeps a point.  A frame skewed against
    the polytope can make the prefixes outnumber the points kept by orders
    of magnitude: a unimodular skew of a 3-D set took one thin-direction
    scan of 1,558 points from 361 prefix cells to as many as 2,596,011.
    """
    if any(b < a for a, b in zip(lo, hi)):
        return []
    if len(lo) == 1:
        # no prefix: scan the line as the column x = 0 of a plane
        zs = box_scan(
            (0, *lo), (0, *hi),
            [(0, *r) for r in eq_rows], eq_rhs,
            [(0, *r) for r in le_rows], le_rhs,
        )
        return [z[1:] for z in zs]
    rows = [(r[:-2], r[-2], r[-1], rhs, True) for r, rhs in zip(eq_rows, eq_rhs)]
    rows += [(r[:-2], r[-2], r[-1], rhs, False) for r, rhs in zip(le_rows, le_rhs)]
    t_min, t_max = lo[-1], hi[-1]
    xs = range(lo[-2], hi[-2] + 1)
    out = []
    for outer in itertools.product(*[range(a, b + 1) for a, b in zip(lo[:-2], hi[:-2])]):
        res = [(rhs - sum(map(mul, head, outer)), h, c, is_eq) for head, h, c, rhs, is_eq in rows]
        for x in xs:
            t_lo, t_hi = t_min, t_max
            for r, h, c, is_eq in res:
                rest = r - h * x
                if c == 0:
                    if (rest != 0) if is_eq else (rest < 0):
                        break
                elif is_eq:
                    q, m = divmod(rest, c)
                    if m:
                        break
                    if q > t_lo:
                        t_lo = q
                    if q < t_hi:
                        t_hi = q
                elif c > 0:
                    q = rest // c
                    if q < t_hi:
                        t_hi = q
                else:
                    q = -(-rest // c)
                    if q > t_lo:
                        t_lo = q
                if t_hi < t_lo:
                    break
            else:
                prefix = outer + (x,)
                out.extend([prefix + (t,) for t in range(t_lo, t_hi + 1)])
    return out


def hull_ring(points):
    """The vertices of conv(points), counterclockwise from the least one
    (Andrew's monotone chain).

    Raises LowerDimensionalError when the planar points do not span the plane.
    """
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) > 1 and (
                (out[-1][0] - out[-2][0]) * (y - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (x - out[-2][0])
                <= 0
            ):
                out.pop()
            out.append((x, y))
        return out[:-1]

    ring = chain(pts) + chain(reversed(pts))
    if len(ring) < 3:
        raise LowerDimensionalError("point set is not full-dimensional")
    return ring


def _gauss_step(edges, a, b):
    """(mu, f(b - mu a)) for an integer mu minimizing the spread f(b - mu a).

    Walking once around the polygon, <m, e> rises by the spread f(m) and
    falls by it again, so f(m) = 1/2 sum |<m, e>| over the edges e, and
    f(b - mu a) = 1/2 sum |c_e - mu s_e| with s_e = <a, e>, c_e = <b, e>: a
    convex piecewise-linear function of mu with breakpoints c_e / s_e.  Its
    real minimum lies at their median weighted by |s_e|.  Floor is monotone,
    so the same weighted median of the floors is that median's floor K, and
    the integer minimum lies at K or K + 1.  No step depends on the size of
    mu or of the coordinates.
    """
    (a0, a1), (b0, b1) = a, b
    terms = [(b0 * ex + b1 * ey, a0 * ex + a1 * ey) for ex, ey in edges]
    floors = sorted([(c // s, s) if s > 0 else (-c // -s, -s) for c, s in terms if s])
    total = acc = 0
    for _, w in floors:
        total += w
    for k, w in floors:
        acc += w
        if 2 * acc >= total:
            break
    lo = hi = 0
    for c, s in terms:
        lo += abs(c - k * s)
        hi += abs(c - (k + 1) * s)
    lo, hi = lo // 2, hi // 2
    return (k + 1, hi) if hi < lo else (k, lo)


def planar_width(points):
    """(w, m): the lattice width of planar integer points and an m attaining it.

    w is the least spread max - min of <m, p> over nonzero integer m.  This
    takes the edges of the points' hull ring `hull_ring` and hands them to
    `reduce_width`, which finds the width.  Raises LowerDimensionalError
    when the points do not span the plane.
    """
    ring = hull_ring(points)
    return reduce_width([(q[0] - p[0], q[1] - p[1]) for p, q in zip(ring, ring[1:] + ring[:1])])


def reduce_width(edges):
    """(w, m): the lattice width of a convex polygon given by its edge cycle.

    The edges are those of a convex polygon that spans the plane, walked
    once around it in either sense from any vertex; nothing here builds or
    checks a ring, so callers that know their polygon's edges, such as a
    triangle's, pass them straight in.  The spread of <m, p> over the
    polygon is a norm, and the generalized Gauss reduction (Kaib and
    Schnorr 1996, J. Algorithms 21) finds its shortest lattice vector: from
    the basis e1, e2 with f(a) <= f(b), take b - mu a of least spread
    (`_gauss_step`); stop once that is no shorter than a, else swap.  A
    basis with f(a) <= f(b) <= f(b - mu a) for every integer mu holds the
    successive minima of any norm in the plane, so f(a) is the width.  Like
    Euclid's algorithm it takes a number of steps logarithmic in the spreads
    of e1 and e2.
    """
    # the spreads of e1 and e2, the coordinates' ranges
    fa = fb = 0
    for ex, ey in edges:
        fa += abs(ex)
        fb += abs(ey)
    fa, fb = fa // 2, fb // 2
    a, b = (1, 0), (0, 1)
    if fb < fa:
        a, b, fa = b, a, fb
    while True:
        mu, fb = _gauss_step(edges, a, b)
        b = (b[0] - mu * a[0], b[1] - mu * a[1])
        if fb >= fa:
            return fa, a
        a, b, fa = b, a, fb


# ---------------------------------------------------------------------------
# Planar tile search kernel (the classify2d inner loop).
#
# For a sublattice basis b1=(l,0), b2=(s,h) of Z^2 with determinant L=l*h and
# adjugate rows a1=(h,-s), a2=(0,l), the candidate tiles are
#
#   T_q = {t in Z^2 : q_i + n_i <= <t, a_i> <= q_i + L},    q_i in n_i*Z,
#
# with n1 = gcd(h, s) and n2 = l, over the grid 0 <= q_i < L.  The kernel
# keeps a tile when it is two-dimensional and its width in direction b1*+b2*
# is < 1 (after clearing denominators: spread of <t, a1+a2> < L); whether its
# lattice width w(T, Z^2) exceeds 1 is decided once, in exact arithmetic, by
# the caller.
#
# Translation lemma.  With A the matrix of rows a1, a2, T_{q + A z} = T_q + z
# for every z in Z^2, and L e_i = A adj(A) e_i lies in A Z^2, so reducing q
# mod L stays within one class of translates.  Both filters are invariant
# under translation.  The grid's (L/n1)*h offsets fall into h/n1 classes of
# exactly L offsets each, represented by (q1, 0) for q1 in range(0, h, n1):
# (q1, l zy) - A (0, zy) = (q1 + s zy, 0), and a shift by A (zx, 0) moves the
# first entry by multiples of h.  The class of (q1, 0) holds the offsets
# ((q1 + h zx - s zy) mod L, l zy) for 0 <= zx < l, 0 <= zy < h.
#
# Each of T_q's h rows holds exactly l consecutive points.  The rows are
# y = q2/l + 1 .. q2/l + h, since q2 is a multiple of l.  On row y the values
# <t, a1> = h x - s y run over one coset of hZ inside n1*Z, and the interval
# [q1 + n1, q1 + L] meets such a coset exactly where (q1, q1 + L] does: in l
# values, as L = l*h.  So row y is xlo(y) .. xlo(y) + l - 1, and as h > 0,
# <t, a1+a2> = h x + (l - s) y is least and greatest on a row at its ends.
# Over the tile it spreads by h*(l - 1) plus the range of
# v(y) = h xlo(y) + (l - s) y over the rows, so the spread reaches L exactly
# when that range reaches h.
# ---------------------------------------------------------------------------


def search_base_raw(l: int, h: int, s: int):
    """Run the tile scan for one base triple; returns (stats dict, [(q1, q2)]).

    Only the h/n1 class representatives (q1, 0) are scanned (the translation
    lemma above); each one's fate counts for all L offsets of its class, so
    the stats count every offset of the grid, and the survivors are every
    offset of each surviving class, in lexicographic order.  Stats record how
    many tile candidates were tried and why candidates were rejected, counted
    in the order of the two filters: a flat tile is a dimension reject
    whatever its diagonal spread.  The scan walks the rows' left ends and
    stops once the rows read span the plane and the range of v reaches h.
    """
    big_l = l * h
    n1 = math.gcd(h, s)
    stats = {"q_candidates": 0, "dimension_rejects": 0, "diagonal_width_rejects": 0}
    survivors = []
    slope = l - s
    # a row of two points and a second row span the plane
    wide = l > 1 and h > 1
    for q1 in range(0, h, n1):
        stats["q_candidates"] += big_l
        # the tile at (q1, 0) has the rows y = 1 .. h
        c = q1 + n1
        x0 = -((-(c + s)) // h)
        vmin = vmax = h * x0 + slope
        spans, dx = wide, None
        for y in range(2, h + 1):
            x = -((-(c + s * y)) // h)
            v = h * x + slope * y
            if v < vmin:
                vmin = v
            elif v > vmax:
                vmax = v
            if not spans:
                # one point a row: they span once one leaves the line
                # through the first two
                if dx is None:
                    dx = x - x0
                else:
                    spans = x - x0 != dx * (y - 1)
            if spans and vmax - vmin >= h:
                stats["diagonal_width_rejects"] += big_l
                break
        else:
            if spans:
                survivors.extend(
                    ((q1 + h * zx - s * zy) % big_l, l * zy) for zy in range(h) for zx in range(l)
                )
            else:
                stats["dimension_rejects"] += big_l
    survivors.sort()
    return stats, survivors
