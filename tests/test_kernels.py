"""The integer kernels against brute-force oracles: the row-sliced box scan,
the planar lattice width and the T_q cells; and the thin directions read off
the polar of the difference body."""

import itertools
import math
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homometry import _kernels, constructions, linalg, polytope, tiling
from homometry._kernels import box_scan, planar_width
from homometry.classify2d import tile_points
from homometry.errors import LowerDimensionalError
from homometry.lattice import Lattice
from homometry.pointset import PointSet

BIG = 2**64


def brute_force_box_scan(lo, hi, eq_rows, eq_rhs, le_rows, le_rhs):
    """Every cell of the box, tested against every row."""
    out = []
    for z in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if any(sum(r * c for r, c in zip(row, z)) != rhs for row, rhs in zip(eq_rows, eq_rhs)):
            continue
        values = [sum(r * c for r, c in zip(row, z)) for row in le_rows]
        if any(v > rhs for v, rhs in zip(values, le_rhs)):
            continue
        out.append(z)
    return out


@st.composite
def scans(draw):
    d = draw(st.integers(1, 4))
    # coordinates and coefficients beyond 2**63 exercise the exact arithmetic
    shift = draw(st.sampled_from([0, BIG, -3 * BIG]))
    coeff_scale = draw(st.sampled_from([1, BIG]))
    lo = [shift + draw(st.integers(-3, 3)) for _ in range(d)]
    # a width of -1 makes an empty box
    hi = [a + draw(st.integers(-1, 4)) for a in lo]
    anchor = [draw(st.integers(a, max(a, b))) for a, b in zip(lo, hi)]

    def row():
        return tuple(coeff_scale * draw(st.integers(-3, 3)) for _ in range(d))

    def value(r):
        return sum(c * z for c, z in zip(r, anchor))

    eq_rows = [row() for _ in range(draw(st.integers(0, 2)))]
    # equality right-hand sides through the anchor, or just off it
    eq_rhs = [value(r) + draw(st.sampled_from([0, 0, 1])) for r in eq_rows]
    le_rows = [row() for _ in range(draw(st.integers(0, 3)))]
    le_rhs = [value(r) + coeff_scale * draw(st.integers(-2, 3)) for r in le_rows]
    return lo, hi, eq_rows, eq_rhs, le_rows, le_rhs


@given(scans())
@settings(max_examples=300, deadline=None)
def test_box_scan_matches_brute_force(args):
    assert box_scan(*args) == brute_force_box_scan(*args)


@st.composite
def split_scans(draw):
    """Scans in d = 1..5 whose rows often have a zero coefficient of the
    last prefix coordinate x or of the last coordinate t, among them
    equalities with a zero t coefficient, on boxes beyond 2**64."""
    d = draw(st.integers(1, 5))
    shift = draw(st.sampled_from([0, BIG + 5, -3 * BIG - 1]))
    coeff_scale = draw(st.sampled_from([1, BIG + 1]))
    lo = [shift + draw(st.integers(-2, 2)) for _ in range(d)]
    # a width of -1 makes an empty box; wider boxes only in low dimension
    hi = [a + draw(st.integers(-1, 4 if d <= 3 else 2)) for a in lo]
    anchor = [draw(st.integers(a, max(a, b))) for a, b in zip(lo, hi)]

    def row():
        r = [coeff_scale * draw(st.integers(-3, 3)) for _ in range(d)]
        if d >= 2 and draw(st.booleans()):
            r[-2] = 0
        if draw(st.booleans()):
            r[-1] = 0
        return tuple(r)

    def value(r):
        return sum(c * z for c, z in zip(r, anchor))

    eq_rows = [row() for _ in range(draw(st.integers(0, 2)))]
    eq_rhs = [value(r) + draw(st.sampled_from([0, 0, 1])) for r in eq_rows]
    le_rows = [row() for _ in range(draw(st.integers(0, 4)))]
    le_rhs = [value(r) + coeff_scale * draw(st.integers(-2, 3)) for r in le_rows]
    return lo, hi, eq_rows, eq_rhs, le_rows, le_rhs


@given(split_scans())
@settings(max_examples=300, deadline=None)
def test_box_scan_matches_brute_force_with_zero_split_coefficients(args):
    assert box_scan(*args) == brute_force_box_scan(*args)


def test_every_module_scans_with_the_one_kernel():
    assert polytope.box_scan is tiling.box_scan is constructions.box_scan is _kernels.box_scan


def test_box_scan_edge_cases():
    # empty box in one coordinate
    assert box_scan((0, 5), (3, 4), [], [], [], []) == []
    # no rows: the whole box in lexicographic order
    assert box_scan((0, 0), (1, 1), [], [], [], []) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # x + y <= 1 against x + y < 1, that is x + y <= 0, on the unit square
    assert box_scan((0, 0), (1, 1), [], [], [(1, 1)], [1]) == [(0, 0), (0, 1), (1, 0)]
    assert box_scan((0, 0), (1, 1), [], [], [(1, 1)], [0]) == [(0, 0)]
    # an equality with no integer solution on the last coordinate
    assert box_scan((0, 0), (3, 3), [(0, 2)], [3], [], []) == []
    # a zero last coefficient leaves the prefix to decide
    assert box_scan((0, 0), (2, 1), [(1, 0)], [1], [], []) == [(1, 0), (1, 1)]


def test_box_scan_beyond_int64():
    lo, hi = (BIG, -BIG), (BIG + 3, -BIG + 2)
    eq_rows, eq_rhs = [(BIG, BIG)], [BIG * 2]
    le_rows, le_rhs = [(-(2**70), 0)], [-(2**70) * (BIG + 1)]
    # x + y = 2 and x >= BIG + 1
    expected = [(BIG + 1, -BIG + 1), (BIG + 2, -BIG)]
    args = (lo, hi, eq_rows, eq_rhs, le_rows, le_rhs)
    assert box_scan(*args) == brute_force_box_scan(*args) == expected


def test_tile_points_are_the_integer_points_of_the_cell():
    for l, h, s, q1, q2 in [(1, 7, 3, 0, 4), (1, 7, 3, 6, 0), (2, 4, 2, 2, 6), (3, 4, 1, 11, 9)]:
        # q_i + n_i <= <t, a_i> <= q_i + L with a1 = (h, -s), a2 = (0, l)
        big_l, n1 = l * h, math.gcd(h, s)
        tile = tile_points(l, h, s, q1, q2)
        assert tile.den == 1
        assert list(tile.ints) == brute_force_box_scan(
            (-20, -20),
            (20, 20),
            [],
            [],
            [(h, -s), (-h, s), (0, l), (0, -l)],
            [q1 + big_l, -(q1 + n1), q2 + big_l, -(q2 + l)],
        )
        # h rows of l points each, one point in each coset of the lattice
        assert len(tile) == big_l


def spread(m, points):
    values = [sum(a * b for a, b in zip(m, p)) for p in points]
    return max(values) - min(values)


def brute_force_thin_directions(points, bound, strict=False):
    """Every nonzero m of spread <= bound (< if strict), with direct spreads.

    Any m of spread <= bound has |<m, v>| <= bound on every difference v, so
    every frame A of d independent differences bounds each |m_j| by
    bound * sum_k |(A^T)^-1_jk|.  The box takes the least of these bounds
    per coordinate over all frames, and reaches one step beyond it.  Its
    first d - 1 coordinates are walked cell by cell; for each such prefix
    |<m, v>| <= bound on every v bounds the last coordinate to an interval,
    and only that interval is walked.
    """
    d = len(points[0])
    # v and -v give the same bounds, so only the lexicographically positive
    diffs = sorted({tuple(a - b for a, b in zip(p, q)) for p in points for q in points})
    diffs = [v for v in diffs if v > (0,) * d]
    radii = None
    for frame in itertools.combinations(diffs, d):
        if linalg.det(frame) == 0:
            continue
        bounds = [int(bound * sum(abs(e) for e in col)) for col in linalg.inverse(frame)]
        radii = bounds if radii is None else list(map(min, radii, bounds))
    out = []
    for head in itertools.product(*[range(-1 - r, 2 + r) for r in radii[:-1]]):
        lo, hi = -1 - radii[-1], 1 + radii[-1]
        for v in diffs:
            if v[-1]:
                # -bound <= rest + m_d v_d <= bound
                rest = sum(a * b for a, b in zip(head, v))
                ends = sorted([F(-bound - rest, v[-1]), F(bound - rest, v[-1])])
                lo, hi = max(lo, math.ceil(ends[0])), min(hi, math.floor(ends[1]))
        for last in range(lo, hi + 1):
            m = head + (last,)
            w = spread(m, points)
            if any(m) and (w < bound if strict else w <= bound):
                out.append((m, w))
    return out


def thin_directions(points, bound, strict=False):
    """(m, spread) for the nonzero m of `tiling._thin_scan` of K on Z^d, in
    lexicographic order: the integer m of spread <= bound (< bound if
    strict) over the integer points K, read off one hull of D(K) in the
    frame of Z^d, where the scan's scale is 1."""
    lat = Lattice.standard(len(points[0]))
    scale, body = tiling._thin_body(PointSet(points), lat)
    assert scale == 1
    return [(m, w) for w, m in tiling._thin_scan(body, bound, strict) if any(m)]


@st.composite
def skews(draw, d):
    """A unimodular U = lower times upper unitriangular, entries up to about 20."""
    if d == 1 or draw(st.booleans()):
        return [[int(i == j) for j in range(d)] for i in range(d)]
    off = st.integers(-3, 3)
    low = [[1 if i == j else draw(off) if j < i else 0 for j in range(d)] for i in range(d)]
    up = [[1 if i == j else draw(off) if j > i else 0 for j in range(d)] for i in range(d)]
    return [[sum(low[i][k] * up[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


@st.composite
def thin_inputs(draw):
    d = draw(st.integers(1, 3))
    # a shift beyond 2**63 exercises the exact arithmetic; spreads ignore it
    shift = draw(st.sampled_from([0, BIG, -3 * BIG]))
    coords = st.tuples(*[st.integers(-2, 2)] * d)
    base = draw(st.lists(coords, min_size=1, max_size=5, unique=True))
    bound = draw(st.one_of(st.integers(0, 3), st.builds(F, st.integers(0, 12), st.integers(1, 4))))
    return base, draw(skews(d)), shift, bound, draw(st.booleans())


@given(thin_inputs())
@settings(max_examples=300, deadline=None)
def test_thin_directions_match_brute_force(args):
    # the points are U p + shift for the small points p: m is thin for them
    # iff U^T m is thin for p, with the same spread, so the brute-force box
    # runs on p and its directions map by U^-T
    base, u, shift, bound, strict = args
    d = len(base[0])
    points = [tuple(sum(map(mul, row, p)) + shift for row in u) for p in base]
    if linalg.rank_of([tuple(a - b for a, b in zip(p, base[0])) for p in base]) < d:
        with pytest.raises(LowerDimensionalError):
            thin_directions(points, bound, strict)
        return
    u_inv_t = linalg.transpose(linalg.inverse(u))
    expected = sorted(
        (tuple(int(sum(map(mul, row, m))) for row in u_inv_t), w)
        for m, w in brute_force_thin_directions(base, bound, strict)
    )
    assert thin_directions(points, bound, strict) == expected


@pytest.mark.parametrize(
    "points",
    [
        [(4,)],
        [(0, 0), (1, 1), (3, 3)],
        [(0, 0, 0), (1, 0, 1), (0, 2, 2), (1, 2, 3)],
    ],
)
def test_thin_directions_flat_input_raises(points):
    with pytest.raises(LowerDimensionalError):
        thin_directions(points, 5)


def test_thin_directions_unit_square():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert thin_directions(square, 1) == [
        ((-1, 0), 1),
        ((0, -1), 1),
        ((0, 1), 1),
        ((1, 0), 1),
    ]
    assert thin_directions(square, 1, strict=True) == []
    # spreads are integers: < 3/2 and <= 3/2 both mean <= 1
    assert thin_directions(square, F(3, 2)) == thin_directions(square, 1)
    assert thin_directions(square, F(3, 2), strict=True) == thin_directions(square, 1)


# -- the planar lattice width -------------------------------------------------

# shears of one row by a multiple of the other; they generate SL2(Z)
shears = st.lists(st.tuples(st.booleans(), st.integers(-4, 4)), max_size=4)


def unimodular(ops):
    u = [[1, 0], [0, 1]]
    for first, k in ops:
        i, j = (0, 1) if first else (1, 0)
        u[i] = [u[i][0] + k * u[j][0], u[i][1] + k * u[j][1]]
    return u


def image(u, points, shift=(0, 0)):
    return [
        (u[0][0] * x + u[0][1] * y + shift[0], u[1][0] * x + u[1][1] * y + shift[1])
        for x, y in points
    ]


@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=7),
    shears,
    st.sampled_from([(0, 0), (BIG, -3 * BIG)]),
)
@settings(max_examples=300, deadline=None)
def test_planar_width_matches_brute_force(base, ops, shift):
    # a unimodular map and a translation keep the width, so the skewed,
    # shifted set must have the width the brute-force box finds on the small one
    points = image(unimodular(ops), base, shift)
    if linalg.rank_of([tuple(a - b for a, b in zip(p, base[0])) for p in base]) < 2:
        with pytest.raises(LowerDimensionalError):
            planar_width(points)
        return
    w, m = planar_width(points)
    assert any(m) and spread(m, points) == w
    assert min(found for _, found in brute_force_thin_directions(base, w)) == w


@pytest.mark.parametrize(
    "points",
    [
        [(4, 4)],
        [(0, 0), (3, 1)],
        [(0, 0), (1, 1), (3, 3), (1, 1)],
        [(BIG, 0), (BIG + 2, 6), (BIG - 1, -3)],
    ],
)
def test_planar_width_flat_input_raises(points):
    with pytest.raises(LowerDimensionalError):
        planar_width(points)


def fibonacci_unimodular(top):
    a, b = 1, 1
    while a < top:
        a, b = a + b, a
    # [[a, b], [b, a - b]] has determinant a(a - b) - b^2 = +-1
    return [[a, b], [b, a - b]]


def test_planar_width_near_1e9_takes_few_steps(monkeypatch):
    steps = []
    real = _kernels._gauss_step

    def counted(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(_kernels, "_gauss_step", counted)
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    cross = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    cases = [
        # consecutive Fibonacci numbers are the slowest case of Euclid's algorithm
        (fibonacci_unimodular(10**9), square, 1),
        (unimodular([(True, 999_999_937), (False, -1)]), square, 1),
        (fibonacci_unimodular(10**9), cross, 2),
        (unimodular([(False, 10**9 - 1), (True, -1)]), cross, 2),
    ]
    for u, base, width in cases:
        points = image(u, base, (10**9, -(10**9)))
        steps.clear()
        w, m = planar_width(points)
        assert (w, spread(m, points)) == (width, width)
        # a step takes mu from the breakpoints, so the count follows the
        # number of digits of the coordinate ranges, like Euclid's algorithm
        ranges = [max(p[i] for p in points) - min(p[i] for p in points) for i in (0, 1)]
        assert len(steps) <= max(ranges).bit_length() + 2
