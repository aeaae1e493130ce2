"""Exact linear algebra: determinants, inverses, HNF, dual bases."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homometry import linalg
from homometry.errors import InvariantError, SingularMatrixError
from homometry.linalg import det, dual_basis, identity, mat, solve


def det_times_inverse(m):
    """det(m) * inverse(m), the adjugate of a nonsingular m."""
    value = det(m)
    return tuple(tuple(value * e for e in col) for col in linalg.inverse(m))


def rand_matrix(rng, d, lo=-6, hi=6, integral=False):
    while True:
        if integral:
            cols = [[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)]
        else:
            cols = [
                [F(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(d)]
                for _ in range(d)
            ]
        m = mat(cols)
        if det(m) != 0:
            return m


def test_det_identity():
    for d in (1, 2, 3, 4):
        assert det(identity(d)) == 1


def test_det_known_values():
    # cofactor expansion by hand: 2*3 - 1*(-1) = 7, 3*1 - 2*(-1) = 5
    assert det(mat([(2, -1), (1, 3)])) == 7
    assert det(mat([(3, -1), (2, 1)])) == 5


def test_det_3x3_hand_oracle():
    m = mat([(1, 2, 0), (0, 1, 3), (2, -1, 1)])
    # rows (1,0,2), (2,1,-1), (0,3,1); expand along the first row:
    # 1*det[[1,-1],[3,1]] + 2*det[[2,1],[0,3]] = 4 + 12
    assert det(m) == 1 * (1 * 1 - (-1) * 3) + 2 * (2 * 3 - 1 * 0) == 16


def test_adjugate_identity():
    for d in (1, 2, 3):
        assert det_times_inverse(identity(d)) == identity(d)


def test_adjugate_defining_identity():
    rng = random.Random(7)
    for d in (2, 3, 4):
        for _ in range(10):
            m = rand_matrix(rng, d)
            target = tuple(
                tuple(det(m) * F(int(i == j)) for i in range(d)) for j in range(d)
            )
            assert linalg.mat_mul(m, det_times_inverse(m)) == target


def test_adjugate_integral_for_integer_matrices():
    rng = random.Random(11)
    for _ in range(20):
        m = rand_matrix(rng, 3, integral=True)
        assert linalg.is_integral(det_times_inverse(m))


def test_solve_identity_and_roundtrip():
    rng = random.Random(3)
    v = linalg.vec((4, -2, 7))
    assert solve(identity(3), v) == v
    for _ in range(10):
        m = rand_matrix(rng, 3)
        x = linalg.vec([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)])
        assert solve(m, linalg.mat_vec(m, x)) == x


def test_solve_cramer_oracle():
    # Cramer: x1 = det((1,0),(2,1))/5 = 1/5, x2 = det((3,-1),(1,0))/5 = 1/5
    assert solve(mat([(3, -1), (2, 1)]), linalg.vec((1, 0))) == (F(1, 5), F(1, 5))


def exact(values):
    return all(type(x) in (int, F) for x in values)


def test_plain_int_matrices_stay_exact():
    # plain int tuples, not mat(): no division may fall back to floats
    x = solve(((1, 1), (-5, 1)), (1, 0))
    assert x == (F(1, 6), F(-1, 6)) and exact(x)
    value = det(((1, 0, 0), (0, 1, 1), (0, -2, 1)))
    assert value == 3 and exact([value])
    (v,) = linalg.nullspace([(2, 1, 0), (1, 3, 1)])
    assert v == (1, -2, 5) and all(type(x) is int for x in v)
    inv = linalg.inverse(((2, 1), (1, 1)))
    assert inv == ((1, -1), (-1, 2)) and all(exact(col) for col in inv)


def test_det_of_every_size_is_the_one_elimination():
    # sizes 0, 1 and 2 take the pass too, and plain ints still give Fractions
    assert det(()) == 1
    for m, want in [
        (((F(-3, 2),),), F(-3, 2)),
        (((0,),), 0),
        (((1, 2), (3, 4)), -2),
        (((1, 2), (2, 4)), 0),
    ]:
        value = det(m)
        assert value == want and type(value) is F
    with pytest.raises(ValueError):
        det(((1, 2),))


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve(mat([(1, 2), (2, 4)]), linalg.vec((1, 0)))


def test_solve_and_inverse_refuse_non_square_input():
    # m @ (1, 2) is (1, 2, 19), so (1, 2) does not solve the system
    with pytest.raises(ValueError):
        solve(((1, 0, 5), (0, 1, 7)), (1, 2, 99))
    with pytest.raises(ValueError):
        linalg.inverse(((1,), (0,)))
    with pytest.raises(ValueError):
        solve(identity(2), (1, 2, 3))


def test_gauss_jordan_is_fraction_free_on_integer_input():
    # row 2 is row 0 + row 1; the reduced row echelon form of rows 0, 1, 3
    # is (1, 0, 0, 27/5), (0, 0, 1, 1), (0, 1, 0, -6/5) with leads 0, 2, 1
    rows = [(2, 4, 1, 7), (1, 2, 0, 3), (3, 6, 1, 10), (0, 5, 2, -4)]
    kept, pivots, den, scale = linalg._gauss_jordan(rows, 4)
    assert kept == [0, 1, 3] and scale == 1
    # den is the determinant of rows 0, 1, 3 at the columns 0, 2, 1
    assert den == leibniz_det([[2, 1, 4], [1, 0, 2], [0, 2, 5]]) == -5
    assert pivots == [(0, [-5, 0, 0, -27]), (2, [0, 0, -5, -5]), (1, [0, -5, 0, 6])]
    assert all(type(e) is int for _, row in pivots for e in row)


def test_dual_basis_examples():
    assert dual_basis(identity(3)) == identity(3)
    d = dual_basis(mat([(3, -1), (2, 1)]))
    assert d == mat([(F(1, 5), F(-2, 5)), (F(1, 5), F(3, 5))])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_dual_basis_two_row_family(k):
    # basis (k+1,-1), (k,1) has dual (1/r, -k/r), (1/r, (k+1)/r) with r = 2k+1
    r = 2 * k + 1
    d = dual_basis(mat([(k + 1, -1), (k, 1)]))
    assert d == mat([(F(1, r), F(-k, r)), (F(1, r), F(k + 1, r))])


def test_dual_basis_involution():
    rng = random.Random(23)
    for _ in range(10):
        m = rand_matrix(rng, 3)
        assert dual_basis(dual_basis(m)) == m


def hnf(m):
    """Column-style Hermite normal form of a nonsingular integer matrix.

    Returns (H, U) with H = m @ U, U unimodular, H lower triangular with
    nonnegative entries whose diagonal strictly dominates its row.  It is
    the library's column reduction with its unimodular U kept, the one
    `integer_kernel` reads its kernel off.
    """
    d = len(m)
    if not linalg.is_integral(m):
        raise ValueError("hnf requires an integral matrix")
    if det(m) == 0:
        raise SingularMatrixError("hnf of a singular matrix")
    grid = [[int(m[j][i]) for j in range(d)] for i in range(d)]
    grid, u, _ = linalg._column_hnf(grid, track_u=True)
    h_cols = mat(tuple(tuple(grid[i][j] for i in range(d)) for j in range(d)))
    u_cols = mat(tuple(tuple(u[i][j] for i in range(d)) for j in range(d)))
    return h_cols, u_cols


def primitive_integer_direction(v):
    """The primitive integer vector positively parallel to a rational v != 0."""
    _, (ints,) = linalg.clear_denominators([linalg.vec(v)])
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def test_hnf_identity():
    h, u = hnf(identity(3))
    assert h == identity(3) and u == identity(3)


def _hnf_grid(h):
    d = len(h)
    return [[int(h[j][i]) for j in range(d)] for i in range(d)]


def test_hnf_unimodular_reduces_to_identity():
    rng = random.Random(5)
    for _ in range(10):
        # random product of elementary column operations has determinant 1
        m = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(6):
            a, b = rng.sample(range(3), 2)
            c = rng.randint(-3, 3)
            for row in m:
                row[a] += c * row[b]
        cols = mat(tuple(tuple(m[i][j] for i in range(3)) for j in range(3)))
        h, u = hnf(cols)
        assert h == identity(3)
        assert abs(det(u)) == 1


def test_hnf_det7_shapes():
    shapes = {(l, 7 // l, s) for l in (1, 7) for s in range(7 // l)}
    rng = random.Random(9)
    found = set()
    for _ in range(60):
        m = rand_matrix(rng, 2, integral=True)
        if abs(det(m)) != 7:
            continue
        h, u = hnf(m)
        grid = _hnf_grid(h)
        assert grid[0][1] == 0
        triple = (grid[0][0], grid[1][1], grid[1][0])
        assert triple in shapes
        found.add(triple)
        assert linalg.mat_mul(m, u) == h
    assert found  # at least one det-7 instance exercised


def test_hnf_invariants_random():
    rng = random.Random(13)
    for d in (2, 3):
        for _ in range(15):
            m = rand_matrix(rng, d, integral=True)
            h, u = hnf(m)
            assert abs(det(u)) == 1
            assert linalg.mat_mul(m, u) == h
            grid = _hnf_grid(h)
            for i in range(d):
                assert grid[i][i] > 0
                for j in range(d):
                    if j > i:
                        assert grid[i][j] == 0
                    else:
                        assert 0 <= grid[i][j]
                        if j < i:
                            assert grid[i][j] < grid[i][i]
            assert abs(det(h)) == abs(det(m))


def test_hnf_requires_nonsingular_integral():
    with pytest.raises(SingularMatrixError):
        hnf(mat([(1, 1), (1, 1)]))
    with pytest.raises(ValueError):
        hnf(mat([(F(1, 2), 0), (0, 1)]))


def test_hnf_basis_spans():
    basis = linalg.hnf_basis([(2, 0), (0, 2), (1, 1)])
    # span of these vectors is the checkerboard lattice {x + y even}
    assert len(basis) == 2
    assert abs(det(basis)) == 2


def test_integer_kernel():
    kernel = linalg.integer_kernel([(2, 3, 5)])
    assert len(kernel) == 2
    for z in kernel:
        assert 2 * z[0] + 3 * z[1] + 5 * z[2] == 0
    assert linalg.rank_of([linalg.vec(z) for z in kernel]) == 2


def _random_rows(rng, nrows, ncols):
    while True:
        rows = [tuple(rng.randint(-3, 3) for _ in range(ncols)) for _ in range(nrows)]
        if all(math.gcd(*r) == 1 for r in rows):
            return rows


def test_integer_kernel_is_a_lattice_basis():
    # the kernel vectors span every integer solution, not only a
    # full-rank sublattice of them: each one in a box has integral
    # coordinates over the returned basis
    rng = random.Random(41)
    tested = 0
    for nrows, ncols, box in [(1, 3, 3)] * 12 + [(2, 4, 2)] * 12:
        rows = _random_rows(rng, nrows, ncols)
        kernel = [linalg.vec(z) for z in linalg.integer_kernel(rows)]
        assert len(kernel) == ncols - linalg.rank_of(rows)
        sols = [
            linalg.vec(z)
            for z in itertools.product(range(-box, box + 1), repeat=ncols)
            if any(z) and all(sum(a * b for a, b in zip(r, z)) == 0 for r in rows)
        ]
        if sols:
            _, _, coords = linalg.span_coordinates(kernel, sols)
            assert all(c.denominator == 1 for lam in coords for c in lam), rows
        tested += len(sols)
    assert tested > 200


def test_nullspace():
    row = linalg.vec((1, 1, 0))
    ns = linalg.nullspace([row])
    # free columns 1 and 2 of the echelon row (1, 1, 0)
    assert ns == ((-1, 1, 0), (0, 0, 1))
    assert all(linalg.vdot(row, v) == 0 for v in ns)
    assert len(ns) == 3 - 1


def rand_vectors(rng, count, d):
    """Rational vectors spanning a random subspace of rank 1..d."""
    gens = [
        [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
        for _ in range(rng.randint(1, d))
    ]
    out = []
    for _ in range(count):
        cs = [rng.randint(-2, 2) for _ in gens]
        out.append(tuple(sum((c * g[i] for c, g in zip(cs, gens)), F(0)) for i in range(d)))
    return out


def test_independent_subset_is_a_greedy_basis():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randint(1, 4)
        vs = rand_vectors(rng, rng.randint(0, 6), d)
        picked = linalg.independent_subset(vs)
        # hnf_basis finds the rank by integer column reduction instead
        assert len(picked) == linalg.rank_of(vs) == len(linalg.hnf_basis(vs))
        for i, v in enumerate(vs):
            before = [vs[j] for j in picked if j < i]
            assert (i in picked) == (len(linalg.hnf_basis(before + [v])) > len(before))
    # plain integer entries stay exact
    assert linalg.independent_subset([(1, 2), (2, 4), (0, 3)]) == [0, 2]


def test_span_coordinates():
    cols = (linalg.vec((1, 1, 0)), linalg.vec((0, 2, 1)))
    lams = [(1, 0), (F(1, 2), -3), (0, 0)]
    pts = [linalg.mat_vec(cols, lam) for lam in lams]
    _, _, coords = linalg.span_coordinates(cols, pts)
    assert coords == [linalg.vec(lam) for lam in lams]
    with pytest.raises(InvariantError) as info:
        linalg.span_coordinates(cols, [linalg.vec((0, 0, 1))])
    assert info.value.witness == (0, 0, 1)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        linalg.frac(0.5)


# -- oracles for the one elimination routine ----------------------------------

ENTRIES = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.integers(2**64, 2**66),
    st.integers(-(2**66), -(2**64)),
)


@st.composite
def int_fraction_rows(draw, d=None, count=None):
    """Rows of int/Fraction entries; some are zero or combinations of earlier rows."""
    d = draw(st.integers(1, 5)) if d is None else d
    count = draw(st.integers(0, 6)) if count is None else count
    rows = []
    for i in range(count):
        kind = draw(st.sampled_from(["free", "free", "free", "zero", "combination"]))
        if kind == "zero":
            row = [0] * d
        elif kind == "combination" and i:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            ca, cb = draw(ENTRIES), draw(st.integers(-2, 2))
            row = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
        else:
            row = [draw(ENTRIES) for _ in range(d)]
        rows.append(tuple(row))
    return rows


@st.composite
def square_matrices(draw):
    d = draw(st.integers(1, 5))
    return tuple(draw(int_fraction_rows(d, d)))


def leibniz_det(m):
    """Sum over permutations of sign * product: no elimination at all."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def minor_rank(vectors):
    """The largest r with a nonzero r x r Leibniz minor."""
    if not vectors:
        return 0
    d = len(vectors[0])
    for r in range(min(len(vectors), d), 0, -1):
        for rows in itertools.combinations(vectors, r):
            for cols in itertools.combinations(range(d), r):
                if leibniz_det([[v[c] for c in cols] for v in rows]):
                    return r
    return 0


@settings(max_examples=150, deadline=None)
@given(square_matrices(), st.data())
def test_square_solvers_match_leibniz(m, data):
    d = len(m)
    value = linalg.det(m)
    assert value == leibniz_det(m)
    if value == 0:
        for call in (
            lambda: linalg.inverse(m),
            lambda: det_times_inverse(m),
            lambda: solve(m, (1,) * d),
            lambda: linalg.solve_scaled(m, identity(d)),
        ):
            with pytest.raises(SingularMatrixError):
                call()
        return
    inv = linalg.inverse(m)
    assert linalg.mat_mul(inv, m) == identity(d) == linalg.mat_mul(m, inv)
    den, scaled = linalg.solve_scaled(m, identity(d))
    assert den > 0 and all(type(e) is int for row in scaled for e in row)
    assert [[F(e, den) for e in row] for row in scaled] == [list(row) for row in zip(*inv)]
    x = tuple(data.draw(ENTRIES) for _ in range(d))
    assert solve(m, linalg.mat_vec(m, x)) == x
    target = tuple(tuple(value * int(i == j) for i in range(d)) for j in range(d))
    assert linalg.mat_mul(m, det_times_inverse(m)) == target


@settings(max_examples=150, deadline=None)
@given(int_fraction_rows())
def test_rank_solvers_match_minor_oracle(rows):
    picked = linalg.independent_subset(rows)
    kept = []
    for i, v in enumerate(rows):
        if minor_rank(kept + [v]) > len(kept):
            kept.append(v)
            assert i in picked
        else:
            assert i not in picked
    assert linalg.rank_of(rows) == len(kept) == minor_rank(rows)
    if rows:
        ns = linalg.nullspace(rows)
        assert len(ns) == len(rows[0]) - len(kept)
        assert all(linalg.vdot(r, v) == 0 for r in rows for v in ns)
        assert minor_rank(list(ns)) == len(ns)


@given(int_fraction_rows())
def test_clear_denominators_matches_naive_lcm(rows):
    den = 1
    for e in itertools.chain.from_iterable(rows):
        q = F(e).denominator
        den = den * q // math.gcd(den, q)
    got_den, ints = linalg.clear_denominators(rows)
    assert got_den == den
    assert ints == [tuple(int(F(e) * den) for e in row) for row in rows]
    assert all(type(x) is int for row in ints for x in row)


def fraction_nullspace(rows):
    """The former nullspace: Fraction kernel vectors with 1 at each free
    column, from a plain Fraction reduced row echelon form."""
    d = len(rows[0])
    m = [[F(e) for e in r] for r in rows]
    leads = []
    for c in range(d):
        i = next((i for i in range(len(leads), len(m)) if m[i][c]), None)
        if i is None:
            continue
        top = len(leads)
        m[top], m[i] = m[i], m[top]
        m[top] = [e / m[top][c] for e in m[top]]
        for j in range(len(m)):
            if j != top and m[j][c]:
                m[j] = [a - m[j][c] * b for a, b in zip(m[j], m[top])]
        leads.append(c)
    out = []
    for fc in range(d):
        if fc in leads:
            continue
        x = [F(0)] * d
        x[fc] = F(1)
        for i, pc in enumerate(leads):
            x[pc] = -m[i][fc]
        out.append(tuple(x))
    return tuple(out)


@st.composite
def nonempty_rows_of_every_rank(draw):
    """Rows of int/Fraction entries in d = 1..5 whose rank is any of 0..d:
    r free rows, then combinations and zero rows."""
    d = draw(st.integers(1, 5))
    r = draw(st.integers(0, d))
    rows = draw(int_fraction_rows(d, r))
    for _ in range(draw(st.integers(0 if rows else 1, 2))):
        cs = [draw(st.integers(-2, 2)) for _ in rows]
        combo = [sum((c * F(row[k]) for c, row in zip(cs, rows)), F(0)) for k in range(d)]
        rows.append(tuple(combo))
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(nonempty_rows_of_every_rank())
def test_nullspace_is_the_primitive_fraction_kernel(rows):
    got = linalg.nullspace(rows)
    want = fraction_nullspace(rows)
    assert len(got) == len(want)
    for v, w in zip(got, want):
        assert all(type(x) is int for x in v) and math.gcd(*v) == 1
        # a positive multiple of w, the ratio read at w's first nonzero entry
        k = next(i for i, e in enumerate(w) if e)
        c = v[k] / w[k]
        assert c > 0 and v == tuple(c * e for e in w)
