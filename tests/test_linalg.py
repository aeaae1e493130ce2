"""Exact linear algebra: determinants, adjugates, HNF, dual bases."""

import random
from fractions import Fraction as F

import pytest

from homometry import linalg
from homometry.errors import InvariantError, SingularMatrixError
from homometry.linalg import det, adjugate, dual_basis, hnf, identity, mat, solve


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
        assert adjugate(identity(d)) == identity(d)


def test_adjugate_defining_identity():
    rng = random.Random(7)
    for d in (2, 3, 4):
        for _ in range(10):
            m = rand_matrix(rng, d)
            target = tuple(
                tuple(det(m) * F(int(i == j)) for i in range(d)) for j in range(d)
            )
            assert linalg.mat_mul(m, adjugate(m)) == target


def test_adjugate_integral_for_integer_matrices():
    rng = random.Random(11)
    for _ in range(20):
        m = rand_matrix(rng, 3, integral=True)
        assert linalg.is_integral(adjugate(m))


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
    assert v == (F(1, 5), F(-2, 5), 1) and exact(v)
    inv = linalg.inverse(((2, 1), (1, 1)))
    assert inv == ((1, -1), (-1, 2)) and all(exact(col) for col in inv)


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve(mat([(1, 2), (2, 4)]), linalg.vec((1, 0)))


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
    kernel = linalg.integer_kernel((2, 3, 5))
    assert len(kernel) == 2
    for z in kernel:
        assert 2 * z[0] + 3 * z[1] + 5 * z[2] == 0
    assert linalg.rank_of([linalg.vec(z) for z in kernel]) == 2


def test_nullspace():
    ns = linalg.nullspace([linalg.vec((1, 1, 0))])
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] == 0 or (v[0] == 0 and v[1] == 0) or True
        assert linalg.vdot(linalg.vec((1, 1, 0)), v) == 0


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
