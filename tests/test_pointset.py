"""Point sets: covariograms, homometry, symmetry, direct sums, convexity."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homometry import pointset as ps
from homometry.errors import (
    DegenerateDifferencesError,
    NotDirectError,
    NotInLatticeError,
)
from homometry.lattice import Lattice
from homometry.pointset import PointSet

Z1 = Lattice.standard(1)
Z2 = Lattice.standard(2)
Z3 = Lattice.standard(3)


def naive_covariogram_value(k: PointSet, u):
    """|K ∩ (K + u)| by literal set intersection."""
    shifted = {tuple(a + b for a, b in zip(p, u)) for p in k.points}
    return len(set(k.points) & shifted)


def test_covariogram_singleton():
    cov = ps.covariogram(PointSet([(0, 0)]))
    assert cov.entries == {(F(0), F(0)): 1}


def test_covariogram_line_set():
    cov = ps.covariogram(PointSet([(0,), (1,), (3,)]))
    expected = {0: 3, 1: 1, -1: 1, 2: 1, -2: 1, 3: 1, -3: 1}
    assert {int(u[0]): m for u, m in cov.entries.items()} == expected


def test_covariogram_progression():
    k = PointSet([(x,) for x in range(16)])
    cov = ps.covariogram(k)
    for u in range(-15, 16):
        assert cov[(u,)] == 16 - abs(u)


def test_covariogram_matches_naive_oracle():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(1, 3)
        pts = {
            tuple(rng.randint(-6, 6) for _ in range(d))
            for _ in range(rng.randint(1, 12))
        }
        k = PointSet(pts)
        cov = ps.covariogram(k)
        for u in cov.support():
            assert cov[u] == naive_covariogram_value(k, u)


@given(
    st.sets(
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=10
    )
)
@settings(max_examples=60, deadline=None)
def test_covariogram_symmetry_and_mass(pts):
    k = PointSet(pts)
    cov = ps.covariogram(k)
    assert cov[(0, 0)] == len(k)
    assert sum(cov.entries.values()) == len(k) ** 2
    for u, m in cov.entries.items():
        assert cov[tuple(-c for c in u)] == m


def test_homometric_translation_and_reflection():
    k = PointSet([(0, 0), (2, 1), (3, 0)])
    assert ps.homometric(k, k.translate((5, -4)))
    reflected = PointSet([tuple(7 - c for c in p) for p in k.points])
    assert ps.homometric(k, reflected)


def test_trivially_homometric():
    k = PointSet([(0, 0), (2, 1), (3, 0)])
    assert ps.trivially_homometric(k, k)
    assert ps.trivially_homometric(k, k.negate().translate((9, 9)))
    other = PointSet([(0, 0), (1, 1), (3, 0)])
    assert not ps.trivially_homometric(k, other)


def test_centrally_symmetric():
    cross = PointSet([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
    assert ps.centrally_symmetric(cross)
    assert ps.centrally_symmetric(PointSet([(4, 7)]))
    for k in (1, 2, 3):
        tile = PointSet([(x, 0) for x in range(k + 1)] + [(x, 1) for x in range(k)])
        assert not ps.centrally_symmetric(tile)


def test_direct_sum_basics():
    t = PointSet([(0, 0), (1, 0)])
    assert ps.is_direct_sum(PointSet([(0, 0)]), t)
    pair = PointSet([(0,), (1,)])
    assert not ps.is_direct_sum(pair, pair)
    with pytest.raises(NotDirectError):
        ps.direct_sum(pair, pair)


def test_direct_sum_sixteen():
    s = PointSet([(0,), (1,), (4,), (5,)])
    t = PointSet([(0,), (2,), (8,), (10,)])
    assert ps.is_direct_sum(s, t)
    assert ps.direct_sum(s, t) == PointSet([(x,) for x in range(16)])
    assert ps.is_direct_sum(s, t.negate())


def test_sum_membership_is_tested_on_one_row_and_one_column():
    # S and T off Z with S + T in Z: no error, as with every sum point tested
    half = PointSet([(F(1, 2),)])
    assert ps.sum_convexity_witness(half, half, ps.direct_sum(half, half), Z1) is None
    s = PointSet([(0, 0), (1, 0), (F(1, 2), 1)])
    t = PointSet([(0, 0), (0, 2)])
    total = ps.direct_sum(s, t)
    with pytest.raises(NotInLatticeError) as info:
        ps.sum_convexity_witness(s, t, total, Z2)
    assert info.value.witness in total and info.value.witness not in Z2
    with pytest.raises(NotInLatticeError) as info:
        ps.sum_convexity_witness(t, s, total, Z2)
    assert info.value.witness in total and info.value.witness not in Z2


def test_minkowski_identity():
    k = PointSet([(1, 2), (3, 4)])
    assert ps.minkowski_sum(k, PointSet([(0, 0)])) == k


def random_direct_pair(rng, d):
    while True:
        s = PointSet(
            {
                tuple(rng.randint(-5, 5) for _ in range(d))
                for _ in range(rng.randint(2, 5))
            }
        )
        t = PointSet(
            {
                tuple(rng.randint(-5, 5) for _ in range(d))
                for _ in range(rng.randint(2, 5))
            }
        )
        if ps.is_direct_sum(s, t):
            return s, t


def test_direct_sum_homometry_properties():
    # randomized checks of the direct-sum homometry facts
    rng = random.Random(99)
    for _ in range(40):
        d = rng.randint(1, 3)
        s, t = random_direct_pair(rng, d)
        assert ps.is_direct_sum(s, t.negate())
        plus = ps.direct_sum(s, t)
        minus = ps.direct_sum(s, t.negate())
        assert ps.homometric(plus, minus)
        expected_trivial = ps.centrally_symmetric(s) or ps.centrally_symmetric(t)
        assert ps.trivially_homometric(plus, minus) == expected_trivial


def test_is_lattice_convex():
    assert ps.is_lattice_convex(PointSet([(0, 0), (1, 0), (1, 1)]), Z2)
    assert not ps.is_lattice_convex(PointSet([(0,), (2,)]), Z1)
    with pytest.raises(NotInLatticeError):
        ps.is_lattice_convex(PointSet([(F(1, 2), 0)]), Z2)


def test_intrinsic_lattice_convexity():
    assert not ps.intrinsically_lattice_convex(PointSet([(0,), (1,), (4,), (5,)]))
    assert not ps.intrinsically_lattice_convex(PointSet([(0,), (2,), (8,), (10,)]))
    assert ps.intrinsically_lattice_convex(PointSet([(0, 0), (1, 0), (0, 1)]))


def test_intrinsic_convexity_reduces_flat_sets():
    # the set lives on a line inside R^2; reduction must happen internally
    assert ps.intrinsically_lattice_convex(PointSet([(0, 0), (2, 2), (4, 4)]))
    assert not ps.intrinsically_lattice_convex(PointSet([(0, 0), (2, 2), (6, 6)]))


def test_generated_lattice():
    assert ps.generated_lattice(PointSet([(0,), (1,), (4,), (5,)])) == Z1
    assert ps.generated_lattice(PointSet([(0,), (2,), (8,), (10,)])) == Lattice([(2,)])
    lat = ps.generated_lattice(PointSet([(0, 0), (3, -1), (2, 1)]))
    assert lat == Lattice([(3, -1), (2, 1)])
    with pytest.raises(DegenerateDifferencesError):
        ps.generated_lattice(PointSet([(0, 0), (1, 1)]))


def test_prism_example_checks():
    s = PointSet(
        [(0, 0, 0), (0, 1, -1), (0, 2, 1), (2, 0, 0), (2, 1, -1), (2, 2, 1), (4, 1, 0)]
    )
    t = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)])
    plus = ps.direct_sum(s, t)
    minus = ps.direct_sum(s, t.negate())
    assert ps.is_lattice_convex(plus, Z3)
    assert ps.is_lattice_convex(minus, Z3)
    assert ps.homometric(plus, minus)
    assert not ps.trivially_homometric(plus, minus)
    assert not ps.intrinsically_lattice_convex(s)


def test_json_roundtrip():
    from homometry import jsonio

    k = PointSet([(0, 0), (F(1, 2), 3)])
    assert jsonio.pointset_in(k.to_json(), "$") == k
