"""Point sets: covariograms, homometry, symmetry, direct sums, convexity."""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homometry import linalg
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


# -- the integer offsets against the former Fraction formulas ---------------


def fraction_covariogram(k: PointSet) -> dict:
    """The former covariogram: a Fraction difference per ordered pair."""
    counts: Counter = Counter()
    for a in k.points:
        for b in k.points:
            counts[linalg.vsub(a, b)] += 1
    return dict(counts)


def fraction_trivially_homometric(k: PointSet, m: PointSet) -> bool:
    if k.dim != m.dim or len(k) != len(m):
        return False
    kn = k.normalized()
    return kn == m.normalized() or kn == m.negate().normalized()


def fraction_centrally_symmetric(k: PointSet) -> bool:
    c = linalg.vadd(k.lexmin(), k.lexmax())
    return all(linalg.vsub(c, p) in k for p in k.points)


def fraction_convexity_witness(k: PointSet, lat: Lattice):
    """The former lattice_convexity_witness: every point tested alone."""
    for p in k.points:
        if not all(c.denominator == 1 for c in linalg.mat_vec(lat.inverse_basis, p)):
            raise NotInLatticeError("outside", witness=p)
    for q in k.hull().lattice_points(lat):
        if q not in k:
            return q
    return None


DENOMINATORS = [(1,), (2, 3), (1, 5, 7), (4, 6), (3, 2**65 + 1)]


@st.composite
def rational_sets(draw, d=None):
    """Sets in d = 1..3 with mixed denominators, shifted past 2**64 or not."""
    d = d or draw(st.integers(1, 3))
    dens = draw(st.sampled_from(DENOMINATORS))
    coord = st.builds(F, st.integers(-4, 4), st.sampled_from(dens))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8))
    shift = draw(st.tuples(*[st.sampled_from([0, F(2**64 + 1, 3), -(2**70)])] * d))
    return PointSet([linalg.vadd(linalg.vec(p), shift) for p in pts])


@st.composite
def related_pairs(draw):
    """(K, M): M a translate or reflection of K, K itself moved by one
    point, or an independent set of the same dimension."""
    k = draw(rational_sets())
    t = draw(st.tuples(*[st.builds(F, st.integers(-9, 9), st.integers(1, 4))] * k.dim))
    kind = draw(st.sampled_from(["translate", "reflect", "moved", "other"]))
    if kind == "translate":
        return k, k.translate(t)
    if kind == "reflect":
        return k, k.negate().translate(t)
    if kind == "moved":
        pts = list(k.points)
        pts[draw(st.integers(0, len(pts) - 1))] = linalg.vadd(pts[0], t)
        return k, PointSet(pts)
    return k, draw(rational_sets(k.dim))


@settings(max_examples=200, deadline=None)
@given(related_pairs())
def test_offsets_match_fraction_formulas(pair):
    k, m = pair
    den, ints = k.offsets
    diffs = [linalg.vsub(p, k.lexmin()) for p in k.points]
    assert den == math.lcm(*[c.denominator for v in diffs for c in v])
    assert ints == tuple(tuple(int(c * den) for c in v) for v in diffs)
    cov = ps.covariogram(k)
    assert cov.entries == fraction_covariogram(k)
    assert (cov == ps.covariogram(m)) == (fraction_covariogram(k) == fraction_covariogram(m))
    assert ps.trivially_homometric(k, m) == fraction_trivially_homometric(k, m)
    assert ps.centrally_symmetric(k) == fraction_centrally_symmetric(k)


@st.composite
def sets_near_a_lattice(draw):
    """(K, L): L = (1/q) Z^d sheared along e1, K lattice points of L with
    coordinates up to 2**70, one of them moved off L in half the cases."""
    d = draw(st.integers(1, 3))
    q = draw(st.sampled_from([1, 2, 3]))
    shear = draw(st.integers(-4, 4))
    cols = [
        [F(int(i == j), q) + (shear if i == 0 < j else 0) for i in range(d)]
        for j in range(d)
    ]
    lat = Lattice(cols)
    far = draw(st.sampled_from([0, 2**70]))
    zs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=8))
    pts = [linalg.mat_vec(lat.basis, [c + far for c in z]) for z in zs]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(pts) - 1))
        pts[i] = (pts[i][0] + F(1, 7),) + pts[i][1:]
    return PointSet(pts), lat


@settings(max_examples=100, deadline=None)
@given(sets_near_a_lattice())
def test_convexity_witness_matches_fraction_formula(case):
    k, lat = case
    try:
        expected = fraction_convexity_witness(k, lat)
    except NotInLatticeError as exc:
        with pytest.raises(NotInLatticeError) as info:
            ps.lattice_convexity_witness(k, lat)
        assert info.value.witness == exc.witness
        return
    assert ps.lattice_convexity_witness(k, lat) == expected


def test_covariogram_is_translation_invariant_and_sees_scaling():
    k = PointSet([(0, 0), (2, 1), (3, 0), (F(1, 2), 5)])
    shifted = k.translate((F(1, 3), 0))
    assert ps.covariogram(k) == ps.covariogram(shifted)
    assert ps.covariogram(shifted).to_json() == ps.covariogram(k).to_json()
    doubled = PointSet([linalg.vscale(2, p) for p in k.points])
    assert ps.covariogram(k) != ps.covariogram(doubled)
