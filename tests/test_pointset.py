"""Point sets: covariograms, homometry, symmetry, direct sums, convexity."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homometry import lattice, linalg, polytope, tiling
from homometry import pointset as ps
from homometry.constructions import generalized_family
from homometry.errors import (
    DegenerateDifferencesError,
    EmptySetError,
    NotDirectError,
    NotInLatticeError,
    NotLatticeConvexError,
)
from homometry.lattice import Lattice
from homometry.pointset import PointSet
from test_polytope import in_hull_oracle

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
        for u in sorted(cov.entries):
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


def test_a_convex_set_is_checked_without_fractions(monkeypatch):
    # the scan keeps its points as (F B) z over F, and equal sizes need no
    # point looked up, so no Fraction is made once conv(K) is built
    half_third = Lattice([(F(1, 2), 0), (0, F(1, 3))])
    cases = [
        (PointSet([(0, 0), (1, 0), (1, 1)]), Z2),
        (PointSet([(0, 0), (F(1, 2), 0), (0, F(1, 3)), (F(1, 2), F(1, 3))]), half_third),
        (PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]), Lattice.standard(3)),
    ]
    for k, lat in cases:
        k.hull(), lat.integer_basis, lat.integer_inverse

    def refuse(*args):
        raise AssertionError("a Fraction was made")

    for module in (ps, polytope, lattice):
        monkeypatch.setattr(module, "Fraction", refuse)
    for k, lat in cases:
        assert ps.is_lattice_convex(k, lat)


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
    c = linalg.vadd(k.points[0], k.points[-1])
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


def test_convexity_witness_builds_only_the_missing_point(monkeypatch):
    # the scan and K are compared as integers: of the scanned points only
    # the witness becomes a Fraction, also when the denominators differ
    built = []
    point = PointSet._point

    def counted(self, p):
        built.append(p)
        return point(self, p)

    monkeypatch.setattr(PointSet, "_point", counted)
    half = Lattice([(F(1, 2), 0), (0, F(1, 2))])
    for k, lat, gap in [
        (PointSet([(0, 0), (2, 0), (0, 2)]), Z2, (0, 1)),
        (PointSet([(0, 0), (1, 0), (0, 1)]), half, (0, F(1, 2))),
    ]:
        built.clear()
        assert ps.lattice_convexity_witness(k, lat) == gap
        assert len(built) == 1


def test_covariogram_is_translation_invariant_and_sees_scaling():
    k = PointSet([(0, 0), (2, 1), (3, 0), (F(1, 2), 5)])
    shifted = k.translate((F(1, 3), 0))
    assert ps.covariogram(k) == ps.covariogram(shifted)
    assert ps.covariogram(shifted).to_json() == ps.covariogram(k).to_json()
    doubled = PointSet([linalg.vscale(2, p) for p in k.points])
    assert ps.covariogram(k) != ps.covariogram(doubled)


# -- the packed covariogram against the Fraction pair counts ----------------

FAR = 2**64 + 7


@st.composite
def wide_sets(draw):
    """Sets in d = 1..5 that hold o and FAR (1, ..., 1) / D, so every
    coordinate of the offsets spreads past 2**64: the codes pass 2**64, and
    from d = 2 on so does the weight product."""
    d = draw(st.integers(1, 5))
    den = draw(st.sampled_from([1, 3, 2**65 + 1]))
    coord = st.builds(lambda c, far: F(c + far * FAR, den), st.integers(-3, 3), st.booleans())
    pts = draw(st.lists(st.tuples(*[coord] * d), max_size=6))
    return PointSet(pts + [(0,) * d, (F(FAR, den),) * d])


@settings(max_examples=100, deadline=None)
@given(wide_sets(), st.integers(-5, 5))
def test_packed_covariogram_matches_the_fraction_pairs(k, shift):
    cov = ps.covariogram(k)
    if k.dim > 1:
        assert math.prod(cov.weights) > 2**64
    assert cov.entries == fraction_covariogram(k)
    assert cov == ps.covariogram(k.negate().translate((F(shift, 7),) * k.dim))
    moved = PointSet(k.points[1:] + (linalg.vadd(k.points[0], (F(1, 3),) * k.dim),))
    assert (cov == ps.covariogram(moved)) == (
        fraction_covariogram(k) == fraction_covariogram(moved)
    )


@pytest.mark.parametrize(
    "k, m",
    [
        # {0, 1, 2, 4} and {0, 1, 3, 4} share the differences -4..4, with
        # multiplicities (1, 1, 2, 2, 4, 2, 2, 1, 1) and (1, 2, 1, 2, 4, 2, 1, 2, 1)
        (PointSet([(0,), (1,), (2,), (4,)]), PointSet([(0,), (1,), (3,), (4,)])),
        (
            PointSet([(F(x, 2), y, x - y) for x in (0, 1, 2, 4) for y in (0, 5)]),
            PointSet([(F(x, 2), y, x - y) for x in (0, 1, 3, 4) for y in (0, 5)]),
        ),
    ],
)
def test_equal_supports_differ_in_the_counts_alone(k, m):
    a, b = ps.covariogram(k), ps.covariogram(m)
    assert (a.den, a.weights, a.n) == (b.den, b.weights, b.n)
    assert a.entries.keys() == b.entries.keys()
    assert a.entries == fraction_covariogram(k) != fraction_covariogram(m) == b.entries
    assert a != b and not ps.homometric(k, m)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2])
def test_generalized_families_are_nontrivially_homometric(d, k):
    pair = generalized_family(d, k)
    plus, minus = pair.sum_plus, pair.sum_minus
    assert ps.covariogram(plus).entries == fraction_covariogram(plus)
    assert fraction_covariogram(plus) == fraction_covariogram(minus)
    assert ps.homometric(plus, minus)
    assert not ps.trivially_homometric(plus, minus)


def test_sets_of_different_sizes_are_told_apart_before_any_pair(monkeypatch):
    rng = random.Random(23)
    cases = []
    for _ in range(30):
        d = rng.randint(1, 3)
        k, m = (
            PointSet([tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(size)])
            for size in (rng.randint(1, 8), rng.randint(1, 8))
        )
        cases.append((k, m, fraction_covariogram(k) == fraction_covariogram(m)))
    counted = []
    count = ps.covariogram
    monkeypatch.setattr(ps, "covariogram", lambda k: counted.append(k) or count(k))
    for k, m, expected in cases:
        counted.clear()
        assert ps.homometric(k, m) == expected
        assert len(counted) == (2 if len(k) == len(m) else 0)
    assert any(len(k) != len(m) for k, m, _ in cases)


# -- the integer PointSet against the former Fraction implementation --------


class FractionSet:
    """The former PointSet: sorted, deduplicated Fraction tuples."""

    def __init__(self, points):
        self.points = tuple(sorted({linalg.vec(p) for p in points}))
        if not self.points:
            raise EmptySetError("empty point set")
        self.dim = len(self.points[0])
        if any(len(p) != self.dim for p in self.points):
            raise ValueError("mixed dimensions in point set")
        self._set = frozenset(self.points)

    def __contains__(self, p):
        return linalg.vec(p) in self._set

    def translate(self, t):
        t = linalg.vec(t)
        return FractionSet([linalg.vadd(p, t) for p in self.points])

    def negate(self):
        return FractionSet([linalg.vneg(p) for p in self.points])

    def normalized(self):
        return self.translate(linalg.vneg(self.points[0]))

    @property
    def offsets(self):
        scale, ints = linalg.clear_denominators(self.points)
        p0 = ints[0]
        rel = [tuple(a - b for a, b in zip(p, p0)) for p in ints]
        g = math.gcd(scale, *[c for p in rel for c in p])
        return scale // g, tuple(tuple(c // g for c in p) for p in rel)


def fraction_minkowski_sum(s: FractionSet, t: FractionSet) -> FractionSet:
    return FractionSet([linalg.vadd(a, b) for a in s.points for b in t.points])


# numerators near 0 and past 2**64, denominators 1..6
NUMERATORS = st.integers(-6, 6) | st.sampled_from([2**64 + 1, -(2**65) - 3, 3 * 2**70])
COORDS = st.builds(F, NUMERATORS, st.integers(1, 6))


def point_lists(d):
    return st.lists(st.tuples(*[COORDS] * d), min_size=1, max_size=6)


def assert_same(new: PointSet, old: FractionSet):
    assert new.points == old.points  # the same points in the same order
    assert list(new) == list(old.points) and len(new) == len(old.points)
    assert set(new.points) == set(old.points)
    assert new.dim == old.dim


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_pointset_matches_fraction_oracle(data):
    d = data.draw(st.integers(1, 4))
    pts, other = data.draw(point_lists(d)), data.draw(point_lists(d))
    t = data.draw(st.tuples(*[COORDS] * d))
    k, m = PointSet(pts), PointSet(other)
    old_k, old_m = FractionSet(pts), FractionSet(other)
    assert_same(k, old_k)
    assert k.den == math.lcm(*[c.denominator for p in k.points for c in p])
    assert_same(k.translate(t), old_k.translate(t))
    assert_same(k.negate(), old_k.negate())
    assert_same(k.normalized(), old_k.normalized())
    assert k.offsets == old_k.offsets
    assert_same(ps.minkowski_sum(k, m), fraction_minkowski_sum(old_k, old_m))
    off_grid = tuple(c + F(1, 7) for c in t)
    for p in [*pts, *other, t, off_grid, t[:-1], (*t, 0)]:
        assert (p in k) == (p in old_k)
    # the same set built another way: equal, with an equal hash
    again = PointSet.from_scaled([tuple(int(c * 6 * k.den) for c in p) for p in pts], 6 * k.den)
    for a, b in [(k, m), (k, again), (k, k.translate(t).translate(linalg.vneg(t)))]:
        assert (a == b) == (a.points == b.points)
        if a == b:
            assert hash(a) == hash(b)


def test_a_lattice_of_another_dimension_is_refused_before_any_point():
    # cut to two coordinates, (1, 0, 0) is off 2Z x Z and (2, 0, 0) is on
    # it; neither set is tested point by point against the lattice
    lat = Lattice([(2, 0), (0, 1)])
    message = "dimension 3 against a lattice of dimension 2"
    for pts in ([(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (2, 0, 0)]):
        k = PointSet(pts)
        with pytest.raises(ValueError, match=message):
            ps.is_lattice_convex(k, lat)
        with pytest.raises(ValueError, match=message):
            ps.sum_convexity_witness(k, k, ps.minkowski_sum(k, k), lat)


def test_translate_checks_the_dimension():
    k = PointSet([(0, 0), (1, F(1, 2))])
    with pytest.raises(ValueError):
        k.translate((1,))
    with pytest.raises(ValueError):
        k.translate((1, 2, 3))


def test_empty_input_is_a_value_error():
    with pytest.raises(EmptySetError):
        PointSet([])
    with pytest.raises(ValueError):
        polytope.hull([])
    with pytest.raises(ValueError):
        PointSet.from_scaled([(1, 2)], 0)


def test_membership_needs_the_denominator_and_the_dimension():
    k = PointSet([(0, 0), (F(1, 2), 1), (F(3, 2), F(1, 3))])
    assert k.den == 6
    assert (F(1, 2), 1) in k and (F(3, 2), F(1, 3)) in k
    assert (F(1, 4), 0) not in k  # 4 does not divide 6
    assert (F(1, 12), F(1, 5)) not in k
    assert (0,) not in k and (0, 0, 0) not in k


def test_from_scaled_reduces_the_denominator():
    k = PointSet.from_scaled([(6, 0), (2, 4), (2, 4)], 4)
    assert k.den == 2 and k.ints == ((1, 2), (3, 0))
    assert k == PointSet([(F(1, 2), 1), (F(3, 2), 0)])
    assert ps.minkowski_sum(k, k.negate()).den == 1  # lcm 2, reduced by the gcd
    half = PointSet([(F(1, 2),)])
    assert ps.minkowski_sum(half, half) == PointSet([(1,)])
    assert ps.minkowski_sum(half, half).den == 1


# -- convexity tests decided by counting the scan ---------------------------


def test_a_holding_convexity_test_builds_no_set_from_its_scan(monkeypatch):
    # K is the whole scan iff the scan counts |K| points, so a test that
    # holds builds no PointSet once its scan has started; one that fails
    # builds one, of the missing points
    events = []
    store, scan = PointSet._store, polytope.box_scan

    def stored(self, den, ints):
        events.append("set")
        store(self, den, ints)

    def scanned(*args, **kwargs):
        events.append("scan")
        return scan(*args, **kwargs)

    def sets_after_the_scan(run):
        events.clear()
        run()
        assert events.count("scan") == 1
        return events[events.index("scan") :].count("set")

    two = Lattice([(2, 0), (0, 1)])
    three = Lattice([(3, 0), (0, 1)])
    t = tiling.verify_tiling(Z2, two, PointSet([(0, 0), (1, 0)]))
    column, gapped = PointSet([(0, 0), (0, 1)]), PointSet([(0, 0), (0, 2)])
    spread = PointSet([(0, 0), (2, 0), (4, 0)])
    half_third = Lattice([(F(1, 2), 0), (F(1, 3), F(1, 3))])
    tri = PointSet([(0, 0), (F(1, 2), 0), (F(1, 3), F(1, 3))])
    monkeypatch.setattr(PointSet, "_store", stored)
    monkeypatch.setattr(polytope, "box_scan", scanned)
    for run in (
        lambda: ps.is_lattice_convex(PointSet([(0, 0), (1, 0), (0, 1)]), Z2),
        lambda: ps.is_lattice_convex(tri, half_third),
        lambda: tiling.check_condition_b(column, t),
        lambda: tiling.verify_tiling(Z2, two, PointSet([(0, 0), (1, 0)])),
    ):
        assert sets_after_the_scan(run) == 0

    def refused():
        with pytest.raises(NotLatticeConvexError):
            tiling.verify_tiling(Z2, three, spread)

    for run in (
        lambda: ps.is_lattice_convex(PointSet([(0, 0), (2, 0)]), Z2),
        lambda: tiling.check_condition_b(gapped, t),
        refused,
    ):
        assert sets_after_the_scan(run) == 1


def first_gap_oracle(points, k: PointSet, lat: Lattice):
    """The first lattice point of conv(points) missing from K, in ambient
    lexicographic order: every lattice point of the box over the points'
    lattice coordinates, tested by an exact convex combination."""
    zs = [linalg.mat_vec(lat.inverse_basis, p) for p in points]
    box = [range(math.floor(min(col)), math.ceil(max(col)) + 1) for col in zip(*zs)]
    inside = [linalg.mat_vec(lat.basis, z) for z in itertools.product(*box)]
    inside = sorted(x for x in inside if in_hull_oracle(points, x))
    return next((x for x in inside if x not in k), None)


SKEWED = [
    Lattice.standard(2),
    Lattice([(F(1, 2), 0), (F(1, 3), F(1, 3))]),
    Lattice([(2, 1), (F(-1, 3), F(5, 3))]),
]


def lattice_set(rng, lat, n, shift=None, step=1):
    """n random points of shift + step L, |z_i| <= 2 in the basis of step L."""
    d = lat.dim
    shift = shift or (0,) * d
    zs = [tuple(step * rng.randint(-2, 2) for _ in range(d)) for _ in range(n)]
    return PointSet([linalg.vadd(linalg.mat_vec(lat.basis, z), shift) for z in zs])


def test_convexity_gaps_are_the_first_missing_lattice_points():
    rng = random.Random(2026)
    lattices = SKEWED + [Lattice.standard(3), Lattice([(1, 0, 0), (F(1, 2), F(1, 2), 0), (0, 1, 2)])]
    gaps = 0
    for _ in range(60):
        lat = rng.choice(lattices)
        k = lattice_set(rng, lat, rng.randint(1, 5))
        gap = ps.lattice_convexity_witness(k, lat)
        assert gap == first_gap_oracle(k.points, k, lat)
        gaps += gap is not None
    assert 10 < gaps < 60


def test_sum_convexity_gaps_are_the_first_missing_lattice_points():
    # S and T off the lattice by opposite shifts, so S + T lies in it; S on
    # the coarser 2 L, so D_S and D_T differ, and neither is the lattice's
    rng = random.Random(2027)
    gaps, mixed = 0, 0
    for _ in range(40):
        lat = rng.choice(SKEWED)
        shift = (F(1, 5), F(rng.randint(1, 6), 7))
        s = lattice_set(rng, lat, rng.randint(1, 3), shift, step=2)
        t = lattice_set(rng, lat, rng.randint(1, 3), linalg.vneg(shift))
        if not ps.is_direct_sum(s, t):
            continue
        total = ps.direct_sum(s, t)
        gap = ps.sum_convexity_witness(s, t, total, lat)
        assert gap == first_gap_oracle(total.points, total, lat)
        gaps += gap is not None
        mixed += s.den != t.den
    assert gaps > 5 and mixed > 5


def test_tile_gaps_are_the_first_missing_lattice_points():
    # a tile meets each coset of L in M once when its M-coordinates do
    # modulo L: {0..n-1} b1 for L = n b1 Z + b2 Z and {0, 1}^2 for L = 2 M,
    # and so do the tiles with points moved by vectors of L, which leave gaps
    rows = [(3, 1, ((0, 0), (2, 0), (4, 0))), (4, 1, ((0, 0), (1, 0), (2, 0), (7, 0)))]
    rows += [(4, 1, ((0, 0), (5, 0), (2, 0), (3, 0))), (3, 1, ((0, 0), (1, 0), (2, 0)))]
    rows += [(2, 2, zs + (last,)) for zs in [((0, 0), (1, 0), (0, 1))] for last in [(1, 1), (-1, 3)]]
    rows += [(2, 2, ((0, 0), (1, 0), (0, 3), (1, 1)))]
    for lat in SKEWED:
        b1, b2 = lat.basis
        for n1, n2, zs in rows:
            sub = Lattice([linalg.vscale(n1, b1), linalg.vscale(n2, b2)])
            tile = PointSet([linalg.mat_vec(lat.basis, z) for z in zs])
            expected = first_gap_oracle(tile.points, tile, lat)
            if expected is None:
                tiling.verify_tiling(lat, sub, tile)
                continue
            with pytest.raises(NotLatticeConvexError) as info:
                tiling.verify_tiling(lat, sub, tile)
            assert info.value.witness == expected
