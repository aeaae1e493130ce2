"""Lattices: membership, duals, residues; the sublattices of Z^2, the reference
that the planar search's bases are checked against."""

import itertools
import math
import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homometry import linalg
from homometry.classify2d import shear_normal_bases
from homometry.errors import SingularMatrixError
from homometry.lattice import Lattice, lattice_from_lhs
from .test_linalg import hnf, primitive_integer_direction

Z2 = Lattice.standard(2)


def sublattices_of_z2(det_value):
    """All (l, h, s) with l*h = det_value, 0 <= s < l; basis (l,0), (s,h).

    (l, 0) generates the lattice's points on the x-axis and h is the index
    of its projection to the y-axis, so s is determined modulo l: this
    Hermite normal form lists every sublattice of Z^2 with the given
    determinant exactly once, sigma(det_value) of them.
    """
    return [
        (l, det_value // l, s)
        for l in range(1, det_value + 1)
        if det_value % l == 0
        for s in range(l)
    ]


def test_contains_basics():
    assert Z2.contains((1, 1))
    assert not Z2.contains((F(1, 2), 0))


def test_contains_two_row_lattice():
    lat = Lattice([(3, -1), (2, 1)])
    assert lat.contains((5, 0))  # b1 + b2
    assert not lat.contains((1, 0))


def test_dual_standard_and_scaled():
    for d in (1, 2, 3):
        zd = Lattice.standard(d)
        assert zd.dual() == zd
        scaled = Lattice([[2 * int(i == j) for i in range(d)] for j in range(d)])
        assert scaled.dual().determinant == F(1, 2**d)


def test_dual_congruence_lattice():
    # L = {z : <z, a> in rZ} has dual Z^d + Z a/r
    k, d = 1, 3
    r = d * k + 1
    a = tuple((i - 1) * k + 1 for i in range(1, d + 1))
    basis = [(k + 1, -1, 0), (k, 1, -1), (k, 0, 1)]
    lat = Lattice(basis)
    for col in basis:
        assert linalg.vdot(linalg.vec(col), linalg.vec(a)) % r == 0
    gens = [linalg.vec(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    gens.append(tuple(F(c, r) for c in a))
    expected = Lattice(linalg.hnf_basis(gens))
    assert lat.dual() == expected


@pytest.mark.parametrize("det_value,count", [(1, 1), (7, 8), (12, 28)])
def test_sublattice_counts(det_value, count):
    triples = sublattices_of_z2(det_value)
    assert len(triples) == count
    assert len(set(triples)) == count
    for l, h, s in triples:
        assert l * h == det_value and 0 <= s < l


def sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_sublattice_sigma_identity():
    for n in range(1, 19):
        assert len(sublattices_of_z2(n)) == sigma(n)


def hnf_key(basis):
    h, _ = hnf(linalg.mat(basis))
    return h


@pytest.mark.parametrize("n", range(1, 31))
def test_sublattices_match_hnf_deduplication(n):
    # sigma(n) sublattices of Z^2 have index n; the list has them all, once each
    keys = [hnf_key(lattice_from_lhs(l, h, s).basis) for l, h, s in sublattices_of_z2(n)]
    assert len(set(keys)) == len(keys) == sigma(n)
    # every lattice spanned by a small basis of determinant +-n is among them
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        if abs(a * d - b * c) == n:
            assert hnf_key([(a, b), (c, d)]) in keys


@pytest.mark.parametrize("n", range(1, 31))
def test_shear_normal_bases_are_one_per_shear_orbit(n):
    # a shear fixes (l, 0) and moves s by multiples of h: each basis
    # (l, 0), (s, h) of the search has exactly one image with 0 <= s < h
    bases = shear_normal_bases(n)
    assert len(set(bases)) == len(bases) == sigma(n)
    for l, h, s in bases:
        assert l * h == n and 0 <= s < h
    for l, h, s in sublattices_of_z2(n):
        assert (l, h, s % h) in bases


def test_dual_involution_and_equality():
    rng = random.Random(4)
    for _ in range(10):
        while True:
            cols = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2)]
            try:
                lat = Lattice(cols)
                break
            except SingularMatrixError:
                continue
        assert lat.dual().dual() == lat
        assert lat.dual().determinant * lat.determinant == 1


def test_dual_is_built_once():
    lat = Lattice([(3, -1), (2, F(1, 2))])
    basis = lat.basis
    dual = lat.dual()
    assert lat.dual() is dual
    assert lat.basis == basis
    assert dual.basis == linalg.dual_basis(basis)


def test_json_roundtrip():
    from homometry import jsonio

    lat = Lattice([(3, -1), (2, 1)])
    doc = lat.to_json()
    assert jsonio.lattice_in(doc, "$") == lat


# -- the integer views against the former Fraction formulas -----------------


def fraction_coordinates(lat, v):
    """The former Lattice.coordinates: B^-1 v by a Fraction mat_vec."""
    return linalg.mat_vec(lat.inverse_basis, linalg.vec(v))


def fraction_contains(lat, v):
    return all(c.denominator == 1 for c in fraction_coordinates(lat, v))


def fraction_primitive_parallel(lat, v):
    """The primitive lattice vector positively parallel to a rational v != 0,
    read off v's Fraction coordinates."""
    coords = primitive_integer_direction(fraction_coordinates(lat, v))
    return linalg.mat_vec(lat.basis, coords)


def test_primitive_parallel():
    # the oracle the tiling tests read dual directions with: (14/3, 2/3)
    # is 2/3 b1 + 4/3 b2, positively parallel to b1 + 2 b2 = (7, 1)
    lat = Lattice([(3, -1), (2, 1)])
    u = fraction_primitive_parallel(lat, (F(14, 3), F(2, 3)))
    assert u == (F(7), F(1))
    assert fraction_primitive_parallel(lat, (-14, -2)) == (F(-7), F(-1))


DENOMINATORS = [(1,), (2, 3), (1, 5, 7), (4, 6), (3, 2**65 + 1)]


@st.composite
def skewed_lattices(draw, dims=(1, 2, 3)):
    """Rational lattices: a lower-triangular basis with mixed denominators,
    sheared by multiples of its first column, so B^-1 has large entries."""
    d = draw(st.sampled_from(dims))
    dens = draw(st.sampled_from(DENOMINATORS))
    entry = st.builds(F, st.integers(-9, 9), st.sampled_from(dens))
    nonzero = st.builds(F, st.integers(1, 4) | st.integers(-4, -1), st.sampled_from(dens))
    cols = []
    for j in range(d):
        cols.append([F(0)] * j + [draw(nonzero)] + [draw(entry) for _ in range(d - j - 1)])
    for j in range(1, d):
        k = draw(st.integers(-5, 5))
        cols[j] = [a + k * b for a, b in zip(cols[j], cols[0])]
    return Lattice(cols)


@st.composite
def lattice_and_points(draw):
    """A skewed lattice and points near it: lattice points with coordinates
    up to 2**70, some of them moved off the lattice by a small rational."""
    lat = draw(skewed_lattices())
    d = lat.dim
    dens = draw(st.sampled_from(DENOMINATORS))
    small = st.builds(F, st.integers(-3, 3), st.sampled_from(dens))
    big = st.integers(-5, 5) | st.integers(-(2**70), 2**70)
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        z = draw(st.tuples(*[big] * d))
        p = linalg.mat_vec(lat.basis, z)
        if draw(st.booleans()):
            p = linalg.vadd(p, draw(st.tuples(*[small] * d)))
        pts.append(p)
    return lat, pts


@settings(max_examples=200, deadline=None)
@given(lattice_and_points())
def test_integer_views_match_fraction_formulas(case):
    lat, pts = case
    coords = [fraction_coordinates(lat, p) for p in pts]
    m, ints = lat.integer_coordinates(pts)
    assert m == math.lcm(*[c.denominator for v in coords for c in v])
    assert ints == [tuple(c * m for c in v) for v in coords]
    for p in pts:
        assert lat.coordinates(p) == fraction_coordinates(lat, p)
        assert lat.contains(p) == fraction_contains(lat, p)


@settings(max_examples=100, deadline=None)
@given(skewed_lattices(), st.lists(st.integers(-(2**70), 2**70), min_size=3, max_size=3))
def test_integer_basis_maps_coordinates_back(lat, z):
    z = z[: lat.dim]
    f, rows = lat.integer_basis  # (F B) z / F is B z
    x = tuple([F(sum(map(mul, r, z)), f) for r in rows])
    assert x == linalg.mat_vec(lat.basis, z)
    den, (p,) = linalg.clear_denominators([x])
    assert lat.contains_scaled(p, den)
    assert lat.contains_scaled(p, 2 * den) == all(c % 2 == 0 for c in z)


def test_contains_refuses_a_vector_of_another_dimension():
    with pytest.raises(ValueError):
        Z2.contains((1, 2, 3))
