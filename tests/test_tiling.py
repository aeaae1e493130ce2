"""Tiling verification, thin directions, widths, tile enumeration, conditions."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homometry import _kernels, linalg, pointset as ps, polytope, tiling as ti
from homometry.constructions import (
    counterexample_ab,
    counterexample_bc,
    generalized_family,
    generalized_family_tiling,
    planar_family_tiling,
)
from homometry.errors import (
    LowerDimensionalError,
    LowerDimensionalTileError,
    NotASublatticeError,
    NotATilingError,
    NotDirectError,
    NotLatticeConvexError,
    SingularMatrixError,
    UnsupportedDimensionError,
)
from homometry.lattice import Lattice
from homometry.pointset import PointSet
from homometry.polytope import hull
from .test_acceptance import _abc_pool
from .test_lattice import fraction_primitive_parallel
from .test_linalg import leibniz_det, primitive_integer_direction
from .test_pointset import first_gap_oracle
from .test_polytope import contains, difference_body, in_hull_oracle, polar

Z2 = Lattice.standard(2)
Z3 = Lattice.standard(3)


def brute_widths_below(tile, lat, bound, radius=6):
    """Oracle: scan a large integer box of dual coordinates directly."""
    bstar = linalg.dual_basis(lat.basis)
    d = lat.dim
    out = set()
    for m in itertools.product(range(-radius, radius + 1), repeat=d):
        if not any(m):
            continue
        u = linalg.mat_vec(bstar, m)
        if ti.width_of(tile, u) < bound:
            out.add(u)
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_verify_planar_family(k):
    t = planar_family_tiling(k)
    assert t.verified
    assert len(t.tile) == 2 * k + 1


def test_verify_generalized_d3_k2():
    t = generalized_family_tiling(3, 2)
    assert t.verified
    assert len(t.tile) == 7


def test_verify_rejects_count_mismatch():
    with pytest.raises(NotATilingError):
        ti.verify_tiling(Z2, Z2, PointSet([(0, 0), (1, 0)]))


def test_verify_names_two_points_in_one_coset_of_a_too_large_tile():
    # L = 2Z x 3Z has index 6 in Z^2; the 7-point tile holds two points whose
    # difference has even x and y a multiple of 3, which the walk must name
    base = Lattice([(2, 0), (0, 3)])
    tile = PointSet([(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (3, 3)])
    with pytest.raises(NotATilingError, match=r"^tile points .* lie in the same coset of L$") as err:
        ti.verify_tiling(Z2, base, tile)
    a, b = err.value.witness
    assert a != b and a in tile and b in tile
    dx, dy = b[0] - a[0], b[1] - a[1]
    assert dx % 2 == 0 and dy % 3 == 0
    assert (a, b) == ((1, 0), (3, 3))


def test_verify_reports_the_count_of_a_too_small_tile():
    with pytest.raises(NotATilingError, match=r"^tile has 2 points but the index \[M:L\] is 4$"):
        ti.verify_tiling(Z2, Lattice([(2, 0), (0, 2)]), PointSet([(0, 0), (1, 0)]))


def test_verify_rejects_residue_collision():
    base = Lattice([(2, 0), (0, 2)])
    with pytest.raises(NotATilingError):
        ti.verify_tiling(Z2, base, PointSet([(0, 0), (2, 0), (0, 1), (1, 1)]))


def test_verify_names_the_basis_vector_of_l_outside_m():
    # M = 2Z x Z holds (2, 0) but not (1, 2): the witness is that vector of
    # L's basis, and its M-coordinates by Cramer's rule are not integers
    m_basis, l_basis = ((2, 0), (0, 1)), ((2, 0), (1, 2))
    with pytest.raises(NotASublatticeError, match=r"basis vector \(1, 2\) is outside M") as err:
        ti.verify_tiling(Lattice(m_basis), Lattice(l_basis), PointSet([(0, 0), (1, 0)]))
    w = err.value.witness
    assert w in [linalg.vec(b) for b in l_basis]
    (a, c), (b, d) = m_basis  # the columns (a, c) and (b, d)
    det = a * d - b * c
    coords = (F(w[0] * d - b * w[1], det), F(a * w[1] - c * w[0], det))
    assert any(z.denominator != 1 for z in coords)


def test_wset_planar_k2_has_six_vectors():
    t = planar_family_tiling(2)
    wset = ti.w_set(t.tile, t.translations)
    assert len(wset) == 6
    bstar = linalg.dual_basis(t.translations.basis)
    b1s, b2s = bstar
    expected = {
        b1s,
        b2s,
        linalg.vadd(b1s, b2s),
        linalg.vneg(b1s),
        linalg.vneg(b2s),
        linalg.vneg(linalg.vadd(b1s, b2s)),
    }
    assert set(wset.vectors) == expected
    assert all(w < 1 for w in wset.widths.values())


# non-standard rational lattices for the W-set and width oracles
RATIONAL_LATTICES = [
    Lattice([(F(1, 2), 0), (F(1, 3), F(2, 3))]),
    Lattice([(2, 1), (-1, 3)]),
    Lattice([(F(3, 4), F(-1, 2)), (F(1, 5), F(6, 5))]),
]


def test_wset_negation_closed_and_matches_box_oracle():
    cases = [(t.tile, t.translations) for t in map(planar_family_tiling, (1, 2, 3))]
    cases += [(planar_family_tiling(2).tile, lat) for lat in RATIONAL_LATTICES]
    triangle = PointSet([(0, 0), (F(5, 2), F(1, 3)), (F(1, 2), F(7, 4))])
    cases += [(triangle, lat) for lat in RATIONAL_LATTICES]
    for tile, lat in cases:
        wset = ti.w_set(tile, lat)
        assert {linalg.vneg(u) for u in wset.vectors} == set(wset.vectors)
        assert set(wset.vectors) == brute_widths_below(tile, lat, F(1))
        assert all(wset.widths[u] == ti.width_of(tile, u) for u in wset.vectors)


def test_wset_unit_cube_empty():
    for d in (2, 3):
        cube = PointSet(itertools.product((0, 1), repeat=d))
        wset = ti.w_set(cube, Lattice.standard(d))
        assert len(wset) == 0


def test_wset_generalized_contains_prescribed_vectors():
    d, k = 3, 1
    t = generalized_family_tiling(d, k)
    wset = ti.w_set(t.tile, t.translations)
    r = d * k + 1
    a = [(i - 1) * k + 1 for i in range(1, d + 1)]
    prescribed = []
    for i in range(1, d + 1):
        b_star = [F(c, r) for c in a]
        for ell in range(i + 1, d + 1):
            b_star[ell - 1] -= 1
        prescribed.append(tuple(b_star))
    prescribed.append(tuple(map(sum, zip(*prescribed))))
    for u in prescribed:
        assert u in wset
        assert linalg.vneg(u) in wset


def test_wset_flat_tile_raises():
    seg = PointSet([(0, 0), (1, 0)])
    with pytest.raises(LowerDimensionalTileError):
        ti.w_set(seg, Z2)


def test_wset_covariant_under_coordinate_change():
    t = planar_family_tiling(2)
    wset = ti.w_set(t.tile, t.translations)
    a_cols = linalg.mat([(1, 0), (1, 1)])  # unimodular shear
    ainvt = linalg.transpose(linalg.inverse(a_cols))
    tile2 = PointSet([linalg.mat_vec(a_cols, p) for p in t.tile.points])
    lat2 = Lattice(linalg.mat_mul(a_cols, t.translations.basis))
    wset2 = ti.w_set(tile2, lat2)
    expected = {linalg.mat_vec(ainvt, u) for u in wset.vectors}
    assert set(wset2.vectors) == expected


def test_lattice_width_triangle_and_tiles():
    value, _ = ti.lattice_width(PointSet([(0, 0), (1, 0), (0, 1)]), Z2)
    assert value == 1
    t = planar_family_tiling(2)
    value, u = ti.lattice_width(t.tile, Z2)
    assert value == 1
    assert ti.width_of(t.tile, u) == 1


def test_lattice_width_matches_direction_scan():
    rng = random.Random(6)
    for lat in [Z2] + RATIONAL_LATTICES:
        bstar = linalg.dual_basis(lat.basis)
        box = itertools.product(range(-8, 9), repeat=2)
        directions = [linalg.mat_vec(bstar, m) for m in box if any(m)]
        for _ in range(10):
            pts = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)}
            k = PointSet(pts)
            if linalg.rank_of([linalg.vsub(p, k.points[0]) for p in k.points]) < 2:
                continue
            # the smallest width, and the smallest direction among the minimizers
            scan = min((ti.width_of(k, u), u) for u in directions)
            assert ti.lattice_width(k, lat) == scan
            assert ti.lattice_width(k.hull().vertex_set, lat) == scan


def _cap_box_scan(monkeypatch, cap):
    """Make every box_scan fail once the boxes passed hold more than cap cells."""
    cells, scan = [0], _kernels.box_scan

    def counted(lo, hi, *rows, **kw):
        cells[0] += math.prod(max(0, b - a + 1) for a, b in zip(lo, hi))
        if cells[0] > cap:
            raise AssertionError(f"box_scan passed {cells[0]} cells")
        return scan(lo, hi, *rows, **kw)

    for owner in (_kernels, polytope, ti):
        monkeypatch.setattr(owner, "box_scan", counted)


def test_lattice_width_of_a_skewed_rational_lattice_scans_a_small_box(monkeypatch):
    # a frame taken from the differences of K, as the former thin-direction
    # search took it, made this box millions of cells; the polar of D(K)
    # bounds it by the body itself
    _cap_box_scan(monkeypatch, 10**5)
    lat = Lattice([(18, 5, F(-1, 3)), (F(-16, 5), -1, F(7, 2)), (F(29, 3), F(7, 3), F(-21, 4))])
    k = PointSet(
        [
            (F(-11, 6), -3, -4),
            (F(12, 5), 11, F(-3, 4)),
            (-4, F(-2, 3), 6),
            (-1, F(-10, 3), F(-3, 2)),
            (8, F(-4, 3), F(-3, 4)),
            (F(7, 3), -5, F(4, 3)),
            (5, F(12, 5), F(11, 5)),
        ]
    )
    assert ti.lattice_width(k, lat) == (F(41401, 17244), (F(-545, 5748), F(-133, 2874), F(89, 479)))


def test_lattice_width_of_a_thin_set_starts_below_the_dual_basis(monkeypatch):
    # the least width over this dual basis is 6097/12, and the box of the
    # scan up to it holds 1.3 * 10**11 cells; doubling up from the least
    # bound whose box holds a nonzero cell stops at a bound of about 4.4
    _cap_box_scan(monkeypatch, 10**6)
    lat = Lattice([(-12, 5, F(-1, 2)), (F(-23, 2), F(9, 4), F(3, 2)), (F(-10, 3), 5, -3)])
    k = PointSet(
        [
            (-2, -12, -1),
            (F(-2, 3), -12, 5),
            (F(5, 2), -3, F(-5, 3)),
            (F(8, 3), F(7, 6), F(4, 3)),
            (3, 8, 7),
        ]
    )
    assert min(ti.width_of(k, u) for u in lat.dual().basis) == F(6097, 12)
    assert ti.lattice_width(k, lat) == (F(605, 216), (F(-17, 12), F(7, 18), F(-1, 9)))


def test_lattice_width_flat_set_zero():
    value, u = ti.lattice_width(PointSet([(0, 0), (2, 2)]), Z2)
    assert value == 0
    assert linalg.vdot(u, (2, 2)) == 0 and any(u)


@pytest.mark.parametrize("points", [[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0)]])
def test_wset_names_both_dimensions_on_a_lattice_of_another(points):
    # a flat tile too: the dimensions are compared before W is found infinite
    lat = Lattice([(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="dimension 2 against a lattice of dimension 3"):
        ti.w_set(PointSet(points), lat)


def test_a_thin_direction_query_is_one_hull_call(monkeypatch):
    # with K's hull built, the scan hulls D(C) and nothing else
    tilings = [planar_family_tiling(3), generalized_family_tiling(3, 1)]
    for t in tilings:
        t.tile.hull()
    calls = []
    build = polytope.Polytope.hull
    monkeypatch.setattr(
        polytope.Polytope, "hull", staticmethod(lambda k: calls.append(k) or build(k))
    )
    for t in tilings:
        for query in (
            lambda: ti.w_set(t.tile, t.translations),
            lambda: ti.lattice_width(t.tile, t.translations),
        ):
            calls.clear()
            query()
            assert len(calls) == 1


def test_thin_scan_matches_the_polar_oracle_on_rational_lattices():
    # the u = B^-T z of the scan are the nonzero points of L* in bound D(K)°
    # (its interior when strict: those on no facet), the polar taken of the
    # hull of K - K in the standard frame; bound 0 leaves o alone, with no
    # interior
    rng = random.Random(43)
    cases = 0
    while cases < 18:
        d = rng.randint(1, 3)
        cols = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)] for _ in range(d)]
        pts = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)] for _ in range(d + 2)]
        try:
            lat = Lattice(cols)
        except SingularMatrixError:
            continue
        k = PointSet(pts)
        if not k.hull().is_full_dimensional():
            continue
        cases += 1
        dual, body = lat.dual(), difference_body(k.hull())
        m, scanned = ti._thin_body(k, lat)
        for bound, strict in itertools.product((0, F(1, 2), 1, 2), (False, True)):
            found = ti._thin_scan(scanned, m * bound, strict)
            assert [z for _, z in found] == sorted(z for _, z in found)
            got = {linalg.mat_vec(dual.basis, z): F(w, m) for w, z in found if any(z)}
            expected = set()
            if bound:
                region = polar(body, bound)
                expected = {u for u in region.lattice_points(dual) or () if any(u)}
                if strict:
                    facets = region.facets()
                    expected = {
                        u for u in expected if all(linalg.vdot(a, u) < b for a, b in facets)
                    }
            assert set(got) == expected
            assert all(w == ti.width_of(k, u) for u, w in got.items())


@st.composite
def rational_sets_and_directions(draw):
    """A rational set in d = 1..4 and a direction of the same dimension,
    with mixed denominators in both, sometimes shifted past 2**64."""
    d = draw(st.integers(1, 4))
    coord = st.builds(F, st.integers(-50, 50), st.sampled_from([1, 2, 3, 4, 6, 7]))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8))
    shift = draw(st.sampled_from([0, 2**64 + 1]))
    return [tuple(c + shift for c in p) for p in pts], draw(st.tuples(*[coord] * d))


@settings(max_examples=200, deadline=None)
@given(rational_sets_and_directions())
def test_width_of_matches_the_fraction_formula(case):
    pts, u = case
    values = [linalg.vdot(u, p) for p in pts]
    k = PointSet(pts)
    assert ti.width_of(k, u) == max(values) - min(values)
    assert ti.width_of(k.hull().vertex_set, u) == max(values) - min(values)
    with pytest.raises(ValueError):
        ti.width_of(k, u + (1,))


@pytest.mark.parametrize("s", range(7))
def test_delta_width_det7(s):
    # the half-cell triangles with determinant 7 driving the search filter
    delta = PointSet([(0, 0), (1, 0), (s, 7)])
    value, _ = ti.lattice_width(delta, Z2)
    brute = min(
        ti.width_of(delta, (x, y))
        for x in range(-9, 10)
        for y in range(-9, 10)
        if (x, y) != (0, 0)
    )
    assert value == brute


def test_dirichlet_tile_seven_points():
    tile = ti.dirichlet_tile(Z2, [(2, -1), (1, 3)], (0, 0))
    assert len(tile) == 7
    t = ti.verify_tiling(Z2, Lattice([(2, -1), (1, 3)]), tile)
    assert t.verified


def test_dirichlet_tile_identity():
    tile = ti.dirichlet_tile(Z2, [(1, 0), (0, 1)], (F(1, 3), F(-1, 7)))
    assert len(tile) == 1


def test_dirichlet_tile_periodicity():
    basis = [(2, -1), (1, 3)]
    t0 = ti.dirichlet_tile(Z2, basis, (F(1, 5), F(2, 5)))
    t1 = ti.dirichlet_tile(Z2, basis, (F(1, 5) + 2, F(2, 5) - 1))
    assert t1 == t0.translate((2, -1))


def test_dirichlet_tile_d3_matches_brute_force():
    # a rational ambient lattice M and a cell basis in M, scanned directly:
    # the M-points x with 0 < c_i <= 1 for c = C^-1 (x - v)
    ambient = Lattice([(F(1, 2), 0, 0), (F(1, 2), 1, 0), (0, F(1, 3), 1)])
    k_cols = [(2, 0, 1), (1, 1, 0), (0, 1, 2)]
    cells = [linalg.mat_vec(ambient.basis, k) for k in k_cols]
    inv_cells = linalg.inverse(linalg.mat(cells))
    count = abs(linalg.det(linalg.mat(k_cols)))
    for v in [(0, 0, 0), (F(1, 3), F(-1, 2), F(2, 5)), cells[0]]:
        brute = []
        for z in itertools.product(range(-6, 7), repeat=3):
            x = linalg.mat_vec(ambient.basis, z)
            c = linalg.mat_vec(inv_cells, linalg.vsub(x, linalg.vec(v)))
            if all(0 < ci <= 1 for ci in c):
                brute.append(x)
        tile = ti.dirichlet_tile(ambient, cells, v)
        assert tile == PointSet(brute) and len(brute) == count


@pytest.mark.parametrize(
    "basis",
    [
        [(2, 0, 0), (1, 2, 0), (0, 1, 2)],
        [(1, 1, 0), (0, 2, 1), (1, 0, 2)],
        # B and B^T give different tile sets: a transposed inverse shows here
        [(3, 1, 0), (0, 2, 1), (1, 0, 2)],
    ],
)
def test_enumerate_tiles_d3_matches_brute_force(basis):
    # the adjugate rows by cofactors, then every T_q scanned directly
    b = [[col[j] for col in basis] for j in range(3)]  # b[j][i] = B_ji
    big_l = leibniz_det(b)
    adj = [
        [(-1) ** (i + j) * leibniz_det([r[:i] + r[i + 1 :] for r in b[:j] + b[j + 1 :]])
         for j in range(3)]
        for i in range(3)
    ]
    ns = [math.gcd(*row) for row in adj]
    # the cells lie in 0 <= <a_i, t> <= 2L, so |t_j| <= 2 sum_i |B_ji|
    radius = 2 * max(sum(map(abs, row)) for row in b)
    tiles = {}
    for t in itertools.product(range(-radius, radius + 1), repeat=3):
        values = [sum(a * x for a, x in zip(row, t)) for row in adj]
        qs = [
            [q for q in range(0, big_l, n) if q + n <= v <= q + big_l]
            for v, n in zip(values, ns)
        ]
        for q in itertools.product(*qs):
            tiles.setdefault(q, []).append(t)
    brute = sorted({PointSet(pts) for pts in tiles.values()}, key=lambda k: k.points)
    assert ti.enumerate_tiles_tq(linalg.mat(basis)) == brute


def test_enumerate_tiles_identity():
    tiles = ti.enumerate_tiles_tq(linalg.identity(2))
    assert len(tiles) == 1
    assert len(tiles[0]) == 1


def test_enumerate_tiles_tiling_candidates():
    basis = [(1, 0), (2, 5)]
    tiles = ti.enumerate_tiles_tq(linalg.mat(basis))
    lat = Lattice(basis)
    verified = 0
    for tile in tiles:
        try:
            ti.verify_tiling(Z2, lat, tile)
        except (NotATilingError, NotLatticeConvexError):
            continue
        verified += 1
        assert len(tile) == 5
    assert verified > 0


def test_enumerate_tiles_q_candidate_count():
    from homometry._kernels import search_base_raw

    for l, h, s in [(1, 5, 2), (2, 3, 1), (3, 2, 0)]:
        big_l = l * h
        n1, n2 = math.gcd(h, s), l
        stats, _ = search_base_raw(l, h, s)
        assert stats["q_candidates"] == (big_l // n1) * (big_l // n2)


def test_conditions_on_planar_family():
    t = planar_family_tiling(2)
    b1, b2 = t.translations.basis
    s = PointSet([(0, 0), b1, b2])
    assert ti.check_condition_a(s, t)
    assert ti.check_condition_b(s, t)
    assert ti.check_condition_c(s, t)


def test_conditions_refuse_a_tiling_built_by_hand():
    # the triple of the planar family, but never passed through verify_tiling
    base = planar_family_tiling(2)
    t = ti.Tiling(base.ambient, base.translations, base.tile)
    s = PointSet([(0, 0), *base.translations.basis])
    for check in (ti.check_condition_a, ti.check_condition_b, ti.check_condition_c, ti.check_abc):
        with pytest.raises(ValueError, match="^tiling must come from verify_tiling$"):
            check(s, t)


def test_each_summand_is_hulled_once(monkeypatch):
    base = planar_family_tiling(2)
    # fresh sets: nothing has hulled them yet
    t = dataclasses.replace(base, tile=PointSet(base.tile.points))
    s = PointSet([(0, 0), *base.translations.basis])
    inputs = []
    build = polytope.Polytope.hull

    def counting(points):
        points = list(points)
        inputs.append(frozenset(map(linalg.vec, points)))
        return build(points)

    monkeypatch.setattr(polytope.Polytope, "hull", staticmethod(counting))
    assert ti.check_condition_a(s, t)
    assert ti.check_condition_b(s, t)
    assert ti.check_condition_c(s, t)
    assert inputs.count(frozenset(s.points)) == 1
    assert inputs.count(frozenset(t.tile.points)) == 1
    assert s.hull() is s.hull()


def test_condition_b_builds_the_sum_once(monkeypatch):
    s, t = counterexample_bc(3)
    calls = []
    build = ps.minkowski_sum

    def counting(a, b):
        calls.append((a, b))
        return build(a, b)

    monkeypatch.setattr(ps, "minkowski_sum", counting)
    assert not ti.check_condition_b(s, t)
    assert len(calls) == 1
    calls.clear()
    ps.direct_sum(s, t.tile)
    assert len(calls) == 1


def test_condition_a_counterexample():
    s, t = counterexample_ab(3)
    holds, witness = ti.check_abc(s, t)["a"]
    assert not holds
    assert witness is not None
    assert ti.width_of(t.tile, witness) >= 1
    assert ti.check_condition_b(s, t)


def test_condition_bc_counterexample():
    s, t = counterexample_bc(3)
    assert ti.check_condition_c(s, t)
    holds, witness = ti.check_abc(s, t)["b"]
    assert not holds
    # the documented gap point lies in the hull but not in the sum
    total = ps.minkowski_sum(s, t.tile)
    gap = (3, 3, 3)
    assert contains(total.hull(), gap)
    assert gap not in total


def test_condition_b_names_two_pairs_with_one_sum_when_not_direct():
    t = planar_family_tiling(2)
    # (0, 1) - (0, 0) is in M but not in L, so two pairs meet
    s = PointSet([(0, 0), (1, 0), (0, 1)])
    assert not ti.check_condition_b(s, t)
    with pytest.raises(NotDirectError) as exc:
        ps.sum_convexity_witness(s, t.tile, t.ambient)
    (s1, t1), (s2, t2) = exc.value.witness
    assert (s1, t1) != (s2, t2)
    assert {s1, s2} <= set(s.points) and {t1, t2} <= set(t.tile.points)
    assert tuple(a + b for a, b in zip(s1, t1)) == tuple(a + b for a, b in zip(s2, t2))


def test_condition_a_requires_full_dimensional_s():
    t = planar_family_tiling(1)
    seg = PointSet([(0, 0), (2, -1)])
    with pytest.raises(LowerDimensionalError):
        ti.check_condition_a(seg, t)


def test_conditions_a_and_c_agree_in_dimension_two():
    rng = random.Random(44)
    t = planar_family_tiling(2)
    lat = t.translations
    for _ in range(10):
        coeffs = {(0, 0), (1, 0), (0, 1)}
        for _ in range(rng.randint(0, 2)):
            coeffs.add((rng.randint(0, 2), rng.randint(0, 2)))
        pts = [linalg.mat_vec(lat.basis, c) for c in coeffs]
        s = PointSet(ps.PointSet(pts).hull().lattice_points(lat))
        a = ti.check_condition_a(s, t)
        c = ti.check_condition_c(s, t)
        assert a == c


# -- conditions (a) and (c) against their former separate facet loops ------


def _oracle_convex_summand_hull(s, t):
    """(conv(S), None) for an L-convex S, else (None, the first L-point of
    conv(S) that S misses, by brute force)."""
    lat = t.translations
    assert all(lat.contains(p) for p in s.points)
    s_hull = polytope.hull(s.points)
    assert s_hull.is_full_dimensional()
    if ps.is_lattice_convex(s, lat):
        return s_hull, None
    return None, first_gap_oracle(s.points, s, lat)


def oracle_condition_a(s, t):
    """(a): the first facet of conv(S) whose normal u in L* has w(T, u) >= 1;
    when S is not L-convex, the L-point of conv(S) it misses."""
    s_hull, gap = _oracle_convex_summand_hull(s, t)
    if s_hull is None:
        return False, gap
    dual = t.translations.dual()
    for a, _ in s_hull.facets():
        u = fraction_primitive_parallel(dual, a)
        if ti.width_of(t.tile, u) >= 1:
            return False, u
    return True, None


def oracle_condition_c(s, t):
    """(c): as (a), over the facets F with aff(F) ⊆ F + L, tested first on a
    hull of each facet."""
    s_hull, gap = _oracle_convex_summand_hull(s, t)
    if s_hull is None:
        return False, gap
    dual = t.translations.dual()
    for a, verts in s_hull.facet_vertex_sets():
        facet = polytope.hull(verts)
        if not ti.affine_covering_test(facet.vertices, t.translations):
            continue
        u = fraction_primitive_parallel(dual, a)
        if ti.width_of(t.tile, u) >= 1:
            return False, u
    return True, None


def _condition_cases():
    """(S, tiling) pairs for the (a)/(c) scan.

    A slice of the acceptance pool in d = 2 and 3 and the two
    counterexamples, each with at most one wide facet; random S = conv(P) ∩ L
    in d = 3 with up to seven wide facets, some covering before others that
    do not, and the other way round; an S that is not L-convex; and a tiling
    of Z by 3Z.
    """
    _, pool = _abc_pool()
    cases = [c for c in pool if c[0].dim == 2][:15] + [c for c in pool if c[0].dim == 3][:15]
    ab, bc = counterexample_ab(3), counterexample_bc(3)
    cases += [ab, bc]
    rng = random.Random(5)
    tilings = [bc[1], ab[1], generalized_family_tiling(3, 1), generalized_family_tiling(3, 2)]
    for _ in range(16):
        t = rng.choice(tilings)
        coeffs = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        coeffs += [tuple(rng.randint(-1, 2) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        p = PointSet(linalg.mat_vec(t.translations.basis, c) for c in coeffs)
        cases.append((PointSet(p.hull().lattice_points(t.translations)), t))
    planar = planar_family_tiling(2)
    b1, b2 = planar.translations.basis
    cases.append((PointSet([(0, 0), linalg.vscale(2, b1), b2]), planar))
    line = ti.verify_tiling(Lattice.standard(1), Lattice([(3,)]), PointSet([(0,), (1,), (2,)]))
    return cases + [(PointSet([(0,), (3,), (6,)]), line)]


def test_conditions_a_and_c_match_their_separate_loops():
    outcomes = set()
    for s, t in _condition_cases():
        result = ti.check_abc(s, t)
        a, c = result["a"], result["c"]
        assert a == oracle_condition_a(s, t)
        assert c == oracle_condition_c(s, t)
        outcomes.add((a[0], c[0], a[1] == c[1]))
    # both conditions hold and fail, (a) fails where (c) holds, and (c)
    # fails on the first wide facet and on a later one
    assert {(True, True, True), (False, True, False)} <= outcomes
    assert {(False, False, True), (False, False, False)} <= outcomes


def test_condition_c_scans_past_the_first_wide_facet():
    # random S = conv(P) ∩ L, where conv(S) often has several facets with
    # w(T, u) >= 1 and the first of them need not cover aff(F)
    rng = random.Random(12)
    tilings = [generalized_family_tiling(3, k) for k in (1, 2)]
    tilings += [planar_family_tiling(k) for k in (1, 2, 3)]
    several = later = 0
    for _ in range(160):
        t = rng.choice(tilings)
        d = t.ambient.dim
        coeffs = [tuple(int(i == j) for i in range(d)) for j in range(d)] + [(0,) * d]
        coeffs += [tuple(rng.randint(-1, 2) for _ in range(d)) for _ in range(rng.randint(1, 3))]
        p = PointSet(linalg.mat_vec(t.translations.basis, c) for c in coeffs)
        s = PointSet(p.hull().lattice_points(t.translations))
        dual = t.translations.dual()
        wide = []  # (u, whether F covers aff(F)) in facet order
        for a, verts in s.hull().facet_vertex_sets():
            u = fraction_primitive_parallel(dual, a)
            if ti.width_of(t.tile, u) >= 1:
                wide.append((u, oracle_affine_covering(verts, t.translations)))
        covering = [u for u, covers in wide if covers]
        result = ti.check_abc(s, t)
        holds_c, witness = result["c"]
        assert holds_c == (not covering)
        assert witness == (covering[0] if covering else None)
        holds_a, holds_b = result["a"][0], result["b"][0]
        assert holds_a == (not wide)
        assert (not holds_a or holds_b) and (not holds_b or holds_c)
        several += len(wide) > 1
        later += bool(covering) and not wide[0][1]
    assert several >= 40 and later >= 5


def test_check_abc_is_the_three_witness_calls():
    pair = generalized_family(4, 1)
    # the boolean views read the holds of check_abc, and (c) is left out
    # above d = 3
    for s, t in _condition_cases() + [(pair.s, pair.tiling)]:
        result = ti.check_abc(s, t)
        assert result["a"][0] == ti.check_condition_a(s, t)
        assert result["b"][0] == ti.check_condition_b(s, t)
        if t.ambient.dim <= 3:
            assert result["c"][0] == ti.check_condition_c(s, t)
        else:
            assert result["c"] == (None, None)


def test_condition_c_hulls_nothing_and_covers_only_wide_facets(monkeypatch):
    cases = _condition_cases()
    for s, t in cases:
        s.hull(), t.tile.hull()
    hulls, covered = [], []
    build, cover = polytope.Polytope.hull, ti.affine_covering_test

    def counting_hull(points):
        hulls.append(points)
        return build(points)

    def counting_cover(vertices, lat):
        covered.append(vertices)
        return cover(vertices, lat)

    monkeypatch.setattr(polytope.Polytope, "hull", staticmethod(counting_hull))
    monkeypatch.setattr(ti, "affine_covering_test", counting_cover)
    narrow = 0
    for s, t in cases:
        covered.clear()
        holds = ti.check_condition_c(s, t)
        if not ps.is_lattice_convex(s, t.translations):
            assert (holds, covered) == (False, [])
            continue
        dual = t.translations.dual()
        wide = []
        for a, verts in s.hull().facet_vertex_sets():
            if ti.width_of(t.tile, fraction_primitive_parallel(dual, a)) >= 1:
                wide.append(verts)
            else:
                narrow += 1
        # the wide facets in order, up to the first one that covers
        first = next((i for i, v in enumerate(wide) if cover(v, t.translations)), None)
        assert holds == (first is None)
        assert covered == (wide if holds else wide[: first + 1])
    assert hulls == []
    assert narrow > 0



# -- the facet scan on a rational lattice, far from the origin --------------

# Lower-triangular maps with positive diagonals keep the lexicographic order
# of points, so the first gap point of (b) maps to the first gap point.
AFFINE_MAPS = {  # the rows of A
    1: ((F(3, 4),),),
    2: ((F(3, 2), 0), (F(-1, 3), F(5, 7))),
    3: ((F(2, 3), 0, 0), (F(1, 2), F(5, 7), 0), (F(-1, 3), F(1, 5), F(3, 2))),
}


def _apply(rows, p):
    return tuple([sum(r * c for r, c in zip(row, p)) for row in rows])


def _mapped_case(s, t):
    """(A S + l, the verified (A M, A L, A T + v)) for an l in A L and a v in
    A M with coordinates near 2**64 in their bases.  A L is not integral, so
    its integer basis needs a denominator F > 1."""
    a, d = AFFINE_MAPS[s.dim], s.dim
    ambient = Lattice([_apply(a, b) for b in t.ambient.basis])
    lat = Lattice([_apply(a, b) for b in t.translations.basis])
    shift_s = linalg.mat_vec(lat.basis, [2**64 + i for i in range(d)])
    shift_t = linalg.mat_vec(ambient.basis, [-(2**64) - 3 * i - 1 for i in range(d)])
    tile = PointSet([linalg.vadd(_apply(a, p), shift_t) for p in t.tile.points])
    s2 = PointSet([linalg.vadd(_apply(a, p), shift_s) for p in s.points])
    return s2, ti.verify_tiling(ambient, lat, tile), shift_s, shift_t


def _wide_directions(s, t, covering):
    """The dual directions u in L* of the facets of conv(S) with w(T, u) >= 1,
    by `fraction_primitive_parallel` and `width_of`; only covering ones if asked."""
    dual = t.translations.dual()
    out = set()
    for a, verts in s.hull().facet_vertex_sets():
        u = fraction_primitive_parallel(dual, a)
        if ti.width_of(t.tile, u) >= 1:
            if not covering or ti.affine_covering_test(verts, t.translations):
                out.add(u)
    return out


def test_conditions_are_invariant_under_a_rational_affine_map():
    dens, single = set(), 0
    for s, t in _condition_cases():
        d = s.dim
        s2, t2, shift_s, shift_t = _mapped_case(s, t)
        dens.add(t2.translations.integer_basis[0])
        got, base = ti.check_abc(s2, t2), ti.check_abc(s, t)
        assert got["a"] == oracle_condition_a(s2, t2)
        assert got["c"] == oracle_condition_c(s2, t2)
        # (b): the same answer, and the gap point's image
        gap = base["b"][1]
        if gap is not None:
            gap = linalg.vadd(_apply(AFFINE_MAPS[d], gap), linalg.vadd(shift_s, shift_t))
        assert got["b"] == (base["b"][0], gap)
        # (a), (c): the same answers, and witnesses A^-T u for a wide
        # (covering) facet's direction u; the first such facet may differ,
        # as A changes the order of the facet normals
        a_t = tuple(zip(*AFFINE_MAPS[d]))
        convex = ps.is_lattice_convex(s, t.translations)
        for key, covering in (("a", False), ("c", True)):
            holds, witness = got[key]
            assert holds == base[key][0]
            assert (witness is None) == (base[key][1] is None)
            if not convex:
                # the least L-point of conv(S) that S misses, mapped as a point
                assert witness == linalg.vadd(_apply(AFFINE_MAPS[d], base[key][1]), shift_s)
            elif witness is not None:
                wide = _wide_directions(s, t, covering)
                assert _apply(a_t, witness) in wide
                if len(wide) == 1:
                    single += 1
                    assert _apply(a_t, witness) == base[key][1]
            else:
                assert holds and not _wide_directions(s, t, covering)
    assert min(dens) > 1 and single > 10, (dens, single)


def test_the_facet_scan_needs_no_dual_vector_width_or_tile_hull(monkeypatch):
    cases = _condition_cases()
    cases += [_mapped_case(s, t)[:2] for s, t in cases]
    expected = [ti.check_abc(s, t) for s, t in cases]

    def refuse(*args):
        raise AssertionError("the facet scan left its integers")

    monkeypatch.setattr(ti, "width_of", refuse)
    assert [ti.check_abc(s, t) for s, t in cases] == expected
    hulled = []
    build = PointSet.hull
    monkeypatch.setattr(PointSet, "hull", lambda k: hulled.append(k) or build(k))
    for s, t in cases:
        ti._facet_conditions(s, t, with_c=True)
        assert all(k is not t.tile for k in hulled)


def test_affine_covering_segments():
    # every lattice segment covers its line, on any lattice
    assert ti.affine_covering_test(((0, 0), (1, 0)), Z2)
    assert ti.affine_covering_test(((3, 0), (0, 0)), Z2)
    for lat in RATIONAL_LATTICES:
        b1, b2 = lat.basis
        p0 = (F(2**64, 3), F(-5, 7))
        assert ti.affine_covering_test((p0, linalg.vadd(p0, linalg.vsub(b1, b2))), lat)


def test_affine_covering_3d():
    square = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))
    assert ti.affine_covering_test(square, Z3)
    triangle = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert not ti.affine_covering_test(triangle, Z3)
    # a triangle with twice the cell area covers after translation
    big = ((0, 0, 0), (2, 0, 0), (0, 2, 0))
    assert ti.affine_covering_test(big, Z3)
    with pytest.raises(UnsupportedDimensionError):
        ti.affine_covering_test(
            ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
            Lattice.standard(4),
        )


@pytest.mark.parametrize(
    "vertices",
    [
        ((2,), (5,)),  # d = 1: a segment, not a point
        ((1, 1),),  # d = 2: a point, not a segment
        ((0, 0), (1, 0), (0, 1)),  # d = 2: a triangle
        ((0, 0, 0), (1, 0, 0), (3, 0, 0)),  # d = 3: collinear
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),  # d = 3: a simplex
        (),
    ],
)
def test_affine_covering_refuses_vertices_off_a_hyperplane(vertices):
    lat = Lattice.standard(len(vertices[0]) if vertices else 3)
    with pytest.raises(ValueError):
        ti.affine_covering_test(vertices, lat)


@pytest.mark.parametrize(
    "vertices, lat",
    [
        (((0, 0), (F(1, 2), 0)), Z2),  # a half-length segment
        (((7, 0), (7, 2)), Lattice([(1, 0), (0, 3)])),  # 2/3 of a step of L on its line
        (((0, 0, 0), (F(1, 2), 0, 0), (0, 1, 0)), Z3),  # a triangle with a half edge
    ],
)
def test_affine_covering_refuses_a_facet_off_the_lattice(vertices, lat):
    with pytest.raises(ValueError, match="lattice facet"):
        ti.affine_covering_test(vertices, lat)


def test_condition_c_is_condition_a_in_the_plane():
    # every lattice segment covers its line, so (c) fails on the first wide
    # facet, as (a) does
    planar = [(s, t) for s, t in _condition_cases() if s.dim == 2]
    outcomes = set()
    for s, t in planar:
        result = ti.check_abc(s, t)
        c = result["c"]
        assert c == result["a"]
        outcomes.add(c[0])
    assert len(planar) > 15 and outcomes == {True, False}


def test_conditions_in_dimension_one():
    # a facet is a point, its own affine hull
    assert ti.affine_covering_test(((5,),), Lattice.standard(1))
    # M = Z, L = 3Z, T = {0, 1, 2}
    t = ti.verify_tiling(
        Lattice.standard(1), Lattice([(3,)]), PointSet([(0,), (1,), (2,)])
    )
    s = PointSet([(0,), (3,), (6,)])
    holds = (True, None)
    assert ti.check_abc(s, t) == {"a": holds, "b": holds, "c": holds}


# -- the covering test against the polygon clipping of the former routine ---


def _polygon_area2(poly) -> F:
    """Twice the signed shoelace area (positive for ccw polygons)."""
    total = F(0)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def _clip(poly, a, b, rhs):
    """Clip a convex ccw polygon to the halfplane a*x + b*y <= rhs.

    New vertices are exact Fractions, also on int input.
    """
    if not poly:
        return []
    out = []
    n = len(poly)
    vals = [a * p[0] + b * p[1] - rhs for p in poly]
    for i in range(n):
        p, vp = poly[i], vals[i]
        q, vq = poly[(i + 1) % n], vals[(i + 1) % n]
        if vp <= 0:
            out.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = F(vp) / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _edge_halfplane(p1, p2):
    """(a, b, rhs) with the left side of p1->p2 given by a*x + b*y >= rhs."""
    a = -(p2[1] - p1[1])
    b = p2[0] - p1[0]
    return a, b, a * p1[0] + b * p1[1]


def _clip_to_convex(poly, convex_ccw):
    cur = poly
    n = len(convex_ccw)
    for i in range(n):
        a, b, rhs = _edge_halfplane(convex_ccw[i], convex_ccw[(i + 1) % n])
        cur = _clip(cur, -a, -b, -rhs)  # keep the inside (>= rhs)
        if not cur:
            return []
    return cur


def _convex_difference(poly, cutter):
    """Disjoint convex pieces of poly minus cutter (both convex, ccw)."""
    pieces = []
    current = poly
    n = len(cutter)
    for i in range(n):
        a, b, rhs = _edge_halfplane(cutter[i], cutter[(i + 1) % n])
        outside = _clip(current, a, b, rhs)  # beyond this edge (<= rhs)
        if len(outside) >= 3 and _polygon_area2(outside) != 0:
            pieces.append(outside)
        current = _clip(current, -a, -b, -rhs)
        if not current:
            break
    return pieces


def test_clip_keeps_int_input_exact():
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    cut = _clip(square, 1, 1, 1)  # x + y <= 1
    assert cut == [(0, 0), (1, 0), (0, 1)]
    assert not any(isinstance(c, float) for p in cut for c in p)
    assert [type(c) for p in cut[1:] for c in p] == [F] * 4
    # a cut through no vertex: x <= 1/2 on the scaled square
    cut = _clip([(0, 0), (3, 0), (3, 3), (0, 3)], 2, 0, 1)
    assert cut == [(0, 0), (F(1, 2), 0), (F(1, 2), 3), (0, 3)]
    assert not any(isinstance(c, float) for p in cut for c in p)


def _oracle_ccw_order(points):
    """Sort points counterclockwise around their centroid, exactly."""
    n = len(points)
    cx = sum(p[0] for p in points) / n
    cy = sum(p[1] for p in points) / n

    def angle_less(p, q):
        px, py = p[0] - cx, p[1] - cy
        qx, qy = q[0] - cx, q[1] - cy
        hp = 0 if (py > 0 or (py == 0 and px > 0)) else 1
        hq = 0 if (qy > 0 or (qy == 0 and qx > 0)) else 1
        if hp != hq:
            return hp < hq
        return px * qy - py * qx > 0

    arr = list(points)
    for i in range(1, len(arr)):
        j = i
        while j > 0 and angle_less(arr[j], arr[j - 1]):
            arr[j], arr[j - 1] = arr[j - 1], arr[j]
            j -= 1
    return arr


def _oracle_translates_cover_cell(poly, c1, c2):
    """Union area of every translate of poly by Z c1 + Z c2 in one cell."""
    det = c1[0] * c2[1] - c1[1] * c2[0]
    if det == 0:
        return False
    if det < 0:
        c1, c2 = c2, c1
        det = -det
    cell = [(F(0), F(0)), c1, linalg.vadd(c1, c2), c2]
    cell_area2 = _polygon_area2(cell)
    poly = _oracle_ccw_order(poly)
    if _polygon_area2(poly) == 0:
        return False
    alphas, betas = [], []
    for x, y in poly:
        alphas.append((x * c2[1] - y * c2[0]) / det)
        betas.append((-x * c1[1] + y * c1[0]) / det)
    a_range = range(math.ceil(-max(alphas)), math.floor(1 - min(alphas)) + 1)
    b_range = range(math.ceil(-max(betas)), math.floor(1 - min(betas)) + 1)
    covered2 = F(0)
    pieces = []
    for a in a_range:
        for b in b_range:
            sx = a * c1[0] + b * c2[0]
            sy = a * c1[1] + b * c2[1]
            moved = [(x + sx, y + sy) for x, y in poly]
            parts = [_clip_to_convex(moved, cell)]
            parts = [p for p in parts if len(p) >= 3 and _polygon_area2(p) != 0]
            for prev in pieces:
                nxt = []
                for part in parts:
                    nxt.extend(_convex_difference(part, prev))
                parts = nxt
                if not parts:
                    break
            for part in parts:
                area2 = _polygon_area2(part)
                if area2:
                    covered2 += abs(area2)
                    pieces.append(part)
            if covered2 == cell_area2:  # the pieces are disjoint
                return True
    return False


def oracle_affine_covering(vertices, lat):
    """The covering test in a rational frame on the facet's own plane."""
    if lat.dim == 2:
        v = linalg.vsub(vertices[-1], vertices[0])
        prim = fraction_primitive_parallel(lat, v)
        k = next(i for i, e in enumerate(prim) if e != 0)
        return abs(v[k] / prim[k]) >= 1
    f0 = vertices[0]
    diffs = [linalg.vsub(v, f0) for v in vertices[1:]]
    dirs = [diffs[i] for i in linalg.independent_subset(diffs)]
    normal = linalg.nullspace(dirs)[0]
    w_row = tuple(linalg.vdot(normal, col) for col in lat.basis)
    kernel = linalg.integer_kernel([primitive_integer_direction(w_row)])
    c1 = linalg.mat_vec(lat.basis, kernel[0])
    c2 = linalg.mat_vec(lat.basis, kernel[1])
    _, _, coords = linalg.span_coordinates(
        dirs, [linalg.vsub(v, f0) for v in vertices] + [c1, c2]
    )
    return _oracle_translates_cover_cell(coords[:-2], *coords[-2:])


# a sheared rational lattice, the primitive pair b1 + 2 b3, b2 - b3 of its
# vectors, and a base point far from the origin: Z^2 placed on a plane of L
SHEARED = Lattice([(F(2, 3), 0, F(1, 5)), (F(7, 2), F(1, 3), -1), (5, F(-4, 3), F(3, 2))])
FAR = (2**64 + F(1, 3), -(2**65) + F(2, 7), F(3**40, 11))


def _on_sheared_plane(poly):
    b1, b2, b3 = SHEARED.basis
    e1, e2 = linalg.vadd(b1, linalg.vscale(2, b3)), linalg.vsub(b2, b3)
    return [
        linalg.vadd(FAR, linalg.vadd(linalg.vscale(x, e1), linalg.vscale(y, e2)))
        for x, y in poly
    ]


@pytest.mark.parametrize(
    "poly, covers",
    [
        (((0, 0), (1, 0), (0, 1)), False),  # the unimodular triangle
        (((0, 0), (1, 0), (1, 1), (0, 1)), True),  # the unit square
        (((0, 0), (2, 0), (0, 2)), True),  # 2Δ, hollow of width 2
        (((1, 0), (0, 1), (-1, -1)), True),  # one interior point
        (((1, 0), (0, 1), (-1, 0), (0, -1)), True),  # conv{±e1, ±e2}
        (((0, 0), (3, 0), (1, 1)), False),  # width 1, one vertex on a row
        (((0, 0), (3, 0), (2, 1), (1, 1)), True),  # width 1, two on each row
    ],
)
def test_affine_covering_of_named_lattice_polygons(poly, covers):
    vertices = _on_sheared_plane(poly)
    assert ti.affine_covering_test(vertices, SHEARED) == covers
    assert oracle_affine_covering(vertices, SHEARED) == covers


def _lattice_polygons(nx, ny):
    """Every lattice polygon with its vertices in {0..nx} x {0..ny}, up to
    translation, as its sorted vertices: the hulls of three grid points,
    grown one grid point at a time."""
    grid = list(itertools.product(range(nx + 1), range(ny + 1)))
    seen, grown = set(), list(itertools.combinations(grid, 3))
    while grown:
        try:
            ring = tuple(_kernels.hull_ring(grown.pop()))
        except LowerDimensionalError:  # three points on a line
            continue
        if ring not in seen:
            seen.add(ring)
            grown += [ring + (p,) for p in grid]
    moved = set()
    for ring in seen:
        x0, y0 = min(x for x, _ in ring), min(y for _, y in ring)
        moved.add(tuple(sorted((x - x0, y - y0) for x, y in ring)))
    return sorted(moved)


def test_affine_covering_matches_the_clipping_on_every_polygon_in_a_box():
    polygons = _lattice_polygons(3, 2)
    unit = ((F(1), F(0)), (F(0), F(1)))
    covering = 0
    for poly in polygons:
        covers = _oracle_translates_cover_cell([tuple(map(F, p)) for p in poly], *unit)
        assert ti.affine_covering_test(_on_sheared_plane(poly), SHEARED) == covers, poly
        covering += covers
    assert (len(polygons), covering) == (402, 346)


SMALL_RATIONALS = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def covering_inputs(draw):
    """(facet vertices, lattice): a lattice facet on a random skewed rational
    lattice, d = 2 or 3.

    The facet is spanned by lattice vectors e_i, not always primitive ones,
    and placed at a rational point, mostly off the lattice.  Its vertices
    have integer coefficients on the e_i, the last one 0 or 1 for points on
    two rows, which often just cover or just fail, or in 0..4 for random
    points.
    """
    d = draw(st.sampled_from([3, 2]))
    cols = [list(draw(st.tuples(*[SMALL_RATIONALS] * d))) for _ in range(d)]
    shear = draw(st.integers(-4, 4))
    cols[-1] = [x + shear * y for x, y in zip(cols[-1], cols[0])]
    assume(linalg.det(linalg.mat(cols)) != 0)
    lat = Lattice(cols)
    small_ints = st.tuples(*[st.integers(-2, 2)] * d)
    spans = [linalg.mat_vec(lat.basis, draw(small_ints)) for _ in range(d - 1)]
    assume(linalg.rank_of(spans) == d - 1)
    top = draw(st.sampled_from([1, 4]))
    coeff = st.tuples(*[st.integers(-3, 3)] * (d - 2), st.integers(0, top))
    coeffs = draw(st.lists(coeff, min_size=d, max_size=6))
    p0 = draw(st.tuples(*[SMALL_RATIONALS] * d))
    points = [
        tuple(p0[j] + sum(c * e[j] for c, e in zip(cs, spans)) for j in range(d))
        for cs in coeffs
    ]
    facet = hull(points)
    assume(facet.dim == d - 1)
    return facet.vertices, lat


@given(covering_inputs())
@settings(max_examples=300, deadline=None)
def test_affine_covering_matches_rational_frame_oracle(case):
    vertices, lat = case
    assert ti.affine_covering_test(vertices, lat) == oracle_affine_covering(vertices, lat)


@given(covering_inputs(), st.sampled_from([2, 3]))
@settings(max_examples=100, deadline=None)
def test_affine_covering_refuses_a_shrunk_lattice_facet(case, q):
    # p0 + (v - p0) / q: a rational facet whose vertices need not differ by
    # vectors of L, like those the former oracle comparison drew
    vertices, lat = case
    p0 = vertices[0]
    shrunk = [linalg.vadd(p0, linalg.vscale(F(1, q), linalg.vsub(v, p0))) for v in vertices]
    assume(lat.integer_coordinates([linalg.vsub(v, p0) for v in shrunk])[0] > 1)
    with pytest.raises(ValueError, match="lattice facet"):
        ti.affine_covering_test(shrunk, lat)


def has_parity(tile, lat):
    """(2 L*) ∩ int(D(T)°) = {o}: no nonzero u in L* has w(T, u) < 1/2.  Each
    such u is in W(T, L), so it is read off the widths of `w_set`."""
    return all(w >= F(1, 2) for w in ti.w_set(tile, lat).widths.values())


def test_parity_check_families():
    for t in [planar_family_tiling(k) for k in (1, 2, 3, 4)] + [generalized_family_tiling(3, 2)]:
        assert has_parity(t.tile, t.translations)
        assert not brute_widths_below(t.tile, t.translations, F(1, 2))


def test_parity_check_negative_control():
    # a tiny "tile" in a coarse lattice (no tiling: the counts differ) has
    # dual directions of width < 1/2, so the parity property fails
    tile, lat = PointSet([(0, 0), (1, 0), (0, 1)]), Lattice([(8, 0), (0, 8)])
    assert not has_parity(tile, lat)
    assert brute_widths_below(tile, lat, F(1, 2))


def test_condition_b_forces_convex_s():
    # a convexity gap in S propagates to S + T, so (b) must fail
    t = planar_family_tiling(2)
    b1, b2 = t.translations.basis
    s = PointSet([(0, 0), linalg.vscale(2, b1), b2])  # misses b1 = midpoint
    assert not ps.is_lattice_convex(s, t.translations)
    assert not ti.check_condition_b(s, t)


def test_conditions_a_and_c_name_the_l_point_a_nonconvex_s_misses():
    # S = {o, 2 b1, b2, ...} lies in L but misses b1; (a) and (c) fail with
    # the least L-point of conv(S) that S misses, checked here by Cramer's
    # rule, an exact convex combination and the brute-force first gap
    for t in (planar_family_tiling(2), generalized_family_tiling(3, 1)):
        lat, d = t.translations, t.ambient.dim
        rows = [linalg.vec(b) for b in lat.basis]
        pts = [(0,) * d, linalg.vscale(2, rows[0]), *rows[1:]]
        s = PointSet(pts)
        result = ti.check_abc(s, t)
        holds, w = result["a"]
        assert not holds and result["c"] == (False, w)
        det = leibniz_det(rows)
        coords = [leibniz_det(rows[:i] + [w] + rows[i + 1 :]) / det for i in range(d)]
        assert all(F(z).denominator == 1 for z in coords)
        assert in_hull_oracle([linalg.vec(p) for p in pts], w)
        assert w not in s
        assert w == first_gap_oracle(s.points, s, lat)


def test_thin_cover_basis_families():
    for t in (planar_family_tiling(1), planar_family_tiling(3)):
        wset = ti.w_set(t.tile, t.translations)
        basis, kappa = ti.thin_cover_basis(wset, t.translations)
        assert basis is not None
        assert kappa == 8
        for b in basis:
            assert t.translations.contains(b)
            for w in wset.vectors:
                assert abs(linalg.vdot(w, b)) <= kappa
    t = generalized_family_tiling(3, 2)
    wset = ti.w_set(t.tile, t.translations)
    basis, kappa = ti.thin_cover_basis(wset, t.translations)
    assert basis is not None and kappa == 108


def test_thin_cover_basis_in_one_dimension():
    # kappa = 2 (1!)^2 (3/2)^-1 = 4/3, and W(T, 3Z) = {±1/3} with T = {0, 1, 2}
    lat = Lattice([(3,)])
    t = ti.verify_tiling(Lattice.standard(1), lat, PointSet([(0,), (1,), (2,)]))
    wset = ti.w_set(t.tile, t.translations)
    assert wset.vectors == ((F(-1, 3),), (F(1, 3),))
    basis, kappa = ti.thin_cover_basis(wset, lat)
    assert (basis, kappa) == (((3,),), F(4, 3))
    assert type(kappa) is F
