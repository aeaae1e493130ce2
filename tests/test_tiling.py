"""Tiling verification, thin directions, widths, tile enumeration, conditions."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homometry import linalg, pointset as ps, polytope, tiling as ti
from homometry.constructions import (
    counterexample_ab,
    counterexample_bc,
    generalized_family_tiling,
    planar_family_tiling,
)
from homometry.errors import (
    LowerDimensionalError,
    LowerDimensionalTileError,
    NotATilingError,
    NotLatticeConvexError,
    UnsupportedDimensionError,
)
from homometry.lattice import Lattice
from homometry.pointset import PointSet
from homometry.polytope import hull

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


def test_verify_rejects_residue_collision():
    base = Lattice([(2, 0), (0, 2)])
    with pytest.raises(NotATilingError):
        ti.verify_tiling(Z2, base, PointSet([(0, 0), (2, 0), (0, 1), (1, 1)]))


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
    value, _ = ti.lattice_width(hull([(0, 0), (1, 0), (0, 1)]), Z2)
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
            assert ti.lattice_width(k.hull(), lat) == scan


def test_lattice_width_flat_set_zero():
    value, u = ti.lattice_width(PointSet([(0, 0), (2, 2)]), Z2)
    assert value == 0
    assert linalg.vdot(u, (2, 2)) == 0 and any(u)


@pytest.mark.parametrize("s", range(7))
def test_delta_width_det7(s):
    # the half-cell triangles with determinant 7 driving the search filter
    delta = hull([(0, 0), (1, 0), (s, 7)])
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
    holds, witness = ti.condition_a_witness(s, t)
    assert not holds
    assert witness is not None
    assert ti.width_of(t.tile, witness) >= 1
    assert ti.check_condition_b(s, t)


def test_condition_bc_counterexample():
    s, t = counterexample_bc(3)
    assert ti.check_condition_c(s, t)
    holds, witness = ti.condition_b_witness(s, t)
    assert not holds
    # the documented gap point lies in the hull but not in the sum
    total = ps.minkowski_sum(s, t.tile)
    gap = (3, 3, 3)
    assert total.hull().contains(gap)
    assert gap not in total


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


def test_affine_covering_segments():
    assert ti.affine_covering_test(hull([(0, 0), (1, 0)]), Z2)
    assert not ti.affine_covering_test(hull([(0, 0), (F(1, 2), 0)]), Z2)
    assert ti.affine_covering_test(hull([(0, 0), (3, 0)]), Z2)


def test_affine_covering_3d():
    square = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert ti.affine_covering_test(square, Z3)
    triangle = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert not ti.affine_covering_test(triangle, Z3)
    # a triangle with twice the cell area covers after translation
    big = hull([(0, 0, 0), (2, 0, 0), (0, 2, 0)])
    assert ti.affine_covering_test(big, Z3)
    with pytest.raises(UnsupportedDimensionError):
        ti.affine_covering_test(
            hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]),
            Lattice.standard(4),
        )


def test_conditions_in_dimension_one():
    # a facet is a point, its own affine hull
    assert ti.affine_covering_test(hull([(5,)]), Lattice.standard(1))
    # M = Z, L = 3Z, T = {0, 1, 2}
    t = ti.verify_tiling(
        Lattice.standard(1), Lattice([(3,)]), PointSet([(0,), (1,), (2,)])
    )
    s = PointSet([(0,), (3,), (6,)])
    holds = (True, None)
    assert ti.check_abc(s, t) == {"a": holds, "b": holds, "c": holds}


def test_clip_keeps_int_input_exact():
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    cut = ti._clip(square, 1, 1, 1)  # x + y <= 1
    assert cut == [(0, 0), (1, 0), (0, 1)]
    assert not any(isinstance(c, float) for p in cut for c in p)
    assert [type(c) for p in cut[1:] for c in p] == [F] * 4
    # a cut through no vertex: x <= 1/2 on the scaled square
    cut = ti._clip([(0, 0), (3, 0), (3, 3), (0, 3)], 2, 0, 1)
    assert cut == [(0, 0), (F(1, 2), 0), (F(1, 2), 3), (0, 3)]
    assert not any(isinstance(c, float) for p in cut for c in p)


# -- the covering test against the former rational-frame routine ------------


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
    cell_area2 = ti._polygon_area2(cell)
    poly = _oracle_ccw_order(poly)
    if ti._polygon_area2(poly) == 0:
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
            parts = [ti._clip_to_convex(moved, cell)]
            parts = [p for p in parts if len(p) >= 3 and ti._polygon_area2(p) != 0]
            for prev in pieces:
                nxt = []
                for part in parts:
                    nxt.extend(ti._convex_difference(part, prev))
                parts = nxt
                if not parts:
                    break
            for part in parts:
                area2 = ti._polygon_area2(part)
                if area2:
                    covered2 += abs(area2)
                    pieces.append(part)
    return covered2 == cell_area2


def oracle_affine_covering(facet, lat):
    """The covering test in a rational frame on the facet's own plane."""
    if lat.dim == 2:
        v = linalg.vsub(facet.vertices[-1], facet.vertices[0])
        prim = lat.primitive_parallel(v)
        k = next(i for i, e in enumerate(prim) if e != 0)
        return abs(v[k] / prim[k]) >= 1
    f0 = facet.vertices[0]
    dirs = ti._independent_differences(facet.vertices)
    normal = linalg.nullspace(dirs)[0]
    w_row = tuple(linalg.vdot(normal, col) for col in lat.basis)
    kernel = linalg.integer_kernel([linalg.primitive_integer_direction(w_row)])
    c1 = linalg.mat_vec(lat.basis, kernel[0])
    c2 = linalg.mat_vec(lat.basis, kernel[1])
    _, _, coords = linalg.span_coordinates(
        dirs, [linalg.vsub(v, f0) for v in facet.vertices] + [c1, c2]
    )
    return _oracle_translates_cover_cell(coords[:-2], *coords[-2:])


SMALL_RATIONALS = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
NON_INTEGRAL = st.sampled_from([F(1, 2), F(1, 3), F(2, 3)])


@st.composite
def covering_inputs(draw):
    """(facet, lattice) on a random skewed rational lattice in d = 2 or 3.

    The facet is spanned by lattice vectors e_i and placed at a rational
    point, mostly off the lattice.  Its vertices have coefficients with denominators 1, 2 and 3 on
    the e_i, in one of three shapes: a tile (a unit segment, or the
    parallelogram spanned by (1, r) and (0, 1), a fundamental domain of Z^2
    for every r, here never an integer), a nudged tile that just covers or
    just fails, or random points.
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
    shape = draw(st.sampled_from(["tile", "nudged", "random"]))
    if shape == "random":
        coeffs = draw(
            st.lists(st.tuples(*[SMALL_RATIONALS] * (d - 1)), min_size=d, max_size=5)
        )
    elif d == 2:
        length = 1 if shape == "tile" else draw(st.sampled_from([F(2, 3), F(4, 3), 2]))
        coeffs = [(0,), (length,)]
    else:
        r = draw(st.integers(-2, 2)) + draw(NON_INTEGRAL)
        coeffs = [(0, 0), (1, r), (1, r + 1), (0, 1)]
        if draw(st.booleans()):
            coeffs = [(y, x) for x, y in coeffs]
        if shape == "nudged":
            i = draw(st.integers(0, 3))
            nudge = draw(st.tuples(*[st.sampled_from([F(-1, 3), 0, F(1, 2)])] * 2))
            coeffs[i] = linalg.vadd(coeffs[i], nudge)
    p0 = draw(st.tuples(*[SMALL_RATIONALS] * d))
    points = [
        tuple(p0[j] + sum(c * e[j] for c, e in zip(cs, spans)) for j in range(d))
        for cs in coeffs
    ]
    facet = hull(points)
    assume(facet.dim == d - 1)
    return facet, lat


@given(covering_inputs())
@settings(max_examples=300, deadline=None)
def test_affine_covering_matches_rational_frame_oracle(case):
    facet, lat = case
    assert ti.affine_covering_test(facet, lat) == oracle_affine_covering(facet, lat)


def test_parity_check_families():
    for k in (1, 2, 3, 4):
        assert ti.parity_check(planar_family_tiling(k))
    assert ti.parity_check(generalized_family_tiling(3, 2))


def test_parity_check_negative_control():
    # not a tiling (count mismatch): a tiny "tile" in a coarse lattice has
    # dual directions of width < 1/2, so the parity property fails
    broken = ti.Tiling(
        ambient=Z2,
        translations=Lattice([(8, 0), (0, 8)]),
        tile=PointSet([(0, 0), (1, 0), (0, 1)]),
        verified=True,
    )
    assert not ti.parity_check(broken)


def test_condition_b_forces_convex_s():
    # a convexity gap in S propagates to S + T, so (b) must fail
    t = planar_family_tiling(2)
    b1, b2 = t.translations.basis
    s = PointSet([(0, 0), linalg.vscale(2, b1), b2])  # misses b1 = midpoint
    assert not ps.is_lattice_convex(s, t.translations)
    assert not ti.check_condition_b(s, t)


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
