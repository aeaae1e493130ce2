"""Generators: families, products, parabola prisms, counterexamples, catalog."""

import itertools
import random
from fractions import Fraction as F

import pytest

from homometry import constructions as con
from homometry import linalg, pointset as ps, polytope, tiling as ti
from homometry.errors import (
    HomometryError,
    InvalidParametersError,
    InvalidSError,
    NotATilingError,
    NotLatticeConvexError,
)
from homometry.lattice import Lattice, lattice_from_lhs
from homometry.linalg import frac, mat, mat_vec, transpose, vdot, vec
from homometry.pointset import PointSet
from homometry.polytope import hull
from .test_acceptance import _random_tilings
from .test_lattice import sublattices_of_z2
from .test_linalg import primitive_integer_direction
from .test_polytope import contains, in_hull_oracle


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_planar_family_tiles(k):
    pair = con.planar_family(k)
    assert pair.tiling.verified
    assert len(pair.sum_plus) == 3 * (2 * k + 1)


def test_planar_family_default_is_nontrivial():
    pair = con.planar_family(2)
    assert pair.nontrivial
    assert ps.homometric(pair.sum_plus, pair.sum_minus)
    assert not ps.trivially_homometric(pair.sum_plus, pair.sum_minus)
    assert ps.is_lattice_convex(pair.sum_plus, pair.tiling.ambient)
    assert ps.is_lattice_convex(pair.sum_minus, pair.tiling.ambient)


def test_planar_family_parallelogram_s_is_trivial():
    t = con.planar_family_tiling(1)
    b1, b2 = t.translations.basis
    s = PointSet([(0, 0), b1, b2, linalg.vadd(b1, b2)])
    pair = con.planar_family(1, s)
    assert not pair.nontrivial  # S centrally symmetric


def test_planar_family_rejects_bad_s():
    # an edge of conv(S) not parallel to b1, b2 or b2-b1
    t = con.planar_family_tiling(2)
    b1, b2 = t.translations.basis
    bad = PointSet([(0, 0), b1, linalg.vadd(b1, b1)])  # flat
    with pytest.raises(InvalidSError):
        con.planar_family(2, bad)
    bad2 = PointSet([(0, 0), b1, linalg.vsub(b2, b1), linalg.vadd(b1, b2)])
    with pytest.raises(InvalidSError):
        con.planar_family(2, bad2)
    with pytest.raises(InvalidSError, match=r"^S point \(1/2, 0\) is outside L$") as err:
        con.planar_family(2, PointSet([(0, 0), ("1/2", 0)]))
    assert err.value.witness == (F(1, 2), 0)
    assert not t.translations.contains(err.value.witness)
    # of several points outside L, the witness is the first in point order
    s = PointSet([(0, 0), ("1/2", 0), ("1/3", 1), (5, "1/2")])
    with pytest.raises(InvalidSError, match=r"^S point \(1/3, 1\) is outside L$") as err:
        con.planar_family(2, s)
    outside = [p for p in s.points if not t.translations.contains(p)]
    assert len(outside) == 3 and err.value.witness == outside[0]
    bad3 = PointSet([(0, 0), linalg.vadd(b1, b2), b1])
    with pytest.raises(
        InvalidSError, match=r"^edge \(0, 0\)\.\.\(5, 0\) is parallel to no allowed direction$"
    ):
        con.planar_family(2, bad3)


def test_planar_family_names_the_l_point_a_nonconvex_s_misses():
    # S = {o, 2 b1, b2} misses b1, the midpoint of o and 2 b1; the witness is
    # a point of L, by Cramer's rule, in conv(S) but not in S
    t = con.planar_family_tiling(2)
    b1, b2 = t.translations.basis
    pts = [(0, 0), linalg.vscale(2, b1), b2]
    with pytest.raises(InvalidSError, match=r"^S is not L-convex: conv\(S\) holds") as err:
        con.planar_family(2, PointSet(pts))
    w = err.value.witness
    det = b1[0] * b2[1] - b2[0] * b1[1]
    coords = (F(w[0] * b2[1] - b2[0] * w[1], det), F(b1[0] * w[1] - b1[1] * w[0], det))
    assert all(z.denominator == 1 for z in coords)
    assert in_hull_oracle([linalg.vec(p) for p in pts], w)
    assert w not in PointSet(pts)


def test_planar_family_condition_a_holds():
    for k in (1, 2, 3):
        pair = con.planar_family(k)
        assert ti.check_condition_a(pair.s, pair.tiling)


def test_generalized_equals_planar_for_d2():
    for k in (1, 2, 3):
        gen = con.generalized_family(2, k)
        planar = con.planar_family(k)
        assert gen.tiling.tile == planar.tiling.tile
        assert gen.tiling.translations == planar.tiling.translations
        assert gen.s == planar.s


def test_generalized_figure_seven_s():
    pair = con.generalized_family(3, 4)
    expected = PointSet([(0, 0, 0), (5, -1, 0), (4, 1, -1), (4, 0, 1)])
    assert pair.s == expected


def test_generalized_d3_k1_data():
    t = con.generalized_family_tiling(3, 1)
    assert len(t.tile) == 4  # r = dk + 1
    a = (1, 2, 3)
    values = sorted(int(linalg.vdot(linalg.vec(a), p)) for p in t.tile.points)
    assert values == [0, 1, 2, 3]


def assert_hull_supports(k: PointSet):
    """Every facet inequality of conv(K) holds on all of K and is tight on d
    affinely independent vertices, ranked by integer HNF instead of the
    elimination behind the hull; facet_vertex_sets lists the tight ones."""
    poly = k.hull()
    d = poly.ambient
    assert poly.dim == d and set(poly.vertices) <= set(k.points)
    incidences = dict(poly.facet_vertex_sets())
    for a, b in poly.facets():
        assert max(linalg.vdot(a, p) for p in k.points) == b
        tight = tuple(v for v in poly.vertices if linalg.vdot(a, v) == b)
        assert len(linalg.hnf_basis([linalg.vsub(v, tight[0]) for v in tight])) == d - 1
        assert incidences[a] == tight


@pytest.mark.parametrize("d, k", [(5, 1), (5, 2), (6, 1)])
def test_generalized_family_beyond_four_dimensions(d, k):
    # the construction holds for each d >= 3; these reach the hull's
    # generic facet normal, past the closed forms of d = 2 and 3
    pair = con.generalized_family(d, k)
    plus, minus = pair.sum_plus, pair.sum_minus
    assert ps.covariogram(plus) == ps.covariogram(minus)
    assert pair.nontrivial and not ps.trivially_homometric(plus, minus)
    for total in (plus, minus):
        assert ps.is_lattice_convex(total, pair.tiling.ambient)
        assert_hull_supports(total)


def test_generalized_truncated_box():
    pair = con.generalized_family(2, 1, variant="truncated_box", n=2, m=3)
    assert pair.nontrivial
    assert ti.check_condition_a(pair.s, pair.tiling)
    with pytest.raises(InvalidParametersError):
        con.generalized_family(2, 1, variant="truncated_box", n=2, m=4)


def test_generalized_rejects_bad_parameters():
    with pytest.raises(InvalidParametersError):
        con.generalized_family(1, 1)
    with pytest.raises(InvalidParametersError):
        con.generalized_family(3, 0)


def test_cartesian_product_with_trivial_factor():
    # a 1-dimensional factor with centrally symmetric summands is trivial
    one_dim = (
        PointSet([(0,)]),
        ti.verify_tiling(Lattice.standard(1), Lattice([(2,)]), PointSet([(0,), (1,)])),
    )
    planar = con.planar_family(1)
    prod = con.cartesian_product((planar.s, planar.tiling), one_dim)
    assert prod.sum_plus.dim == 3
    assert prod.nontrivial
    both_trivial = con.cartesian_product(one_dim, one_dim)
    assert not both_trivial.nontrivial


def test_cartesian_product_w_set_splits():
    p1, p2 = con.planar_family(1), con.planar_family(2)
    prod = con.cartesian_product((p1.s, p1.tiling), (p2.s, p2.tiling))
    w1 = ti.w_set(p1.tiling.tile, p1.tiling.translations)
    w2 = ti.w_set(p2.tiling.tile, p2.tiling.translations)
    wp = ti.w_set(prod.tiling.tile, prod.tiling.translations)
    zero = (F(0), F(0))
    expected = {tuple(u) + zero for u in w1.vectors} | {
        zero + tuple(u) for u in w2.vectors
    }
    assert set(wp.vectors) == expected


@pytest.mark.parametrize("n,facets", [(1, 5), (2, 7), (3, 9)])
def test_parabola_facet_count(n, facets):
    pair = con.parabola_construction(n)
    assert len(pair.s.hull().facets()) == facets
    assert pair.nontrivial


def test_parabola_passes_condition_b():
    pair = con.parabola_construction(3)
    assert ti.check_condition_b(pair.s, pair.tiling)


def test_parabola_rejects_symmetric_base():
    sym = ti.verify_tiling(
        Lattice.standard(2),
        Lattice([(2, 0), (1, 2)]),
        PointSet([(0, 0), (1, 0), (0, 1), (1, 1)]),
    )
    with pytest.raises(con.InvalidBaseError):
        con.parabola_construction(1, sym)


@pytest.mark.parametrize("d", [3, 4])
def test_counterexample_ab(d):
    s, t = con.counterexample_ab(d)
    assert t.verified
    assert not ti.check_condition_a(s, t)
    assert ti.check_condition_b(s, t)
    u = tuple([1] * d)
    assert ti.width_of(t.tile, u) == F(d, 2)


@pytest.mark.parametrize("d", [3, 4])
def test_counterexample_bc(d):
    s, t = con.counterexample_bc(d)
    assert t.verified
    holds, _ = ti.condition_b_witness(s, t)
    assert not holds
    from homometry.polytope import minkowski_hull

    gap = tuple([d] * d)
    assert contains(minkowski_hull(s.hull(), t.tile.hull()), gap)
    assert gap not in ps.minkowski_sum(s, t.tile)
    if d <= 3:
        assert ti.check_condition_c(s, t)


def test_counterexamples_reject_small_d():
    with pytest.raises(InvalidParametersError):
        con.counterexample_ab(2)
    with pytest.raises(InvalidParametersError):
        con.counterexample_bc(2)


def test_irregular_catalog():
    catalog = con.irregular_examples()
    seg = catalog["segments_1d"]["checks"]
    assert seg["sum_is_direct"]
    assert seg["sum_is_lattice_convex"]
    assert not seg["S_intrinsically_lattice_convex"]
    assert not seg["T_intrinsically_lattice_convex"]
    assert catalog["segments_1d"]["sum"] == PointSet([(x,) for x in range(16)])
    prism = catalog["prism_3d"]["checks"]
    assert prism["sum_is_direct"]
    assert prism["T_lattice_convex"]
    assert prism["sum_plus_lattice_convex"]
    assert prism["sum_minus_lattice_convex"]
    assert not prism["S_intrinsically_lattice_convex"]
    assert prism["pair_nontrivially_homometric"]


def test_truncated_cube_s_builder():
    t = con.planar_family_tiling(2)
    bstar = linalg.dual_basis(t.translations.basis)
    extra = linalg.vadd(bstar[0], bstar[1])
    s = con.build_truncated_cube_s(t.translations, list(bstar), extra, F(1, 2))
    assert not ps.centrally_symmetric(s)
    assert ps.is_lattice_convex(s, t.translations)
    assert ti.check_condition_a(s, t)
    with pytest.raises(InvalidParametersError):
        con.build_truncated_cube_s(t.translations, list(bstar), bstar[0], F(1, 2))
    with pytest.raises(InvalidParametersError):
        con.build_truncated_cube_s(t.translations, list(bstar), extra, 5)


def test_truncated_cube_s_refuses_a_u_basis_outside_the_dual_lattice():
    # the coordinates in Z^2 have determinant 1 but are not integers, and
    # the S it would give holds (0, 1/2), which is not in L
    with pytest.raises(InvalidParametersError, match="u_basis is not a basis of the dual lattice"):
        con.build_truncated_cube_s(
            Lattice.standard(2), [(F(1, 2), 0), (0, 2)], (F(1, 2), 2), F(1, 2)
        )


def oracle_truncated_cube_s(lat, u_basis, u_extra, eps):
    """S from P's vertices clipped in Fractions, cleared of denominators,
    hulled, and scanned for lattice points."""
    d = lat.dim
    u_basis = [vec(u) for u in u_basis]
    dual = lat.dual()
    coords = [dual.coordinates(u) for u in u_basis]
    if abs(linalg.det(mat(coords))) != 1:
        raise InvalidParametersError("u_basis is not a basis of the dual lattice")
    b = linalg.solve(mat(u_basis), vec(u_extra))
    if any(c.denominator != 1 for c in b):
        raise InvalidParametersError("u_extra is not an integer combination of u_basis")
    b = tuple(int(c) for c in b)
    if sum(1 for c in b if c) < 2:
        raise InvalidParametersError("u_extra must not be parallel to a basis vector")
    eps = frac(eps)
    height = sum(abs(c) for c in b)
    if not (0 < eps < height):
        raise InvalidParametersError("eps must lie strictly between 0 and h(C, b)")
    verts = _cut_cube_vertices(d, b, height - eps)
    _, cut_pts = linalg.clear_denominators(verts)
    cut = hull(cut_pts)
    # y-coordinates correspond to the basis dual to u_1..u_d, a basis of L
    basis_cols = transpose(linalg.inverse(mat(u_basis)))
    pts = [mat_vec(basis_cols, y) for y in cut.lattice_points(Lattice.standard(d))]
    return PointSet(pts)


def _cut_cube_vertices(d: int, b, rhs):
    """Vertices of [-1,1]^d intersected with <b, y> <= rhs."""
    cube = list(itertools.product((-1, 1), repeat=d))
    verts = [vec(v) for v in cube if vdot(vec(b), vec(v)) <= rhs]
    for v in cube:
        val = vdot(vec(b), vec(v))
        if val <= rhs:
            continue
        for j in range(d):
            w = list(v)
            w[j] = -w[j]
            wval = vdot(vec(b), vec(w))
            if wval <= rhs and wval != val:
                t = (val - rhs) / (val - wval)
                point = list(vec(v))
                point[j] = v[j] + t * (w[j] - v[j])
                verts.append(tuple(point))
    return verts


def _truncated_cube_draw(rng, lat, coef, eps_pool):
    """(lat, u_basis, u_extra, eps): a sheared, sign-flipped dual basis of L
    and u_extra with coordinates in -coef..coef."""
    d = lat.dim
    u_basis = [linalg.vscale(rng.choice((1, -1)), col) for col in linalg.dual_basis(lat.basis)]
    u_basis[0] = linalg.vadd(u_basis[0], linalg.vscale(rng.randint(-1, 1), u_basis[1]))
    b = [rng.randint(-coef, coef) for _ in range(d)]
    u_extra = tuple(sum(c * u[i] for c, u in zip(b, u_basis)) for i in range(d))
    return lat, u_basis, u_extra, rng.choice(eps_pool)


def _outcome(build, args):
    try:
        return build(*args)
    except HomometryError as e:
        return type(e)


def test_truncated_cube_s_matches_the_clipped_hull_oracle():
    # S has about (2 D + 1)^d points, and D grows with the coefficients of
    # u_extra and the denominator of eps, so both are bounded by dimension
    rng = random.Random(2505)
    tilings = _random_tilings(rng) + [con.generalized_family_tiling(4, 1)]
    small = (F(1, 3), F(1, 2), F(1), F(3, 2))
    draw = {2: (3, small + (F(5, 7),)), 3: (2, small), 4: (1, small)}
    made = 0
    for t in tilings:
        for _ in range(10):
            args = _truncated_cube_draw(rng, t.translations, *draw[t.translations.dim])
            expected = _outcome(oracle_truncated_cube_s, args)
            assert _outcome(con.build_truncated_cube_s, args) == expected, args
            made += not isinstance(expected, type)
    assert made > 100


def test_truncated_cube_s_builds_no_hull(monkeypatch):
    t = con.generalized_family_tiling(3, 2)
    args = _truncated_cube_draw(random.Random(1), t.translations, 2, (F(1, 2),))
    calls = []
    build = polytope.Polytope.hull
    monkeypatch.setattr(
        polytope.Polytope, "hull", staticmethod(lambda k: calls.append(k) or build(k))
    )
    con.build_truncated_cube_s(*args)
    assert calls == []


def test_two_row_tile_has_three_thin_directions():
    # the symmetric two-row tile {0..k} x {0, 1} tiles Z^2 on these bases
    # of determinant 2 (k + 1), and on no other, with at least three
    # pairwise nonparallel thin directions
    expected = {1: [(2, 2, 1), (4, 1, 2)]}
    expected |= {k: [(2 * (k + 1), 1, k + 1)] for k in (2, 3, 4, 5)}
    for k, bases in expected.items():
        tile = PointSet([(x, y) for x in range(k + 1) for y in (0, 1)])
        found = []
        for l, h, s in sublattices_of_z2(2 * (k + 1)):
            base = lattice_from_lhs(l, h, s)
            try:
                ti.verify_tiling(Lattice.standard(2), base, tile)
            except (NotATilingError, NotLatticeConvexError):
                continue
            wset = ti.w_set(tile, base)
            directions = {primitive_integer_direction(u) for u in wset.vectors}
            if len({max(u, tuple(-c for c in u)) for u in directions}) >= 3:
                found.append((l, h, s))
                assert k > 1 or len(wset) >= 6
        assert found == bases
