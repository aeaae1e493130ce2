"""Exact polytopes: hulls, widths, bodies, lattice points, volumes, polars."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homometry import linalg
from homometry.errors import (
    LowerDimensionalError,
    OriginNotInteriorError,
    SingularMatrixError,
)
from homometry.lattice import Lattice
from homometry.polytope import hull

Z1 = Lattice.standard(1)
Z2 = Lattice.standard(2)
Z3 = Lattice.standard(3)


def brute_lattice_points(poly, lat):
    """Independent membership oracle: barycentric test over a bounding box.

    Solves for affine coefficients directly instead of using the facet
    structure, so it exercises a different code path than lattice_points.
    """
    d = poly.ambient
    zs = [linalg.mat_vec(lat.inverse_basis, v) for v in poly.vertices]
    lo = [min(int(z[i].__floor__()) for z in zs) for i in range(d)]
    hi = [max(int(z[i].__ceil__()) for z in zs) for i in range(d)]
    out = []
    for z in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        x = linalg.mat_vec(lat.basis, z)
        if in_hull_oracle(poly.vertices, x):
            out.append(x)
    return sorted(out)


def in_hull_oracle(points, x):
    """x in conv(points): an exact convex combination of at most d + 1 points.

    Tries every subset of size 1..d+1 (Caratheodory): one of them is
    affinely independent and carries x when x is in the hull, and any
    nonnegative solution found on a dependent subset is a valid certificate.
    """
    for size in range(1, len(x) + 2):
        for combo in itertools.combinations(points, size):
            sol = solve_rectangular(
                [tuple(v) + (F(1),) for v in combo], tuple(x) + (F(1),)
            )
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def solve_rectangular(cols, rhs):
    rows = len(rhs)
    n = len(cols)
    aug = [[cols[j][i] for j in range(n)] + [rhs[i]] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [e / pv for e in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i][n] != 0:
            return None
    sol = [F(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = aug[i][n]
    return tuple(sol)


def test_hull_single_point():
    p = hull([(3, 4)])
    assert p.dim == 0 and p.vertices == ((F(3), F(4)),)


def test_hull_drops_interior_points():
    p = hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2))])
    assert len(p.vertices) == 3


def test_hull_two_row_tile():
    p = hull([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    assert set(p.vertices) == {
        (F(0), F(0)),
        (F(2), F(0)),
        (F(0), F(1)),
        (F(1), F(1)),
    }


def test_support():
    assert hull([(2, 5)]).support((3, 1)) == 11
    cube = hull(list(itertools.product((-1, 1), repeat=3)))
    assert cube.support((2, -3, 1)) == 6
    tile = hull([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    assert tile.support((1, 1)) == 2


def test_width():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert sq.width((1, 1)) == 2
    tile = hull([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    assert tile.width((F(1, 5), F(-2, 5))) == F(4, 5)  # dual vector, < 1
    seg = hull([(0, 0), (1, 0)])
    assert seg.width((0, 1)) == 0


def test_difference_body():
    assert hull([(5, -1)]).difference_body().vertices == ((F(0), F(0)),)
    delta = hull([(0, 0), (1, 0), (0, 1)])
    diff = delta.difference_body()
    assert set(diff.vertices) == {
        (F(1), F(0)),
        (F(-1), F(0)),
        (F(0), F(1)),
        (F(0), F(-1)),
        (F(1), F(-1)),
        (F(-1), F(1)),
    }


def test_difference_body_translation_invariant():
    rng = random.Random(2)
    for _ in range(5):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
        p = hull(pts)
        q = p.translate((rng.randint(-3, 3), rng.randint(-3, 3)))
        assert p.difference_body() == q.difference_body()


def test_lattice_points_unit_square():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(sq.lattice_points(Z2)) == 4


def test_lattice_points_segment_16():
    seg = hull([(0,), (15,)])
    pts = seg.lattice_points(Z1)
    assert len(pts) == 16
    assert pts[0] == (F(0),) and pts[-1] == (F(15),)


def test_lattice_points_triangle_matches_oracle():
    tri = hull([(0, 0), (2, -1), (1, 3)])
    assert tri.lattice_points(Z2) == brute_lattice_points(tri, Z2)


def test_lattice_points_general_lattice_oracle():
    rng = random.Random(17)
    for _ in range(8):
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(5)]
        poly = hull(pts)
        while True:
            cols = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
            try:
                lat = Lattice(cols)
                break
            except SingularMatrixError:
                continue
        assert poly.lattice_points(lat) == brute_lattice_points(poly, lat)


def test_lattice_points_lower_dimensional():
    seg = hull([(0, 0, 0), (2, 2, 0)])
    pts = seg.lattice_points(Z3)
    assert pts == [(F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(2), F(2), F(0))]


def test_interior_lattice_points():
    sq = hull([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    assert sq.interior_lattice_points(Z2) == [(F(0), F(0))]
    hexagon = hull([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])
    doubled = hexagon.scale(2)
    inner = doubled.interior_lattice_points(Z2)
    assert set(inner) == {
        (F(0), F(0)),
        (F(1), F(0)),
        (F(-1), F(0)),
        (F(0), F(1)),
        (F(0), F(-1)),
        (F(1), F(1)),
        (F(-1), F(-1)),
    }
    simplex = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert simplex.interior_lattice_points(Z3) == []
    seg = hull([(0, 0), (1, 0)])
    with pytest.raises(LowerDimensionalError):
        seg.interior_lattice_points(Z2)


def test_volume_cubes():
    for d in (1, 2, 3, 4):
        cube = hull(list(itertools.product((0, 1), repeat=d)))
        assert cube.volume() == 1


def test_volume_hexagon_and_polar_12():
    hexagon = hull([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])
    assert hexagon.volume() == 3
    # D(K) for K = half the unit triangle; its polar has volume 12
    delta = hull([(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    dk = delta.difference_body()
    assert dk.polar_body().volume() == 12


def test_volume_translation_and_scaling():
    rng = random.Random(31)
    for d in (2, 3):
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 3)]
        p = hull(pts)
        t = tuple(rng.randint(-5, 5) for _ in range(d))
        assert p.translate(t).volume() == p.volume()
        assert p.scale(3).volume() == 3**d * p.volume()


def test_volume_lower_dimensional_is_zero():
    assert hull([(0, 0), (1, 1)]).volume() == 0
    assert hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)]).volume() == 0


def test_polar_cube_cross():
    cube = hull(list(itertools.product((-1, 1), repeat=3)))
    cross = cube.polar_body()
    assert set(cross.vertices) == {
        tuple(F(s * int(i == j)) for i in range(3)) for j in range(3) for s in (1, -1)
    }


def test_polar_bipolar_identity():
    rng = random.Random(8)
    for _ in range(6):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(8)]
        p = hull(pts + [(1, 0), (-1, 0), (0, 1), (0, -1)])  # force o interior
        assert p.polar_body().polar_body() == p


def test_polar_requires_interior_origin():
    with pytest.raises(OriginNotInteriorError):
        hull([(0, 0), (1, 0), (0, 1)]).polar_body()


def test_width_equals_support_of_difference_body():
    rng = random.Random(12)
    for d in (2, 3):
        pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(6)]
        p = hull(pts)
        diff = p.difference_body()
        for _ in range(8):
            u = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
            assert p.width(u) == diff.support(u)


def test_facets_of_flat_polytope_raise():
    with pytest.raises(LowerDimensionalError):
        hull([(0, 0), (1, 1)]).facets()


def test_facets_are_supporting_and_irredundant():
    rng = random.Random(21)
    for d in (2, 3, 4):
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 5)]
        p = hull(pts)
        if not p.is_full_dimensional():
            continue
        for normal, offset in p.facets():
            values = [linalg.vdot(normal, v) for v in p.vertices]
            assert max(values) == offset
            tight = [v for v in p.vertices if linalg.vdot(normal, v) == offset]
            assert linalg.rank_of(
                [linalg.vsub(t, tight[0]) for t in tight[1:]]
            ) == d - 1


def test_contains():
    tri = hull([(0, 0), (4, 0), (0, 4)])
    assert tri.contains((1, 1))
    assert tri.contains((0, 4))
    assert not tri.contains((3, 3))
    seg = hull([(0, 0), (2, 2)])
    assert seg.contains((1, 1))
    assert not seg.contains((1, 0))


# -- hull against a brute-force oracle ----------------------------------------


def oracle_normal(combo):
    """A normal of the hyperplane through d points of R^d, by cofactors."""
    d = len(combo)
    rows = [linalg.vsub(q, combo[0]) for q in combo[1:]]
    return tuple(
        (-1) ** j * linalg.det(tuple(r[:j] + r[j + 1 :] for r in rows))
        for j in range(d)
    )


def oracle_vertices(points):
    """The points of a set that are not in the hull of the others, sorted."""
    pts = sorted(set(points))
    return tuple(p for p in pts if not in_hull_oracle([q for q in pts if q != p], p))


def oracle_hull(points):
    """(vertices, facets, volume) of a full-dimensional conv(points).

    Facets: the hyperplanes through d affinely independent points with
    every point on one side, as (primitive integer normal, offset).
    Vertices: the points outside the hull of the others.  Volume: cones
    from the vertex centroid c over the facets; the facet's (d-1)-volume
    times its height is (b - <a, c>) / |a_k| times the volume of its
    projection dropping a coordinate k with a_k != 0, found recursively.
    """
    pts = sorted(set(points))
    d = len(pts[0])
    if d == 1:
        lo, hi = pts[0], pts[-1]
        return (lo, hi), [((-1,), -lo[0]), ((1,), hi[0])], hi[0] - lo[0]
    facets = set()
    for combo in itertools.combinations(pts, d):
        normal = oracle_normal(combo)
        if linalg.is_zero(normal):
            continue
        for signed in (normal, linalg.vneg(normal)):
            a = linalg.primitive_integer_direction(signed)
            b = max(linalg.vdot(a, p) for p in pts)
            if linalg.vdot(a, combo[0]) == b:
                facets.add((a, b))
    verts = oracle_vertices(pts)
    centre = linalg.vscale(F(1, len(verts)), tuple(map(sum, zip(*verts))))
    volume = F(0)
    for a, b in facets:
        k = next(i for i, e in enumerate(a) if e)
        face = [p[:k] + p[k + 1 :] for p in verts if linalg.vdot(a, p) == b]
        volume += (b - linalg.vdot(a, centre)) / abs(a[k]) * oracle_hull(face)[2]
    return verts, sorted(facets), volume / d


SIZES = {1: 6, 2: 9, 3: 7, 4: 6}  # points per dimension, to keep the oracle quick


@st.composite
def rational_point_sets(draw):
    """Rational points in d = 1..4 with mixed denominators.

    Coordinates may be shifted past 2**64; one set in five is flat, on the
    hyperplane x_d = <c, x'> + c0 with rational c.
    """
    d = draw(st.integers(1, 4))
    dens = draw(st.sampled_from([(1,), (2, 3), (1, 5, 7), (4, 6)]))
    coord = st.builds(F, st.integers(-5, 5), st.sampled_from(dens))
    n = draw(st.integers(d + 1, SIZES[d]))
    flat = draw(st.integers(0, 4)) == 0
    width = d - 1 if flat else d
    pts = draw(st.lists(st.tuples(*[coord] * width), min_size=n, max_size=n))
    if flat:
        c = draw(st.tuples(*[coord] * width))
        c0 = draw(coord)
        pts = [p + (linalg.vdot(c, p) + c0,) for p in pts]
    shift = draw(st.sampled_from([0, 2**64 + 1, -(2**70)]))
    return [tuple(x + shift for x in p) for p in pts]


def boundary_points(verts, facets):
    """Points on edges and facets: midpoints of two facet vertices, and the
    centroid of a facet's vertices, for the first three facets."""
    extra = []
    for a, b in facets[:3]:
        tight = [v for v in verts if linalg.vdot(a, v) == b]
        extra.append(linalg.vscale(F(1, 2), linalg.vadd(tight[0], tight[-1])))
        extra.append(linalg.vscale(F(1, len(tight)), tuple(map(sum, zip(*tight)))))
    return extra


@settings(max_examples=150, deadline=None)
@given(rational_point_sets())
def test_hull_matches_brute_force_oracle(points):
    pts = [linalg.vec(p) for p in points]
    d = len(pts[0])
    rank = linalg.rank_of([linalg.vsub(p, pts[0]) for p in pts])
    if rank < d:  # the flat sets, and random points that happen to be flat
        p = hull(pts)
        assert p.dim == rank
        assert p.vertices == oracle_vertices(pts)
        assert p.volume() == 0
        with pytest.raises(LowerDimensionalError):
            p.facets()
        return
    verts, facets, volume = oracle_hull(pts)
    for inputs in (pts, pts + boundary_points(verts, facets)):
        p = hull(inputs)
        assert p.dim == d
        assert p.vertices == verts
        assert list(p.facets()) == facets
        assert p.volume() == volume
