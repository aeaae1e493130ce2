"""Exact polytopes: hulls, widths, bodies, lattice points, polars, and volumes
read off the facets of a hull."""

import itertools
import math
import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homometry import linalg, pointset, polytope, tiling as ti
from homometry._kernels import box_scan
from homometry.errors import LowerDimensionalError, SingularMatrixError
from homometry.lattice import Lattice
from homometry.pointset import PointSet
from homometry.polytope import Polytope, hull
from .test_linalg import primitive_integer_direction

Z1 = Lattice.standard(1)
Z2 = Lattice.standard(2)
Z3 = Lattice.standard(3)


def difference_body(p):
    """D(P) = P - P, the hull of the pairwise differences of P's vertices."""
    vs = p.vertex_set
    return hull([linalg.vsub(u, v) for u in vs.points for v in vs.points])


def polar(p, c=1):
    """c P° = {x : <x, y> <= c for all y in P}, for P full-dimensional with o
    inside: the hull of c a / b over the facets <a, x> <= b of P."""
    return hull([linalg.vscale(F(c) / b, a) for a, b in p.facets()])


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


def as_points(scan):
    """A lattice scan's points as a sorted list, [] for None (no lattice point)."""
    return [] if scan is None else list(scan)


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


def test_width():
    sq = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert ti.width_of(sq, (1, 1)) == 2
    tile = PointSet([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    assert ti.width_of(tile, (F(1, 5), F(-2, 5))) == F(4, 5)  # dual vector, < 1
    seg = PointSet([(0, 0), (1, 0)])
    assert ti.width_of(seg, (0, 1)) == 0


def test_difference_body():
    assert difference_body(hull([(5, -1)])).vertices == ((F(0), F(0)),)
    delta = hull([(0, 0), (1, 0), (0, 1)])
    diff = difference_body(delta)
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
        q = hull(p.vertex_set.translate((rng.randint(-3, 3), rng.randint(-3, 3))))
        assert difference_body(p) == difference_body(q)


def test_lattice_points_unit_square():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(sq.lattice_points(Z2)) == 4


def test_lattice_points_segment_16():
    seg = hull([(0,), (15,)])
    pts = seg.lattice_points(Z1)
    assert len(pts) == 16
    assert pts.points[0] == (F(0),) and pts.points[-1] == (F(15),)


def test_lattice_points_triangle_matches_oracle():
    tri = hull([(0, 0), (2, -1), (1, 3)])
    assert list(tri.lattice_points(Z2)) == brute_lattice_points(tri, Z2)


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
        assert as_points(poly.lattice_points(lat)) == brute_lattice_points(poly, lat)


def test_lattice_points_lower_dimensional():
    seg = hull([(0, 0, 0), (2, 2, 0)])
    pts = seg.lattice_points(Z3)
    assert list(pts) == [(F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(2), F(2), F(0))]


def test_an_empty_scan_is_none():
    # no lattice point at all: a segment and a triangle strictly between
    # lattice points, and a triangle of points of Z^2 that holds none of 2 Z^2
    assert hull([(F(1, 3),), (F(2, 3),)]).lattice_points(Z1) is None
    inside = hull([(F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))])
    assert inside.lattice_points(Z2) is None
    assert hull([(1, 0), (0, 1), (1, 1)]).lattice_points(Lattice([(2, 0), (0, 2)])) is None


def test_a_scan_is_the_point_set_of_its_points():
    # the PointSet's (den, ints) are those of PointSet(oracle), also for
    # lattices whose integer basis needs a denominator F > 1
    rng = random.Random(29)
    fine = Lattice([(F(1, 2), 0), (F(1, 3), F(1, 5))])
    assert fine.integer_basis[0] == 30
    nonempty = 0
    for lat in [Z2, fine, Lattice([(F(2, 3), F(1, 3)), (0, 2)])]:
        for _ in range(6):
            poly = hull([(F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 3)) for _ in range(5)])
            oracle = brute_lattice_points(poly, lat)
            scan = poly.lattice_points(lat)
            if not oracle:
                assert scan is None
                continue
            assert isinstance(scan, PointSet)
            assert (scan.den, scan.ints) == (PointSet(oracle).den, PointSet(oracle).ints)
            assert list(scan) == oracle
            nonempty += 1
    assert nonempty >= 12


def hull_volume(p):
    """The volume of a polytope, 0 when it is flat, read off its facets: cones
    from the vertex centroid c over the facets.  A facet with primitive
    normal a, on <a, x> = b, has (d-1)-volume times height equal to
    (b - <a, c>) / |a_k| times the volume of its projection dropping a
    coordinate k with a_k != 0, found recursively, as in `oracle_hull`."""
    verts, d = p.vertices, p.ambient
    if not p.is_full_dimensional():
        return F(0)
    if d == 1:
        return verts[-1][0] - verts[0][0]
    centre = linalg.vscale(F(1, len(verts)), tuple(map(sum, zip(*verts))))
    volume = F(0)
    for a, face in p.facet_vertex_sets():
        k = next(i for i, e in enumerate(a) if e)
        projected = hull([v[:k] + v[k + 1 :] for v in face])
        height = linalg.vdot(a, face[0]) - linalg.vdot(a, centre)
        volume += height / abs(a[k]) * hull_volume(projected)
    return volume / d


def test_volume_cubes():
    for d in (1, 2, 3, 4):
        cube = hull(list(itertools.product((0, 1), repeat=d)))
        assert hull_volume(cube) == 1


def test_volume_hexagon_and_polar_12():
    hexagon = hull([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])
    assert hull_volume(hexagon) == 3
    # D(K) for K = half the unit triangle; its polar has volume 12
    delta = hull([(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    assert hull_volume(polar(difference_body(delta))) == 12


def test_volume_translation_and_scaling():
    rng = random.Random(31)
    for d in (2, 3):
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 3)]
        p = hull(pts)
        t = tuple(rng.randint(-5, 5) for _ in range(d))
        assert hull_volume(hull(p.vertex_set.translate(t))) == hull_volume(p)
        scaled = hull([linalg.vscale(3, v) for v in p.vertices])
        assert hull_volume(scaled) == 3**d * hull_volume(p)


def test_volume_lower_dimensional_is_zero():
    assert hull_volume(hull([(0, 0), (1, 1)])) == 0
    assert hull_volume(hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])) == 0


def test_polar_cube_cross():
    cube = hull(list(itertools.product((-1, 1), repeat=3)))
    cross = polar(cube)
    assert set(cross.vertices) == {
        tuple(F(s * int(i == j)) for i in range(3)) for j in range(3) for s in (1, -1)
    }


def test_polar_bipolar_identity():
    rng = random.Random(8)
    for _ in range(6):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(8)]
        p = hull(pts + [(1, 0), (-1, 0), (0, 1), (0, -1)])  # force o interior
        assert polar(polar(p)) == p


def test_width_equals_support_of_difference_body():
    rng = random.Random(12)
    for d in (2, 3):
        pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(6)]
        k = PointSet(pts)
        diff = difference_body(k.hull())
        for _ in range(8):
            u = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
            assert ti.width_of(k, u) == max(linalg.vdot(u, v) for v in diff.vertices)


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
    assert contains(tri, (1, 1))
    assert contains(tri, (0, 4))
    assert not contains(tri, (3, 3))
    seg = hull([(0, 0), (2, 2)])
    assert contains(seg, (1, 1))
    assert not contains(seg, (1, 0))


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
            a = primitive_integer_direction(signed)
            b = max(linalg.vdot(a, p) for p in pts)
            if linalg.vdot(a, combo[0]) == b:
                facets.add((a, b))
    verts = oracle_vertices(pts)
    centre = linalg.vscale(F(1, len(verts)), tuple(map(sum, zip(*verts))))
    volume = F(0)
    for a, b in facets:
        k = next(i for i, e in enumerate(a) if e)
        face = [p[:k] + p[k + 1 :] for p in verts if linalg.vdot(a, p) == b]
        volume += (b - linalg.vdot(a, centre)) / abs(a[k]) * oracle_volume(face)
    return verts, sorted(facets), volume / d


def oracle_volume(points):
    """Volume of a full-dimensional conv(points): |det| / d! of the edges
    for a simplex, else by `oracle_hull`'s cones."""
    d = len(points[0])
    if len(points) == d + 1:
        edges = tuple(linalg.vsub(q, points[0]) for q in points[1:])
        return abs(linalg.det(edges)) / math.factorial(d)
    return oracle_hull(points)[2]


SIZES = {1: 6, 2: 9, 3: 7, 4: 6, 5: 7}  # points per dimension, to keep the oracle quick


@st.composite
def rational_point_sets(draw):
    """Rational points in d = 1..5 with mixed denominators.

    Coordinates may be shifted past 2**64; one set in five is flat, on the
    hyperplane x_d = <c, x'> + c0 with rational c.
    """
    d = draw(st.integers(1, 5))
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
        assert hull_volume(p) == 0
        with pytest.raises(LowerDimensionalError):
            p.facets()
        return
    verts, facets, volume = oracle_hull(pts)
    for inputs in (pts, pts + boundary_points(verts, facets)):
        p = hull(inputs)
        assert p.dim == d
        assert p.vertices == verts
        assert list(p.facets()) == facets
        assert p.facet_vertex_sets() == tuple(
            (a, tuple(v for v in verts if linalg.vdot(a, v) == b)) for a, b in facets
        )
        assert hull_volume(p) == volume


@pytest.mark.parametrize("shift", [0, 2**64 + 1, -(2**70)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hull_of_a_grid_with_coplanar_points(d, shift):
    """The grid {0, 1, 2}^d, shifted, with points on its facets added: most
    points lie on a facet's hyperplane, so most new facets are coplanar
    with the kept facet of their ridge."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    verts = [tuple(c + shift for c in p) for p in itertools.product((0, 2), repeat=d)]
    facets = sorted(
        [(u, sum(u) * (2 + shift)) for u in units] + [(linalg.vneg(u), -shift) for u in units]
    )
    grid = [tuple(F(c + shift) for c in p) for p in itertools.product(range(3), repeat=d)]
    p = hull(grid + boundary_points(verts, facets))
    assert p.vertices == tuple(sorted(verts))
    assert list(p.facets()) == facets
    assert hull_volume(p) == 2**d


# -- vertices and incidences against the former plane scan -----------------


def vertices_from_hyperplanes(ipts, planes, d):
    """The hull's former vertex rule, kept as an oracle: the extreme points
    among the sorted integer points `ipts`, those whose tight facet normals
    span R^d, and the positions in that list of the extreme points on each
    of the integer facets `planes`.
    """
    verts = []
    on_plane = [[] for _ in planes]
    for q in ipts:
        tight = [k for k, (a, b) in enumerate(planes) if sum(map(mul, a, q)) == b]
        if len(tight) >= d and linalg.rank_of([planes[k][0] for k in tight]) == d:
            for k in tight:
                on_plane[k].append(len(verts))
            verts.append(q)
    return verts, tuple(map(tuple, on_plane))


@st.composite
def boundary_heavy_sets(draw):
    """Full-dimensional sets in d = 1..5 with most points on the boundary: a
    grid of 2 or 3 points a side (3 on at most 6 - d sides, so that d = 4, 5
    have points inside edges) with a rational step, up to four rational
    points around it, and the hull oracle's shifts."""
    d = draw(st.integers(1, 5))
    step = draw(st.sampled_from([1, F(1, 2), F(2, 3)]))
    sides = [draw(st.integers(1, 2)) if i < 6 - d else 1 for i in range(d)]
    grid = [tuple(step * c for c in p) for p in itertools.product(*[range(n + 1) for n in sides])]
    coord = st.builds(F, st.integers(-3, 9), st.sampled_from([1, 2, 3, 5]))
    extra = draw(st.lists(st.tuples(*[coord] * d), max_size=4))
    shift = draw(st.sampled_from([0, 2**64 + 1, -(2**70)]))
    return [tuple(x + shift for x in p) for p in grid + extra]


@settings(max_examples=150, deadline=None)
@given(boundary_heavy_sets())
def test_vertices_and_incidences_match_the_plane_scan(points):
    k = PointSet(points)
    p = hull(k)
    planes = [(a, int(b * k.den)) for a, b in p._data["hyps"]]  # <a, D x> <= D b
    verts, on_plane = vertices_from_hyperplanes(k.ints, planes, k.dim)
    expected = PointSet.from_scaled(verts, k.den)
    assert p.vertex_set == expected
    assert p.facet_vertex_sets() == tuple(
        (a, tuple(expected.points[j] for j in f)) for (a, _), f in zip(planes, on_plane)
    )


def counted_ranks(monkeypatch):
    """The ranks `linalg.rank_of` returns from now on, in call order."""
    ranks = []
    rank_of = linalg.rank_of

    def counted(vectors):
        ranks.append(rank_of(vectors))
        return ranks[-1]

    monkeypatch.setattr(linalg, "rank_of", counted)
    return ranks


def test_hulls_in_d_up_to_3_take_no_rank(monkeypatch):
    # in d <= 3 a point inside a face of dimension >= 1 lies on at most two
    # facets, so a point on d distinct facet planes is a vertex: grids with
    # points inside their edges and facets, and rational points around them,
    # keep the plane scan's vertices and incidences without a rank
    rng = random.Random(26)
    ranks = counted_ranks(monkeypatch)
    for d in (1, 2, 3):
        for _ in range(40):
            step = rng.choice([1, F(1, 2), F(2, 3)])
            grid = [tuple(step * c for c in p) for p in itertools.product(range(3), repeat=d)]
            extra = [tuple(F(rng.randint(-3, 9), rng.choice([1, 2, 3])) for _ in range(d))]
            k = PointSet(grid + extra * rng.randint(0, 1))
            before = len(ranks)
            p = hull(k)
            assert len(ranks) == before
            planes = [(a, int(b * k.den)) for a, b in p._data["hyps"]]
            verts, on_plane = vertices_from_hyperplanes(k.ints, planes, d)
            expected = PointSet.from_scaled(verts, k.den)
            assert p.vertex_set == expected
            assert p.facet_vertex_sets() == tuple(
                (a, tuple(expected.points[j] for j in f)) for (a, _), f in zip(planes, on_plane)
            )


def test_a_point_inside_an_edge_of_a_4_polytope_fails_the_rank_test(monkeypatch):
    # the pyramid with apex (0, 0, 0, 2) over the octahedron ±2 e_i: the
    # midpoint of an apex edge lies on the four facets through that edge,
    # d of them, but their normals have rank 3
    apex = (0, 0, 0, 2)
    base = [tuple(2 * s * (i == j) for j in range(3)) + (0,) for i in range(3) for s in (1, -1)]
    mids = [tuple((a + b) // 2 for a, b in zip(apex, q)) for q in base]
    ranks = counted_ranks(monkeypatch)
    p = hull(base + [apex] + mids)
    assert p.vertices == tuple(sorted(linalg.vec(q) for q in base + [apex]))
    assert sorted(len(vs) for _, vs in p.facet_vertex_sets()) == [4] * 8 + [6]
    assert 3 in ranks


# -- the plane's monotone chain against beneath-beyond ----------------------


def planar_draws(rng):
    """A planar set, of rank 2 but for rare draws, and its ambient
    dimension: rational points with repeats, a grid with points inside its
    edges and a rational point or two, or such a set mapped into a plane of
    R^3 by two rational directions; some are shifted past 2**64."""
    coord = lambda: F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 6]))
    if rng.random() < 0.5:
        pts = [(coord(), coord()) for _ in range(rng.randint(3, 12))]
        pts += rng.sample(pts, rng.randint(0, 3))
    else:
        step = rng.choice([1, F(1, 2), F(2, 3)])
        a, b = rng.randint(1, 4), rng.randint(1, 3)
        pts = [(step * x, step * y) for x in range(a + 1) for y in range(b + 1)]
        pts += [(coord(), coord()) for _ in range(rng.randint(0, 2))]
    shift = rng.choice([0, 0, 2**64 + 1, F(-(2**70), 3)])
    if rng.random() < 0.4:
        base = [coord() + shift for _ in range(3)]
        u, v = [coord() for _ in range(3)], [coord() for _ in range(3)]
        lifted = [tuple(c + x * e + y * f for c, e, f in zip(base, u, v)) for x, y in pts]
        return lifted, 3
    return [(x + shift, y + shift) for x, y in pts], 2


def beneath_beyond_plane(k):
    """`_hull_full_dim` on a two-dimensional planar set, on its first frame."""
    p0 = k.ints[0]
    frame = linalg.independent_subset([tuple(c - z for c, z in zip(p, p0)) for p in k.ints])
    return polytope._hull_full_dim(k, [0] + frame)


def test_planar_hulls_match_beneath_beyond(monkeypatch):
    rng = random.Random(27)
    checked = {2: 0, 3: 0}
    for _ in range(400):
        pts, d = planar_draws(rng)
        k = PointSet(pts)
        p = hull(k)
        if p.dim < 2:
            continue
        if d == 2:
            oracle = beneath_beyond_plane(k)
            assert p.facet_vertex_sets() == oracle.facet_vertex_sets()
        else:
            with monkeypatch.context() as m:  # the flat branch lifts beneath-beyond's hull
                m.setattr(polytope, "_hull_plane", beneath_beyond_plane)
                oracle = hull(k)
        assert p.dim == 2 and p.ambient == d
        assert p.vertices == oracle.vertices
        assert p.constraint_system() == oracle.constraint_system()
        checked[d] += 1
    assert min(checked.values()) > 100


def test_planar_hulls_solve_no_system(monkeypatch):
    # the ring's edges give every normal; the first simplex's inverse is
    # taken only off the plane
    calls = []
    solve_scaled = linalg.solve_scaled
    monkeypatch.setattr(
        linalg, "solve_scaled", lambda m, rhs: calls.append(m) or solve_scaled(m, rhs)
    )
    rng = random.Random(5)
    for _ in range(100):
        pts, _ = planar_draws(rng)
        before = len(calls)
        if hull(pts).dim == 2:
            assert len(calls) == before, pts
    hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert calls


# -- the planar Minkowski sum as a merge of edge cycles ---------------------

DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 3)]


@st.composite
def planar_summands(draw):
    """A point, a segment, a collinear set or a random set (often a polygon)
    over a rational denominator, on a small grid so that the two summands
    often have parallel edges, and shifted past 2**64 at times."""
    den = draw(st.sampled_from([1, 2, 3, 7]))
    kind = draw(st.sampled_from(["point", "segment", "collinear", "grid", "grid", "grid"]))
    small = st.integers(-4, 4)
    base = draw(st.tuples(small, small))
    if kind == "point":
        pts = [base]
    elif kind == "grid":
        pts = draw(st.lists(st.tuples(small, small), min_size=3, max_size=9))
    else:
        dx, dy = draw(st.sampled_from(DIRECTIONS))
        size = 2 if kind == "segment" else draw(st.integers(3, 5))
        steps = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size, unique=True))
        pts = [(base[0] + t * dx, base[1] + t * dy) for t in steps]
    sx, sy = draw(st.sampled_from([(0, 0), (0, 0), (2**64 + 1, -(2**65)), (-(2**70), 3)]))
    return PointSet([(F(x, den) + sx, F(y, den) + sy) for x, y in pts])


@settings(max_examples=400, deadline=None)
@given(planar_summands(), planar_summands())
def test_planar_minkowski_hull_matches_the_vertex_sum_hull(k, q):
    p_hull, q_hull = k.hull(), q.hull()
    got = polytope.minkowski_hull(p_hull, q_hull)
    oracle = Polytope.hull(pointset._sum(p_hull.vertex_set, q_hull.vertex_set))
    assert got.vertex_set == oracle.vertex_set
    assert (got.ambient, got.dim) == (oracle.ambient, oracle.dim)
    assert got.constraint_system() == oracle.constraint_system()
    if oracle.dim == 2:
        assert got.facet_vertex_sets() == oracle.facet_vertex_sets()


@pytest.mark.parametrize(
    "k, q, hulls",
    [
        ([(0, 0), (3, 0), (0, 2), (F(1, 2), 1)], [(0, 0), (1, 1), (2, 0), (1, -1)], 0),
        ([(0, 0), (2, 0), (2, 1), (0, 1)], [(0, 0), (1, 0), (0, 1)], 0),  # parallel edges
        ([(0, 0), (1, 2)], [(0, 0), (F(3, 2), 0)], 0),  # two segments
        ([(5, 5)], [(0, 0), (1, 0), (0, 1)], 0),  # a point and a triangle
        ([(0, 0), (1, 1)], [(0, 0), (2, 2), (3, 3)], 1),  # a flat sum
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 0), (1, 1, 1)], 1),
    ],
)
def test_a_two_dimensional_planar_sum_is_merged_without_a_hull(monkeypatch, k, q, hulls):
    p_hull, q_hull = PointSet(k).hull(), PointSet(q).hull()
    calls = []
    build = Polytope.hull
    monkeypatch.setattr(Polytope, "hull", staticmethod(lambda pts: calls.append(pts) or build(pts)))
    got = polytope.minkowski_hull(p_hull, q_hull)
    assert len(calls) == hulls
    monkeypatch.undo()
    assert got.vertex_set == Polytope.hull(pointset._sum(p_hull.vertex_set, q_hull.vertex_set)).vertex_set


def test_minkowski_hull_refuses_polytopes_of_different_dimensions():
    # a point of R^2 and one of R^3 have no sum, nor do a square and a cube
    point2, point3 = hull([(0, 0)]), hull([(0, 0, 0)])
    square = hull(itertools.product((0, 1), repeat=2))
    cube = hull(itertools.product((0, 1), repeat=3))
    for p, q in [(point2, point3), (square, cube), (cube, square)]:
        dims = f"{p.ambient} and {q.ambient}"
        with pytest.raises(ValueError, match=f"^cannot add polytopes of dimensions {dims}$"):
            polytope.minkowski_hull(p, q)


# -- the integer lattice scan against the former Fraction scan --------------


def fraction_lattice_scan(vertices, system, lat):
    """The former Polytope._lattice_scan: Fraction box, rows and map-back,
    over the constraint system (eqs, ineqs) of conv(vertices)."""
    d = len(vertices[0])
    zverts = [linalg.mat_vec(lat.inverse_basis, v) for v in vertices]
    lo = [min(z[i].__floor__() for z in zverts) for i in range(d)]
    hi = [max(z[i].__ceil__() for z in zverts) for i in range(d)]
    eqs, ineqs = system

    def integer_rows(system):
        rows, rhss = [], []
        for r, rhs in system:
            _, (irow,) = linalg.clear_denominators(
                [[linalg.vdot(r, col) for col in lat.basis] + [rhs]]
            )
            rows.append(irow[:-1])
            rhss.append(irow[-1])
        return rows, rhss

    eq_rows, eq_rhs = integer_rows(eqs)
    le_rows, le_rhs = integer_rows(ineqs)
    pts = box_scan(lo, hi, eq_rows, eq_rhs, le_rows, le_rhs)
    return sorted(linalg.mat_vec(lat.basis, z) for z in pts)


def fraction_flat_hull(points):
    """The former hull of flat input: (vertices, (eqs, ineqs)) in Fractions.

    A point p gives x_i = p_i.  Otherwise the differences from the first
    point are reduced to exact coordinates on their span
    (`linalg.span_coordinates`), hulled there, and each reduced facet
    <f, lam> <= gamma is lifted back through the inverse of the span's
    invertible block of rows.  The equalities say that x - p0 is the span
    combination of its own entries at that block.
    """
    pts = sorted(set(linalg.vec(p) for p in points))
    d, p0 = len(pts[0]), pts[0]
    units = [tuple(F(int(i == j)) for j in range(d)) for i in range(d)]
    if len(pts) == 1:
        return tuple(pts), (tuple(zip(units, p0)), ())
    diffs = [linalg.vsub(p, p0) for p in pts]
    dirs = tuple(diffs[i] for i in linalg.independent_subset(diffs))
    rows, inv, coords = linalg.span_coordinates(dirs, diffs)
    reduced = hull(coords)
    verts = tuple(sorted(pts[coords.index(v)] for v in reduced.vertices))
    ineqs = []
    for f, gamma in reduced.facets():
        coeff = linalg.mat_vec(linalg.transpose(inv), f)
        row = [F(0)] * d
        for pos, c in zip(rows, coeff):
            row[pos] = c
        ineqs.append((tuple(row), gamma + linalg.vdot(row, p0)))
    images = [linalg.mat_vec(dirs, col) for col in inv]
    eqs = []
    for i in range(d):
        if i not in rows:
            row = list(units[i])
            for pos, image in zip(rows, images):
                row[pos] -= image[i]
            eqs.append((tuple(row), linalg.vdot(row, p0)))
    return verts, (tuple(eqs), tuple(ineqs))


def satisfies(system, x):
    eqs, ineqs = system
    return all(linalg.vdot(r, x) == b for r, b in eqs) and all(
        linalg.vdot(r, x) <= b for r, b in ineqs
    )


def contains(poly, x):
    """Whether x is in the polytope, read off its constraint system."""
    return satisfies(poly.constraint_system(), x)


def sheared_lattice(draw, d):
    """(1/q) Z^d for q in 1..3, each basis column sheared by up to 3 times the one before."""
    q = draw(st.sampled_from([1, 2, 3]))
    cols = [[F(int(i == j), q) for i in range(d)] for j in range(d)]
    for j in range(1, d):
        k = draw(st.integers(-3, 3))
        cols[j] = [a + k * b for a, b in zip(cols[j], cols[j - 1])]
    return Lattice(cols)


@st.composite
def polytopes_and_lattices(draw):
    """Hulls of up to 7 points in d = 1..3 with mixed denominators, some flat,
    some past 2**64, and a sheared lattice (1/q) Z^d."""
    d = draw(st.integers(1, 3))
    dens = draw(st.sampled_from([(1,), (2, 3), (1, 5, 7), (4, 6)]))
    coord = st.builds(F, st.integers(-4, 4), st.sampled_from(dens))
    flat = d > 1 and draw(st.integers(0, 3)) == 0
    width = d - 1 if flat else d
    pts = draw(st.lists(st.tuples(*[coord] * width), min_size=1, max_size=7))
    if flat:
        c = draw(st.tuples(*[coord] * width))
        pts = [p + (linalg.vdot(c, p),) for p in pts]
    shift = draw(st.sampled_from([0, 2**64 + 1, F(-(2**70), 3)]))
    poly = hull([tuple(x + shift for x in p) for p in pts])
    return poly, sheared_lattice(draw, d)


@settings(max_examples=150, deadline=None)
@given(polytopes_and_lattices())
def test_lattice_scan_matches_fraction_scan(case):
    poly, lat = case
    full = poly.is_full_dimensional()
    system = poly.constraint_system() if full else fraction_flat_hull(poly.vertices)[1]
    scan = as_points(poly.lattice_points(lat))
    assert scan == fraction_lattice_scan(poly.vertices, system, lat)


@st.composite
def flat_point_sets(draw):
    """Points of rank 0..d-1 in d = 2..4: a base point plus small integer
    combinations of rank-many rational directions, denominators 1..6, some
    shifted past 2**64."""
    d = draw(st.integers(2, 4))
    rank = draw(st.integers(0, d - 1))
    coord = st.builds(F, st.integers(-3, 3), st.integers(1, 6))
    base = draw(st.tuples(*[coord] * d))
    dirs = draw(st.lists(st.tuples(*[coord] * d), min_size=rank, max_size=rank))
    combos = st.tuples(*[st.integers(-2, 2)] * rank)
    pts = []
    for cs in draw(st.lists(combos, min_size=1, max_size=6)):
        pts.append(tuple(b + sum(c * v[i] for c, v in zip(cs, dirs)) for i, b in enumerate(base)))
    shift = draw(st.sampled_from([0, 2**64 + 1, F(-(2**70), 3)]))
    return [tuple(x + shift for x in p) for p in pts], sheared_lattice(draw, d)


@settings(max_examples=150, deadline=None)
@given(flat_point_sets(), st.data())
def test_flat_hull_matches_fraction_lifting(case, data):
    pts, lat = case
    poly = hull(pts)
    verts, system = fraction_flat_hull(pts)
    assert not poly.is_full_dimensional()
    assert poly.vertices == verts
    # probes: the vertices, their midpoints and the centroid, each also moved
    # by a rational combination of vertex differences, which stays in the
    # plane and may leave the hull, and by a step that may leave the plane
    probes = list(verts) + [linalg.vscale(F(1, len(verts)), tuple(map(sum, zip(*verts))))]
    probes += [linalg.vscale(F(1, 2), linalg.vadd(u, v)) for u, v in zip(verts, verts[1:])]
    small = st.builds(F, st.integers(-3, 3), st.integers(1, 6))
    edges = [linalg.vsub(v, verts[0]) for v in verts[1:]]
    for p in list(probes):
        moved = p
        for e in edges:
            moved = linalg.vadd(moved, linalg.vscale(data.draw(small), e))
        probes.append(moved)
        probes.append(linalg.vadd(p, data.draw(st.tuples(*[small] * len(p)))))
    for x in probes:
        assert contains(poly, x) == satisfies(system, x)
    scan = as_points(poly.lattice_points(lat))
    assert scan == fraction_lattice_scan(verts, system, lat)


def three_pass_hull(points):
    """The former lower-dimensional `Polytope.hull`: (vertices, constraint
    system) from three eliminations, `independent_subset` of the
    differences for the frame, `independent_subset` of the frame's
    transpose for the coordinates, and `nullspace` of the frame for the
    equalities; a single point p gives x_i = p_i with no elimination."""
    k = PointSet(points)
    ints, den, d = k.ints, k.den, k.dim
    p0 = ints[0]
    if len(ints) == 1:
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        return k.points, (tuple((u, F(c, den)) for u, c in zip(units, p0)), ())
    diffs = [tuple(c - z for c, z in zip(p, p0)) for p in ints]
    dirs = tuple(diffs[i] for i in linalg.independent_subset(diffs))
    cols = linalg.independent_subset(tuple(zip(*dirs)))
    projected = [tuple(p[i] for i in cols) for p in ints]
    flat = hull(PointSet.from_scaled(projected))
    index = dict(zip(projected, ints))
    verts = PointSet.from_scaled([index[v] for v in flat.vertex_set.ints], den)
    ineqs = []
    for a, b in flat.constraint_system()[1]:
        row = [0] * d
        for i, c in zip(cols, a):
            row[i] = c
        ineqs.append((tuple(row), b / den))
    eqs = tuple((n, F(sum(map(mul, n, p0)), den)) for n in linalg.nullspace(dirs))
    return verts.points, (eqs, tuple(ineqs))


@settings(max_examples=150, deadline=None)
@given(flat_point_sets())
def test_flat_hulls_match_the_three_pass_frame(case):
    pts, _ = case
    p = hull(pts)
    assert (p.vertices, p.constraint_system()) == three_pass_hull(pts)


@pytest.mark.parametrize(
    "point", [(), (F(-7, 2),), (3, 4), (F(1, 2), 2**64 + 1, F(-(2**70), 3)), (0, 0, 0, 5)]
)
def test_a_point_matches_the_three_pass_frame(point):
    p = hull([point])
    assert p.dim == 0 and p.ambient == len(point)
    assert (p.vertices, p.constraint_system()) == three_pass_hull([point])


def test_a_flat_hull_runs_one_elimination(monkeypatch):
    # the frame, the coordinates and the equalities all come off the pass
    # over the differences; in the plane, and for a point, nothing else
    # eliminates
    calls = []
    for name in ("independent_subset", "nullspace", "_gauss_jordan"):
        run = getattr(linalg, name)
        counted = lambda *args, run=run, name=name: calls.append(name) or run(*args)
        monkeypatch.setattr(linalg, name, counted)
    for pts in (
        [(1, 2, 3)],
        [(F(1, 2), 0, 0, 1)],
        [(0, 0, 0), (1, 2, 1), (3, 6, 3), (1, 0, 2), (2, 2, 3)],
        [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 2)],
    ):
        calls.clear()
        assert hull(pts).dim in (0, 2)
        assert calls == ["_gauss_jordan"], pts
    for pts in (
        [(0, 0, 0), (1, 2, 3), (3, 6, 9)],
        [(0, 0, 0, 0), (2, 0, 0, 2), (0, 2, 0, 2), (0, 0, 2, 2)],
    ):
        calls.clear()
        assert not hull(pts).is_full_dimensional()
        assert "independent_subset" not in calls and "nullspace" not in calls, pts


def test_a_flat_hull_is_one_hull_call(monkeypatch):
    calls = []
    build = Polytope.hull
    monkeypatch.setattr(Polytope, "hull", staticmethod(lambda k: calls.append(k) or build(k)))
    p = hull([(0, 0, 0), (1, 2, 1), (3, 6, 3), (1, 0, 2), (2, 2, 3)])
    assert p.dim == 2 and len(p.vertices) == 4
    assert len(calls) == 1
