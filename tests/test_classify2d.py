"""The planar classification search and unimodular tile equivalence."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from homometry import classify2d as cl
from homometry import _kernels, linalg, tiling as ti
from homometry._kernels import box_scan, planar_width, search_base_raw
from homometry.cli import main
from homometry.errors import InvariantError, LowerDimensionalError
from homometry.lattice import Lattice, lattice_from_lhs
from homometry.linalg import mat, mat_vec, vadd, vsub
from homometry.pointset import PointSet, minkowski_sum
from .test_lattice import sublattices_of_z2
from .test_linalg import primitive_integer_direction

CROSS = PointSet([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])


def test_search_bases_det7():
    bases = cl.search_bases_with_det(7)
    assert bases  # determinant 7 admits searchable bases
    for l, h, s in bases:
        assert h >= 3
        assert cl.delta_width(l, h, s) == 3


def test_search_bases_outside_range_empty():
    assert cl.search_bases_with_det(6) == []


def test_search_bases_h2_never_passes():
    for det_value in range(7, 19):
        for l, h, s in cl.search_bases_with_det(det_value):
            assert h >= 3


def test_search_bases_respect_flatness_cap():
    # the triangle width of every searched base stays within the integer cap
    # floor(2 * (1 + 2/sqrt(3))) = 4 coming from the planar flatness constant
    for det_value in range(7, 19):
        for l, h, s in cl.search_bases_with_det(det_value):
            assert cl.delta_width(l, h, s) in (3, 4)


def test_kernel_paths_agree():
    # the integer kernel and the exact rational re-check keep the same tiles,
    # and the kernel counts every offset of the grid
    for l, h, s in [
        (1, 7, 3),
        (1, 7, 5),
        (2, 4, 1),
        (1, 9, 4),
        (3, 4, 2),
        (1, 5, 2),
        (2, 3, 1),
        (3, 2, 0),
    ]:
        stats, survivors = search_base_raw(l, h, s)
        offsets = [
            (q1, q2)
            for q1 in range(0, l * h, math.gcd(h, s))
            for q2 in range(0, l * h, l)
        ]
        exact = [
            q for q in offsets if cl._exact_filters(cl.tile_points(l, h, s, *q), l, h, s)[0]
        ]
        assert survivors == exact
        assert stats["q_candidates"] == len(offsets)
        rejects = sum(v for k, v in stats.items() if k.endswith("_rejects"))
        assert rejects == len(offsets) - len(exact)


# -- the class-representative kernel against the full-grid scan it replaced ---


def full_grid_search_base_raw(l: int, h: int, s: int):
    """The tile scan over every offset of the grid, one T_q at a time."""
    big_l = l * h
    n1 = math.gcd(h, s)
    stats = {"q_candidates": 0, "dimension_rejects": 0, "diagonal_width_rejects": 0}
    survivors = []
    slope = l - s
    # a row of two points and a second row span the plane
    wide = l > 1 and h > 1
    for q1 in range(0, big_l, n1):
        c = q1 + n1
        for q2 in range(0, big_l, l):
            stats["q_candidates"] += 1
            y0 = q2 // l + 1
            x0 = -((-(c + s * y0)) // h)
            vmin = vmax = h * x0 + slope * y0
            spans, dx = wide, None
            for y in range(y0 + 1, y0 + h):
                x = -((-(c + s * y)) // h)
                v = h * x + slope * y
                if v < vmin:
                    vmin = v
                elif v > vmax:
                    vmax = v
                if not spans:
                    # one point a row: they span once one leaves the line
                    # through the first two
                    if dx is None:
                        dx = x - x0
                    else:
                        spans = x - x0 != dx * (y - y0)
                if spans and vmax - vmin >= h:
                    stats["diagonal_width_rejects"] += 1
                    break
            else:
                if spans:
                    survivors.append((q1, q2))
                else:
                    stats["dimension_rejects"] += 1
    return stats, survivors


def _assert_kernel_matches_full_grid(l, h, s):
    stats, survivors = search_base_raw(l, h, s)
    expected_stats, expected_survivors = full_grid_search_base_raw(l, h, s)
    assert (stats, survivors) == (expected_stats, expected_survivors), (l, h, s)
    assert list(stats) == list(expected_stats)


def test_kernel_matches_the_full_grid_scan():
    bases = {b for d in range(1, 61) for b in cl.shear_normal_bases(d) + sublattices_of_z2(d)}
    for base in sorted(bases):
        _assert_kernel_matches_full_grid(*base)


@st.composite
def sheared_bases(draw):
    l, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return l, h, draw(st.integers(0, 3 * max(l, h)))


@settings(max_examples=300, deadline=None)
@given(sheared_bases())
def test_kernel_matches_the_full_grid_scan_on_drawn_bases(base):
    _assert_kernel_matches_full_grid(*base)


@settings(max_examples=200, deadline=None)
@given(sheared_bases(), st.data())
def test_cell_scan_translates_tiles_along_the_adjugate_rows(base, data):
    # T_{q + A z} = T_q + z for the adjugate rows A = ((h, -s), (0, l)), and
    # L e_i lies in A Z^2, so q + A z reduced mod L gives a translate too
    l, h, s = base
    big_l, n1 = l * h, math.gcd(h, s)
    q1 = n1 * data.draw(st.integers(0, big_l // n1 - 1))
    q2 = l * data.draw(st.integers(0, h - 1))
    zx, zy = data.draw(st.integers(-20, 20)), data.draw(st.integers(-20, 20))
    moved = ((q1 + h * zx - s * zy) % big_l, (q2 + l * zy) % big_l)
    tile = cl.tile_points(l, h, s, q1, q2)
    assert cl.tile_points(l, h, s, *moved).offsets == tile.offsets


@pytest.mark.parametrize("base", [(1, 7, 3), (2, 4, 1), (3, 4, 2), (2, 6, 4), (4, 3, 0)])
def test_grid_offsets_fall_into_few_classes_of_translates(base):
    l, h, s = base
    big_l, n1 = l * h, math.gcd(h, s)
    shapes = {
        cl.tile_points(l, h, s, q1, q2).offsets
        for q1 in range(0, big_l, n1)
        for q2 in range(0, big_l, l)
    }
    assert len(shapes) <= h // n1


# -- the row-scan kernel and the exact width against the point lists -----------


def _is_two_dimensional(pts):
    if len(pts) < 3:
        return False
    x0, y0 = pts[0]
    v1 = (pts[1][0] - x0, pts[1][1] - y0)
    for x, y in pts[2:]:
        if v1[0] * (y - y0) - v1[1] * (x - x0) != 0:
            return True
    return False


def frame_thin_directions(points, bound):
    """(m, spread) for every nonzero integer m of spread <= bound over the
    integer points, in lexicographic order: the library's former kernel.

    Any such m has |<m, v_k>| <= spread on d independent differences v_k,
    the columns of A, so |m_j| <= spread * sum_k |(A^T)^-1_jk|.  In that
    box `box_scan` keeps the m with |<m, p - p0>| <= bound for every point
    p, and each kept m's spread is then checked.
    """
    p0 = points[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in points[1:]]
    frame = [diffs[i] for i in linalg.independent_subset(diffs)]
    if len(frame) < len(p0):
        raise LowerDimensionalError("point set is not full-dimensional")
    cap = math.floor(bound)
    # column j of A^-1 is row j of (A^T)^-1
    tops = [math.floor(cap * sum(map(abs, col))) for col in linalg.inverse(frame)]
    rows = diffs + [tuple(-e for e in v) for v in diffs]
    for m in box_scan([-t for t in tops], tops, [], [], rows, [cap] * len(rows)):
        values = [sum(a * b for a, b in zip(m, v)) for v in diffs]
        spread = max(0, *values) - min(0, *values)
        if any(m) and spread <= cap:
            yield m, spread


def point_list_search_base(l, h, s):
    """The tile scan on every candidate's full point list, filter by filter."""
    big_l = l * h
    stats = {
        "q_candidates": 0,
        "dimension_rejects": 0,
        "diagonal_width_rejects": 0,
        "width_one_rejects": 0,
    }
    survivors = []
    dx, dy = h, l - s  # a1 + a2
    for q1 in range(0, big_l, math.gcd(h, s)):
        for q2 in range(0, big_l, l):
            stats["q_candidates"] += 1
            pts = cl.tile_points(l, h, s, q1, q2).ints
            if not _is_two_dimensional(pts):
                stats["dimension_rejects"] += 1
                continue
            vals = [dx * x + dy * y for x, y in pts]
            if max(vals) - min(vals) >= big_l:
                stats["diagonal_width_rejects"] += 1
                continue
            if next(frame_thin_directions(pts, 1), None) is not None:
                stats["width_one_rejects"] += 1
                continue
            survivors.append((q1, q2))
    return stats, survivors


ALL_BASES = [b for d in range(1, 25) for b in cl.shear_normal_bases(d)]


def test_kernel_matches_the_point_list_scan():
    # the kernel's two filters and the exact width check that follows them
    totals = dict.fromkeys(point_list_search_base(1, 1, 0)[0], 0)
    for base in ALL_BASES:
        result = cl.search_tiles_with_base(*base)
        stats, survivors = result["stats"], [surv["q"] for surv in result["survivors"]]
        assert (stats, survivors) == point_list_search_base(*base), base
        # the counters in the order of the filters
        assert list(stats) == list(totals)
        for key, value in stats.items():
            totals[key] += value
    # every filter rejects somewhere in this range
    assert all(totals.values())


def test_delta_width_matches_thin_directions():
    for l, h, s in ALL_BASES:
        triangle = ((0, 0), (l, 0), (s, h))
        # the direction (0, 1) has spread h, so the minimum lies within that bound
        expected = min(spread for _, spread in frame_thin_directions(triangle, h))
        assert cl.delta_width(l, h, s) == expected, (l, h, s)


def test_delta_width_equals_planar_width_through_det_60():
    # the triangle's three edges and its hull ring's edges reach one reduction
    for d in range(1, 61):
        for l, h, s in cl.shear_normal_bases(d):
            assert cl.delta_width(l, h, s) == planar_width(((0, 0), (l, 0), (s, h)))[0], (l, h, s)


def test_search_bases_build_no_hull_ring(monkeypatch):
    calls = []
    real = _kernels.hull_ring

    def counted(points):
        calls.append(points)
        return real(points)

    monkeypatch.setattr(_kernels, "hull_ring", counted)
    monkeypatch.setattr(cl, "hull_ring", counted)
    searched = [b for d in range(7, 19) for b in cl.search_bases_with_det(d)]
    assert len(searched) == 118 and calls == []


def test_width_window_is_the_one_the_search_applies():
    # a base is searched iff some window entry admits its determinant and
    # its triangle's width
    assert cl.WIDTH_WINDOW == ((7, 18, 3), (12, 16, 4))
    for d in range(1, 25):
        expected = [
            (l, h, s)
            for l, h, s in cl.shear_normal_bases(d)
            if any(lo <= d <= hi and cl.delta_width(l, h, s) == w for lo, hi, w in cl.WIDTH_WINDOW)
        ]
        assert cl.search_bases_with_det(d) == expected, d
    for lo, hi in ((19, 40), (1, 6)):
        config = cl.classify(cl.SearchConfig(det_lo=lo, det_hi=hi))["config"]
        assert config["width_window"] == [[7, 18, 3], [12, 16, 4]]


def test_search_counts_for_det_7_to_18():
    # the filters' counts pin the work: a kernel that loses candidates fails
    # here, not only in its speed
    report = cl.classify(cl.SearchConfig(det_lo=7, det_hi=18))
    cases = report["cases"]
    totals = {key: sum(case["stats"][key] for case in cases) for key in cases[0]["stats"]}
    assert len(cases) == 118
    assert totals == {
        "q_candidates": 12_759,
        "dimension_rejects": 0,
        "diagonal_width_rejects": 12_745,
        "width_one_rejects": 0,
    }
    assert report["survivor_count"] == sum(case["survivors"] for case in cases) == 14


def test_survivors_verify_as_tilings():
    res = cl.search_tiles_with_base(1, 7, 3)
    assert res["survivors"]
    for surv in res["survivors"]:
        base = lattice_from_lhs(surv["l"], surv["h"], surv["s"])
        t = ti.verify_tiling(Lattice.standard(2), base, surv["points"])
        assert t.verified
        assert surv["lattice_width"] >= 2
        assert surv["diag_width"] < 1


def test_each_survivor_matches_its_own_full_checks():
    # classify runs the checks once per class of translates; here every one
    # of the 14 survivors gets them all, from a tile rebuilt by the test
    report = cl.classify(cl.SearchConfig(det_lo=7, det_hi=18))
    plane = Lattice.standard(2)
    class_of = {id(m): c for c in report["classes"] for m in c.members}
    survivors = [m for c in report["classes"] for m in c.members]
    assert len(survivors) == len(class_of) == report["survivor_count"] == 14
    for surv in survivors:
        l, h, s = surv["l"], surv["h"], surv["s"]
        tile = cl.tile_points(l, h, s, *surv["q"])
        assert tile == surv["points"]
        ok, diag_width, lattice_w = cl._exact_filters(tile, l, h, s)
        assert ok and lattice_w > 1
        assert (surv["diag_width"], surv["lattice_width"]) == (diag_width, lattice_w)
        assert ti.verify_tiling(plane, lattice_from_lhs(l, h, s), tile).verified
        rep = class_of[id(surv)].representative
        assert cl.normal_form(tile)[0] == cl.normal_form(rep)[0]
        assert cl.unimodular_equivalent(tile, CROSS)[0]
    assert {(m["l"], m["h"], m["s"]) for m in survivors} == {(1, 7, 3), (1, 7, 5)}


def test_checks_run_once_per_class_of_translates(monkeypatch):
    # the 14 survivors are 2 classes of 7 translates, one on each base: the
    # filters and the verification run once per (base, class), the normal
    # form once per class of translates, and every survivor is rebuilt
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [
        (cl, "tile_points"),
        (cl, "_exact_filters"),
        (cl, "normal_form"),
        (ti, "verify_tiling"),
    ]:
        counted(module, name)
    report = cl.classify(cl.SearchConfig(det_lo=7, det_hi=18))
    assert report["survivor_count"] == 14
    assert calls == {"tile_points": 14, "_exact_filters": 2, "normal_form": 2, "verify_tiling": 2}


def test_verifying_and_normalizing_a_tile_builds_no_fraction_view():
    # the coset loop names points only when a coset repeats, and the normal
    # form's translation reads the least point alone
    plane = Lattice.standard(2)
    for surv in cl.search_tiles_with_base(1, 7, 3)["survivors"]:
        tile = PointSet.from_scaled(surv["points"].ints, surv["points"].den)
        base = lattice_from_lhs(surv["l"], surv["h"], surv["s"])
        assert ti.verify_tiling(plane, base, tile).verified
        (den, image), u, t = cl.normal_form(tile)
        assert "points" not in tile.__dict__
        assert PointSet(vadd(mat_vec(u, p), t) for p in tile) == PointSet.from_scaled(image, den)


def test_survivors_obey_width_drop():
    # surviving tiles satisfy w(T, Z^2) <= w(Delta, Z^2) - 1
    for det_value in (7, 8):
        for l, h, s in cl.search_bases_with_det(det_value):
            res = cl.search_tiles_with_base(l, h, s)
            dw = cl.delta_width(l, h, s)
            for surv in res["survivors"]:
                assert surv["lattice_width"] <= dw - 1


def test_unimodular_equivalent_basic():
    k = PointSet([(0, 0), (1, 0), (0, 1), (2, 2)])
    rot = PointSet([(p[1], -p[0]) for p in k.points]).translate((5, 7))
    eq, witness = cl.unimodular_equivalent(k, rot)
    assert eq
    u, t = witness
    assert abs(linalg.det(u)) == 1
    image = PointSet([linalg.mat_vec(u, p) for p in k.points]).translate(t)
    assert image == rot


def test_unimodular_equivalent_cardinality_mismatch():
    k = PointSet([(0, 0), (1, 0), (0, 1)])
    bigger = PointSet([(0, 0), (1, 0), (0, 1), (5, 5)])
    eq, witness = cl.unimodular_equivalent(k, bigger)
    assert not eq and witness is None


def test_unimodular_equivalent_cross_shear():
    shear = linalg.mat([(1, 1), (0, 1)])
    image = PointSet([linalg.mat_vec(shear, p) for p in CROSS.points])
    eq, witness = cl.unimodular_equivalent(CROSS, image)
    assert eq
    u, t = witness
    mapped = PointSet([linalg.mat_vec(u, p) for p in CROSS.points]).translate(t)
    assert mapped == image


def test_unimodular_inequivalent_different_shape():
    flat7 = PointSet([(x, 0) for x in range(7)])
    with pytest.raises(ValueError):
        cl.unimodular_equivalent(flat7, CROSS)  # flat first set
    other = PointSet([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 0)])
    eq, _ = cl.unimodular_equivalent(CROSS, other)
    assert not eq


# -- the normal form against the pairwise search it replaced ------------------


def oracle_unimodular_equivalent(a, b):
    """Search for U (|det U| = 1, integral) and t with U(A) + t = B.

    Complete for full-dimensional planar sets: two independent anchored
    differences of A must map to difference vectors of B, which leaves
    finitely many candidate matrices.
    """
    if len(a) != len(b):
        return False, None
    a0 = a.normalized()
    anchor = a0.points[0]
    diffs_a = [vsub(p, anchor) for p in a0.points[1:]]
    v1 = diffs_a[0]
    v2 = next(v for v in diffs_a[1:] if v1[0] * v[1] - v1[1] * v[0] != 0)
    vinv = linalg.inverse(mat([v1, v2]))
    diffs_b = [d for d in minkowski_sum(b, b.negate()).points if any(d)]
    for w1 in diffs_b:
        for w2 in diffs_b:
            if w1[0] * w2[1] - w1[1] * w2[0] == 0:
                continue
            u = linalg.mat_mul(mat([w1, w2]), vinv)
            if not linalg.is_integral(u) or abs(linalg.det(u)) != 1:
                continue
            image = PointSet([mat_vec(u, p) for p in a.points])
            t = vsub(b.points[0], image.points[0])
            if image.translate(t) == b:
                return True, (u, t)
    return False, None


# generators of GL2(Z) as column matrices: S rotates by 90 degrees, T shears
# x -> x + y, R reflects y -> -y
GL2_GENERATORS = {
    "S": mat([(0, 1), (-1, 0)]),
    "T": mat([(1, 0), (1, 1)]),
    "R": mat([(1, 0), (0, -1)]),
}
gl2_words = st.lists(st.sampled_from(sorted(GL2_GENERATORS)), max_size=10)
translations = st.tuples(*[st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2]))] * 2)


def apply(u, t, k):
    return PointSet(vadd(mat_vec(u, p), t) for p in k.points)


def word_image(word, t, k):
    u = linalg.identity(2)
    for g in word:
        u = linalg.mat_mul(GL2_GENERATORS[g], u)
    return apply(u, t, k)


@st.composite
def planar_sets(draw, size=None):
    """Two-dimensional sets of 3..7 points in a small box, some with
    denominators 2 or 3."""
    den = draw(st.sampled_from([1, 1, 2, 3]))
    coord = st.builds(F, st.integers(-3, 3), st.just(den))
    n = size or draw(st.integers(3, 7))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n, unique=True))
    k = PointSet(pts)
    assume(k.hull().dim == 2)
    return k


@settings(max_examples=200, deadline=None)
@given(planar_sets(), gl2_words, translations)
def test_normal_form_is_invariant_under_gl2_words(k, word, t):
    key, u, t0 = cl.normal_form(k)
    assert linalg.is_integral(u) and abs(linalg.det(u)) == 1
    den, image = key
    assert apply(u, t0, k).points == tuple(linalg.vscale(F(1, den), p) for p in image)
    assert cl.normal_form(word_image(word, t, k))[0] == key


@settings(max_examples=150, deadline=None)
@given(planar_sets(), st.booleans(), st.data())
def test_normal_form_agrees_with_pairwise_search(a, image, data):
    if image:
        b = word_image(data.draw(gl2_words), data.draw(translations), a)
    else:
        b = data.draw(planar_sets(size=len(a)))
    expected, _ = oracle_unimodular_equivalent(a, b)
    assert (cl.normal_form(a)[0] == cl.normal_form(b)[0]) == expected
    assert cl.unimodular_equivalent(a, b)[0] == expected


@settings(max_examples=150, deadline=None)
@given(planar_sets(), gl2_words, translations)
def test_unimodular_witness_maps_a_onto_b(a, word, t):
    b = word_image(word, t, a)
    eq, witness = cl.unimodular_equivalent(a, b)
    assert eq
    u, shift = witness
    assert linalg.is_integral(u) and abs(linalg.det(u)) == 1
    assert apply(u, shift, a) == b


def polytope_normal_form(k):
    """The normal form as it was read off `Polytope.facet_vertex_sets`, kept
    as an oracle for the one read off `hull_ring`."""
    if k.dim != 2 or k.hull().dim != 2:
        raise ValueError("the unimodular normal form needs a two-dimensional planar set")
    den, ipts = k.offsets
    index = dict(zip(k.points, ipts))
    best = None
    for _, edge in k.hull().facet_vertex_sets():
        for v, w in (edge, edge[::-1]):
            (vx, vy), (wx, wy) = index[v], index[w]
            dx, dy = primitive_integer_direction((wx - vx, wy - vy))
            inv = pow(dx, -1, abs(dy)) if dy else dx
            u11, u12, u21, u22 = inv, (1 - inv * dx) // dy if dy else 0, -dy, dx
            rel = [(x - vx, y - vy) for x, y in ipts]
            image = [(u11 * x + u12 * y, u21 * x + u22 * y) for x, y in rel]
            if min(y for _, y in image) < 0:
                u21, u22, image = dy, -dx, [(x, -y) for x, y in image]
            height, x0 = min((y, x) for x, y in image if y > 0)
            m = -(x0 // height)
            image = sorted((x + m * y, y) for x, y in image)
            if best is None or image < best[0]:
                best = image, mat([(u11 + m * u21, u21), (u12 + m * u22, u22)]), v
    image, u, v = best
    return (den, tuple(image)), u, linalg.vneg(mat_vec(u, v))


@st.composite
def planar_sets_with_edge_points(draw):
    """Two-dimensional planar sets with collinear points on their hull
    edges: the lattice points of segments between drawn integer points,
    scaled by 1/m and shifted by a vector of denominator up to 6, so that
    the points' denominator often exceeds the offsets' one."""
    m = draw(st.sampled_from([1, 2, 3]))
    pair = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    pts = draw(st.lists(pair, min_size=3, max_size=6, unique=True))
    for p, q in draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=4)):
        g = math.gcd(q[0] - p[0], q[1] - p[1]) or 1
        pts += [tuple(a + j * (b - a) // g for a, b in zip(p, q)) for j in range(1, g)]
    shift = draw(st.tuples(*[st.builds(F, st.integers(-9, 9), st.integers(1, 6))] * 2))
    k = PointSet(vadd((F(x, m), F(y, m)), shift) for x, y in pts)
    assume(k.hull().dim == 2)
    return k


@settings(max_examples=200, deadline=None)
@given(st.one_of(planar_sets(), planar_sets_with_edge_points()))
def test_normal_form_matches_the_polytope_edges(k):
    key, u, t = cl.normal_form(k)
    assert key == polytope_normal_form(k)[0]
    den, image = key
    assert apply(u, t, k).points == tuple(linalg.vscale(F(1, den), p) for p in image)


def test_unimodular_equivalent_flat_second_set():
    flat = PointSet([(x, 0) for x in range(len(CROSS))])
    assert cl.unimodular_equivalent(CROSS, flat) == (False, None)
    with pytest.raises(ValueError):
        cl.unimodular_equivalent(PointSet([(0, 0, 0)]), CROSS)


def test_classify_det7_slice():
    report = cl.classify(cl.SearchConfig(det_lo=7, det_hi=7))
    assert report["survivor_count"] > 0
    assert len(report["noncentrally_symmetric_classes"]) == 0
    assert len(report["centrally_symmetric_classes"]) == 1
    rep = report["centrally_symmetric_classes"][0].representative
    eq, _ = cl.unimodular_equivalent(rep, CROSS)
    assert eq


@pytest.mark.parametrize("workers", [0, 2])
def test_search_config_runs_in_one_process(workers):
    with pytest.raises(ValueError):
        cl.SearchConfig(workers=workers)


def test_two_row_tiles_are_convex_of_lattice_width_one():
    # the tiles {0..k} x {0} ∪ {0..l} x {1} the search leaves out: each is
    # Z^2-convex, and no nonzero dual vector in a box of radius 6 gives a
    # width below 1, while (0, 1) gives exactly 1
    z2 = Lattice.standard(2)
    for k, l in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2)]:
        tile = PointSet([(x, 0) for x in range(k + 1)] + [(x, 1) for x in range(l + 1)])
        assert tile.hull().lattice_points(z2) == tile
        widths = {
            u: ti.width_of(tile, u) for u in itertools.product(range(-6, 7), repeat=2) if any(u)
        }
        assert min(widths.values()) == 1 == widths[(0, 1)]
        assert ti.lattice_width(tile, z2)[0] == 1


def test_failed_recheck_raises_with_witness(monkeypatch, capsys):
    real = cl.search_base_raw
    bogus = {}

    def with_bogus_survivor(l, h, s):
        stats, survivors = real(l, h, s)
        if not bogus:
            rejected = next(
                (q1, q2)
                for q1 in range(0, l * h, math.gcd(h, s))
                for q2 in range(0, l * h, l)
                if (q1, q2) not in survivors
            )
            bogus.update(base=(l, h, s), q=rejected)
            survivors = survivors + [rejected]
        return stats, survivors

    monkeypatch.setattr(cl, "search_base_raw", with_bogus_survivor)
    with pytest.raises(InvariantError) as info:
        cl.classify(cl.SearchConfig(det_lo=7, det_hi=7))
    assert info.value.witness == bogus

    bogus.clear()
    code = main(["classify2d", "--det-range", "7:7"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    doc = json.loads(captured.out)
    assert doc["status"] == "error"
    assert doc["witness"] == {"base": list(bogus["base"]), "q": list(bogus["q"])}


def test_runs_without_numpy_or_numba():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "sys.modules['numba'] = None\n"
        "from homometry import SearchConfig, classify\n"
        "report = classify(SearchConfig(det_lo=7, det_hi=7))\n"
        "print(len(report['cases']), report['survivor_count'])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2", "14"]


def test_tile_points_matches_kernel_region():
    pts = cl.tile_points(1, 7, 3, 0, 4)
    grid = [tuple(map(int, p)) for p in pts.points]
    for x, y in grid:
        assert 0 + 1 <= 7 * x - 3 * y <= 0 + 7
        assert 4 + 1 <= 1 * y <= 4 + 7


def test_import_leaves_the_process_pool_unloaded():
    # concurrent.futures pulls in logging, which nothing in the package needs
    code = "import sys, homometry\nprint('concurrent.futures' in sys.modules)\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
