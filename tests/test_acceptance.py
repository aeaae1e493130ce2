"""Acceptance suite: every criterion at its stated tolerance, one per test.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them).
All comparisons are exact rational comparisons; the only tolerances are the
stated runtime budgets.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from homometry import classify2d as cl
from homometry import constructions as con
from homometry import linalg, pointset as ps, polytope, tiling as ti
from homometry.errors import HomometryError
from homometry.lattice import Lattice
from homometry.pointset import PointSet
from .test_polytope import contains, difference_body, hull_volume, polar

CROSS = PointSet([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])


def report(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# -- shared instance pools ----------------------------------------------------


def _family_pairs():
    pairs = [("planar", k, con.planar_family(k)) for k in range(1, 6)]
    for d in (2, 3, 4):
        for k in (1, 2, 3):
            pairs.append((f"generalized d={d}", k, con.generalized_family(d, k)))
    return pairs


def _random_tilings(rng):
    """Verified tilings for the randomized condition suite (d = 2 and 3)."""
    tilings = []
    for k in (1, 2, 3):
        tilings.append(con.planar_family_tiling(k))
    for k in (1, 2):
        tilings.append(con.generalized_family_tiling(3, k))
    # Dirichlet-cell tilings over random bases
    for d, dets, count in ((2, (2, 3, 4, 5), 6), (3, (2, 3), 4)):
        ambient = Lattice.standard(d)
        made = 0
        while made < count:
            cols = [
                tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d)
            ]
            try:
                base = Lattice(cols)
            except HomometryError:
                continue
            if int(base.determinant) not in dets:
                continue
            v = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(d))
            tile = ti.dirichlet_tile(ambient, cols, v)
            try:
                tilings.append(ti.verify_tiling(ambient, base, tile))
            except HomometryError:
                continue
            made += 1
    return tilings


def _random_s_for(rng, t: ti.Tiling) -> PointSet:
    """A truncated-cube S over a sign-flipped dual basis of L."""
    d = t.translations.dim
    bstar = linalg.dual_basis(t.translations.basis)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    u_basis = [linalg.vscale(s, col) for s, col in zip(signs, bstar)]
    extra_signs = [rng.choice((1, -1)) for _ in range(d)]
    u_extra = tuple(
        sum(es * col[i] for es, col in zip(extra_signs, u_basis)) for i in range(d)
    )
    eps = rng.choice((F(1, 2), F(1), F(3, 2)))
    return con.build_truncated_cube_s(t.translations, u_basis, u_extra, eps)


_ABC_POOL = None


def _abc_pool():
    global _ABC_POOL
    if _ABC_POOL is None:
        rng = random.Random(20240)
        tilings = _random_tilings(rng)
        instances = []
        while len(instances) < 200:
            t = rng.choice(tilings)
            try:
                s = _random_s_for(rng, t)
            except HomometryError:
                continue
            instances.append((s, t))
        _ABC_POOL = (tilings, instances)
    return _ABC_POOL


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_classification_reproduction():
    start = time.monotonic()
    report_data = cl.classify(cl.SearchConfig(det_lo=7, det_hi=18, workers=1))
    elapsed = time.monotonic() - start
    ok = elapsed <= 300
    ok = ok and len(report_data["noncentrally_symmetric_classes"]) == 0
    ok = ok and len(report_data["classes"]) == 1
    rep = report_data["classes"][0].representative
    eq, _ = cl.unimodular_equivalent(rep, CROSS)
    ok = ok and eq
    report(1, "classification reproduction", ok)


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_wset_cardinality():
    t = con.planar_family_tiling(2)
    wset = ti.w_set(t.tile, t.translations)
    report(2, "thin-direction count for the planar family k=2", len(wset) == 6)


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_homometric_pair_suite():
    start = time.monotonic()
    ok = True
    for label, k, pair in _family_pairs():
        ambient = pair.tiling.ambient
        ok = ok and ps.covariogram(pair.sum_plus) == ps.covariogram(pair.sum_minus)
        ok = ok and not ps.trivially_homometric(pair.sum_plus, pair.sum_minus)
        ok = ok and ps.is_lattice_convex(pair.sum_plus, ambient)
        ok = ok and ps.is_lattice_convex(pair.sum_minus, ambient)
        if not ok:
            print(f"  failure at {label} k={k}")
            break
    figure7 = con.generalized_family(3, 4).s
    ok = ok and figure7 == PointSet([(0, 0, 0), (5, -1, 0), (4, 1, -1), (4, 0, 1)])
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 30
    report(3, f"homometric pair suite ({elapsed:.1f}s)", ok)


# -- criterion 4 --------------------------------------------------------------


def test_criterion_4_abc_implications():
    _, instances = _abc_pool()
    violations = 0
    a_true = b_true = 0
    for s, t in instances:
        a = ti.check_condition_a(s, t)
        b = ti.check_condition_b(s, t)
        c = ti.check_condition_c(s, t)
        a_true += a
        b_true += b
        if a and not b:
            violations += 1
        if b and not c:
            violations += 1
    ok = len(instances) >= 200 and violations == 0 and a_true > 0 and b_true > 0
    report(
        4,
        f"ABC implications on {len(instances)} instances "
        f"({a_true} with (a), {b_true} with (b))",
        ok,
    )


# -- criterion 5 --------------------------------------------------------------


def test_criterion_5_counterexample_certificates():
    s_ab, t_ab = con.counterexample_ab(3)
    ok = not ti.check_condition_a(s_ab, t_ab)
    ok = ok and ti.check_condition_b(s_ab, t_ab)

    s_bc, t_bc = con.counterexample_bc(3)
    ok = ok and ti.check_condition_c(s_bc, t_bc)
    holds_b, _ = ti.condition_b_witness(s_bc, t_bc)
    ok = ok and not holds_b
    gap = (3, 3, 3)
    big = polytope.minkowski_hull(s_bc.hull(), t_bc.tile.hull())
    total = ps.minkowski_sum(s_bc, t_bc.tile)
    ok = ok and contains(big, gap) and gap not in total
    report(5, "counterexample certificates", ok)


# -- criterion 6 --------------------------------------------------------------


def _finiteness_bounds_hold(t: ti.Tiling) -> bool:
    d = t.ambient.dim
    hull_t = t.tile.hull()
    if hull_t.dim < d:
        return True  # only full-dimensional tiles are in scope
    wset = ti.w_set(t.tile, t.translations)
    if not len(wset) < 4**d:
        return False
    # parity: no nonzero u in L* has w(T, u) < 1/2, and each such u is in W
    if not all(w >= F(1, 2) for w in wset.widths.values()):
        return False
    origin = tuple([F(0)] * d)
    vol_w = hull_volume(polytope.hull(list(wset.vectors) + [origin]))
    vol_polar = hull_volume(polar(difference_body(hull_t)))
    det_l = t.translations.determinant
    return vol_w < vol_polar and vol_polar <= F(4**d) / det_l


def test_criterion_6_finiteness_bounds():
    tilings = [pair.tiling for _, _, pair in _family_pairs()]
    abc_tilings, _ = _abc_pool()
    seen = []
    for t in tilings + list(abc_tilings):
        if t not in seen:
            seen.append(t)
    ok = all(_finiteness_bounds_hold(t) for t in seen)
    report(6, f"finiteness bounds on {len(seen)} tilings", ok)


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_irregular_catalog():
    catalog = con.irregular_examples()
    seg = catalog["segments_1d"]
    ok = seg["sum"] == PointSet([(x,) for x in range(16)])
    ok = ok and not seg["checks"]["S_intrinsically_lattice_convex"]
    ok = ok and not seg["checks"]["T_intrinsically_lattice_convex"]
    prism = catalog["prism_3d"]["checks"]
    ok = ok and prism["sum_plus_lattice_convex"]
    ok = ok and prism["sum_minus_lattice_convex"]
    ok = ok and prism["pair_nontrivially_homometric"]
    report(7, "irregular catalog", ok)


# -- criterion 8 --------------------------------------------------------------


def _naive_covariogram_value(points: set, u) -> int:
    """|K ∩ (K + u)| by literal intersection, on integer tuples."""
    shifted = {tuple(a + b for a, b in zip(p, u)) for p in points}
    return len(points & shifted)


def _int_dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _int_det(rows) -> int:
    """Determinant of a small integer matrix, by cofactor expansion."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _int_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def _brute_force_facets(vertices, d):
    """Supporting hyperplanes via exhaustive d-subsets (independent of the
    incremental hull): primitive normals of the facets of conv(vertices)."""
    facets = set()
    for combo in itertools.combinations(vertices, d):
        rows = [tuple(a - b for a, b in zip(q, combo[0])) for q in combo[1:]]
        normal = [
            (-1) ** j * _int_det([r[:j] + r[j + 1 :] for r in rows]) for j in range(d)
        ]
        g = math.gcd(*normal)
        if not g:
            continue
        normal = tuple(c // g for c in normal)
        offset = _int_dot(normal, combo[0])
        values = [_int_dot(normal, v) for v in vertices]
        if all(v <= offset for v in values):
            facets.add(normal)
        if all(v >= offset for v in values):
            facets.add(tuple(-c for c in normal))
    return sorted(facets)


def _oracle_lattice_points(k: PointSet):
    """Z^d ∩ conv(K) for an integer set K, by a box scan against the
    brute-force facets of its vertices; None when K is flat."""
    poly = k.hull()
    if not poly.is_full_dimensional():
        return None  # flat sets are exercised elsewhere
    verts = [tuple(int(c) for c in v) for v in poly.vertices]
    d = k.dim
    checked = [
        (normal, max(_int_dot(normal, v) for v in verts))
        for normal in _brute_force_facets(verts, d)
    ]
    box = [range(min(c), max(c) + 1) for c in zip(*verts)]
    return sorted(
        x
        for x in itertools.product(*box)
        if all(_int_dot(nrm, x) <= off for nrm, off in checked)
    )


def _oracle_is_direct(s: PointSet, t: PointSet) -> bool:
    decompositions = {}
    for a in s.points:
        for b in t.points:
            decompositions.setdefault(linalg.vadd(a, b), []).append((a, b))
    return all(len(v) == 1 for v in decompositions.values())


def test_criterion_8_oracle_equivalence():
    rng = random.Random(777)
    ok = True
    sets = []
    int_sets = []  # the same sets as integer tuples, for the oracles
    for _ in range(500):
        d = rng.randint(1, 3)
        n = rng.randint(1, 40)
        pts = {tuple(rng.randint(-10, 10) for _ in range(d)) for _ in range(n)}
        sets.append(PointSet(pts))
        int_sets.append(pts)
    for k, pts in zip(sets, int_sets):
        cov = ps.covariogram(k)
        for u in sorted(cov.entries):
            if cov[u] != _naive_covariogram_value(pts, tuple(int(c) for c in u)):
                ok = False
                break
        if not ok:
            break
    # direct-sum decision vs explicit decomposition uniqueness
    for i in range(0, 400, 2):
        s, t = sets[i], sets[i + 1]
        if s.dim != t.dim:
            continue
        if ps.is_direct_sum(s, t) != _oracle_is_direct(s, t):
            ok = False
            break
    # lattice point enumeration vs the brute-force facet scan
    checked = 0
    for k in sets:
        if checked >= 30:
            break
        oracle = _oracle_lattice_points(k)
        if oracle is None:
            continue
        checked += 1
        if list(k.hull().lattice_points(Lattice.standard(k.dim))) != oracle:
            ok = False
            break
    ok = ok and checked >= 20
    report(8, f"oracle equivalence (500 sets, {checked} lattice scans)", ok)
