"""The planar classification search and unimodular tile equivalence."""

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
from homometry import linalg, tiling as ti
from homometry._kernels import search_base_raw
from homometry.cli import main
from homometry.errors import InvariantError
from homometry.lattice import Lattice, lattice_from_lhs
from homometry.linalg import mat, mat_vec, vadd, vsub
from homometry.pointset import PointSet

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
    # the integer kernel and the exact rational re-check keep the same tiles
    for l, h, s in [(1, 7, 3), (1, 7, 5), (2, 4, 1), (1, 9, 4), (3, 4, 2)]:
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


def test_survivors_verify_as_tilings():
    res = cl.search_tiles_with_base(1, 7, 3)
    assert res["survivors"]
    for surv in res["survivors"]:
        base = lattice_from_lhs(surv["l"], surv["h"], surv["s"])
        t = ti.verify_tiling(Lattice.standard(2), base, surv["points"])
        assert t.verified
        assert surv["lattice_width"] >= 2
        assert surv["diag_width"] < 1


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
    diffs_b = [d for d in b.normalized().differences() if any(d)]
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


def test_classify_workers_deterministic():
    base = cl.classify(cl.SearchConfig(det_lo=7, det_hi=9, workers=1))
    multi = cl.classify(cl.SearchConfig(det_lo=7, det_hi=9, workers=2))
    assert base["cases"] == multi["cases"]
    assert base["survivor_count"] == multi["survivor_count"]
    reps1 = [c.representative for c in base["classes"]]
    reps2 = [c.representative for c in multi["classes"]]
    assert reps1 == reps2


def test_classify_report_flags():
    report = cl.classify(cl.SearchConfig(det_lo=7, det_hi=7, include_width_one_case=True))
    assert "width_one_family" in report


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
