"""The benchmark's workloads: seeded inputs, the work of one item, the gate.

Each workload builds a list of items in ``setup`` and answers one item per
``run`` call; ``check`` compares an answer with the known mathematical
result and returns None when it is right, or a one-line reason.  Every call
into the library goes through a module attribute (``tiling.check_condition_a``
rather than an imported name), so the traced run can wrap it.

Why these three workloads (shares of a traced pass at seed 0, on the
2-vCPU Xeon host the benchmark was tuned on):

* ``classify`` is the paper's determinant 7..18 planar search.  82% of its
  time is the triangle lattice-width filter, 7% hulls and 5% the tile
  kernel, so it is the workload where a hull or scan optimisation should
  show no change.
* ``abc`` runs conditions (a), (b) and (c) over truncated-cube ``S`` on
  verified tilings in d = 2 and 3.  86% of its time is hull construction
  over exact rationals, and 71% of hull calls (counting the hulls the hull
  and the polytope transforms build inside) repeat an input already hulled
  in the pass, so it is the workload where a hull cache shows.
* ``pairs`` runs covariograms, trivial-homometry tests and lattice-convexity
  checks over the paper's homometric families up to d = 4.  Hulls are 81% of
  its time too, but only 21% of hull calls repeat, and it is the only
  workload that computes covariograms (14%).

Seeds move coordinates, not structure: a seed other than 0 translates the
input sets by small vectors of their lattices, the same vector for sets
that share a lattice, so equal sets stay equal.  That preserves every
answer, and because the hull inserts points in an order that translations
keep, a pass does the same work on every seed; a spread across seeds
measures the machine, not the draw.  A program that depended on the concrete
coordinates would still be caught.  Seed 0 leaves the inputs exactly as the
acceptance suite builds them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

from homometry import classify2d, constructions, linalg, pointset, tiling
from homometry.errors import HomometryError
from homometry.lattice import Lattice
from homometry.pointset import PointSet

ABC_REFERENCE = Path(__file__).resolve().parent / "abc_reference.json"

# The acceptance suite's condition pool (tests/test_acceptance._abc_pool).
ABC_POOL_SEED = 20240
# Instances per dimension in one abc pass, taken in pool order.  A d=3
# instance takes 30 to 60 times as long as a d=2 one, so one of them keeps a
# pass to about three seconds and at least five passes in a run; with fewer
# than twenty items the tail is the slowest item, the d=3 case.
ABC_QUOTA = {2: 16, 3: 1}

CLASSIFY_BASES = 118
CLASSIFY_SURVIVORS = 14


@dataclass
class Item:
    """One unit of work: its inputs and, where one exists, the answer it needs."""

    label: str
    data: tuple
    expected: object = None


# -- seeded translations ---------------------------------------------------


class _Shifts:
    """Small lattice vectors drawn from a seed, one per key.

    Sets shifted under one key move together, so sets that were equal stay
    equal and a pass repeats the same hull inputs on every seed.  Seed 0
    gives only zero vectors.
    """

    def __init__(self, seed: int):
        self.reach = 0 if seed == 0 else 3
        self.rng = random.Random(seed)
        self.drawn: dict = {}

    def vector(self, key, lat: Lattice):
        if key not in self.drawn:
            coeffs = [self.rng.randint(-self.reach, self.reach) for _ in range(lat.dim)]
            self.drawn[key] = linalg.mat_vec(lat.basis, coeffs)
        return self.drawn[key]


# -- classify --------------------------------------------------------------


class Classify:
    """The determinant 7..18 search.  Its input is fixed, so seeds change nothing."""

    def setup(self, seed: int) -> list[Item]:
        config = classify2d.SearchConfig(det_lo=7, det_hi=18, workers=1)
        return [Item("det 7..18", (config,))]

    def warm_up(self, items: list[Item]) -> None:
        classify2d.search_tiles_with_base(*classify2d.search_bases_with_det(7)[0])

    def run(self, item: Item):
        (config,) = item.data
        return classify2d.classify(config)

    def check(self, item: Item, report) -> str | None:
        bases = len(report["cases"])
        if bases != CLASSIFY_BASES:
            return f"searched {bases} bases, expected {CLASSIFY_BASES}"
        if report["survivor_count"] != CLASSIFY_SURVIVORS:
            return (
                f"{report['survivor_count']} survivors, expected {CLASSIFY_SURVIVORS}"
            )
        if len(report["classes"]) != 1:
            return f"{len(report['classes'])} classes, expected 1"
        if report["noncentrally_symmetric_classes"]:
            return "found a class that is not centrally symmetric"
        (cls,) = report["classes"]
        tiles = [cls.representative] + [m["points"] for m in cls.members]
        if len(tiles) != 1 + CLASSIFY_SURVIVORS:
            return f"the class has {len(tiles) - 1} members"
        for tile in tiles:
            if not is_cross(tile.points):
                return f"the tile {tile.points} is not a unimodular image of the cross"
        return None


def is_cross(points) -> bool:
    """Whether a planar point set is a unimodular image of the cross, plus a translation.

    The image of {0, ±e1, ±e2, ±(e1 + e2)} under U and t is
    {t, t ± a, t ± b, t ± (a + b)} with a, b the columns of U, det(a, b) = ±1.
    Independent of the library, so the gate does not trust the code it checks.
    """
    pts = {tuple(p) for p in points}
    if len(pts) != 7:
        return False
    sums = [sum(p[i] for p in pts) for i in (0, 1)]
    if sums[0] % 7 or sums[1] % 7:
        return False
    centre = (sums[0] // 7, sums[1] // 7)
    rel = {(x - centre[0], y - centre[1]) for x, y in pts}
    for a in rel:
        for b in rel:
            if abs(a[0] * b[1] - a[1] * b[0]) != 1:
                continue
            ab = (a[0] + b[0], a[1] + b[1])
            image = {(0, 0), ab, (-ab[0], -ab[1])}
            image |= {a, b, (-a[0], -a[1]), (-b[0], -b[1])}
            if image == rel:
                return True
    return False


# -- abc -------------------------------------------------------------------


def _random_tilings(rng: random.Random) -> list[tiling.Tiling]:
    """The acceptance suite's verified tilings, drawn in the same order."""
    tilings = [constructions.planar_family_tiling(k) for k in (1, 2, 3)]
    tilings += [constructions.generalized_family_tiling(3, k) for k in (1, 2)]
    for d, dets, count in ((2, (2, 3, 4, 5), 6), (3, (2, 3), 4)):
        ambient = Lattice.standard(d)
        made = 0
        while made < count:
            cols = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d)]
            try:
                base = Lattice(cols)
            except HomometryError:
                continue
            if int(base.determinant) not in dets:
                continue
            v = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(d))
            tile = tiling.dirichlet_tile(ambient, cols, v)
            try:
                tilings.append(tiling.verify_tiling(ambient, base, tile))
            except HomometryError:
                continue
            made += 1
    return tilings


def _random_s_for(rng: random.Random, t: tiling.Tiling) -> PointSet:
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
    return constructions.build_truncated_cube_s(t.translations, u_basis, u_extra, eps)


def abc_pool(quota: dict[int, int]) -> list[tuple[int, PointSet, tiling.Tiling]]:
    """(pool index, S, tiling) for the leading acceptance-pool instances.

    Draws the pool exactly as the acceptance suite does and keeps, in pool
    order, the first ``quota[d]`` instances of each dimension d.
    """
    rng = random.Random(ABC_POOL_SEED)
    tilings = _random_tilings(rng)
    left = dict(quota)
    out = []
    index = 0
    while any(left.values()):
        t = rng.choice(tilings)
        try:
            s = _random_s_for(rng, t)
        except HomometryError:
            continue
        if left.get(s.dim, 0):
            left[s.dim] -= 1
            out.append((index, s, t))
        index += 1
    return out


def load_abc_reference() -> list[dict]:
    with open(ABC_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


class Abc:
    """Conditions (a), (b), (c) on the leading acceptance-pool instances."""

    def __init__(self, reference: list[dict] | None = None):
        self.reference = load_abc_reference() if reference is None else reference

    def setup(self, seed: int) -> list[Item]:
        shifts = _Shifts(seed)
        moved: dict[int, tiling.Tiling] = {}
        items = []
        pool = abc_pool(ABC_QUOTA)
        if len(pool) != len(self.reference):
            raise ValueError("the abc reference does not match the pass size")
        for (index, s, t), ref in zip(pool, self.reference):
            if id(t) not in moved:
                tile = t.tile.translate(shifts.vector(("T", id(t)), t.ambient))
                moved[id(t)] = tiling.verify_tiling(t.ambient, t.translations, tile)
            s_moved = s.translate(shifts.vector(("S", id(t)), t.translations))
            items.append(Item(f"pool #{index} d={s.dim}", (s_moved, moved[id(t)]), ref))
        return items

    def warm_up(self, items: list[Item]) -> None:
        self.run(items[0])

    def run(self, item: Item):
        s, t = item.data
        return (
            tiling.check_condition_a(s, t),
            tiling.check_condition_b(s, t),
            tiling.check_condition_c(s, t),
        )

    def check(self, item: Item, answer) -> str | None:
        s, t = item.data
        ref = item.expected
        shape = (s.dim, len(s), len(t.tile))
        if shape != (ref["dim"], ref["s_points"], ref["tile_points"]):
            return f"instance shape {shape} differs from the reference"
        a, b, c = answer
        if a and not b:
            return "(a) holds but (b) does not"
        if b and not c:
            return "(b) holds but (c) does not"
        if list(answer) != ref["abc"]:
            return f"(a, b, c) = {answer}, reference {tuple(ref['abc'])}"
        return None


# -- pairs -----------------------------------------------------------------


class Pairs:
    """The homometric family suite: K = S ⊕ T against L = S ⊕ (-T)."""

    def setup(self, seed: int) -> list[Item]:
        shifts = _Shifts(seed)
        families = [
            (f"planar k={k}", constructions.planar_family(k)) for k in range(1, 6)
        ]
        families += [
            (f"generalized d={d} k={k}", constructions.generalized_family(d, k))
            for d in (2, 3, 4)
            for k in (1, 2, 3)
        ]
        items = []
        for label, pair in families:
            ambient = pair.tiling.ambient
            shift = shifts.vector(ambient.dim, ambient)
            k = pair.sum_plus.translate(shift)
            m = pair.sum_minus.translate(shift)
            items.append(Item(label, (k, m, ambient)))
        return items

    def warm_up(self, items: list[Item]) -> None:
        self.run(items[0])

    def run(self, item: Item):
        k, m, ambient = item.data
        return (
            pointset.covariogram(k) == pointset.covariogram(m),
            pointset.trivially_homometric(k, m),
            pointset.is_lattice_convex(k, ambient),
            pointset.is_lattice_convex(m, ambient),
        )

    def check(self, item: Item, answer) -> str | None:
        equal, trivial, k_convex, m_convex = answer
        if not equal:
            return "covariograms differ"
        if trivial:
            return "the pair is trivially homometric"
        if not (k_convex and m_convex):
            return "a sum is not lattice-convex"
        return None


WORKLOADS = {"classify": Classify, "abc": Abc, "pairs": Pairs}
