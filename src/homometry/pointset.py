"""Finite point sets: covariograms, homometry, symmetry, direct sums."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub

from . import linalg, polytope
from .errors import (
    DegenerateDifferencesError,
    EmptySetError,
    InvariantError,
    NotDirectError,
    NotInLatticeError,
)
from .lattice import IntVec, Lattice
from .linalg import Vec, vec, vec_str


class PointSet:
    """A finite set of rational points, kept as (D, the sorted integer points D p).

    D is the least positive integer that makes every D p integral, so equal
    sets have equal pairs, and D > 0 keeps the rational order.  `points`,
    the sorted rational view, is built on first use.
    """

    def __init__(self, points):
        self._store(*linalg.clear_denominators([vec(p) for p in points]))

    @classmethod
    def from_scaled(cls, ints, den: int = 1) -> "PointSet":
        """The set of the points p / den, for integer vectors p in any order."""
        if den < 1:
            raise ValueError("the denominator must be positive")
        k = cls.__new__(cls)
        k._store(den, ints)
        return k

    def _store(self, den: int, ints):
        """Keep the points p / den sorted and distinct, with den and every p
        divided by the gcd of den and every coordinate."""
        ints = tuple(sorted({tuple(p) for p in ints}))
        if not ints:
            raise EmptySetError("empty point set")
        self.dim = len(ints[0])
        if any(len(p) != self.dim for p in ints):
            raise ValueError("mixed dimensions in point set")
        g = math.gcd(den, *itertools.chain.from_iterable(ints)) if den > 1 else 1
        if g > 1:
            den, ints = den // g, tuple([tuple([c // g for c in p]) for p in ints])
        self.den, self.ints = den, ints

    @cached_property
    def points(self) -> tuple[Vec, ...]:
        return tuple([self._point(p) for p in self.ints])

    def _point(self, p: IntVec) -> Vec:
        den = self.den
        return tuple([Fraction(c, den) for c in p])

    @cached_property
    def _int_set(self) -> frozenset:
        return frozenset(self.ints)

    def __len__(self):
        return len(self.ints)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        """Whether p is a point of K; False for a p of another dimension."""
        p, den = vec(p), self.den
        if len(p) != self.dim or any(den % c.denominator for c in p):
            return False
        return tuple([c.numerator * (den // c.denominator) for c in p]) in self._int_set

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, self.ints))

    def __repr__(self):
        return f"PointSet({len(self.ints)} points, dim={self.dim})"

    def lexmin(self) -> Vec:
        return self._point(self.ints[0])

    def translate(self, t) -> "PointSet":
        t = vec(t)
        if len(t) != self.dim:
            raise ValueError(f"cannot translate a set of dimension {self.dim} by {vec_str(t)}")
        return _sum(self, PointSet([t]))

    def negate(self) -> "PointSet":
        return PointSet.from_scaled([tuple([-c for c in p]) for p in self.ints], self.den)

    def normalized(self) -> "PointSet":
        """Translate so the lexicographic minimum sits at the origin."""
        p0 = self.ints[0]
        return PointSet.from_scaled([tuple(map(sub, p, p0)) for p in self.ints], self.den)

    @cached_property
    def _hull(self) -> polytope.Polytope:
        return polytope.hull(self)

    def hull(self) -> polytope.Polytope:
        """conv(K), built on the first call; the set is immutable, so it is kept."""
        return self._hull

    @cached_property
    def offsets(self) -> tuple[int, tuple[IntVec, ...]]:
        """The pair (D, D (p - lexmin)) of `normalized()`, in point order.

        Every difference p - q is (p - lexmin) - (q - lexmin), so D is also
        the least integer that makes the differences of K integral, and
        depends only on them.
        """
        n = self.normalized()
        return n.den, n.ints

    def to_json(self):
        from .jsonio import rational_out

        return {"points": [[rational_out(c) for c in p] for p in self.points]}


def _sum(s: PointSet, t: PointSet) -> PointSet:
    """{p + q : p in S, q in T}, added in integers over lcm(D_S, D_T)."""
    den = math.lcm(s.den, t.den)
    a, b = den // s.den, den // t.den
    xs = [tuple([a * c for c in p]) for p in s.ints]
    ys = [tuple([b * c for c in q]) for q in t.ints]
    return PointSet.from_scaled((tuple(map(add, p, q)) for p in xs for q in ys), den)


class Covariogram:
    """The multiplicity map u -> |K ∩ (K + u)| of a finite set K.

    It is kept as (D, weights, n, half).  D is the least integer that makes
    the differences of K integral (`PointSet.offsets`), and an integer
    difference z = D u is packed into the one integer enc(z) = sum z_i W_i.
    The weights are W_{d-1} = 1 and W_i = W_{i+1} (2 s_{i+1} + 1), with s_i
    the spread max - min of coordinate i over K.  Every difference has
    |z_i| <= s_i, so the z_i are the balanced digits of enc(z): enc is
    additive and one to one on differences, and keeps their lexicographic
    order.  The map is symmetric and its value at o is n = |K|, so `half`
    counts only the lexicographically positive differences, by code.  D and
    the spreads depend only on the support, so two maps are equal iff their
    tuples are.  The rational map is decoded on first read.
    """

    def __init__(self, den: int, weights: tuple[int, ...], n: int, half: Counter):
        self.den, self.weights, self.n, self.half = den, weights, n, half

    @cached_property
    def entries(self) -> dict[Vec, int]:
        """The map itself, u -> |K ∩ (K + u)|, with rational keys."""
        den, weights = self.den, self.weights
        out = {(Fraction(0),) * len(weights): self.n}
        for code, m in self.half.items():
            z = []
            for w in weights:  # w is odd: z_i is code / w rounded to the nearest
                c = (code + w // 2) // w
                z.append(c)
                code -= c * w
            out[tuple([Fraction(c, den) for c in z])] = m
            out[tuple([Fraction(-c, den) for c in z])] = m
        return out

    def __getitem__(self, u) -> int:
        return self.entries.get(vec(u), 0)

    def __eq__(self, other):
        if not isinstance(other, Covariogram):
            return NotImplemented
        return (self.den, self.weights, self.n, self.half) == (
            other.den, other.weights, other.n, other.half
        )

    def to_json(self):
        from .jsonio import rational_out

        return {
            "entries": [
                {"u": [rational_out(c) for c in u], "count": m}
                for u, m in sorted(self.entries.items())
            ]
        }


def _weights(radices) -> list[int]:
    """The packing weights W_{d-1} = 1 and W_i = W_{i+1} r_{i+1}: when
    digit i takes at most r_i consecutive values, sum z_i W_i is one to one."""
    weights = [1] * len(radices)
    for i in reversed(range(len(radices) - 1)):
        weights[i] = weights[i + 1] * radices[i + 1]
    return weights


def covariogram(k: PointSet) -> Covariogram:
    """The covariogram of K, each unordered pair of points counted once.

    The offsets D (p - lexmin) are sorted, so their codes, packed as in
    `Covariogram`, increase: for each pair of points the larger code minus
    the smaller is the code of their lexicographically positive difference.
    """
    den, ints = k.offsets
    weights = _weights([2 * (max(col) - min(col)) + 1 for col in zip(*ints)])
    codes = [sum(map(mul, p, weights)) for p in reversed(ints)]  # larger first in a pair
    half = Counter(itertools.starmap(sub, itertools.combinations(codes, 2)))
    return Covariogram(den, tuple(weights), len(ints), half)


def homometric(k: PointSet, m: PointSet) -> bool:
    """Whether K and M have equal covariograms; g(o) = |K|, so sets of
    different sizes are told apart before any pair is counted."""
    if k.dim != m.dim or len(k) != len(m):
        return False
    return covariogram(k) == covariogram(m)


def _reflected(ints: tuple[IntVec, ...]) -> list[IntVec]:
    """The offsets of -K from those of K, in point order.

    Negation reverses the lexicographic order, and the lexmin of -K is
    -lexmax(K), so the offsets of -K are lexmax - p in reverse order.
    """
    top = ints[-1]
    return [tuple(map(sub, top, p)) for p in reversed(ints)]


def trivially_homometric(k: PointSet, m: PointSet) -> bool:
    """True iff the sets coincide up to a translation or a point reflection.

    Translates have equal offsets, and reflected sets have the offsets of
    one equal to the reflected offsets of the other.
    """
    if k.dim != m.dim or len(k) != len(m):
        return False
    (dk, ik), (dm, im) = k.offsets, m.offsets
    return dk == dm and (ik == im or list(ik) == _reflected(im))


def centrally_symmetric(k: PointSet) -> bool:
    """Point-reflection invariance: K is a translate of -K.

    The only possible center is (lexmin + lexmax)/2, because reflections
    reverse the lexicographic order.
    """
    _, ints = k.offsets
    return list(ints) == _reflected(ints)


def _check_summands(s: PointSet, t: PointSet) -> None:
    if s.dim != t.dim:
        raise ValueError(f"cannot add sets of dimensions {s.dim} and {t.dim}")


def minkowski_sum(s: PointSet, t: PointSet) -> PointSet:
    _check_summands(s, t)
    return _sum(s, t)


def is_direct_sum(s: PointSet, t: PointSet) -> bool:
    """Whether the |S| |T| sums s + t are distinct, decided on one integer
    code a point, with no sum point built.

    Over lcm(D_S, D_T) the points are integer vectors x of S and y of T.
    Coordinate i of x + y, less the least such sum, takes at most
    r_i = spread_S,i + spread_T,i + 1 values (the spreads max - min over
    each scaled set), so with the weights of `_weights` over these radices
    the code <x + y, W> = <x, W> + <y, W> is one to one on sums: the sum
    is direct iff the |S| |T| code sums are distinct.
    """
    _check_summands(s, t)
    den = math.lcm(s.den, t.den)
    a, b = den // s.den, den // t.den
    radices = [
        a * (max(u) - min(u)) + b * (max(v) - min(v)) + 1
        for u, v in zip(zip(*s.ints), zip(*t.ints))
    ]
    weights = _weights(radices)
    xs = [sum(map(mul, p, weights)) * a for p in s.ints]
    ys = [sum(map(mul, q, weights)) * b for q in t.ints]
    return len({x + y for x in xs for y in ys}) == len(xs) * len(ys)


def direct_sum(s: PointSet, t: PointSet) -> PointSet:
    """S + T, which must be direct; else NotDirectError names two pairs
    (s, t) != (s', t') of S x T with s + t = s' + t' (`_sum_collision`)."""
    total = minkowski_sum(s, t)
    if len(total) != len(s) * len(t):
        raise NotDirectError("sum is not direct", witness=_sum_collision(s, t))
    return total


def _sum_collision(s: PointSet, t: PointSet):
    """[(s', t'), (s, t)]: the first pair of S x T, in lexicographic order,
    whose sum an earlier pair (s', t') has, after that earlier pair."""
    first = {}
    for p in s.points:
        for q in t.points:
            other = first.setdefault(tuple(map(add, p, q)), (p, q))
            if other != (p, q):
                return [other, (p, q)]
    raise InvariantError("a sum that is not direct has no two pairs with one sum")


def is_lattice_convex(k: PointSet, lat: Lattice) -> bool:
    """K = conv(K) ∩ lattice; raises NotInLatticeError when K is not in it."""
    return lattice_convexity_witness(k, lat) is None


def _check_dim(lat: Lattice, k: PointSet) -> None:
    if k.dim != lat.dim:
        msg = f"cannot test a set of dimension {k.dim} against a lattice of dimension {lat.dim}"
        raise ValueError(msg)


def _first_outside(lat: Lattice, k: PointSet) -> Vec | None:
    """The first point of K outside the lattice, or None."""
    _check_dim(lat, k)
    den = k.den
    return next((k._point(z) for z in k.ints if not lat.contains_scaled(z, den)), None)


def _convexity_gap(k: PointSet, conv: polytope.Polytope, lat: Lattice) -> Vec | None:
    """The first lattice point of conv missing from K, for K a set of lattice
    points of conv, or None; of the scanned points only that one is made a
    Fraction."""
    missing = conv.lattice_points(lat, missing_from=k)
    return None if missing is None else missing.lexmin()


def lattice_convexity_witness(k: PointSet, lat: Lattice) -> Vec | None:
    """A lattice point of conv(K) missing from K, or None when K is convex."""
    p = _first_outside(lat, k)
    if p is not None:
        raise NotInLatticeError(f"point {vec_str(p)} is outside the lattice", witness=p)
    return _convexity_gap(k, k.hull(), lat)


def sum_convexity_witness(s: PointSet, t: PointSet, lat: Lattice) -> Vec | None:
    """The least lattice point of conv(S + T) missing from the direct sum
    S + T, or None when S + T is lattice-convex.

    After the dimension checks, NotDirectError names two pairs of S x T
    with one sum (`_sum_collision`) when `is_direct_sum` fails.  S + T
    lies in the lattice iff every s + t0 and s0 + t does, since
    s + t = (s + t0) + (s0 + t) - (s0 + t0); NotInLatticeError names the
    first of those |S| + |T| - 1 points outside it, added and tested as
    integers over lcm(D_S, D_T), the s + t0 first.  Then
    conv(S + T) = conv(S) + conv(T) (`polytope.minkowski_hull`) is scanned
    once.  Its lattice points include the |S| |T| distinct points of S + T,
    so the sum is convex iff the scan counts |S| |T|; only otherwise is
    S + T built, once, by `minkowski_sum`, and the least scanned point it
    misses made a Fraction.
    """
    _check_dim(lat, s)
    _check_dim(lat, t)
    if not is_direct_sum(s, t):
        raise NotDirectError("sum is not direct", witness=_sum_collision(s, t))
    den = math.lcm(s.den, t.den)
    a, b = den // s.den, den // t.den
    s0, t0 = [a * c for c in s.ints[0]], [b * c for c in t.ints[0]]
    shifted = itertools.chain(
        ([a * c + e for c, e in zip(p, t0)] for p in s.ints),
        ([b * c + e for c, e in zip(q, s0)] for q in t.ints),
    )
    p = next((p for p in shifted if not lat.contains_scaled(p, den)), None)
    if p is not None:
        p = tuple([Fraction(c, den) for c in p])
        raise NotInLatticeError(f"point {vec_str(p)} is outside the lattice", witness=p)
    zs = polytope.minkowski_hull(s.hull(), t.hull())._lattice_scan(lat)
    if len(zs) == len(s) * len(t):
        return None
    return polytope._least_missing(lat, zs, minkowski_sum(s, t))


def intrinsically_lattice_convex(k: PointSet) -> bool:
    """Whether K is lattice-convex with respect to *some* lattice.

    Any lattice containing a translate of K contains the lattice generated
    by D(K), and convexity passes down to that minimal lattice, so testing
    there decides the question.  Sets with flat difference span are first
    reduced to exact coordinates on the span.
    """
    if len(k) < 2:
        raise DegenerateDifferencesError("need at least two points")
    shifted = k.normalized()
    basis = linalg.hnf_basis(shifted.points[1:])
    rank = len(basis)
    if rank == k.dim:
        return is_lattice_convex(shifted, Lattice(basis))
    # reduce onto the difference span: coordinates w.r.t. the span basis
    _, _, reduced = linalg.span_coordinates(basis, shifted.points)
    return is_lattice_convex(PointSet(reduced), Lattice.standard(rank))
