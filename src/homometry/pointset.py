"""Finite point sets: covariograms, homometry, symmetry, direct sums."""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from . import linalg, polytope
from .errors import (
    DegenerateDifferencesError,
    EmptySetError,
    NotDirectError,
    NotInLatticeError,
)
from .lattice import Lattice
from .linalg import Vec, vadd, vec, vec_str, vneg, vsub


class PointSet:
    """A finite set of rational points, stored sorted and deduplicated."""

    def __init__(self, points):
        self.points: tuple[Vec, ...] = tuple(sorted({vec(p) for p in points}))
        if not self.points:
            raise EmptySetError("empty point set")
        self.dim = len(self.points[0])
        if any(len(p) != self.dim for p in self.points):
            raise ValueError("mixed dimensions in point set")
        self._set = frozenset(self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return vec(p) in self._set

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PointSet({len(self.points)} points, dim={self.dim})"

    def lexmin(self) -> Vec:
        return self.points[0]

    def lexmax(self) -> Vec:
        return self.points[-1]

    def translate(self, t) -> "PointSet":
        t = vec(t)
        return PointSet([vadd(p, t) for p in self.points])

    def negate(self) -> "PointSet":
        return PointSet([vneg(p) for p in self.points])

    def normalized(self) -> "PointSet":
        """Translate so the lexicographic minimum sits at the origin."""
        return self.translate(vneg(self.lexmin()))

    @cached_property
    def _hull(self) -> polytope.Polytope:
        return polytope.hull(self.points)

    def hull(self) -> polytope.Polytope:
        """conv(K), built on the first call; the set is immutable, so it is kept."""
        return self._hull

    def differences(self) -> list[Vec]:
        """All pairwise differences (with repetitions collapsed)."""
        return sorted({vsub(a, b) for a in self.points for b in self.points})

    def to_json(self):
        from .jsonio import rational_out

        return {"points": [[rational_out(c) for c in p] for p in self.points]}


class Covariogram:
    """The multiplicity map u -> |K ∩ (K + u)| of a finite set K."""

    def __init__(self, entries: dict[Vec, int]):
        self.entries = dict(entries)

    def __getitem__(self, u) -> int:
        return self.entries.get(vec(u), 0)

    def __eq__(self, other):
        if not isinstance(other, Covariogram):
            return NotImplemented
        return self.entries == other.entries

    def support(self) -> list[Vec]:
        return sorted(self.entries)

    def to_json(self):
        from .jsonio import rational_out

        return {
            "entries": [
                {"u": [rational_out(c) for c in u], "count": m}
                for u, m in sorted(self.entries.items())
            ]
        }


def covariogram(k: PointSet) -> Covariogram:
    """Counts ordered pairs with a fixed difference, which equals |K ∩ (K+u)|."""
    counts: Counter = Counter()
    pts = k.points
    for a in pts:
        for b in pts:
            counts[vsub(a, b)] += 1
    return Covariogram(counts)


def homometric(k: PointSet, m: PointSet) -> bool:
    if k.dim != m.dim:
        return False
    return covariogram(k) == covariogram(m)


def trivially_homometric(k: PointSet, m: PointSet) -> bool:
    """True iff the sets coincide up to a translation or a point reflection."""
    if k.dim != m.dim or len(k) != len(m):
        return False
    kn = k.normalized()
    return kn == m.normalized() or kn == m.negate().normalized()


def centrally_symmetric(k: PointSet) -> bool:
    """Point-reflection invariance; the only possible center is
    (lexmin + lexmax)/2 because reflections reverse the lexicographic order."""
    c = vadd(k.lexmin(), k.lexmax())
    return all(vsub(c, p) in k for p in k.points)


def minkowski_sum(s: PointSet, t: PointSet) -> PointSet:
    if s.dim != t.dim:
        raise ValueError(f"cannot add sets of dimensions {s.dim} and {t.dim}")
    return PointSet([vadd(a, b) for a in s.points for b in t.points])


def is_direct_sum(s: PointSet, t: PointSet) -> bool:
    return len(s) * len(t) == len(minkowski_sum(s, t))


def direct_sum(s: PointSet, t: PointSet) -> PointSet:
    total = minkowski_sum(s, t)
    if len(total) != len(s) * len(t):
        raise NotDirectError("sum is not direct")
    return total


def is_lattice_convex(k: PointSet, lat: Lattice) -> bool:
    """K = conv(K) ∩ lattice; raises NotInLatticeError when K is not in it."""
    return lattice_convexity_witness(k, lat) is None


def lattice_convexity_witness(k: PointSet, lat: Lattice) -> Vec | None:
    """A lattice point of conv(K) missing from K, or None when K is convex."""
    for p in k.points:
        if not lat.contains(p):
            raise NotInLatticeError(f"point {vec_str(p)} is outside the lattice", witness=p)
    for q in k.hull().lattice_points(lat):
        if q not in k:
            return q
    return None


def sum_convexity_witness(
    s: PointSet, t: PointSet, total: PointSet, lat: Lattice
) -> Vec | None:
    """Convexity gap of total = S + T, built on conv(S + T) = conv(S) + conv(T).

    Summing hull vertices instead of whole sets keeps the hull input small,
    which matters for the larger product-style sums.  S + T lies in the
    lattice iff every s + t0 and s0 + t does, since
    s + t = (s + t0) + (s0 + t) - (s0 + t0); raises NotInLatticeError with
    the first of those |S| + |T| - 1 points outside it.
    """
    s0, t0 = s.points[0], t.points[0]
    for p in [vadd(a, t0) for a in s.points] + [vadd(s0, b) for b in t.points[1:]]:
        if not lat.contains(p):
            raise NotInLatticeError(f"point {vec_str(p)} is outside the lattice", witness=p)
    big = polytope.minkowski_hull(s.hull(), t.hull())
    for q in big.lattice_points(lat):
        if q not in total:
            return q
    return None


def generated_lattice(k: PointSet) -> Lattice:
    """The lattice spanned over Z by the difference vectors of K."""
    if len(k) < 2:
        raise DegenerateDifferencesError("need at least two points")
    anchor = k.lexmin()
    diffs = [vsub(p, anchor) for p in k.points[1:]]
    basis = linalg.hnf_basis(diffs)
    if len(basis) < k.dim:
        raise DegenerateDifferencesError("differences do not span the ambient space")
    return Lattice(basis)


def intrinsically_lattice_convex(k: PointSet) -> bool:
    """Whether K is lattice-convex with respect to *some* lattice.

    Any lattice containing a translate of K contains the lattice generated
    by D(K), and convexity passes down to that minimal lattice, so testing
    there decides the question.  Sets with flat difference span are first
    reduced to exact coordinates on the span.
    """
    if len(k) < 2:
        raise DegenerateDifferencesError("need at least two points")
    anchor = k.lexmin()
    diffs = [vsub(p, anchor) for p in k.points[1:]]
    basis = linalg.hnf_basis(diffs)
    rank = len(basis)
    shifted = k.translate(vneg(anchor))
    if rank == k.dim:
        return is_lattice_convex(shifted, Lattice(basis))
    # reduce onto the difference span: coordinates w.r.t. the span basis
    _, _, reduced = linalg.span_coordinates(basis, shifted.points)
    return is_lattice_convex(PointSet(reduced), Lattice.standard(rank))
