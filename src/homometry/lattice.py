"""Full-rank lattices: membership, coordinates and duals."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from .errors import SingularMatrixError
from .linalg import Mat, Vec, mat, transpose, vec

IntVec = tuple[int, ...]


class Lattice:
    """Lattice of full rank given by a column basis matrix.

    Values are immutable; all derived data (inverse, dual, integer views) is
    cached.  Lattice equality means equality as point sets (mutual
    containment), since basis matrices are only unique up to unimodular
    column changes.

    Membership, coordinates and lattice points run on two integer views: the rows
    of E B^-1 and of F B, each scaled by the least integer that makes it
    integral.  A rational point enters as p / D with p integral, so its
    coordinates are (E B^-1) p / (E D) and a lattice point B z is
    (F B) z / F.
    """

    def __init__(self, basis):
        self.basis: Mat = mat(basis)
        self.dim = len(self.basis)
        if any(len(c) != self.dim for c in self.basis):
            raise ValueError("lattice basis must be square (full rank)")
        if linalg.det(self.basis) == 0:
            raise SingularMatrixError("lattice basis is singular")

    @staticmethod
    def standard(d: int) -> "Lattice":
        return Lattice(linalg.identity(d))

    @cached_property
    def inverse_basis(self) -> Mat:
        return linalg.inverse(self.basis)

    @cached_property
    def determinant(self) -> Fraction:
        """The positive lattice determinant |det(basis)|."""
        return abs(linalg.det(self.basis))

    @cached_property
    def integer_inverse(self) -> tuple[int, tuple[IntVec, ...]]:
        """(E, the rows of E B^-1), E the least integer that makes them integral."""
        scale, rows = linalg.clear_denominators(transpose(self.inverse_basis))
        return scale, tuple(rows)

    @cached_property
    def integer_basis(self) -> tuple[int, tuple[IntVec, ...]]:
        """(F, the rows of F B), F the least integer that makes them integral."""
        scale, rows = linalg.clear_denominators(transpose(self.basis))
        return scale, tuple(rows)

    def _checked(self, v) -> Vec:
        v = vec(v)
        if len(v) != self.dim:
            raise ValueError(f"expected a vector of dimension {self.dim}, got {len(v)}")
        return v

    def integer_coordinates(self, points) -> tuple[int, list[IntVec]]:
        """(m, [m B^-1 p for p in points]), m the least integer that makes them integral."""
        den, ints = linalg.clear_denominators([self._checked(p) for p in points])
        return self.scaled_coordinates(ints, den)

    def scaled_coordinates(self, ints, den: int) -> tuple[int, list[IntVec]]:
        """`integer_coordinates` of the points p / den, for integer vectors p: B^-1 (p / den)
        is (E B^-1) p / (E den), and m is E den over the gcd of E den and every numerator."""
        if any(len(p) != self.dim for p in ints):
            raise ValueError(f"expected vectors of dimension {self.dim}")
        e, rows = self.integer_inverse
        coords = [[sum(map(mul, r, p)) for r in rows] for p in ints]
        g = math.gcd(e * den, *itertools.chain.from_iterable(coords))
        return e * den // g, [tuple([c // g for c in z]) for z in coords]

    def coordinates(self, v) -> Vec:
        """Exact coordinates of v in this basis."""
        m, (n,) = self.integer_coordinates([v])
        return tuple([Fraction(c, m) for c in n])

    def contains(self, v) -> bool:
        den, (p,) = linalg.clear_denominators([self._checked(v)])
        return self.contains_scaled(p, den)

    def contains_scaled(self, p: IntVec, den: int) -> bool:
        """Whether p / den is a lattice point, for an integer vector p and den >= 1."""
        e, rows = self.integer_inverse
        m = e * den
        return all(sum(map(mul, r, p)) % m == 0 for r in rows)

    def __contains__(self, v) -> bool:
        return self.contains(v)

    @cached_property
    def _dual(self) -> "Lattice":
        return Lattice(transpose(self.inverse_basis))  # the dual basis B^-T

    def dual(self) -> "Lattice":
        """The dual lattice {y : <y, x> in Z for all x here}, built on the first call."""
        return self._dual

    def is_sublattice_of(self, other: "Lattice") -> bool:
        return all(other.contains(col) for col in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.is_sublattice_of(other)
            and other.is_sublattice_of(self)
        )

    def __hash__(self):  # pragma: no cover - not used as dict key in hot paths
        return hash((self.dim, self.determinant))

    def __repr__(self):
        return f"Lattice(basis={[list(map(str, c)) for c in self.basis]})"

    def to_json(self):
        from .jsonio import rational_out

        return {"basis": [[rational_out(e) for e in col] for col in self.basis]}


def lattice_from_lhs(l: int, h: int, s: int) -> Lattice:
    return Lattice(((l, 0), (s, h)))
