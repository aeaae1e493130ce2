"""Exact rational vectors, square matrices, and integer normal forms.

Conventions used throughout the package:

* scalars are ``fractions.Fraction``; plain ints are accepted wherever an
  entry is read, and floats are rejected at the boundary (``frac``),
* a vector is a tuple of Fractions,
* a matrix is a tuple of *column* vectors, so ``mat_vec(M, x)`` is the linear
  combination of the columns of M with coefficients x.

Every rational solver (``det``, ``solve``, ``solve_scaled``, ``inverse``,
``nullspace``, ``independent_subset``, ``rank_of``) is a thin wrapper
around one fraction-free, row-incremental Gauss-Jordan pass,
``_gauss_jordan``: it runs on integers.  ``det``, ``solve`` and
``inverse`` return Fractions; ``solve_scaled`` returns the solutions as
integers over one positive denominator, and ``nullspace`` reads
primitive integer kernel vectors straight off the pivot rows (``_kernel``,
which ``Polytope.hull`` runs on its own pass); neither makes a Fraction.
``clear_denominators`` is the one way rational vectors become integer
data; a ``PointSet`` keeps its points in the form it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvariantError, SingularMatrixError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """Coerce an exact value (int, Fraction or 'p/q' string) to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def vec(coords: Iterable) -> Vec:
    return tuple(frac(c) for c in coords)


def vec_str(v) -> str:
    """A vector for error messages, as "(1, -1/2)" instead of Fraction reprs."""
    return "(" + ", ".join(str(c) for c in v) + ")"


def mat(columns: Iterable[Iterable]) -> Mat:
    cols = tuple(vec(c) for c in columns)
    d = len(cols[0]) if cols else 0
    if any(len(c) != d for c in cols):
        raise ValueError("ragged matrix")
    return cols


def identity(d: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for i in range(d)) for j in range(d))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c, u: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def mat_vec(m: Mat, x: Sequence) -> Vec:
    d = len(m[0])
    out = [Fraction(0)] * d
    for col, c in zip(m, x, strict=True):
        c = frac(c)
        if c:
            for i in range(d):
                out[i] += c * col[i]
    return tuple(out)


def mat_mul(a: Mat, b: Mat) -> Mat:
    return tuple(mat_vec(a, col) for col in b)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m, strict=True))


def is_integral(m: Mat) -> bool:
    return all(e.denominator == 1 for col in m for e in col)


def clear_denominators(vectors: Iterable[Sequence]) -> tuple[int, list[tuple[int, ...]]]:
    """(D, [D * v for v in vectors]): D is the least common denominator of
    every entry, so each D * v is a tuple of ints.  Entries are int or Fraction."""
    vectors = list(vectors)
    den = math.lcm(*[e.denominator for v in vectors for e in v])
    return den, [tuple(e.numerator * (den // e.denominator) for e in v) for v in vectors]


def _gauss_jordan(rows: Iterable[Sequence], width: int):
    """One fraction-free, row-incremental Gauss-Jordan pass, the elimination
    behind every exact solver here (Bareiss 1968).

    Each row is cleared of its denominators on entry, then reduced against
    the pivot rows kept so far.  When a nonzero entry is left among its
    first `width` entries, the first such entry is its lead and the row is
    kept.  The pass stops after `width` pivots.  Every pivot row is `den`
    times its row of the reduced row echelon form, where `den` is the
    leading minor of the kept rows: their determinant at the lead columns,
    which is what makes every update below an exact integer division.

    Returns (kept, pivots, den, scale): the indices of the kept rows, their
    pivot rows as (lead column, int row) in the order kept, den, and the
    product of the kept rows' denominator scales, so that den / scale is
    the leading minor of the kept rows as given.  The kept rows are exactly
    the rows independent of the rows kept before them.
    """
    kept: list[int] = []
    pivots: list[tuple[int, list[int]]] = []
    den = scale = 1
    for i, row in enumerate(rows):
        q = math.lcm(*[e.denominator for e in row])
        row = [e.numerator * (q // e.denominator) for e in row]
        # den times the row reduced against the pivots, zero at every lead
        u = [den * x for x in row]
        for lead, p in pivots:
            c = row[lead]
            if c:
                u = [x - c * y for x, y in zip(u, p)]
        lead = next((k for k in range(width) if u[k]), None)
        if lead is None:
            continue
        new_den = u[lead]
        for j, (other, p) in enumerate(pivots):
            c = p[lead]
            pivots[j] = (other, [(new_den * x - c * y) // den for x, y in zip(p, u)])
        kept.append(i)
        pivots.append((lead, u))
        den = new_den
        scale *= q
        if len(pivots) == width:
            break
    return kept, pivots, den, scale


def det(m: Mat) -> Fraction:
    """Exact determinant from one Gauss-Jordan pass, for every size.

    The pass reduces the columns as rows; the determinant is the leading
    minor over the row scales, times the sign of the permutation the lead
    columns form.  A 0x0 matrix keeps no row, and its determinant is 1.
    """
    d = len(m)
    if any(len(c) != d for c in m):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, den, scale = _gauss_jordan(m, d)
    if len(pivots) < d:
        return Fraction(0)
    leads = [lead for lead, _ in pivots]
    inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1 :])
    return Fraction(-den if inversions % 2 else den, scale)


def solve_scaled(m: Mat, rhs: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(den, x) from one elimination of [m | rhs]: den > 0, and x[j][k] / den
    is entry j of the solution of m @ x_k = rhs[k], so x is den times the
    inverse of m when rhs is the identity.  Raises SingularMatrixError, and
    ValueError unless m is square and every rhs of its size."""
    d = len(m)
    if any(len(c) != d for c in (*m, *rhs)):
        raise ValueError("solving needs a square matrix and right-hand sides of its size")
    rows = [[col[i] for col in m] + [b[i] for b in rhs] for i in range(d)]
    _, pivots, den, _ = _gauss_jordan(rows, d)
    if len(pivots) < d:
        raise SingularMatrixError("singular matrix")
    x = [()] * d
    sign = 1 if den > 0 else -1
    for lead, row in pivots:
        x[lead] = [sign * e for e in row[d:]]
    return sign * den, x


def solve(m: Mat, v: Vec) -> Vec:
    """Exact solution x of m @ x = v; raises SingularMatrixError, and
    ValueError unless m is square and v of its size."""
    den, x = solve_scaled(m, [vec(v)])
    return tuple([Fraction(e, den) for (e,) in x])


def inverse(m: Mat) -> Mat:
    """Exact inverse; raises SingularMatrixError, and ValueError unless m is
    square."""
    den, x = solve_scaled(m, identity(len(m)))
    return tuple(zip(*[[Fraction(e, den) for e in row] for row in x]))


def dual_basis(b: Mat) -> Mat:
    """Columns b_i* with <b_i, b_j*> = delta_ij (inverse transpose)."""
    return transpose(inverse(b))


def _column_hnf(grid: list[list[int]], track_u: bool):
    """Column-reduce an integer row-major grid to lower-triangular HNF.

    Entries become nonnegative with the diagonal strictly dominating its row.
    Returns (grid, u_grid) where u_grid accumulates the column operations.
    """
    nrows = len(grid)
    ncols = len(grid[0])
    u = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if track_u else None

    def col_combine(j1, j2, a, b, c, dd):
        # (col j1, col j2) <- (a*col j1 + b*col j2, c*col j1 + d*col j2)
        for g in (grid, u) if track_u else (grid,):
            for row in g:
                x, y = row[j1], row[j2]
                row[j1] = a * x + b * y
                row[j2] = c * x + dd * y

    pivot_col = 0
    for i in range(nrows):
        if pivot_col >= ncols:
            break
        j_nz = next((j for j in range(pivot_col, ncols) if grid[i][j] != 0), None)
        if j_nz is None:
            continue
        if j_nz != pivot_col:
            col_combine(pivot_col, j_nz, 0, 1, 1, 0)
        for j in range(pivot_col + 1, ncols):
            if grid[i][j] == 0:
                continue
            p, q = grid[i][pivot_col], grid[i][j]
            g, x, y = _xgcd(p, q)
            # unimodular: det of [[x, -q//g], [y, p//g]] is (xp+yq)/g = 1
            col_combine(pivot_col, j, x, y, -(q // g), p // g)
        if grid[i][pivot_col] < 0:
            for g in (grid, u) if track_u else (grid,):
                for row in g:
                    row[pivot_col] = -row[pivot_col]
        piv = grid[i][pivot_col]
        for j in range(pivot_col):
            q = grid[i][j] // piv
            if q:
                for g in (grid, u) if track_u else (grid,):
                    for row in g:
                        row[j] -= q * row[pivot_col]
        pivot_col += 1
    return grid, u, pivot_col


def _xgcd(a: int, b: int):
    """Returns (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_basis(vectors: Sequence[Vec]) -> Mat:
    """Lower-triangular basis of the integer span of rational vectors.

    Returns the independent columns only, so the result has full column
    rank equal to the rank of the span.
    """
    vectors = [vec(v) for v in vectors if not is_zero(vec(v))]
    if not vectors:
        return ()
    d = len(vectors[0])
    scale, ints = clear_denominators(vectors)
    grid = [[v[i] for v in ints] for i in range(d)]
    grid, _, rank = _column_hnf(grid, track_u=False)
    cols = []
    for j in range(rank):
        cols.append(tuple(Fraction(grid[i][j], scale) for i in range(d)))
    return tuple(cols)


def integer_kernel(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Basis of the integer solutions of rows @ z = 0 (z integral).

    Column-reducing the constraint matrix with a tracked unimodular U makes
    the kernel exactly the U-columns beyond the rank.
    """
    grid = [list(map(int, r)) for r in rows]
    ncols = len(grid[0])
    _, u, rank = _column_hnf(grid, track_u=True)
    return tuple(tuple(row[j] for row in u) for j in range(rank, ncols))


def independent_subset(vectors: Sequence[Sequence]) -> list[int]:
    """Indices of a greedily chosen linearly independent subset, in order.

    Vector i is kept when it is independent of the vectors kept before it,
    so the kept vectors span what all of them span.  Exact for int and
    Fraction entries.
    """
    if not vectors:
        return []
    kept, _, _, _ = _gauss_jordan(vectors, len(vectors[0]))
    return kept


def rank_of(vectors: Sequence[Vec]) -> int:
    """Rank of a list of rational vectors (exact Gaussian elimination)."""
    return len(independent_subset(vectors))


def span_coordinates(cols: Sequence[Vec], points: Sequence[Vec]):
    """Exact coordinates of points in the span of independent columns.

    Returns (rows, inv, coords): `rows` picks an invertible square block of
    the column matrix and `inv` is its inverse, so that
    lam = inv @ (x[i] for i in rows) solves cols @ lam = x for x in the span;
    coords holds that lam for each point.  Raises InvariantError (witness:
    the point) when a point is off the span.
    """
    rows = tuple(independent_subset(transpose(cols)))
    inv = inverse(tuple(tuple(col[i] for i in rows) for col in cols))
    coords = []
    for p in points:
        lam = mat_vec(inv, tuple(p[i] for i in rows))
        if mat_vec(cols, lam) != tuple(p):
            raise InvariantError("point is off the span", witness=p)
        coords.append(lam)
    return rows, inv, coords


def nullspace(rows: Sequence[Vec]) -> tuple[tuple[int, ...], ...]:
    """Basis of {x : <r, x> = 0 for all rows r}, as primitive integer vectors,
    read off one Gauss-Jordan pass (`_kernel`)."""
    if not rows:
        raise ValueError("nullspace needs at least the ambient dimension")
    d = len(rows[0])
    _, pivots, den, _ = _gauss_jordan(rows, d)
    return _kernel(pivots, den, d)


def _kernel(pivots, den: int, width: int) -> tuple[tuple[int, ...], ...]:
    """The kernel of the rows of a `_gauss_jordan` pass, from its pivots and
    den: one primitive integer vector per free column fc of the reduced row
    echelon form.  The pivot rows are `den` times their rows of that form,
    so `den` at fc and minus each pivot row's entry at fc at its lead column
    is a kernel vector; it is divided by its gcd times the sign of `den`,
    which keeps it positively parallel to the vector with 1 at fc."""
    leads = {lead for lead, _ in pivots}
    sign = 1 if den > 0 else -1
    out = []
    for fc in range(width):
        if fc in leads:
            continue
        x = [0] * width
        x[fc] = den
        for pc, row in pivots:
            x[pc] = -row[fc]
        g = sign * math.gcd(*x)
        out.append(tuple([c // g for c in x]))
    return tuple(out)
