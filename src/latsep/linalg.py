"""Exact rational linear algebra: elimination, solving, nullspaces.

All routines work on lists of lists of ``fractions.Fraction`` (or ints,
which are promoted).  Nothing here ever touches floating point; results
are exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form. Returns (new rows, pivot column indices)."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = rref(frac_rows(rows))
    return len(pivots)


def solve(a_rows, b) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if not a_rows:
        return []
    aug = [list(map(Fraction, row)) + [Fraction(bv)] for row, bv in zip(a_rows, b)]
    m, pivots = rref(aug)
    ncols = len(a_rows[0])
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x


def nullspace(a_rows) -> list[list[Fraction]]:
    """Basis of {x : A x = 0} (one vector per free column)."""
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    m, pivots = rref(frac_rows(a_rows))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][f]
        basis.append(v)
    return basis


def solve_square(a_rows, b_cols: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Solve A X = B for a square nonsingular A; B given as list of columns.

    Returns the columns of X, or None if A is singular.
    """
    n = len(a_rows)
    k = len(b_cols)
    aug = [
        [Fraction(a_rows[i][j]) for j in range(n)] + [Fraction(b_cols[t][i]) for t in range(k)]
        for i in range(n)
    ]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [[m[i][n + t] for i in range(n)] for t in range(k)]


def integer_primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector (ints or Fractions) to a primitive integer
    vector (gcd 1).

    The direction (sign) of the input is preserved; the zero vector maps
    to itself.
    """
    vec = tuple(vec)
    scale = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (scale // v.denominator) for v in vec]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g else tuple(ints)


def canonical_direction(vec) -> tuple[int, ...]:
    """Primitive integer vector with the first nonzero entry positive."""
    prim = integer_primitive(vec)
    for v in prim:
        if v != 0:
            return prim if v > 0 else tuple(-x for x in prim)
    return prim


def independent_subset(vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Greedy maximal linearly independent subset, keeping input order."""
    picked: list[tuple[int, ...]] = []
    staircase: list[list[Fraction]] = []  # rref rows of the picked vectors
    for v in vectors:
        cand = staircase + [[Fraction(x) for x in v]]
        m, pivots = rref(cand)
        if len(pivots) > len(staircase):
            picked.append(v)
            staircase = m[: len(pivots)]
    return picked
