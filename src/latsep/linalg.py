"""Exact linear algebra: elimination, solving, nullspaces.

Rational routines take lists of lists of ``fractions.Fraction`` (or ints,
which are promoted); ``minor_adjugate`` stays in the integers.  Nothing
here touches floating point; results are exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


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


def minor_adjugate(rows):
    """Coordinates ``cols`` on which the m integer vectors ``rows`` have a
    nonzero m x m minor, with an integer D > 0 and integer rows R such that
    every x in their span is sum_i (R[i] . x[cols] / D) rows[i]; None when
    the vectors are linearly dependent.

    One fraction-free Gauss-Jordan pass (Bareiss) over [rows | I]: every
    division is exact, and at the end the pivot columns hold D times the
    identity and the appended block holds D times the inverse of the
    minor, i.e. its adjugate up to sign.  For a square nonsingular A,
    A x = b has the solution x_r = sum_i R[i][r] b_i / D.
    """
    m, d = len(rows), len(rows[0])
    a = [list(w) + [int(i == j) for j in range(m)] for i, w in enumerate(rows)]
    cols: list[int] = []
    prev = 1
    for c in range(d):
        r = len(cols)
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r]
        for i in range(m):
            if i != r:
                f = a[i][c]
                a[i] = [(piv[c] * x - f * y) // prev for x, y in zip(a[i], piv)]
        prev = piv[c]
        cols.append(c)
        if len(cols) == m:
            sign = 1 if prev > 0 else -1
            adj = [[sign * a[r][d + i] for r in range(m)] for i in range(m)]
            return cols, sign * prev, adj
    return None


def primitive_part(v: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(v / g, g) for g the gcd of the entries; g == 0 for the zero vector."""
    g = gcd(*v)
    return (tuple(c // g for c in v) if g > 1 else v), g


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
