"""Exact integer linear algebra: fraction-free elimination, solving,
nullspaces and primitive vectors.

Elimination is fraction-free (Bareiss) on integer vectors.  Only
``common_denominator`` and ``integer_primitive`` accept rationals: they
are the one place where rational input (a point given to
``geometry.point_in_conv``, the coefficients given to
``AffineFunctional.of``) is scaled to the integers every other layer
trades.  Nothing here touches floating point; results are exact and
deterministic.
"""

from __future__ import annotations

from math import gcd, lcm


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


def common_denominator(vec) -> tuple[list[int], int]:
    """(ints, den) with vec = ints / den for the least den > 0, for a
    rational vector (ints or Fractions)."""
    den = lcm(*(v.denominator for v in vec))
    return [v.numerator * (den // v.denominator) for v in vec], den


def integer_primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector (ints or Fractions) to a primitive integer
    vector (gcd 1).

    The direction (sign) of the input is preserved; the zero vector maps
    to itself.
    """
    ints, _ = common_denominator(tuple(vec))
    return primitive_part(tuple(ints))[0]


def independent_subset(vectors) -> list[tuple[int, ...]]:
    """Greedy maximal linearly independent subset, keeping input order.

    Each vector is reduced fraction-free against the picked ones, kept
    in echelon form sorted by pivot column, and is picked when something
    is left; the scan stops once the picked vectors span the space.
    """
    picked: list[tuple[int, ...]] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for v in vectors:
        w = list(v)
        for c, row in echelon:
            if w[c]:
                f, p = w[c], row[c]
                w = [p * a - f * b for a, b in zip(w, row)]
        c = next((j for j, a in enumerate(w) if a), None)
        if c is None:
            continue
        g = gcd(*w)
        echelon.append((c, [a // g for a in w]))
        echelon.sort(key=lambda e: e[0])
        picked.append(tuple(v))
        if len(picked) == len(w):
            break
    return picked


def null_vectors(rows, d: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x in Q^d : w . x = 0 for w in rows},
    one vector per free column in increasing order, normalised like
    reduced row echelon form (the free column's entry positive, the
    other free columns zero).  The rows must be linearly independent.

    The vectors are read off ``minor_adjugate``: for the free column f,
    x_f = D and x_cols = -adj . W_f, so W x = 0.
    """
    if not rows:
        return [tuple(int(i == j) for j in range(d)) for i in range(d)]
    cols, det, adj = minor_adjugate(rows)
    out = []
    for f in range(d):
        if f in cols:
            continue
        x = [0] * d
        x[f] = det
        for r, j in enumerate(cols):
            x[j] = -sum(row[r] * w[f] for row, w in zip(adj, rows))
        out.append(primitive_part(tuple(x))[0])
    return out
