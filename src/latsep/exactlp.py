"""Exact linear programming on an integer tableau: integers in, integers out.

A small dense phase-1 primal simplex with Dantzig pricing and Bland's
anti-cycling rule.  Problems are given in equality standard form

    A x = b,  x >= 0,  b >= 0,

with integer A and b, which is what the geometric feasibility
questions in this library reduce to.  The tableau is fraction-free:
integer entries over one common denominator D > 0, pivoted by the
integer-preserving rule of Edmonds and Bareiss, in which every division
is exact (the algorithm notes in docs/ give the argument), and results
are integers over D.  Because every pivot is exact, "feasible" and
"infeasible" are certificates, not approximations.  The artificial
columns stay in the tableau, so infeasible systems yield exact Farkas
vectors without a further solve.

``EqualityFeasibility`` runs phase 1 only: the library's geometric
questions need one feasible point or a Farkas vector, never an optimum.
"""

from __future__ import annotations

from .errors import LatsepError


def _eliminate(row, prow, p, c, den) -> list[int]:
    """Row ``row`` after the pivot on entry p of ``prow`` in column c, for
    the tableau denominator going from den to p."""
    f = row[c]
    if f:
        return [(a * p - f * b) // den for a, b in zip(row, prow)]
    if p != den:
        return [a * p // den for a in row]
    return row


def _pivot(rows, z, basis, den, pr, pc) -> int:
    """Integer-preserving pivot on (pr, pc); returns the new denominator.

    The pivot row is kept and the new denominator is its pivot entry,
    which the ratio test takes positive, so D > 0 and every entry keeps
    the sign of the rational tableau's."""
    prow = rows[pr]
    p = prow[pc]
    for i, row in enumerate(rows):
        if i != pr:
            rows[i] = _eliminate(row, prow, p, pc, den)
    z[:] = _eliminate(z, prow, p, pc, den)
    basis[pr] = pc
    return p


_STALL_LIMIT = 12


def _run(rows, z, basis, den, ncols) -> int:
    """Phase-1 simplex loop; mutates rows/z/basis, returns the optimal
    tableau's denominator.

    Pricing is Dantzig (most negative reduced cost), which is fast on
    the heavily degenerate systems produced by the separation searches.
    Whenever the objective stalls for a stretch of pivots the loop drops
    to Bland's smallest-index rule until the objective moves again,
    which rules out cycling while keeping the fast path.  Every entry
    shares the denominator, so reduced costs compare as integers; the
    ratio test compares by cross-multiplication.  The phase-1 objective
    is at least 0, so it is never unbounded: a column that no row bounds
    raises LatsepError.
    """
    stall = 0
    last_obj, last_den = z[-1], den
    while True:
        enter = -1
        if stall < _STALL_LIMIT:
            best_rc = 0
            for j in range(ncols):
                v = z[j]
                if v < best_rc:
                    best_rc = v
                    enter = j
        else:
            for j in range(ncols):
                if z[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return den
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, top, bottom = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * bottom, top * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, top, bottom = i, row[-1], a
        if leave < 0:
            raise LatsepError("phase 1 unbounded, but its objective is at least 0")
        den = _pivot(rows, z, basis, den, leave, enter)
        if z[-1] * last_den != last_obj * den:
            last_obj, last_den = z[-1], den
            stall = 0
        else:
            stall += 1


class EqualityFeasibility:
    """Phase 1 for A x = b, x >= 0 with integer A and b: one basic
    feasible point, or a Farkas vector proving there is none.

    The starting basis is the artificial identity, so the tableau starts
    as [A | I | b] over D = 1.  An artificial still basic at the phase-1
    optimum sits at 0 (on a redundant row, or degenerately), so it is
    left there: pivoting it out would not move the point.
    """

    def __init__(self, a_rows, b):
        m = len(a_rows)
        n = len(a_rows[0]) if a_rows else 0
        if any(v < 0 for v in b):
            raise ValueError("right-hand side must be nonnegative")
        rows = [
            list(row) + [int(t == i) for t in range(m)] + [bv]
            for i, (row, bv) in enumerate(zip(a_rows, b))
        ]
        basis = [n + i for i in range(m)]
        # phase-1 reduced costs under that basis: cost 1 on the
        # artificials, less every row; minus the objective last
        z = [0] * n + [1] * m + [0]
        for row in rows:
            z = [c - v for c, v in zip(z, row)]
        den = _run(rows, z, basis, 1, n + m)
        self.feasible = z[-1] == 0
        if not self.feasible:
            # y = c_B B^-1 for phase-1 costs: 1 - z_{n+i} / den on artificial i
            self._farkas = [den - z[n + i] for i in range(m)], den
            return
        self._x = _point(rows, basis, n), den

    def feasible_point(self) -> tuple[list[int], int]:
        """(x, den): one basic solution x / den of the system."""
        if not self.feasible:
            raise LatsepError("feasible_point of an infeasible system")
        return self._x

    def farkas_duals(self) -> tuple[list[int], int]:
        """For an infeasible system: (y, den) with y.b > 0 and y.A_j <= 0
        for all j."""
        if self.feasible:
            raise LatsepError("farkas_duals of a feasible system")
        return self._farkas


def _point(rows, basis, n) -> list[int]:
    """The basic solution's n original columns, times the tableau
    denominator; a basic artificial is at 0 and is skipped."""
    x = [0] * n
    for row, bi in zip(rows, basis):
        if bi < n:
            x[bi] = row[-1]
    return x
