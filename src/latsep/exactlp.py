"""Exact linear programming on an integer tableau: integers in, integers out.

A small dense two-phase primal simplex with Dantzig pricing and Bland's
anti-cycling rule.  Problems are given in equality standard form

    minimize c.x   subject to  A x = b,  x >= 0,  b >= 0,

with integer A, b and c, which is what the geometric feasibility
questions in this library reduce to.  The tableau is fraction-free:
integer entries over one common denominator D > 0, pivoted by the
integer-preserving rule of Edmonds and Bareiss, in which every division
is exact (the algorithm notes in docs/ give the argument), and results
are integers over D.  Because every pivot is exact, "optimal", "infeasible" and "unbounded"
are certificates, not approximations.  The artificial columns stay in
the tableau, so optimal bases yield exact dual vectors and infeasible
systems exact Farkas vectors without a further solve.

``EqualityFeasibility`` additionally caches the phase-1 work so that many
objectives can be optimized over one constraint set cheaply; the
flag-separation search leans on this heavily.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LatsepError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    """An optimum over the tableau denominator ``den`` > 0: objective /
    den, the point x / den, and duals y / den with one value per original
    row, so that c_j - y.A_j / den >= 0 for every column j, with equality
    on the basis."""

    status: str
    objective: int | None = None
    x: list[int] | None = None
    basis: list[int] | None = None
    y: list[int] | None = None
    den: int | None = None


def _zrow(costs, rows, basis, den, width) -> list[int]:
    """den times the reduced-cost row of integer ``costs`` (zero past its
    end) under the current basis, ``width`` long, with den times minus
    the objective last."""
    z = [den * c for c in costs] + [0] * (width - len(costs))
    for row, bi in zip(rows, basis):
        cb = costs[bi]
        if cb:
            z = [a - cb * b for a, b in zip(z, row)]
    return z


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
    negated together with the row when it is negative (so that D > 0
    and every entry keeps the sign of the rational tableau's)."""
    prow = rows[pr]
    p = prow[pc]
    if p < 0:
        p = -p
        rows[pr] = prow = [-v for v in prow]
    for i, row in enumerate(rows):
        if i != pr:
            rows[i] = _eliminate(row, prow, p, pc, den)
    z[:] = _eliminate(z, prow, p, pc, den)
    basis[pr] = pc
    return p


_STALL_LIMIT = 12


def _run(rows, z, basis, den, ncols) -> tuple[str, int]:
    """Simplex loop; mutates rows/z/basis, returns (status, denominator).

    Pricing is Dantzig (most negative reduced cost), which is fast on
    the heavily degenerate systems produced by the separation searches.
    Whenever the objective stalls for a stretch of pivots the loop drops
    to Bland's smallest-index rule until the objective moves again,
    which rules out cycling while keeping the fast path.  Every entry
    shares the denominator, so reduced costs compare as integers; the
    ratio test compares by cross-multiplication.
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
            return OPTIMAL, den
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
            return UNBOUNDED, den
        den = _pivot(rows, z, basis, den, leave, enter)
        if z[-1] * last_den != last_obj * den:
            last_obj, last_den = z[-1], den
            stall = 0
        else:
            stall += 1


class EqualityFeasibility:
    """Phase-1 solved once for A x = b, x >= 0 with integer A and b; then
    many phase-2 objectives.

    The starting basis is the artificial identity, so the tableau starts
    as [A | I | b] over D = 1.  Rows found redundant during phase 1 are
    dropped internally; dual vectors are always reported in terms of the
    original rows (redundant rows get multiplier zero).
    """

    def __init__(self, a_rows, b):
        self.m0 = m = len(a_rows)
        self.n = n = len(a_rows[0]) if a_rows else 0
        if any(v < 0 for v in b):
            raise ValueError("right-hand side must be nonnegative")
        rows = [
            list(row) + [int(t == i) for t in range(m)] + [bv]
            for i, (row, bv) in enumerate(zip(a_rows, b))
        ]
        basis = [n + i for i in range(m)]
        z = _zrow([0] * n + [1] * m, rows, basis, 1, n + m + 1)
        status, den = _run(rows, z, basis, 1, n + m)
        if status != OPTIMAL:
            raise LatsepError("phase 1 unbounded, but its objective is at least 0")
        self.feasible = z[-1] == 0
        if not self.feasible:
            # y = c_B B^-1 for phase-1 costs: 1 - z_{n+i} / den on artificial i
            self._farkas = [den - z[n + i] for i in range(m)], den
            return

        # Drive artificials out of the basis, dropping redundant rows.
        drop = []
        for i in range(m):
            if basis[i] >= n:
                pc = next((j for j in range(n) if rows[i][j] != 0), None)
                if pc is None:
                    drop.append(i)
                else:
                    den = _pivot(rows, z, basis, den, i, pc)
        self._rows = [row for i, row in enumerate(rows) if i not in drop]
        self._basis = [bi for i, bi in enumerate(basis) if i not in drop]
        self._den = den

    def feasible_point(self) -> tuple[list[int], int]:
        """(x, den): one basic solution x / den of the system."""
        if not self.feasible:
            raise LatsepError("feasible_point of an infeasible system")
        return _point(self._rows, self._basis, self.n), self._den

    def minimize(self, costs) -> LPResult:
        """Minimize costs.x over the feasible region (costs: n integers)."""
        if not self.feasible:
            return LPResult(INFEASIBLE)
        n = self.n
        rows = [row[:] for row in self._rows]
        basis = self._basis[:]
        z = _zrow(costs, rows, basis, self._den, n + self.m0 + 1)
        status, den = _run(rows, z, basis, self._den, n)
        if status != OPTIMAL:
            return LPResult(UNBOUNDED)
        # y = c_B B^-1 is minus the reduced cost of each artificial column
        y = [-z[n + i] for i in range(self.m0)]
        return LPResult(OPTIMAL, -z[-1], _point(rows, basis, n), basis, y, den)

    def farkas_duals(self) -> tuple[list[int], int]:
        """For an infeasible system: (y, den) with y.b > 0 and y.A_j <= 0
        for all j."""
        if self.feasible:
            raise LatsepError("farkas_duals of a feasible system")
        return self._farkas


def _point(rows, basis, n) -> list[int]:
    """The basic solution, times the tableau denominator."""
    x = [0] * n
    for row, bi in zip(rows, basis):
        x[bi] = row[-1]
    return x
