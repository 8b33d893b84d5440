"""Exact rational linear programming.

A small dense two-phase primal simplex over ``fractions.Fraction`` with
Bland's anti-cycling rule.  Problems are given in equality standard form

    minimize c.x   subject to  A x = b,  x >= 0,  b >= 0,

which is what the geometric feasibility questions in this library reduce
to.  Because every pivot is exact, "optimal", "infeasible" and
"unbounded" are certificates, not approximations: optimal bases yield
exact dual vectors and infeasible systems yield exact Farkas vectors.

``EqualityFeasibility`` additionally caches the phase-1 work so that many
objectives can be optimized over one constraint set cheaply; the
flag-separation search leans on this heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LatsepError
from .linalg import solve_square

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    objective: Fraction | None = None
    x: list[Fraction] | None = None
    basis: list[int] | None = None


def _zrow_for(costs, rows, basis, ncols):
    """Reduced-cost row for the given objective under the current basis."""
    z = [Fraction(c) for c in costs[:ncols]] + [Fraction(0)]
    for i, bi in enumerate(basis):
        cb = costs[bi]
        if cb != 0:
            row = rows[i]
            for j in range(ncols + 1):
                if row[j] != 0:
                    z[j] -= cb * row[j]
    return z


def _pivot(rows, zrow, basis, pr, pc):
    prow = rows[pr]
    pv = prow[pc]
    if pv != 1:
        rows[pr] = prow = [v / pv for v in prow]
    for i, row in enumerate(rows):
        if i != pr and row[pc] != 0:
            f = row[pc]
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    f = zrow[pc]
    if f != 0:
        for j in range(len(zrow)):
            if prow[j] != 0:
                zrow[j] -= f * prow[j]
    basis[pr] = pc


_STALL_LIMIT = 12


def _run(rows, zrow, basis, ncols) -> str:
    """Simplex loop; mutates rows/zrow/basis.

    Pricing is Dantzig (most negative reduced cost), which is fast on
    the heavily degenerate systems produced by the separation searches.
    Whenever the objective stalls for a stretch of pivots the loop drops
    to Bland's smallest-index rule until the objective moves again,
    which rules out cycling while keeping the fast path.
    """
    stall = 0
    last_obj = zrow[-1]
    while True:
        enter = -1
        if stall < _STALL_LIMIT:
            best_rc = 0
            for j in range(ncols):
                v = zrow[j]
                if v < best_rc:
                    best_rc = v
                    enter = j
        else:
            for j in range(ncols):
                if zrow[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(rows, zrow, basis, leave, enter)
        if zrow[-1] != last_obj:
            last_obj = zrow[-1]
            stall = 0
        else:
            stall += 1


class EqualityFeasibility:
    """Phase-1 solved once for A x = b, x >= 0; then many phase-2 objectives.

    Rows found redundant during phase 1 are dropped internally; dual
    vectors are always reported in terms of the original rows (dropped
    rows get multiplier zero).
    """

    def __init__(self, a_rows, b):
        self.m0 = len(a_rows)
        self.n = len(a_rows[0]) if a_rows else 0
        self._a = [[Fraction(v) for v in row] for row in a_rows]
        self._b = [Fraction(v) for v in b]
        if any(v < 0 for v in self._b):
            raise ValueError("right-hand side must be nonnegative")

        n, m = self.n, self.m0
        rows = [
            [self._a[i][j] for j in range(n)]
            + [Fraction(1) if t == i else Fraction(0) for t in range(m)]
            + [self._b[i]]
            for i in range(m)
        ]
        basis = [n + i for i in range(m)]
        costs1 = [Fraction(0)] * n + [Fraction(1)] * m
        zrow = _zrow_for(costs1, rows, basis, n + m)
        if _run(rows, zrow, basis, n + m) != OPTIMAL:
            raise LatsepError("phase 1 unbounded, but its objective is at least 0")
        self._phase1_obj = -zrow[-1]
        self.feasible = self._phase1_obj == 0
        if not self.feasible:
            self._phase1_basis = basis[:]
            self._rows = None
            self._basis = None
            self.kept = list(range(m))
            return

        # Drive artificials out of the basis, dropping redundant rows.
        drop = []
        for i in range(m):
            if basis[i] >= n:
                pc = next((j for j in range(n) if rows[i][j] != 0), None)
                if pc is None:
                    drop.append(i)
                else:
                    _pivot(rows, zrow, basis, i, pc)
        self.kept = [i for i in range(m) if i not in drop]
        self._rows = [rows[i][:n] + [rows[i][-1]] for i in range(m) if i not in drop]
        self._basis = [basis[i] for i in range(m) if i not in drop]

    def feasible_point(self) -> list[Fraction]:
        if not self.feasible:
            raise LatsepError("feasible_point of an infeasible system")
        x = [Fraction(0)] * self.n
        for i, bi in enumerate(self._basis):
            x[bi] = self._rows[i][-1]
        return x

    def minimize(self, costs) -> LPResult:
        """Minimize costs.x over the feasible region (costs: length n)."""
        if not self.feasible:
            return LPResult(INFEASIBLE)
        rows = [row[:] for row in self._rows]
        basis = self._basis[:]
        costs = [Fraction(c) for c in costs]
        zrow = _zrow_for(costs, rows, basis, self.n)
        status = _run(rows, zrow, basis, self.n)
        if status != OPTIMAL:
            return LPResult(UNBOUNDED)
        x = [Fraction(0)] * self.n
        for i, bi in enumerate(basis):
            x[bi] = rows[i][-1]
        return LPResult(OPTIMAL, -zrow[-1], x, basis)

    def duals(self, costs, basis) -> list[Fraction]:
        """Row multipliers y with y.A_B = c_B, indexed by original rows.

        For an optimal basis these are the LP dual values: they satisfy
        c_j - y.A_j >= 0 for every column j.
        """
        costs = [Fraction(c) for c in costs]
        mat = [[self._a[i][bj] for i in self.kept] for bj in basis]
        rhs = [[costs[bj] for bj in basis]]
        sol = solve_square(mat, rhs)
        if sol is None:
            raise LatsepError("duals of a singular basis")
        y_kept = sol[0]
        y = [Fraction(0)] * self.m0
        for pos, i in enumerate(self.kept):
            y[i] = y_kept[pos]
        return y

    def farkas_duals(self) -> list[Fraction]:
        """For an infeasible system: y with y.b > 0 and y.A_j <= 0 for all j."""
        if self.feasible:
            raise LatsepError("farkas_duals of a feasible system")
        n, m = self.n, self.m0

        def col(j):
            if j < n:
                return [self._a[i][j] for i in range(m)]
            e = [Fraction(0)] * m
            e[j - n] = Fraction(1)
            return e

        costs1 = [Fraction(0)] * n + [Fraction(1)] * m
        mat = [col(bj) for bj in self._phase1_basis]
        rhs = [[costs1[bj] for bj in self._phase1_basis]]
        sol = solve_square(mat, rhs)
        if sol is None:
            raise LatsepError("singular phase-1 basis")
        return sol[0]


def feasible_point(a_rows, b) -> list[Fraction] | None:
    """One exact solution of A x = b, x >= 0, or None.

    Rows with negative right-hand side are flipped internally.
    """
    fixed_a = []
    fixed_b = []
    for row, bv in zip(a_rows, b):
        bv = Fraction(bv)
        if bv < 0:
            fixed_a.append([-Fraction(v) for v in row])
            fixed_b.append(-bv)
        else:
            fixed_a.append([Fraction(v) for v in row])
            fixed_b.append(bv)
    sys = EqualityFeasibility(fixed_a, fixed_b)
    if not sys.feasible:
        return None
    return sys.feasible_point()
