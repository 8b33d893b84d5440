"""The Fraction linear algebra, simplex tableau, flag search and flag
walk that the library's integer kernels, integer tableau, integer
``search_flag`` and kernel-read subspace chain replaced, kept verbatim
as differential references.  They use the library's data types only.
The flag search poses its LPs on the coordinates the library's
``search_flag`` uses, the pivot columns of the affine hull's basis, so
that the two give the same flags as long as the library's LP is not
sifted, that is, at most
``conditions._SIFT_COLUMNS_PER_ROW`` points per LP row.  A sifted LP
is solved on fewer points, and its flag can differ.

Kept apart from ``oracles.py``, which the benchmark's checks import (and
compile, where bytecode is not cached): this code is needed by the tests
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from latsep import linalg
from latsep.conditions import OWNER_A, OWNER_B, OWNER_EMPTY, Partition, SeparatingFlag
from latsep.errors import DimensionMismatchError, InvalidFlagError, LatsepError
from latsep.geometry import AffineFunctional, IntPoint, PointSet
from latsep.verdicts import Verdict


@dataclass(frozen=True)
class BlockingFlat:
    """Affine flat on which every weak separator of the live points is
    constant: the no-flag answer of the greedy search below."""

    anchor: IntPoint
    basis: tuple[tuple[int, ...], ...]


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


def affine_hull_basis(s: PointSet) -> tuple[IntPoint, list[tuple[int, ...]]]:
    """Anchor point and a maximal independent set of difference vectors.

    Every point of ``s`` is the anchor plus a rational combination of the
    returned integer directions.
    """
    if len(s) == 0:
        raise DimensionMismatchError("empty point set has no affine hull")
    anchor = s.points[0]
    diffs = [tuple(x - a for x, a in zip(p, anchor)) for p in s.points[1:]]
    return anchor, independent_subset(diffs)


def lex_flag_to_subspace_chain(flag: SeparatingFlag):
    """The flag's nested subspace chain, smallest flat first, as
    (anchor, basis) pairs ending with the ambient space.

    Each flat has a rational anchor and primitive integer directions;
    raises InvalidFlagError when some level is constant on the previous
    flat.  For c the level's coefficients on the basis, v becomes
    |c0| v - sign(c0) c_v b0, a positive multiple of v - (c_v / c0) b0.
    """
    d = flag.dim
    anchor = tuple(Fraction(0) for _ in range(d))
    basis = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    chain = [(anchor, basis)]
    for level, g in enumerate(flag.functionals):
        if len(g.normal) != d:
            raise DimensionMismatchError("functional dimension mismatch")
        coeffs = [sum(n * x for n, x in zip(g.normal, v)) for v in basis]
        j0 = next((j for j, c in enumerate(coeffs) if c != 0), None)
        if j0 is None:
            raise InvalidFlagError(f"level {level + 1} is constant on the current flat")
        b0, c0 = basis[j0], coeffs[j0]
        t0 = -g.value(anchor) / c0
        anchor = tuple(a + t0 * v for a, v in zip(anchor, b0))
        sign = 1 if c0 > 0 else -1
        basis = [
            linalg.primitive_part(tuple(sign * (c0 * x - c * y) for x, y in zip(v, b0)))[0]
            for j, (v, c) in enumerate(zip(basis, coeffs))
            if j != j0
        ]
        chain.insert(0, (anchor, basis))
    return chain


def _to_ambient(p_vec, q_val, cols, d) -> AffineFunctional:
    """The functional x -> p . x[cols] - q, zero off ``cols``."""
    normal = [Fraction(0)] * d
    for j, v in zip(cols, p_vec):
        normal[j] = Fraction(v)
    return AffineFunctional.of(normal, Fraction(q_val))


def search_flag(p: Partition) -> Verdict:
    """Complete decision procedure for flag separation of finite sets.

    On success the witness is a verifying SeparatingFlag; on failure it
    is the affine flat on which every weak separator of the remaining
    points is constant.
    """
    a_live = list(p.a.points)
    b_live = list(p.b.points)
    funcs: list[AffineFunctional] = []
    while True:
        if not a_live or not b_live:
            if a_live:
                owner = OWNER_A
            elif b_live:
                owner = OWNER_B
            else:
                owner = OWNER_EMPTY
            return Verdict(True, SeparatingFlag(p.dim, tuple(funcs), owner))

        live = sorted(a_live + b_live)
        hull = PointSet.of(live, p.dim)
        anchor, basis = affine_hull_basis(hull)
        # coordinates that aff(live) projects onto one to one
        coords = rref(frac_rows(basis))[1]
        r = len(coords)
        tau = {q: tuple(q[j] for j in coords) for q in live}
        a_sorted = sorted(a_live)
        b_sorted = sorted(b_live)
        cols = a_sorted + b_sorted
        col_of = {q: i for i, q in enumerate(cols)}
        n_a = len(a_sorted)
        rows = [
            [Fraction(tau[q][i]) for q in a_sorted]
            + [Fraction(-tau[q][i]) for q in b_sorted]
            for i in range(r)
        ]
        rows.append([Fraction(1)] * n_a + [Fraction(0)] * len(b_sorted))
        rows.append([Fraction(0)] * n_a + [Fraction(1)] * len(b_sorted))
        rhs = [Fraction(0)] * r + [Fraction(1), Fraction(1)]
        system = EqualityFeasibility(rows, rhs)

        if not system.feasible:
            # The hulls of the live sides are disjoint: the Farkas vector
            # yields a separator with a uniform gap, strict at every point.
            y = system.farkas_duals()
            p_vec = [-y[i] for i in range(r)]
            q_val = (y[r] - y[r + 1]) / 2
            g = _to_ambient(p_vec, q_val, coords, p.dim)
            funcs.append(g)
            a_live, b_live = [], []
            continue

        w = system.feasible_point()
        p_acc = [Fraction(0)] * r
        q_acc = Fraction(0)
        in_e = set()
        for q in live:
            i = col_of[q]
            if w[i] > 0:
                in_e.add(q)
                continue
            val = sum(pc * t for pc, t in zip(p_acc, tau[q])) - q_acc
            if val != 0:
                continue  # already strictly separated by the accumulated sum
            costs = [Fraction(0)] * len(cols)
            costs[i] = Fraction(-1)
            res = system.minimize(costs)
            if -res.objective > 0:
                w = [(wv + xv) / 2 for wv, xv in zip(w, res.x)]
                in_e.add(q)
            else:
                y = system.duals(costs, res.basis)
                g_p = [-y[t] for t in range(r)]
                g_q = y[r]
                if __debug__:
                    for s_pt in a_sorted:
                        assert sum(a * b for a, b in zip(g_p, tau[s_pt])) - g_q >= 0
                    for s_pt in b_sorted:
                        assert sum(a * b for a, b in zip(g_p, tau[s_pt])) - g_q <= 0
                    assert sum(a * b for a, b in zip(g_p, tau[q])) - g_q != 0
                p_acc = [a + b for a, b in zip(p_acc, g_p)]
                q_acc += g_q

        if len(in_e) == len(live):
            return Verdict(False, BlockingFlat(anchor, tuple(basis)))
        funcs.append(_to_ambient(p_acc, q_acc, coords, p.dim))
        a_live = [q for q in a_sorted if q in in_e]
        b_live = [q for q in b_sorted if q in in_e]
