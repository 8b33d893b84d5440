"""Decision procedures for the three separation conditions.

* the k-parallelogram condition: no k' <= k points of one side share a
  coordinate sum with k' points of the other (repetition allowed),
  decided on the k'-fold sumsets encoded as big integers, one multiply
  per order and side (multiset enumeration for few, widely spread
  points);
* the ray condition: on every line meeting both sides, one side's points
  are a prefix or a suffix of the line's trace;
* flag separation: the two sides are split by a nested chain of affine
  subspaces, encoded lexicographically as an ordered list of functionals
  whose first nonzero sign classifies each point.

``search_flag`` decides flag separation of finite sets with one LP,
sifted when it is wide, because a flag exists exactly when conv(A) and
conv(B) are disjoint.  If the hulls meet at c = sum alpha_a a =
sum beta_b b, with convex weights alpha and beta, every flag level g is
>= 0 on A and <= 0 on B, so g(c) = 0 and g vanishes on the support of
both combinations.  By induction every level vanishes there, so all
those points fall to the one residual owner; but they include points of
both sides, so no flag exists.  If the hulls are disjoint, a Farkas
vector gives one functional that is strict on every point: a flag of
one level.  The LP asks for the weights alpha and beta, on coordinates
that the affine hull of A and B projects onto one to one, and its
feasible point is the no-flag certificate.  An LP with many more
columns (points) than rows is solved on a working set of points that
grows until the Farkas functional of the working set is strict on every
point, or until the working set's LP is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul

from . import linalg
from .errors import DimensionMismatchError, InvalidFlagError, LatsepError
from .exactlp import EqualityFeasibility
from .geometry import (
    AffineFunctional,
    DirectionCodes,
    PointSet,
    affine_hull_basis,
    line_key,
    point_codes,
)
from .verdicts import CommonPoint, ParallelogramWitness, RayViolation, Verdict

OWNER_A = "A"
OWNER_B = "B"
OWNER_EMPTY = "empty"


@dataclass(frozen=True)
class Partition:
    """Two disjoint nonempty point sets of the same dimension."""

    a: PointSet
    b: PointSet

    def __post_init__(self):
        if self.a.dim != self.b.dim:
            raise DimensionMismatchError("sides have different dimensions")
        if not self.a.points or not self.b.points:
            raise DimensionMismatchError("both sides must be nonempty")
        if self.a.member_set() & self.b.member_set():
            raise DimensionMismatchError("sides must be disjoint")

    @classmethod
    def of(cls, a_points, b_points, dim: int | None = None) -> "Partition":
        return cls(PointSet.of(a_points, dim), PointSet.of(b_points, dim))

    @property
    def dim(self) -> int:
        return self.a.dim

    def union(self) -> PointSet:
        return PointSet.of(self.a.points + self.b.points, self.dim)


@dataclass(frozen=True)
class SeparatingFlag:
    """Lexicographic flag: the first functional with nonzero value at a
    point decides its side (positive: A, negative: B); points where all
    levels vanish belong to the residual owner."""

    dim: int
    functionals: tuple[AffineFunctional, ...]
    residual_owner: str  # OWNER_A | OWNER_B | OWNER_EMPTY

    def classify(self, point) -> str:
        for g in self.functionals:
            v = g.value(point)
            if v > 0:
                return OWNER_A
            if v < 0:
                return OWNER_B
        return "residual"


# ---------------------------------------------------------------------------
# parallelogram condition

# Most bits the sumset check keeps in its dense Kronecker integers, 32 MiB.
# It keeps 2k of them, each of (k*span + 1)^d digits, so points far apart
# in a big box or a large k would need gigabytes; above this budget the
# check enumerates multisets instead, which is the only path such inputs
# can take.  Charging k <= 2 for four integers keeps their cap at 8 MiB
# per integer.
_KRONECKER_MAX_BITS = 1 << 28

# Enumeration builds each order's sums from the last order's distinct
# ones, while every digit of the dense integers costs work, more of it
# as they grow.  Few points spread over a big box are therefore cheaper
# to enumerate: that path is taken when the integers have more than this
# many digits per multiset sum (measured break-even: 2, see the
# algorithm notes in docs/).
_DIGITS_PER_SUM = 2


def check_parallelogram(p: Partition, k: int) -> Verdict:
    """No k' <= k points of A (with repetition) may share a coordinate
    sum with k' points of B.

    Decided on the k'-fold sumsets encoded as big integers
    (_parallelogram_by_kronecker), unless the points are so few or so
    spread out that enumerating the multisets is cheaper, or the 2k
    integers it keeps would exceed _KRONECKER_MAX_BITS in all.  Both
    paths return the same witness: the first B multiset in
    ``combinations_with_replacement`` order whose sum A also reaches,
    and the first A multiset with that sum, at the least failing order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    codes, digits = point_codes(p.a.points + p.b.points, k)
    sums = comb(len(p.a) + k, k) + comb(len(p.b) + k, k) - 2
    kept_bits = 2 * max(k, 2) * digits * _digit_bytes(p) * 8
    if kept_bits > _KRONECKER_MAX_BITS or digits > _DIGITS_PER_SUM * sums:
        return _parallelogram_by_enumeration(p, k, codes)
    return _parallelogram_by_kronecker(p, k, codes, digits)


def _digit_bytes(p: Partition) -> int:
    """Bytes per Kronecker digit: a digit of supp(S) * P counts pairs, so
    it is at most the side's size, which must stay below 2**(w-1)."""
    return (max(len(p.a), len(p.b)).bit_length() + 8) // 8


def _parallelogram_by_kronecker(p: Partition, k: int, codes, digits: int) -> Verdict:
    """check_parallelogram on big integers, one multiply per order and side;
    ``codes, digits`` are ``point_codes`` of A's points then B's, for k.

    A side becomes the integer with a 1 in digit ``code`` of w bits, and
    its order-j sumset the 1-digits of supp(S_{j-1} * P), the digits
    reset to 0/1 by a mask so that they stay below 2**(w-1).  The check
    fails at the first order where both sides have a 1 in the same
    digit; the witness is recovered by peeling points off against the
    lower orders.  The algorithm notes in docs/ give the bounds and the
    proofs.
    """
    a_pts = p.a.points
    b_pts = p.b.points
    width = _digit_bytes(p)
    w = width * 8
    fill = int.from_bytes((b"\xff" * (width - 1) + b"\x7f") * digits, "little")
    ones = int.from_bytes((b"\x01" + b"\x00" * (width - 1)) * digits, "little")

    def encode(codes):
        buf = bytearray((max(codes) + 1) * width)
        for c in codes:
            buf[c * width] = 1
        return int.from_bytes(buf, "little")

    def shifted(targets, c, rest):  # the digits of targets less c in rest
        return (targets >> c * w) & rest

    a_codes, b_codes = codes[: len(a_pts)], codes[len(a_pts):]
    a_poly = encode(a_codes)
    b_poly = encode(b_codes)
    a_supp = [1, a_poly]  # a_supp[j]: 0/1 digits of the order-j sumset
    b_supp = [1, b_poly]
    for order in range(1, k + 1):
        if order > 1:
            a_supp.append(((a_supp[-1] * a_poly + fill) >> (w - 1)) & ones)
            b_supp.append(((b_supp[-1] * b_poly + fill) >> (w - 1)) & ones)
        common = a_supp[order] & b_supp[order]
        if common:
            right, total = _first_multiset(b_pts, b_codes, b_supp, order, common, shifted)
            left, _ = _first_multiset(a_pts, a_codes, a_supp, order, 1 << total * w, shifted)
            vec = tuple(sum(c) for c in zip(*right))
            return Verdict(False, ParallelogramWitness(order, left, right, vec))
    return Verdict(True)


def _first_multiset(pts, codes, supp, order, targets, step):
    """The first ``order``-multiset of ``pts`` in
    ``combinations_with_replacement`` order whose code sum is one of
    ``targets``, and that sum; ``supp[j]`` holds the order-j sums, and
    ``step(targets, c, rest)`` gives the targets less c that are in rest.

    Greedy peeling finds it: the smallest index i whose code, taken off
    some target, leaves a sum of order - 1 points (one in
    ``supp[order - 1]``) is the first point of the first such multiset,
    and no point after it needs a smaller index.
    """
    chosen, total, i = [], 0, 0
    for remaining in range(order - 1, -1, -1):
        rest = supp[remaining]
        i = next(j for j in range(i, len(pts)) if step(targets, codes[j], rest))
        chosen.append(pts[i])
        total += codes[i]
        targets = step(targets, codes[i], rest)
    return tuple(chosen), total


def _less(targets: set[int], c: int, rest: set[int]) -> set[int]:
    """The sums of ``targets`` less c that are in ``rest``."""
    return {t - c for t in targets} & rest


def _parallelogram_by_enumeration(p: Partition, k: int, codes) -> Verdict:
    """check_parallelogram on the sets of multiset sums of each order:
    the path for few or widely spread points, and the reference the
    Kronecker path is tested against.

    Sums are compared through ``codes``, the ``point_codes`` of A's
    points then B's for k: a side's order-j sums are its order j - 1
    sums plus each of its codes, and the sets stay no larger than the
    number of distinct sums.  The witness is peeled off as on the
    Kronecker path.
    """
    a_pts, b_pts = p.a.points, p.b.points
    a_codes, b_codes = codes[: len(a_pts)], codes[len(a_pts):]
    a_sums, b_sums = [{0}], [{0}]
    for order in range(1, k + 1):
        a_sums.append({s + c for s in a_sums[-1] for c in a_codes})
        b_sums.append({s + c for s in b_sums[-1] for c in b_codes})
        common = a_sums[order] & b_sums[order]
        if common:
            right, total = _first_multiset(b_pts, b_codes, b_sums, order, common, _less)
            left, _ = _first_multiset(a_pts, a_codes, a_sums, order, {total}, _less)
            vec = tuple(sum(c) for c in zip(*right))
            return Verdict(False, ParallelogramWitness(order, left, right, vec))
    return Verdict(True)


# ---------------------------------------------------------------------------
# ray condition

def check_ray(p: Partition) -> Verdict:
    """On every line meeting both sides, A's points must be a prefix or a
    suffix of the trace of S on that line.

    A line fails exactly when one of its points q has points of the
    other side in both directions along it.  So one pass per q finds the
    opposite primitive codes of its differences to the other side
    (``DirectionCodes``, whose codes order like their vectors); the least
    positive one is q's least failing direction.  The line reported is the least by (direction,
    ``line_key``), as a sweep over all lines would meet it (see the
    algorithm notes in docs/).
    """
    a_pts, b_pts = p.a.points, p.b.points
    table = DirectionCodes(a_pts + b_pts)
    codes = table.codes
    least, at = 0, []  # least failing direction code (0: none) and its points
    n_a = len(a_pts)
    for own, own_codes, other_codes in (
        (a_pts, codes[:n_a], codes[n_a:]),
        (b_pts, codes[n_a:], codes[:n_a]),
    ):
        for q, c in zip(own, own_codes):
            failing = table.opposed(c, other_codes)
            if failing:
                x = min(filter((0).__lt__, failing))
                if x < least or not least:
                    least, at = x, [q]
                elif x == least:
                    at.append(q)
    if not least:
        return Verdict(True)
    direction = table.vector(least)
    key = min(line_key(q, direction) for q in at)
    side = {q: OWNER_A for q in a_pts}
    side.update({q: OWNER_B for q in b_pts})
    trace = tuple(sorted(q for q in side if line_key(q, direction) == key))
    sides = tuple(side[q] for q in trace)
    return Verdict(False, RayViolation(trace[0], direction, trace, sides))


# ---------------------------------------------------------------------------
# flag separation

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


def verify_flag(p: Partition, flag: SeparatingFlag) -> bool:
    """Check a flag against a partition: every point must classify to its
    own side, or to the residual owner when all levels vanish on it.

    Each side is checked one level at a time: the first level that is
    nonzero on a point must have the side's sign there, and only the
    points on which it vanishes go on to the next level."""
    if flag.dim != p.dim:
        raise DimensionMismatchError("flag/partition dimension mismatch")
    lex_flag_to_subspace_chain(flag)  # structural validation, and each level's dimension
    for own, sign, pts in ((OWNER_A, 1, p.a.points), (OWNER_B, -1, p.b.points)):
        for g in flag.functionals:
            if not pts:
                break
            normal, offset = g.normal, g.offset
            values = [sign * (sum(map(mul, normal, q)) - offset) for q in pts]
            if min(values) < 0:
                return False
            pts = [q for q, v in zip(pts, values) if not v]
        if pts and flag.residual_owner != own:
            return False
    return True


def _common_point(x, a_pts, b_pts) -> CommonPoint:
    """The positive entries of x, a feasible point with A's columns
    first, as integer weights divided by their gcd; raises LatsepError
    unless the two sides balance."""
    g = gcd(*x)
    n_a = len(a_pts)
    a_side = [(q, v // g) for q, v in zip(a_pts, x[:n_a]) if v > 0]
    b_side = [(q, v // g) for q, v in zip(b_pts, x[n_a:]) if v > 0]
    w = CommonPoint(*zip(*a_side), *zip(*b_side))
    a_sums, b_sums = w.side_sums()
    if a_sums != b_sums:
        raise LatsepError("the feasible point does not balance the two sides")
    return w


# Flag search's LP has r + 2 rows for a chart of r coordinates and one
# column per point; at most r + 2 columns are basic at the end, yet every
# pivot touches all of them.  Above this many columns per row the LP is
# sifted, solved on a few points at a time.  Sifting a search whose hulls
# meet pays from about 3 columns per row, one that finds a flag from
# about 12 (see the algorithm notes in docs/); the hunts' LPs are flags,
# so the rule sits at the flag break-even.
_SIFT_COLUMNS_PER_ROW = 12


@lru_cache(maxsize=1)
def _chart(dim: int, live: tuple) -> tuple[int, ...]:
    """The coordinates that the affine hull of the sorted points ``live``
    projects onto one to one: the pivot columns of its basis, the same
    for every split."""
    _, basis = affine_hull_basis(PointSet(dim, live))
    return tuple(linalg.minor_adjugate(basis)[0])


def _extremes(rows, n_a) -> set[int]:
    """For each row, the first of A's columns and the first of B's (those
    from n_a on) at which it takes its least and its greatest value."""
    found = set()
    for row in rows:
        for start, part in ((0, row[:n_a]), (n_a, row[n_a:])):
            found.update((start + part.index(min(part)), start + part.index(max(part))))
    return found


def search_flag(p: Partition) -> Verdict:
    """Complete decision procedure for flag separation of finite sets.

    An LP on the coordinates ``_chart`` picks, on which the affine hull
    of A and B projects one to one, asks for convex weights on each side
    with the same barycenter.  If it is feasible, the witness is that
    point of both hulls, a ``CommonPoint``; otherwise its Farkas vector
    gives a functional strict on every point, and the witness is that
    one-level flag.  An LP of more than ``_SIFT_COLUMNS_PER_ROW``
    columns per row is sifted: it is solved on a working set of points,
    at first each side's extreme points in each coordinate; then every
    point is priced with the Farkas functional, the points it does not
    separate strictly join the working set, and the LP is solved again.
    A narrower LP is one round on every point.  All arithmetic is on
    integers, and both witnesses are checked before they are returned.
    ``_chart`` keeps the last union's coordinates, so the bipartitions
    of one set share them.
    """
    a_side, b_side = p.a.points, p.b.points
    pts = a_side + b_side
    cols = _chart(p.dim, tuple(sorted(pts)))
    r = len(cols)
    n_a = len(a_side)
    full = [[q[j] for q in a_side] + [-q[j] for q in b_side] for j in cols]
    if len(pts) <= _SIFT_COLUMNS_PER_ROW * (r + 2):
        work = range(len(pts))
    else:
        work = sorted(_extremes(full, n_a))
    full.append([1] * n_a + [0] * len(b_side))
    full.append([0] * n_a + [1] * len(b_side))
    while True:
        rows = full if len(work) == len(pts) else [[row[i] for i in work] for row in full]
        system = EqualityFeasibility(rows, [0] * r + [1, 1])
        if system.feasible:
            # zero weight on the points left out: a point of both hulls
            x = system.feasible_point()[0]
            a_pts = [pts[i] for i in work if i < n_a]
            return Verdict(False, _common_point(x, a_pts, [pts[i] for i in work if i >= n_a]))

        # The working points' hulls are disjoint: the Farkas vector y
        # yields x -> p . x[cols] - c, strict at every working point, since
        # y . A_j <= 0 there.  Price every point with it.
        y, _ = system.farkas_duals()
        p_vec, c = [-2 * v for v in y[:r]], y[r] - y[r + 1]
        pt = [0] * len(pts)  # p . x[cols] per column, negated on B's as in the rows
        for u, row in zip(p_vec, full):
            pt = [s + u * t for s, t in zip(pt, row)]
        missed = [i for i, s in enumerate(pt[:n_a]) if s <= c]
        missed += [i for i, s in enumerate(pt[n_a:], n_a) if s <= -c]
        if not missed:
            break
        if not set(work).isdisjoint(missed):
            raise LatsepError("the Farkas functional does not separate the working points strictly")
        work = sorted({*work, *missed})
    normal = [0] * p.dim
    for j, u in zip(cols, p_vec):
        normal[j] = u
    g = AffineFunctional.of(normal, c)
    return Verdict(True, SeparatingFlag(p.dim, (g,), OWNER_EMPTY))
