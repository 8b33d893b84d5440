"""Decision procedures for the three separation conditions.

* the k-parallelogram condition: no k' <= k points of one side share a
  coordinate sum with k' points of the other (repetition allowed),
  decided on the k'-fold sumsets, kept as bitsets, one shift and OR per
  order, side and point (sets of sums for few, widely spread points);
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
from functools import lru_cache, reduce
from math import comb, gcd
from operator import mul, or_

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

# Most bits the bitsets may take in all, 32 MiB: the check keeps 2k of
# them, one per order and side, the order-j one j*max(codes) + 1 bits
# wide, so points far apart in a big box, or a large k, take sets of sums.
_BITSET_MAX_BITS = 1 << 28

# A set costs work per distinct sum and a bitset per bit, but far less
# per bit: sets are kept when the bitsets would have more than this many
# bits per multiset sum (measured break-even, algorithm notes in docs/).
_DIGITS_PER_SUM = 64

# Most multisets the set kind may cover (as many as the lattice points
# an instance may span): C(n + k, k) grows (n + k)/k-fold per k.
_MAX_ENUMERATED_SUMS = 2 * 10**6


# A side's sums of one order, as an int with bit c set for each code sum
# c or as a set: (no points' sums, next order's sums, targets less c in rest)
_BITSETS = (
    1,
    lambda sums, codes: reduce(or_, (sums << c for c in codes)),
    lambda targets, c, rest: (targets >> c) & rest,
)
_SETS = (
    frozenset({0}),
    lambda sums, codes: {s + c for s in sums for c in codes},
    lambda targets, c, rest: {t - c for t in targets} & rest,
)


def check_parallelogram(p: Partition, k: int) -> Verdict:
    """No k' <= k points of A (with repetition) may share a coordinate
    sum with k' points of B.

    Decided on the k'-fold sumsets (_parallelogram_on), kept as bitsets
    unless the points are so few or so spread out that sets of sums are
    cheaper, or the 2k bitsets would exceed _BITSET_MAX_BITS in all;
    LatsepError when the sets would cover more than _MAX_ENUMERATED_SUMS
    multisets.  The witness is the first B multiset in
    ``combinations_with_replacement`` order whose sum A also reaches,
    and the first A multiset with that sum, at the least failing order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    codes, digits = point_codes(p.a.points + p.b.points, k)
    sums = comb(len(p.a) + k, k) + comb(len(p.b) + k, k) - 2
    bits = k * (k + 1) * max(codes) + 2 * k  # the 2k bitsets' widths, summed
    if bits <= _BITSET_MAX_BITS and digits <= _DIGITS_PER_SUM * sums:
        return _parallelogram_on(p, k, codes, _BITSETS)
    if sums > _MAX_ENUMERATED_SUMS:
        raise LatsepError(f"the {k}-parallelogram check would enumerate {sums} "
                          f"multisets, more than {_MAX_ENUMERATED_SUMS}")
    return _parallelogram_on(p, k, codes, _SETS)


def _parallelogram_on(p: Partition, k: int, codes, kind) -> Verdict:
    """check_parallelogram on each side's sums of each order, kept as
    ``kind`` (_BITSETS or _SETS), for ``codes`` the ``point_codes`` of A's
    points then B's: it fails at the first order where the sides share a
    sum, and peels the witness off against the lower orders."""
    empty, grow, less = kind
    a_pts, b_pts = p.a.points, p.b.points
    a_codes, b_codes = codes[: len(a_pts)], codes[len(a_pts):]
    a_sums, b_sums = [empty], [empty]
    for order in range(1, k + 1):
        a_sums.append(grow(a_sums[-1], a_codes))
        b_sums.append(grow(b_sums[-1], b_codes))
        common = a_sums[order] & b_sums[order]
        if common:
            right, total = _first_multiset(b_pts, b_codes, b_sums, order, common, less)
            left, _ = _first_multiset(a_pts, a_codes, a_sums, order, grow(empty, [total]), less)
            vec = tuple(sum(c) for c in zip(*right))
            return Verdict(False, ParallelogramWitness(order, left, right, vec))
    return Verdict(True)


def _first_multiset(pts, codes, sums, order, targets, less):
    """The first ``order``-multiset of ``pts`` in
    ``combinations_with_replacement`` order whose code sum is one of
    ``targets``, and that sum; ``sums[j]`` holds the order-j sums, and
    ``less(targets, c, rest)`` gives the targets less c that are in rest.

    Greedy peeling finds it: the smallest index i whose code, taken off
    some target, leaves a sum of order - 1 points (one in
    ``sums[order - 1]``) is the first point of the first such multiset,
    and no point after it needs a smaller index.
    """
    chosen, total, i = [], 0, 0
    for remaining in range(order - 1, -1, -1):
        rest = sums[remaining]
        i = next(j for j in range(i, len(pts)) if less(targets, codes[j], rest))
        chosen.append(pts[i])
        total += codes[i]
        targets = less(targets, codes[i], rest)
    return tuple(chosen), total


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

    The flat N x = c of the first levels is read off the integer kernel:
    its anchor is its one point that is 0 off N's pivot columns, and its
    directions are N's primitive null basis.  Raises InvalidFlagError
    when a level's normal depends on the earlier ones, so that the level
    is constant on the previous flat.
    """
    d = flag.dim
    chain = [(tuple(Fraction(0) for _ in range(d)), linalg.null_vectors([], d))]
    normals, offsets = [], []
    for level, g in enumerate(flag.functionals, 1):
        if len(g.normal) != d:
            raise DimensionMismatchError("functional dimension mismatch")
        normals.append(g.normal)
        offsets.append(g.offset)
        kernel = linalg.minor_adjugate(normals)
        if kernel is None:
            raise InvalidFlagError(f"level {level} is constant on the current flat")
        cols, det, adj = kernel
        at = {j: sum(row[r] * c for row, c in zip(adj, offsets)) for r, j in enumerate(cols)}
        anchor = tuple(Fraction(at.get(j, 0), det) for j in range(d))
        chain.insert(0, (anchor, linalg.null_vectors(normals, d)))
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
