"""Lattice and affine geometry primitives, all in exact integer arithmetic.

Points are tuples of Python ints, and an ``AffineFunctional`` holds a
primitive integer (normal, offset) pair.  Hulls, affine hulls and their
equations are computed on integer vectors by fraction-free elimination
(``linalg``).  Rationals are accepted only at the edges and scaled to
integers at once: the coefficients given to ``AffineFunctional.of`` and
a rational point given to the convex-hull membership test, which is
decided by the integer simplex of ``exactlp``.  Nothing here uses
floating point, so every answer produced here can serve as a
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product, repeat
from math import gcd
from operator import ge, mul, neg, sub

from . import linalg
from .errors import DimensionMismatchError
from .exactlp import EqualityFeasibility

IntPoint = tuple[int, ...]


def as_point(coords) -> IntPoint:
    pt = tuple(coords)
    for c in pt:
        if not isinstance(c, int) or isinstance(c, bool):
            raise DimensionMismatchError(f"non-integer coordinate {c!r}")
    return pt


@dataclass(frozen=True)
class PointSet:
    """A finite deduplicated set of integer points of a fixed dimension."""

    dim: int
    points: tuple[IntPoint, ...]  # sorted, unique

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        for p in self.points:
            if len(p) != self.dim:
                raise DimensionMismatchError(f"point {p} does not have dimension {self.dim}")
        if any(map(ge, self.points, islice(self.points, 1, None))):
            raise DimensionMismatchError("points must be sorted and unique; use PointSet.of")
        object.__setattr__(self, "_members", frozenset(self.points))

    @classmethod
    def of(cls, points, dim: int | None = None) -> "PointSet":
        pts = sorted({as_point(p) for p in points})
        if dim is None:
            if not pts:
                raise DimensionMismatchError("cannot infer dimension of an empty set")
            dim = len(pts[0])
        return cls(dim, tuple(pts))

    def __contains__(self, p) -> bool:
        return tuple(p) in self._members

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def member_set(self) -> frozenset:
        return self._members


@dataclass(frozen=True)
class AffineFunctional:
    """g(x) = <normal, x> - offset, with coprime integer coefficients."""

    normal: tuple[int, ...]
    offset: int

    @classmethod
    def of(cls, normal, offset) -> "AffineFunctional":
        """The functional of rational (normal, offset) data, scaled by a
        positive factor to the primitive integer pair, so that its sign
        at every point is kept."""
        *normal, offset = linalg.integer_primitive((*normal, offset))
        return cls(tuple(normal), offset)

    def value(self, point):
        if len(point) != len(self.normal):
            raise DimensionMismatchError("functional/point dimension mismatch")
        return sum(n * x for n, x in zip(self.normal, point)) - self.offset


@dataclass(frozen=True)
class Line:
    """A lattice line: base point, primitive canonical direction, and the
    trace of the ambient point set in increasing parameter order."""

    base: IntPoint
    direction: tuple[int, ...]
    trace: tuple[IntPoint, ...]


def affine_hull_basis(s: PointSet) -> tuple[IntPoint, list[tuple[int, ...]]]:
    """Anchor point and a maximal independent set of difference vectors.

    Every point of ``s`` is the anchor plus a rational combination of the
    returned integer directions.
    """
    if len(s) == 0:
        raise DimensionMismatchError("empty point set has no affine hull")
    anchor = s.points[0]
    diffs = (tuple(x - a for x, a in zip(p, anchor)) for p in s.points[1:])
    return anchor, linalg.independent_subset(diffs)


def point_in_conv(x, s: PointSet) -> bool:
    """Exact test: is x a convex combination of the points of s?

    x may have rational coordinates.
    """
    return convex_combination_support(x, s) is not None


def convex_combination_support(x, s: PointSet) -> list[IntPoint] | None:
    """Points of s carrying positive weight in one convex representation
    of x, or None when x is outside conv(s).  The support has at most
    dim+1 points (the solver returns a basic solution).  For x = xs / den
    the weights w >= 0 solve sum_j w_j p_j = xs and sum_j w_j = den."""
    if len(x) != s.dim:
        raise DimensionMismatchError("point/set dimension mismatch")
    xs, den = linalg.common_denominator(x)
    pts = s.points
    signs = [-1 if v < 0 else 1 for v in xs]  # rows with xs_i < 0 are negated
    rows = [[sign * p[i] for p in pts] for i, sign in enumerate(signs)] + [[1] * len(pts)]
    system = EqualityFeasibility(rows, [abs(v) for v in xs] + [den])
    if not system.feasible:
        return None
    weights, _ = system.feasible_point()
    return [pts[i] for i, v in enumerate(weights) if v > 0]


def bounding_box(points) -> tuple[tuple[int, ...], tuple[int, ...]]:
    columns = list(zip(*points))
    return tuple(map(min, columns)), tuple(map(max, columns))


def box_points(lo, hi):
    """All integer points of the box [lo, hi], lexicographic order."""
    return product(*(range(l, h + 1) for l, h in zip(lo, hi)))


def lattice_points(pairs, lo, hi):
    """The integer points x of the box [lo, hi] with n . x >= c for every
    pair (n, c), in lexicographic order (the ``box_points`` order).

    All axes but the last are scanned.  With the others fixed, a pair
    reads a * t >= r in the last coordinate t: a ceiling on t for a > 0,
    a floor for a < 0, and the whole line or none of it for a = 0, so
    only points that pass every pair are visited (see the algorithm
    notes in docs/)."""
    for head in box_points(lo[:-1], hi[:-1]):
        t_lo, t_hi = lo[-1], hi[-1]
        for n, c in pairs:
            a, r = n[-1], c - sum(map(mul, n, head))
            if a > 0:
                t_lo = max(t_lo, -(-r // a))
            elif a < 0:
                t_hi = min(t_hi, r // a)
            elif r > 0:
                t_hi = t_lo - 1
        for t in range(t_lo, t_hi + 1):
            yield head + (t,)


def lattice_points_in_conv(s: PointSet) -> PointSet:
    """conv(s) intersected with the integer lattice: the points of the
    integer bounding box that satisfy every inequality of
    ``integer_facets``, in lexicographic order; empty for the empty set."""
    if not s.points:
        return s
    inside = lattice_points(integer_facets(s.points), *bounding_box(s.points))
    return PointSet(s.dim, tuple(inside))


def satisfies(x, den, pairs) -> bool:
    """Does x / den, for den > 0, satisfy normal . x >= offset for every
    pair (normal, offset)?"""
    return all(sum(a * b for a, b in zip(n, x)) >= c * den for n, c in pairs)


def point_codes(pts, k: int) -> tuple[list[int], int]:
    """The mixed-radix code of each point, with radix k * span_i + 1 on
    axis i and the first axis most significant, and a bound above every
    sum of up to k codes.  Such sums add without carries, so multisets of
    at most k points have equal sums exactly when their codes do."""
    codes = [0] * len(pts)
    size = 1
    for column in zip(*pts):
        low = min(column)
        radix = k * (max(column) - low) + 1
        codes = [c * radix + v - low for c, v in zip(codes, column)]
        size *= radix
    return codes, size


# Entries per point kept in a ``DirectionCodes`` table.  A box in Z^d has
# fewer than 2^d distinct differences per point, so dense sets up to Z^5
# never fill it; sparse sets repeat few differences, and clearing a full
# table keeps its memory linear in the points, not in the pairs.
_CODES_PER_POINT = 32


class DirectionCodes(dict):
    """The direction kernel: difference code -> code of its primitive part.

    ``codes`` are ``point_codes(pts, 2)`` and ``code`` maps each point to
    its code.  For r, q in the box of ``pts``, r - q has the code
    code(r) - code(q); the map is linear, injective and odd, and codes
    order like their vectors.  So the primitive code is c // g for g the
    gcd of c's digits, once per distinct code (algorithm notes in docs/)."""

    def __init__(self, pts):
        self.codes = point_codes(pts, 2)[0]
        self.code = dict(zip(pts, self.codes))
        self.cap = _CODES_PER_POINT * len(pts)
        spans = [max(c) - min(c) for c in zip(*pts)]
        self.radices = [(2 * s + 1, s) for s in reversed(spans)]

    def __missing__(self, c):
        primitive = self[c] = c // (gcd(*self.vector(c)) or 1)
        return primitive

    def vector(self, c) -> tuple[int, ...]:
        """The difference vector with code c."""
        out = []
        for r, s in self.radices:  # last axis first
            c, v = divmod(c + s, r)
            out.append(v - s)
        return tuple(out[::-1])

    def primitives(self, c, codes):
        """The primitive code of each of ``codes`` minus c, in order; the
        table is cleared first when it holds more than its cap."""
        if len(self) > self.cap:
            self.clear()
        return map(self.__getitem__, map(sub, codes, repeat(c)))

    def opposed(self, c, codes) -> set[int]:
        """The nonzero primitive codes u of ``codes`` minus c with -u one
        too: the directions along which the point with code c lies
        strictly between two of the points."""
        dirs = set(self.primitives(c, codes))
        dirs.discard(0)
        return dirs.intersection(map(neg, dirs))


def integer_facets(points) -> list[tuple[tuple[int, ...], int]]:
    """conv(points) as primitive integer pairs (normal, offset), each
    meaning normal . x >= offset, sorted; in any dimension.

    One pair per facet, plus two opposite pairs per equation of the
    affine hull when the points are not full-dimensional, so the pairs
    alone cut out conv(points) for every input: a single point gets the
    pairs +-e_i, and a set in Z^1 its two endpoints.  The facets are the
    extreme rays of the cone of pairs valid on every point, normals in
    the affine hull's directions, found by one double-description pass
    (algorithm notes in docs/): from a simplex of the points, each point
    in order drops the rays it violates and joins each adjacent pair on
    its two sides, rays being adjacent when no third ray's bitmask of
    points on its plane holds their common one.  An empty input has no
    such list and raises DimensionMismatchError.
    """
    if not points:
        raise DimensionMismatchError("empty point set has no facets")
    anchor = points[0]
    diffs = [tuple(x - a for x, a in zip(p, anchor)) for p in points]
    picked = linalg.independent_subset(diffs)
    equations = linalg.null_vectors(picked, len(anchor))
    out = set()
    for n in equations:
        c = sum(map(mul, n, anchor))
        out.update(((n, c), (tuple(-v for v in n), -c)))
    if not picked:
        return sorted(out)
    # the simplex on the anchor and the picks: adjugate row j is the facet
    # through vertex j that misses vertex j + 1, minus their sum the last
    rows = linalg.minor_adjugate(picked + equations)[2][: len(picked)]
    rows.append([-sum(col) for col in zip(*rows)])
    verts = [0] + [diffs.index(v) for v in picked]
    rays = []
    for row, v, missed in zip(rows, verts, verts[1:] + verts[:1]):
        n = linalg.primitive_part(tuple(row))[0]
        rays.append((n, sum(map(mul, n, points[v])), sum(1 << u for u in verts if u != missed)))
    for i, p in enumerate(points):
        values = [sum(map(mul, n, p)) - c for n, c, _ in rays]
        if min(values) > 0:
            continue
        bit = 1 << i
        keep = [(ray, v) for ray, v in zip(rays, values) if v > 0]
        cut = [(ray, v) for ray, v in zip(rays, values) if v < 0]
        new = [(n, c, m | bit) for (n, c, m), v in zip(rays, values) if not v]
        for (a, va), (b, vb) in product(keep, cut):
            common = a[2] & b[2]
            if (common.bit_count() >= len(picked) - 1
                    and sum(m & common == common for *_, m in rays) == 2):
                n = linalg.primitive_part(tuple(va * y - vb * x for x, y in zip(a[0], b[0])))[0]
                new.append((n, sum(map(mul, n, p)), common | bit))
        rays = [ray for ray, _ in keep] + new
    return sorted(out.union((n, c) for n, c, _ in rays))


def hull_facets(s: PointSet) -> list[AffineFunctional]:
    """Irredundant functionals with conv(s) = {x : g(x) >= 0 for all g}
    (see ``integer_facets``), in any ambient dimension.

    When s is not full-dimensional the affine hull's equations are
    returned as paired opposite inequalities, so the description is exact
    for degenerate sets as well.
    """
    return [AffineFunctional.of(n, c) for n, c in integer_facets(s.points)]


def line_key(point, direction):
    """Integer invariant identifying the line through ``point`` along
    ``direction``; equal keys mean equal lines (for a fixed direction)."""
    j0 = next(i for i, v in enumerate(direction) if v != 0)
    return tuple(
        direction[j0] * point[i] - point[j0] * direction[i]
        for i in range(len(point))
        if i != j0
    )


def lines_through(s: PointSet) -> list[Line]:
    """Every line containing at least two points of s, exactly once,
    ordered by (canonical direction, ``line_key``); each trace is in
    increasing parameter order, which is lex order for a canonical
    direction.  A line is found once, from its first point: each point
    collects the later ones along the directions with no point behind."""
    if len(s) < 2:
        raise DimensionMismatchError("need at least two points")
    table = DirectionCodes(s.points)
    lines = []
    for i, (p, c) in enumerate(zip(s.points, table.codes)):
        prims = list(table.primitives(c, table.codes))
        behind = set(map(neg, prims[:i]))
        traces: dict[int, list[IntPoint]] = {}
        for q, d in zip(s.points[i + 1:], prims[i + 1:]):
            if d not in behind:
                traces.setdefault(d, [p]).append(q)
        for d, trace in traces.items():
            u = table.vector(d)
            lines.append((d, line_key(p, u), u, tuple(trace)))
    lines.sort()
    return [Line(trace[0], u, trace) for _, _, u, trace in lines]
