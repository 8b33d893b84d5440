"""k-convexity, hull closures, integral convexity and hole analysis.

The subset-closure operations enumerate simplices spanned by at most
k+1 points.  Affinely degenerate subsets are skipped: their hulls are
unions of hulls of smaller subsets (Caratheodory inside the subset's own
affine span), which the sweep enumerates anyway.  Lattice points of the
surviving simplices are counted with integer arithmetic only: a segment
is an arithmetic progression, and every larger simplex, in any ambient
dimension, goes through the lattice scan ``geometry.lattice_points`` on
its integer barycentric forms (see the algorithm notes in docs/).

The k=1 and k=2 closures are target-driven instead: every point they
can add is a lattice point of conv(S), so they test those candidates one
by one with an integer kernel that finds at most k+1 current points
whose hull holds the candidate (see the algorithm notes in docs/).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from . import linalg
from .geometry import (
    DirectionCodes,
    IntPoint,
    PointSet,
    affine_hull_basis,
    bounding_box,
    box_points,
    convex_combination_support,
    integer_facets,
    lattice_points,
    lattice_points_in_conv,
    satisfies,
)
from .verdicts import CellWitness, ConvexityWitness, HoleReport, HoleWitness, Verdict


# ---------------------------------------------------------------------------
# lattice points of a simplex (integer arithmetic)

def _segment_points(p: IntPoint, q: IntPoint):
    step, g = linalg.primitive_part(tuple(b - a for a, b in zip(p, q)))
    for i in range(g + 1):  # p alone when q = p
        yield tuple(a + i * s for a, s in zip(p, step))


def simplex_lattice_points(points: tuple[IntPoint, ...]):
    """Lattice points of conv(points) for an affinely independent tuple;
    ValueError for three or more affinely dependent points."""
    found = False
    for z in _simplex_points(points):
        found = True
        yield z
    if not found:
        raise ValueError(f"affinely dependent points {points}")


def _simplex_points(points: tuple[IntPoint, ...]):
    """Lattice points of conv(points), none when three or more points
    are affinely dependent (an independent simplex holds its vertices).

    A segment is an arithmetic progression.  Otherwise project onto m
    coordinates with a nonzero minor, where the simplex is cut out by
    m+1 integer barycentric forms >= 0; list the projected simplex's
    lattice points with ``lattice_points``, and lift each one back when
    every other coordinate divides exactly.
    """
    p0 = points[0]
    if len(points) == 1:
        yield p0
        return
    if len(points) == 2:
        yield from _segment_points(p0, points[1])
        return
    edges = [tuple(x - o for x, o in zip(p, p0)) for p in points[1:]]
    found = linalg.minor_adjugate(edges)
    if found is None:
        return
    cols, det, adj = found
    base = [p0[c] for c in cols]
    # On the projected point y, as pairs (n, c) meaning n . y >= c: D
    # times the barycentric coordinate of each edge, then of p0.
    pairs = [(row, sum(r * b for r, b in zip(row, base))) for row in adj]
    pairs.append(([-sum(col) for col in zip(*adj)], -sum(c for _, c in pairs) - det))
    # D times x_j - p0_j for each coordinate j outside cols, as (n, c)
    # meaning n . y - c
    lifts = [
        (j, [sum(w[j] * v for w, v in zip(edges, col)) for col in zip(*adj)],
         sum(w[j] * c for w, (_, c) in zip(edges, pairs)))
        for j in range(len(p0))
        if j not in cols
    ]
    for y in lattice_points(pairs, *bounding_box([[p[c] for c in cols] for p in points])):
        point = list(p0)
        for c, v in zip(cols, y):
            point[c] = v
        for j, n, c in lifts:
            q, rem = divmod(sum(u * v for u, v in zip(n, y)) - c, det)
            if rem:
                break
            point[j] += q
        else:
            yield tuple(point)


# ---------------------------------------------------------------------------
# target-driven closure: is a candidate in the hull of <= k+1 current points?

def _hull_support(z: IntPoint, pts, k: int, table) -> tuple[IntPoint, ...] | None:
    """At most k+1 points of ``pts``, for k = 1 or 2, whose convex hull
    contains ``z``, or None when there are none; ``z`` must not be one of
    ``pts``, and ``table`` is the ``DirectionCodes`` of a set holding both.

    Integer arithmetic only, O(N^2) for N points.  Segment step: z lies
    on a segment exactly when two vectors p - z have opposite primitive
    directions (``table``); the pair is the first such r and the first q
    opposite it.  Triangle step: for v = p - z, each later w = q - z is
    bucketed by the primitive part u of its projection
    <v,v>w - <v,w>v orthogonal to v, with gcd g, keeping the least
    <v,w>/g per bucket; z lies in a triangle with first vertex p exactly
    when min(u) + min(-u) <= 0 for some bucket u.
    """
    code = table.code
    seen: dict[int, IntPoint] = {}
    for r, u in zip(pts, table.primitives(code[z], map(code.__getitem__, pts))):
        q = seen.get(-u)
        if q is not None:
            return q, r
        seen.setdefault(u, r)
    if k == 1:
        return None
    vecs = [(p, tuple(a - b for a, b in zip(p, z))) for p in pts]
    for i, (p, v) in enumerate(vecs):
        vv = sum(c * c for c in v)
        lows: dict[tuple[int, ...], tuple[int, int, IntPoint]] = {}
        for q, w in vecs[i + 1:]:
            vw = sum(a * b for a, b in zip(v, w))
            u, g = linalg.primitive_part(tuple(vv * b - vw * a for a, b in zip(v, w)))
            if g == 0:
                continue  # q on the line through z and p
            low = lows.get(u)
            if low is None or vw * low[1] < low[0] * g:
                lows[u] = (vw, g, q)
        for u, (s, g, q) in lows.items():
            opposite = lows.get(tuple(-c for c in u))
            if opposite is not None and s * opposite[1] + opposite[0] * g <= 0:
                return (p, q, opposite[2])
    return None


def _candidate_closure(s: PointSet, candidates, k: int) -> PointSet:
    """Fixed point of the closure step for k = 1 or 2, given every
    lattice point it could add (a superset of the additions is enough,
    e.g. the lattice points of conv(s)).  Candidates are retested until a
    full pass adds none, because each addition can bring others within
    reach."""
    current = list(s.points)
    pending = [z for z in candidates if z not in s]
    table = DirectionCodes(current + pending)
    while True:
        left = []
        for z in pending:
            if _hull_support(z, current, k, table) is None:
                left.append(z)
            else:
                current.append(z)
        if len(left) == len(pending):
            break
        pending = left
    return PointSet(s.dim, tuple(sorted(current)))


# ---------------------------------------------------------------------------
# k-convexity

def _combos_touching_new(pts: list[IntPoint], n_old: int, size: int):
    """Ascending-index combinations of ``pts`` of the given size that
    contain at least one index >= n_old."""
    n = len(pts)
    for last in range(max(n_old, size - 1), n):
        for rest in combinations(range(last), size - 1):
            yield tuple(pts[i] for i in rest) + (pts[last],)


def _sweep_is_k_convex(s: PointSet, k: int) -> Verdict:
    """Subset sweep deciding k-convexity, no shortcuts."""
    members = s.member_set()
    pts = list(s.points)
    for size in range(2, k + 2):
        for subset in combinations(pts, size):
            for z in _simplex_points(subset):
                if z not in members:
                    return Verdict(False, ConvexityWitness(subset, z))
    return Verdict(True)


def is_k_convex(s: PointSet, k: int) -> Verdict:
    """Does every subset of at most k+1 points keep its hull's lattice
    points inside the set?  Witness on failure: (subset, missing point)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _, basis = affine_hull_basis(s)
    if k >= len(basis):
        # With k at least the affine rank, one closure step reaches every
        # lattice point of conv(s), so k-convexity means hole-freeness.
        hole = is_hole_free(s)
        if hole.holds:
            return Verdict(True)
        missing = hole.witness.missing
        support = convex_combination_support(missing, s)
        return Verdict(False, ConvexityWitness(tuple(sorted(support)), missing))
    if k == 2:
        # Every point a hull of <= 3 members holds is a lattice point of
        # conv(s), so those candidates are all that needs testing.
        members = s.member_set()
        lattice = lattice_points_in_conv(s).points
        table = DirectionCodes(lattice)
        for z in lattice:
            if z not in members:
                support = _hull_support(z, s.points, 2, table)
                if support is not None:
                    return Verdict(False, ConvexityWitness(tuple(sorted(support)), z))
        return Verdict(True)
    return _sweep_is_k_convex(s, k)


def _closure_sweep(s: PointSet, k: int) -> PointSet:
    """Fixed point of the subset closure step, no shortcuts.

    Each pass only visits subsets touching a point added by the previous
    pass; older subsets were already exhausted."""
    current = set(s.points)
    old: list[IntPoint] = []
    new = sorted(current)
    while new:
        pts = old + new
        added = set()
        for size in range(2, k + 2):
            for subset in _combos_touching_new(pts, len(old), size):
                for z in _simplex_points(subset):
                    if z not in current:
                        added.add(z)
        current |= added
        old = sorted(set(pts))
        new = sorted(added)
    return PointSet(s.dim, tuple(sorted(current)))


def k_convex_hull(s: PointSet, k: int) -> PointSet:
    """Smallest k-convex superset: the fixed point of repeatedly adding
    the lattice points of hulls of at most k+1 current members."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _, basis = affine_hull_basis(s)
    if k >= len(basis):
        return lattice_points_in_conv(s)
    if k <= 2:
        return _candidate_closure(s, lattice_points_in_conv(s).points, k)
    return _closure_sweep(s, k)


def is_hole_free(s: PointSet) -> Verdict:
    """Is the set exactly the lattice points of its own convex hull?  The
    empty set is (``lattice_points_in_conv`` returns it unchanged)."""
    full = lattice_points_in_conv(s)
    members = s.member_set()
    for z in full.points:
        if z not in members:
            return Verdict(False, HoleWitness(z))
    return Verdict(True)


# ---------------------------------------------------------------------------
# integral convexity

def _face_rows(facets, corner, free):
    """The facets (n, e), meaning n . x >= e, on the face corner + [0,1]
    in each ``free`` coordinate, as rows (m, b) meaning m . y >= b for y
    in [0,1]^f: those that can be tight there, or None when the face
    misses the hull.  Over the face, m . y - b ranges from -b plus the
    negative entries of m to -b plus the positive ones."""
    out = []
    for n, e in facets:
        m = [n[j] for j in free]
        b = e - sum(a * v for a, v in zip(n, corner))
        if sum(v for v in m if v > 0) < b:
            return None
        if sum(v for v in m if v < 0) <= b:
            out.append((m, b))
    return out


def _failing_vertex(cell, rows, members):
    """The least vertex X / D of Q = conv(S) ∩ cell that fails the vertex
    rule, as (X, D), or None; ``rows`` are the cell's own ``_face_rows``.

    Face by face (see the algorithm notes in docs/): each vertex of Q lies
    inside one proper face of the cell, where f facets tight at it fix its
    f free coordinates (``linalg.minor_adjugate``).  Off the corners it is
    not integral, so it fails.  A face whose corners are all members is
    skipped."""
    failing = []
    for pattern in product((None, 0, 1), repeat=len(cell)):
        free = [i for i, b in enumerate(pattern) if b is None]
        corner = [b or 0 for b in pattern]
        lo = tuple(c + o for c, o in zip(cell, corner))
        hi = tuple(v + (b is None) for v, b in zip(lo, pattern))
        if len(free) == len(cell) or all(z in members for z in box_points(lo, hi)):
            continue
        face = _face_rows(rows, corner, free)
        if face is None:
            continue
        if not free:
            failing.append((lo, 1))  # a non-member corner inside conv(S)
            continue
        for chosen in combinations(face, len(free)):
            found = linalg.minor_adjugate([m for m, _ in chosen])
            if found is None:
                continue
            _, det, adj = found
            y = [sum(r[k] * b for r, (_, b) in zip(adj, chosen)) for k in range(len(free))]
            if all(0 < v < det for v in y) and satisfies(y, det, face):
                x = [v * det for v in lo]
                for j, v in zip(free, y):
                    x[j] += v
                failing.append((tuple(x), det))
    if not failing:
        return None
    scale = lcm(*(den for _, den in failing))
    return min(failing, key=lambda v: tuple(c * (scale // v[1]) for c in v[0]))


def is_integrally_convex(s: PointSet) -> Verdict:
    """Local-hull test, in any dimension: on every unit cell, the hull of
    the set's points on the cell's corners must fill conv(S) clipped to
    the cell; the empty set holds.

    One vertex rule decides each cell: a vertex x / D of the clipped hull
    passes exactly when D = 1 and x is a member, so only failing vertices
    are searched for, face by face (see the algorithm notes in docs/).
    One facet description of conv(S) serves every cell.  Integer
    arithmetic throughout; only the witness vertex is built as Fractions.
    """
    if not s.points:
        return Verdict(True)
    d = s.dim
    facets = integer_facets(s.points)
    members = s.member_set()
    lo, hi = bounding_box(s.points)
    # one unit cell per axis position; a degenerate axis keeps one cell
    for cell in product(*(range(l, max(h, l + 1)) for l, h in zip(lo, hi))):
        if all(c in members for c in box_points(cell, tuple(z + 1 for z in cell))):
            continue  # conv(S) meets the cell inside the cell = conv(corners)
        rows = _face_rows(facets, cell, range(d))
        found = None if rows is None else _failing_vertex(cell, rows, members)
        if found is not None:
            x, den = found
            return Verdict(False, CellWitness(cell, tuple(Fraction(v, den) for v in x)))
    return Verdict(True)


# ---------------------------------------------------------------------------
# hole classification

def classify_holes(a: PointSet) -> list[HoleReport]:
    """For each lattice point of conv(A) missing from A, the smallest k
    whose k-convex hull of A contains it."""
    full = lattice_points_in_conv(a)
    members = a.member_set()
    holes = [z for z in full.points if z not in members]
    if not holes:
        return []
    _, basis = affine_hull_basis(a)
    rank = len(basis)
    first_k: dict[IntPoint, int] = {}
    hull = a
    # The k-hull of the (k-1)-hull is the k-hull of A, and the k = rank
    # hull is all of conv(A), so holes left by k = rank - 1 get k = rank.
    for k in range(1, rank):
        if k <= 2:
            hull = _candidate_closure(hull, [z for z in holes if z not in first_k], k)
        else:
            hull = _closure_sweep(hull, k)
        for z in holes:
            if z not in first_k and z in hull:
                first_k[z] = k
        if len(first_k) == len(holes):
            break
    return [HoleReport(z, first_k.get(z, rank)) for z in holes]
