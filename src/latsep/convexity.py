"""k-convexity, hull closures, integral convexity and hole analysis.

The closure step adds the lattice points of the hulls of at most k+1
members.  ``_hull_additions`` is its one entry: a generator of (support,
point) that stops at the last lattice point of conv(S) missing from S.
Below it, ``_sweep_additions`` enumerates the subsets, and
``_candidate_additions`` (k <= 2) tests each lattice point of conv(S)
with an integer kernel that finds at most k+1 current points whose hull
holds it, retesting a miss only for triangles with a vertex added since.
``is_k_convex`` reads its witness off the first addition (for k = 1, of
the pair sweep); ``k_convex_hull`` and ``classify_holes`` take them all.
Lattice points of a simplex are found with integer arithmetic only, none
for affinely dependent subsets (their hulls are covered by smaller
subsets), through ``geometry.lattice_points`` on integer barycentric
forms; see the algorithm notes in docs/.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, islice
from math import gcd, lcm
from operator import floordiv, mul, neg, sub

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

def _hull_support(
    z: IntPoint, pts, k: int, table, start: int = 0
) -> tuple[IntPoint, ...] | None:
    """At most k+1 points of ``pts``, for k = 1 or 2, whose convex hull
    contains ``z``, or None when there are none; ``z`` must not be one of
    ``pts``, and ``table`` is the ``DirectionCodes`` of a set holding both.
    A ``start`` > 0 promises that no subset of ``pts[:start]`` holds
    ``z``; the triangle step then skips the triangles inside it.

    Integer arithmetic only, O(N^2) for N points.  Segment step: z lies
    on a segment exactly when two vectors p - z have opposite primitive
    directions (``table``); the pair is the first such r and the first q
    opposite it.  Triangle step, from each p of ``pts[start:]`` as the
    triangle's first vertex there: for v = p - z and every q of
    ``pts[:start]`` and after p, all at once on the coordinate columns,
    s = <v, q - z> and w = <v,v>(q - z) - s v, which is orthogonal to v,
    bucketed by its primitive part u with gcd g.  Only buckets u whose
    -u occurs too can close a triangle; they keep the least s/g, in the
    order they first occur, and z lies in a triangle with vertex p
    exactly when min(u) + min(-u) <= 0 for one.
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
    cols = [[a - b for a in col] for col, b in zip(zip(*pts), z)]  # columns of q - z
    for i in range(start, len(pts)):
        v = [col[i] for col in cols]
        vv = sum(c * c for c in v)
        qs = pts[:start] + pts[i + 1:]
        vq = [col[:start] + col[i + 1:] for col in cols]
        s = list(map(sum, zip(*[map(c.__mul__, col) for c, col in zip(v, vq)])))
        w = [list(map(sub, map(vv.__mul__, col), map(c.__mul__, s))) for c, col in zip(v, vq)]
        g = [t or 1 for t in map(gcd, *w)]  # w = 0: q on the line through z and p
        keys = list(zip(*[map(floordiv, col, g) for col in w]))
        both = {tuple(map(neg, u)) for u in keys}.intersection(keys)
        both.discard((0,) * len(z))
        lows: dict[tuple[int, ...], tuple[int, int, IntPoint]] = {}
        for u, sq, gq, q in compress(zip(keys, s, g, qs), map(both.__contains__, keys)):
            low = lows.get(u)
            if low is None or sq * low[1] < low[0] * gq:
                lows[u] = (sq, gq, q)
        for u, (sq, gq, q) in lows.items():
            sr, gr, r = lows[tuple(map(neg, u))]
            if sq * gr + sr * gq <= 0:
                return pts[i], q, r
    return None


def _candidate_additions(s: PointSet, candidates, k: int):
    """The closure step for k = 1 or 2 until a pass adds nothing: each
    (support, z) in the order z is added, given a superset of the points
    it could add, such as the lattice points of conv(s).  Candidates are
    retested, because each addition can bring others within reach; the
    first pass tests each against all current points (the first against
    s alone).  A miss keeps the number of points it was tested against,
    and its retest looks for triangles only from the points after them."""
    current = list(s.points)
    pending = [(z, 0) for z in candidates if z not in s]
    table = DirectionCodes(current + [z for z, _ in pending])
    while pending:
        left = []
        for z, start in pending:
            support = _hull_support(z, current, k, table, start)
            if support is None:
                left.append((z, len(current)))
            else:
                current.append(z)
                yield support, z
        if len(left) == len(pending):
            return
        pending = left


# ---------------------------------------------------------------------------
# k-convexity

def _sweep_additions(s: PointSet, k: int):
    """The subset closure step until a pass adds nothing: each (subset, z)
    in the order z is added.

    A pass visits the subsets of 2 to k+1 points by size, then in
    ``combinations`` order, and only those touching a point the previous
    pass added (older subsets were already exhausted): each head of
    size - 1 indices goes with each later last index from the first new
    one on.  The first pass is exactly ``combinations`` order over s."""
    members = set(s.points)
    pts, new = [], list(s.points)
    while new:
        n_old = len(pts)
        pts += new
        new = []
        for size in range(2, k + 2):
            for head in combinations(range(len(pts) - 1), size - 1):
                first = tuple(map(pts.__getitem__, head))
                for last in pts[max(head[-1] + 1, n_old):]:
                    subset = first + (last,)
                    for z in _simplex_points(subset):
                        if z not in members:
                            members.add(z)
                            new.append(z)
                            yield subset, z
        new.sort()


def _rank(s: PointSet) -> int:
    """The dimension of the affine hull of s, 0 for the empty set."""
    return len(affine_hull_basis(s)[1]) if s.points else 0


def _hull_additions(s: PointSet, k: int, lattice):
    """The k-hull closure's additions to s, given conv(s)'s lattice points;
    each is one of those missing from s, so it stops at the last of them."""
    additions = _candidate_additions(s, lattice, k) if k <= 2 else _sweep_additions(s, k)
    return islice(additions, len(lattice) - len(s.points))


def is_k_convex(s: PointSet, k: int) -> Verdict:
    """Does every subset of at most k+1 points keep its hull's lattice
    points inside the set?  Witness on failure: (subset, missing point),
    the first addition of the closure step."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= _rank(s):
        # With k at least the affine rank, one closure step reaches every
        # lattice point of conv(s), so k-convexity means hole-freeness.
        hole = is_hole_free(s)
        if hole.holds:
            return Verdict(True)
        missing = hole.witness.missing
        support = convex_combination_support(missing, s)
        return Verdict(False, ConvexityWitness(tuple(sorted(support)), missing))
    # The k = 1 pair sweep needs no lattice points, and its order picks the witness.
    additions = (_sweep_additions(s, 1) if k == 1
                 else _hull_additions(s, k, lattice_points_in_conv(s).points))
    for support, z in additions:
        return Verdict(False, ConvexityWitness(tuple(sorted(support)), z))
    return Verdict(True)


def k_convex_hull(s: PointSet, k: int) -> PointSet:
    """Smallest k-convex superset: the fixed point of repeatedly adding
    the lattice points of hulls of at most k+1 current members."""
    if k < 1:
        raise ValueError("k must be >= 1")
    full = lattice_points_in_conv(s)
    if k >= _rank(s):
        return full
    added = tuple(z for _, z in _hull_additions(s, k, full.points))
    return PointSet(s.dim, tuple(sorted(s.points + added)))


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

def _face_plan(d: int):
    """(halves, faces) of a unit cell in Z^d.  ``faces``: its proper faces
    in ``product((None, 0, 1))`` order as (id, lowest free bit, free
    coordinates, least corner), masks with bit d - 1 - j for coordinate j,
    id = free * 2^d + least corner.  ``halves``: (id, ids of the two faces
    fixing that bit) for each face that is not a corner, halves first."""
    top = 1 << d
    faces = [(0, (), 0)]
    for j in range(d):  # coordinate j free, at 0, at 1
        bit = 1 << (d - 1 - j)
        faces = [f for m, free, low in faces
                 for f in ((m | bit, free + (j,), low), (m, free, low), (m, free, low | bit))]
    faces = [(m * top + low, m & -m, free, low) for m, free, low in faces if m != top - 1]
    return sorted((f, f - b * top, f - b * top + b) for f, b, _, _ in faces if b), faces


def _corner_signs(rows, member, halves):
    """Each row's values n . x - e at the corners, from v at the least one,
    and per face whether its corners are all members and the AND of value
    < 0, of value <= 0 and the OR of value < 0 over them, bit i for row i."""
    values, lt, le = [], [0] * len(member), [0] * len(member)
    for i, (n, v) in enumerate(rows):
        vals = [v]
        for a in reversed(n):  # the last coordinate varies fastest
            vals += [w + a for w in vals]
        values.append(vals)
        for c, w in enumerate(vals):
            if w <= 0:
                le[c] |= 1 << i
                if w < 0:
                    lt[c] |= 1 << i
    table = dict(enumerate(zip(member, lt, le, lt)))
    for f, a, b in halves:
        (ma, al, ae, ol), (mb, bl, be, pl) = table[a], table[b]
        table[f] = (ma and mb, al & bl, ae & be, ol | pl)
    return values, table


def _failing_vertex(rows, corners, member, halves, faces):
    """The least vertex X / D of Q = conv(S) ∩ cell failing the vertex rule,
    as (X, D), or None, given the facets (n, n . cell - e) that can be tight
    on the cell, its corners and their membership; each vertex of Q lies in
    one proper face, its f free coordinates fixed by f tight facets."""
    values, table = _corner_signs(rows, member, halves)
    failing = []
    for face, _, free, base in faces:
        every_member, missed, nonpositive, crossing = table[face]
        # skip a face whose corners are all members, one that conv(S) misses
        # and one it only touches: a row <= 0 on it and < 0 somewhere
        if every_member or missed or nonpositive & crossing:
            continue
        if not free:
            failing.append((corners[base], 1))  # a non-member corner inside conv(S)
            continue
        face_rows = [([n[j] for j in free], -vals[base])  # the rest hold on the face
                     for i, ((n, _), vals) in enumerate(zip(rows, values)) if crossing >> i & 1]
        for chosen in combinations(face_rows, len(free)):
            found = linalg.minor_adjugate([m for m, _ in chosen])
            if found is None:
                continue
            _, det, adj = found
            y = [sum(r[k] * b for r, (_, b) in zip(adj, chosen)) for k in range(len(free))]
            if all(0 < v < det for v in y) and satisfies(y, det, face_rows):
                lift = dict(zip(free, y))
                failing.append((tuple(v * det + lift.get(j, 0) for j, v in enumerate(corners[base])), det))
    if not failing:
        return None
    scale = lcm(*(den for _, den in failing))
    return min(failing, key=lambda v: tuple(c * (scale // v[1]) for c in v[0]))


def is_integrally_convex(s: PointSet) -> Verdict:
    """Local-hull test, in any dimension: on every unit cell, the hull of
    the set's points on the cell's corners must fill conv(S) clipped to
    the cell; the empty set holds.  A vertex x / D of the clipped hull
    passes exactly when D = 1 and x is a member, so only failing vertices
    are searched for, face by face, on the facets' signs at the cell's
    corners (algorithm notes in docs/); only the witness is a Fraction.
    """
    if not s.points:
        return Verdict(True)
    halves, faces = _face_plan(s.dim)
    ranges = [(n, e, sum(v for v in n if v > 0), sum(v for v in n if v < 0))
              for n, e in integer_facets(s.points)]
    members = s.member_set()
    lo, hi = bounding_box(s.points)
    # the least corners c of the cells where no n . x - e is < 0 on the
    # whole cell, n . c - e + up >= 0; a degenerate axis keeps one cell
    reach = [(n, e - up) for n, e, up, _ in ranges]
    for cell in lattice_points(reach, lo, tuple(max(h - 1, l) for l, h in zip(lo, hi))):
        corners = list(box_points(cell, tuple(z + 1 for z in cell)))
        member = [c in members for c in corners]
        if all(member):
            continue  # conv(S) meets the cell inside the cell = conv(corners)
        rows = [(n, v) for n, e, _, down in ranges  # n . x - e can be 0 on the cell
                if (v := sum(map(mul, n, cell)) - e) + down <= 0]
        found = _failing_vertex(rows, corners, member, halves, faces)
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
    holes = [z for z in full.points if z not in a]
    if not holes:
        return []
    rank = _rank(a)
    first_k: dict[IntPoint, int] = {}
    hull = a
    # The k-hull of the (k-1)-hull is the k-hull of A, and the k = rank
    # hull is all of conv(A), so holes left by k = rank - 1 get k = rank.
    for k in range(1, rank):
        added = tuple(z for _, z in _hull_additions(hull, k, full.points))
        first_k.update(dict.fromkeys(added, k))
        hull = PointSet(a.dim, tuple(sorted(hull.points + added)))
    return [HoleReport(z, first_k.get(z, rank)) for z in holes]
