"""k-convexity, hull closures, integral convexity and hole analysis.

The subset-closure operations enumerate simplices spanned by at most
k+1 points.  Affinely degenerate subsets are skipped: their hulls are
unions of hulls of smaller subsets (Caratheodory inside the subset's own
affine span), which the sweep enumerates anyway.  Lattice points of the
surviving simplices are counted with integer arithmetic specialised by
dimension, so the closures stay fast enough for exhaustive testing.

The k=2 closure is target-driven instead: every point it can add is a
lattice point of conv(S), so it tests those candidates one by one with
an integer kernel that finds at most 3 current points whose hull holds
the candidate (see the algorithm notes in docs/).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from . import linalg
from .errors import UnsupportedDimensionError
from .geometry import (
    AffineFunctional,
    PointSet,
    affine_hull_basis,
    bounding_box,
    box_points,
    convex_combination_support,
    hull_facets,
    lattice_points_in_conv,
    point_in_conv,
)
from .verdicts import CellWitness, ConvexityWitness, HoleReport, HoleWitness, Verdict

IntPoint = tuple[int, ...]


# ---------------------------------------------------------------------------
# lattice points of low-dimensional simplices (integer arithmetic)

def _segment_points(p: IntPoint, q: IntPoint):
    d = tuple(b - a for a, b in zip(p, q))
    g = 0
    for c in d:
        g = gcd(g, abs(c))
    if g == 0:
        yield p
        return
    step = tuple(c // g for c in d)
    for i in range(g + 1):
        yield tuple(a + i * s for a, s in zip(p, step))


def _triangle_points_2d(a, b, c):
    s = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if s < 0:
        b, c = c, b
    xs = (a[0], b[0], c[0])
    ys = (a[1], b[1], c[1])
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (
                (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) >= 0
                and (c[0] - b[0]) * (y - b[1]) - (c[1] - b[1]) * (x - b[0]) >= 0
                and (a[0] - c[0]) * (y - c[1]) - (a[1] - c[1]) * (x - c[0]) >= 0
            ):
                yield (x, y)


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _triangle_points_3d(p, q, r):
    """Lattice points of a nondegenerate triangle in Z^3.

    Project along the axis where the triangle's normal is largest (an
    injective map on the triangle's plane), scan the 2-D shadow, and
    lift back through the plane equation.
    """
    w1 = tuple(b - a for a, b in zip(p, q))
    w2 = tuple(b - a for a, b in zip(p, r))
    n = _cross3(w1, w2)
    j = max(range(3), key=lambda i: abs(n[i]))
    keep = [i for i in range(3) if i != j]
    a2 = (p[keep[0]], p[keep[1]])
    b2 = (q[keep[0]], q[keep[1]])
    c2 = (r[keep[0]], r[keep[1]])
    cval = n[0] * p[0] + n[1] * p[1] + n[2] * p[2]
    for uv in _triangle_points_2d(a2, b2, c2):
        rem = cval - n[keep[0]] * uv[0] - n[keep[1]] * uv[1]
        xj, mod = divmod(rem, n[j])
        if mod:
            continue
        point = [0, 0, 0]
        point[keep[0]], point[keep[1]], point[j] = uv[0], uv[1], xj
        yield tuple(point)


def _adjugate3(m):
    return [
        [
            m[1][1] * m[2][2] - m[1][2] * m[2][1],
            m[0][2] * m[2][1] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
        ],
        [
            m[1][2] * m[2][0] - m[1][0] * m[2][2],
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            m[0][2] * m[1][0] - m[0][0] * m[1][2],
        ],
        [
            m[1][0] * m[2][1] - m[1][1] * m[2][0],
            m[0][1] * m[2][0] - m[0][0] * m[2][1],
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
        ],
    ]


def _tetra_points(p0, p1, p2, p3):
    """Lattice points of a nondegenerate tetrahedron via Cramer's rule."""
    w = [[p[i] - p0[i] for p in (p1, p2, p3)] for i in range(3)]
    det = (
        w[0][0] * (w[1][1] * w[2][2] - w[1][2] * w[2][1])
        - w[0][1] * (w[1][0] * w[2][2] - w[1][2] * w[2][0])
        + w[0][2] * (w[1][0] * w[2][1] - w[1][1] * w[2][0])
    )
    adj = _adjugate3(w)
    sign = 1 if det > 0 else -1
    absdet = abs(det)
    lo, hi = bounding_box([p0, p1, p2, p3])
    for cand in box_points(lo, hi):
        y = tuple(cand[i] - p0[i] for i in range(3))
        mus = [sign * sum(adj[i][t] * y[t] for t in range(3)) for i in range(3)]
        if all(m >= 0 for m in mus) and sum(mus) <= absdet:
            yield cand


def simplex_lattice_points(points: tuple[IntPoint, ...]):
    """Lattice points of conv(points) for an affinely independent tuple."""
    m = len(points) - 1
    d = len(points[0])
    if m == 0:
        yield points[0]
    elif m == 1:
        yield from _segment_points(points[0], points[1])
    elif m == 2 and d == 2:
        yield from _triangle_points_2d(*points)
    elif m == 2 and d == 3:
        yield from _triangle_points_3d(*points)
    elif m == 3 and d == 3:
        yield from _tetra_points(*points)
    else:
        ps = PointSet.of(points)
        lo, hi = bounding_box(points)
        for cand in box_points(lo, hi):
            if point_in_conv(cand, ps):
                yield cand


def _affinely_independent(points) -> bool:
    if len(points) == 2:
        return points[0] != points[1]
    base = points[0]
    diffs = [tuple(x - b for x, b in zip(p, base)) for p in points[1:]]
    if len(points) == 3:
        u, v = diffs
        return any(u[i] * v[j] != u[j] * v[i] for i, j in combinations(range(len(u)), 2))
    return linalg.rank(diffs) == len(diffs)


# ---------------------------------------------------------------------------
# target-driven closure: is a candidate in the hull of <= 3 current points?

def _primitive(v: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(v / g, g) for g the gcd of the entries; g == 0 for the zero vector."""
    g = gcd(*v)
    return (tuple(c // g for c in v) if g > 1 else v), g


def _hull_support(z: IntPoint, pts) -> tuple[IntPoint, ...] | None:
    """At most 3 points of ``pts`` whose convex hull contains ``z``, or
    None when there are none; ``z`` must not be one of ``pts``.

    Integer arithmetic only, O(N^2) for N points.  Segment step: z lies
    on a segment exactly when two vectors p - z have opposite primitive
    directions.  Triangle step: for v = p - z, each later w = q - z is
    bucketed by the primitive part u of its projection
    <v,v>w - <v,w>v orthogonal to v, with gcd g, keeping the least
    <v,w>/g per bucket; z lies in a triangle with first vertex p exactly
    when min(u) + min(-u) <= 0 for some bucket u.
    """
    vecs = [(p, tuple(a - b for a, b in zip(p, z))) for p in pts]
    directions: dict[tuple[int, ...], IntPoint] = {}
    for p, v in vecs:
        u, _ = _primitive(v)
        q = directions.get(tuple(-c for c in u))
        if q is not None:
            return (q, p)
        directions.setdefault(u, p)
    for i, (p, v) in enumerate(vecs):
        vv = sum(c * c for c in v)
        lows: dict[tuple[int, ...], tuple[int, int, IntPoint]] = {}
        for q, w in vecs[i + 1:]:
            vw = sum(a * b for a, b in zip(v, w))
            u, g = _primitive(tuple(vv * b - vw * a for a, b in zip(v, w)))
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


def _candidate_closure(s: PointSet, candidates) -> PointSet:
    """Fixed point of the k=2 closure step, given every lattice point it
    could add (a superset of the additions is enough, e.g. the lattice
    points of conv(s)).  Candidates are retested until a full pass adds
    none, because each addition can bring others within reach."""
    current = list(s.points)
    pending = [z for z in candidates if z not in s]
    while True:
        left = []
        for z in pending:
            if _hull_support(z, current) is None:
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
            if not _affinely_independent(subset):
                continue
            for z in simplex_lattice_points(subset):
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
        for z in lattice_points_in_conv(s).points:
            if z not in members:
                support = _hull_support(z, s.points)
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
                if not _affinely_independent(subset):
                    continue
                for z in simplex_lattice_points(subset):
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
    if k == 2:
        return _candidate_closure(s, lattice_points_in_conv(s).points)
    return _closure_sweep(s, k)


def is_hole_free(s: PointSet) -> Verdict:
    """Is the set exactly the lattice points of its own convex hull?"""
    full = lattice_points_in_conv(s)
    members = s.member_set()
    for z in full.points:
        if z not in members:
            return Verdict(False, HoleWitness(z))
    return Verdict(True)


# ---------------------------------------------------------------------------
# integral convexity

def _cell_ranges(lo, hi):
    return [range(l, h) if h > l else range(l, l + 1) for l, h in zip(lo, hi)]


def _iter_cells(lo, hi):
    ranges = _cell_ranges(lo, hi)
    if len(ranges) == 1:
        for x in ranges[0]:
            yield (x,)
        return
    if len(ranges) == 2:
        for x in ranges[0]:
            for y in ranges[1]:
                yield (x, y)
        return
    for x in ranges[0]:
        for y in ranges[1]:
            for z in ranges[2]:
                yield (x, y, z)


def _functional_range_on_cell(g: AffineFunctional, cell):
    base = g.value(cell)
    lo = base + sum(min(n, 0) for n in g.normal)
    hi = base + sum(max(n, 0) for n in g.normal)
    return lo, hi


def _cell_polytope_vertices(d, functionals):
    """Vertices of {x : g(x) >= 0 for all g} for a polytope inside one
    unit cell, by enumerating d-subsets of tight constraints."""
    verts = set()
    idx = range(len(functionals))
    for chosen in combinations(idx, d):
        rows = [list(functionals[i].normal) for i in chosen]
        rhs = [functionals[i].offset for i in chosen]
        if linalg.rank(rows) != d:
            continue
        x = linalg.solve(rows, rhs)
        if x is None:
            continue
        if all(g.value(x) >= 0 for g in functionals):
            verts.add(tuple(x))
    return sorted(verts)


def is_integrally_convex(s: PointSet) -> Verdict:
    """Local-hull test: on every unit cell, the hull of the set must fill
    hull-of-set intersected with the cell.

    Equivalent finite form of the integral-neighborhood definition: it
    suffices that every vertex of conv(S) clipped to a cell lies in the
    hull of the set's points on that cell's corners (see the algorithm
    notes in docs/ for the reduction argument).
    """
    if s.dim > 3:
        raise UnsupportedDimensionError("integral convexity supports dimension <= 3")
    if len(s) == 1:
        return Verdict(True)
    d = s.dim
    facets = hull_facets(s)
    members = s.member_set()
    lo, hi = bounding_box(s.points)
    for cell in _iter_cells(lo, hi):
        active = []
        empty = False
        for g in facets:
            gmin, gmax = _functional_range_on_cell(g, cell)
            if gmax < 0:
                empty = True
                break
            if gmin <= 0:
                active.append(g)
        if empty:
            continue
        bounds = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            bounds.append(AffineFunctional.of(e, cell[i]))
            bounds.append(AffineFunctional.of([-v for v in e], -(cell[i] + 1)))
        verts = _cell_polytope_vertices(d, active + bounds)
        if not verts:
            continue
        corner_pts = [
            c for c in box_points(cell, tuple(z + 1 for z in cell)) if c in members
        ]
        local = PointSet.of(corner_pts, dim=d) if corner_pts else None
        for v in verts:
            if local is None or not point_in_conv(v, local):
                return Verdict(False, CellWitness(cell, v))
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
        if k == 2:
            hull = _candidate_closure(hull, [z for z in holes if z not in first_k])
        else:
            hull = _closure_sweep(hull, k)
        for z in holes:
            if z not in first_k and z in hull:
                first_k[z] = k
        if len(first_k) == len(holes):
            break
    return [HoleReport(z, first_k.get(z, rank)) for z in holes]
