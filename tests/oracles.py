"""Independent oracles used to freeze and cross-check expected values.

Everything here deliberately avoids the library's own machinery:
feasibility is decided by Fourier-Motzkin elimination instead of the
simplex, two-dimensional hulls come from a Graham scan, hull/cell
intersections from Sutherland-Hodgman clipping, and memberships from
closed forms or exhaustive enumeration.  Slow but simple; meant for
small instances only.

The one exception is the last section: the Fraction-elimination and
exact-LP implementation of facet enumeration and integral convexity
that the library's integer facet kernel replaced, kept verbatim as a
differential reference on top of the Fraction ``rref`` and ``nullspace``
of ``fraction_oracles.py`` and the library's LP membership test
``point_in_conv``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility:  rows (a, b) meaning  a . x >= b

def _primitive(row):
    """An integer row (a..., b) divided by the gcd of its entries."""
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else tuple(row)


def fm_feasible(rows) -> bool:
    """Is {x : a.x >= b for all rows} nonempty?  Exact, by elimination.

    Each row is kept as a primitive integer tuple (a..., b).  Variables
    are eliminated greedily (fewest pos*neg combinations first); rows
    reduced to constants are resolved immediately.
    """
    rows = [_primitive((*a, b)) for a, b in rows]
    remaining = list(range(len(rows[0]) - 1 if rows else 0))
    while remaining:
        # prune constant rows
        kept = []
        for row in rows:
            if all(row[k] == 0 for k in remaining):
                if row[-1] > 0:
                    return False
            else:
                kept.append(row)
        rows = kept
        if not rows:
            return True
        k = min(
            remaining,
            key=lambda j: sum(1 for row in rows if row[j] > 0)
            * sum(1 for row in rows if row[j] < 0),
        )
        remaining.remove(k)
        pos = [row for row in rows if row[k] > 0]
        neg = [row for row in rows if row[k] < 0]
        new = dict.fromkeys(row for row in rows if row[k] == 0)
        for rp in pos:
            for rn in neg:
                new[_primitive([-rn[k] * u + rp[k] * v for u, v in zip(rp, rn)])] = None
        rows = list(new)
        if not rows:
            return True
    return all(row[-1] <= 0 for row in rows)


# ---------------------------------------------------------------------------
# brute-force flag separation (Condition H) for small instances

def _separator_exists(zero_pts, plus_pts, minus_pts, dim) -> bool:
    """Is there an affine g with g = 0 on zero_pts, g >= 1 on plus_pts
    and g <= -1 on minus_pts?  Variables: normal (dim) and offset."""
    rows = []
    for p in zero_pts:
        rows.append((list(p) + [-1], 0))
        rows.append(([-v for v in p] + [1], 0))
    for p in plus_pts:
        rows.append((list(p) + [-1], 1))
    for p in minus_pts:
        rows.append(([-v for v in p] + [1], 1))
    return fm_feasible(rows)


def oracle_flag_separable(a_pts, b_pts, _memo=None) -> bool:
    """Complete brute force over equality sets: a flag exists iff some
    proper subset Z of the live points admits a functional vanishing on Z
    and strictly signed off it, such that the restriction to Z is again
    flag-separable."""
    a_pts = tuple(sorted(a_pts))
    b_pts = tuple(sorted(b_pts))
    if _memo is None:
        _memo = {}
    if not a_pts or not b_pts:
        return True
    key = (a_pts, b_pts)
    if key in _memo:
        return _memo[key]
    _memo[key] = False  # guard against re-entry while computing
    dim = len(a_pts[0])
    live = sorted(a_pts + b_pts)
    result = False
    for size in range(0, len(live)):
        for zero in combinations(live, size):
            zset = set(zero)
            plus = [p for p in a_pts if p not in zset]
            minus = [p for p in b_pts if p not in zset]
            if not _separator_exists(zero, plus, minus, dim):
                continue
            za = tuple(p for p in a_pts if p in zset)
            zb = tuple(p for p in b_pts if p in zset)
            if oracle_flag_separable(za, zb, _memo):
                result = True
                break
        if result:
            break
    _memo[key] = result
    return result


def is_common_point(a_pts, b_pts, w) -> bool:
    """Is w, a no-flag certificate (``CommonPoint``), a point of both
    hulls?  Each side needs positive integer weights on distinct points
    of its own, and the two sides the same total weight and the same
    weighted coordinate sums; checked by integer sums alone."""
    balance = []
    for pts, weights, own in ((w.a_points, w.a_weights, a_pts), (w.b_points, w.b_weights, b_pts)):
        if not pts or len(weights) != len(pts) or len(set(pts)) != len(pts):
            return False
        if not set(pts) <= set(own) or not all(type(c) is int and c > 0 for c in weights):
            return False
        sums = [sum(c * q[i] for c, q in zip(weights, pts)) for i in range(len(pts[0]))]
        balance.append((sum(weights), sums))
    return balance[0] == balance[1]


# ---------------------------------------------------------------------------
# 2-D hulls, clipping, and integral convexity

def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2d(points):
    """Extreme points in ccw order; 1 or 2 points when degenerate."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    h = lower[:-1] + upper[:-1]
    if len(h) < 2:
        return [pts[0], pts[-1]]
    return h


def clip(poly, a, b, c):
    """Clip a convex region (vertex list) by a*x + b*y <= c."""

    def inside(p):
        return a * p[0] + b * p[1] <= c

    def isect(p, q):
        t = Fraction(c - a * p[0] - b * p[1], a * (q[0] - p[0]) + b * (q[1] - p[1]))
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    if not poly:
        return []
    if len(poly) == 1:
        return poly if inside(poly[0]) else []
    if len(poly) == 2:
        p, q = poly
        ip, iq = inside(p), inside(q)
        if ip and iq:
            return [p, q]
        if not ip and not iq:
            return []
        m = isect(p, q)
        return [p, m] if ip else [m, q]
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        if inside(p):
            out.append(p)
            if not inside(q):
                out.append(isect(p, q))
        elif inside(q):
            out.append(isect(p, q))
    return out


def canon_region(poly):
    pts = sorted({tuple(Fraction(v) for v in p) for p in poly})
    if len(pts) <= 2:
        return tuple(pts)
    return tuple(sorted(hull2d(pts)))


def oracle_integrally_convex_2d(points) -> bool:
    """Per-cell equality of conv(S) clipped to the cell and the hull of
    S's points on the cell corners."""
    pts = sorted(set(points))
    hull = [tuple(Fraction(v) for v in p) for p in hull2d(pts)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    cxs = range(min(xs), max(xs)) if max(xs) > min(xs) else [min(xs)]
    cys = range(min(ys), max(ys)) if max(ys) > min(ys) else [min(ys)]
    member = set(pts)
    for zx in cxs:
        for zy in cys:
            poly = hull
            for a, b, c in ((1, 0, zx + 1), (-1, 0, -zx), (0, 1, zy + 1), (0, -1, -zy)):
                poly = clip(poly, a, b, c)
                if not poly:
                    break
            q_region = canon_region(poly)
            corners = [
                (zx + dx, zy + dy) for dx in (0, 1) for dy in (0, 1)
            ]
            local = [p for p in corners if p in member]
            p_region = canon_region(local) if local else ()
            if q_region != p_region:
                return False
    return True


# ---------------------------------------------------------------------------
# misc small oracles

def segment_points(p, q):
    d = tuple(b - a for a, b in zip(p, q))
    g = 0
    for c in d:
        g = gcd(g, abs(c))
    if g == 0:
        return [p]
    step = tuple(c // g for c in d)
    return [tuple(a + i * s for a, s in zip(p, step)) for i in range(g + 1)]


def oracle_one_convex(points) -> bool:
    ss = set(points)
    for p, q in combinations(sorted(ss), 2):
        for z in segment_points(p, q):
            if z not in ss:
                return False
    return True


def oracle_simplex_543_member(p) -> bool:
    x, y, z = p
    return x >= 0 and y >= 0 and z >= 0 and 12 * x + 15 * y + 20 * z <= 60


def oracle_simplex_1374_member(p) -> bool:
    x, y, z = p
    return x >= 0 and y >= 0 and z >= 0 and 28 * x + 52 * y + 91 * z <= 364


def oracle_lines_by_pairs(points):
    """Distinct lines through >= 2 points, via exhaustive pairs; returns
    a set of canonical (direction, rational anchor) keys."""

    def canon_dir(d):
        g = 0
        for c in d:
            g = gcd(g, abs(c))
        d = tuple(c // g for c in d)
        for c in d:
            if c != 0:
                return d if c > 0 else tuple(-x for x in d)
        raise ValueError

    lines = set()
    for p, q in combinations(sorted(set(points)), 2):
        d = canon_dir(tuple(b - a for a, b in zip(p, q)))
        num = sum(a * b for a, b in zip(p, d))
        den = sum(v * v for v in d)
        anchor = tuple(Fraction(a) - Fraction(num, den) * v for a, v in zip(p, d))
        lines.add((d, anchor))
    return lines


def oracle_equal_sum_triples(vertices, interior):
    """All multisets of three interior points whose sum equals the
    vertex sum."""
    target = tuple(map(sum, zip(*vertices)))
    out = []
    for trip in combinations_with_replacement(sorted(interior), 3):
        if tuple(map(sum, zip(*trip))) == target:
            out.append(trip)
    return out


def oracle_conv_membership_grid(x, points, denominators):
    """Does x lie in conv(points)?  Enumerates convex combinations with
    weights on the 1/q grid for q = lcm of the given denominators; exact
    for instances whose basic solutions have denominators dividing q."""
    q = 1
    for d in denominators:
        q = q * d // gcd(q, d)
    n = len(points)
    x = tuple(Fraction(v) for v in x)

    def rec(idx, remaining, acc):
        if idx == n - 1:
            w = remaining
            pt = tuple(a + Fraction(w, q) * c for a, c in zip(acc, points[idx]))
            return pt == x
        for w in range(remaining + 1):
            pt = tuple(a + Fraction(w, q) * c for a, c in zip(acc, points[idx]))
            if rec(idx + 1, remaining - w, pt):
                return True
        return False

    return rec(0, q, tuple(Fraction(0) for _ in x))


# ---------------------------------------------------------------------------
# facets and integral convexity by Fraction elimination and exact LPs

def _lp_rank(rows) -> int:
    from fraction_oracles import frac_rows, rref

    return len(rref(frac_rows(rows))[1]) if rows else 0


def _lp_solve(a_rows, b):
    """One solution of A x = b (free variables zero), or None."""
    from fraction_oracles import rref

    aug = [[Fraction(v) for v in row] + [Fraction(bv)] for row, bv in zip(a_rows, b)]
    m, pivots = rref(aug)
    ncols = len(a_rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x


def _lp_hull_vertices(s):
    from latsep.geometry import PointSet, point_in_conv

    live = list(s.points)
    verts = []
    while live:
        p = live.pop(0)
        rest = verts + live
        if not rest or not point_in_conv(p, PointSet(s.dim, tuple(sorted(rest)))):
            verts.append(p)
    return sorted(verts)


def oracle_hull_facets_lp(s):
    """hull_facets as AffineFunctionals: for every r-subset of the LP hull
    vertices (r the affine rank) a Fraction nullspace normal, kept when
    the set lies on one side; the affine hull's equations as opposite
    pairs."""
    from fraction_oracles import nullspace
    from latsep import linalg
    from latsep.geometry import AffineFunctional, affine_hull_basis

    anchor, basis = affine_hull_basis(s)
    r = len(basis)
    out = {}
    for n in nullspace(basis) if r < s.dim else []:
        n = linalg.integer_primitive(n)
        c = sum(a * b for a, b in zip(n, anchor))
        for sign in (1, -1):
            g = AffineFunctional.of([sign * v for v in n], sign * c)
            out[(g.normal, g.offset)] = g
    if r == 0:
        return list(out.values())
    for subset in combinations(_lp_hull_vertices(s), r):
        base = subset[0]
        dirs = [tuple(x - b for x, b in zip(p, base)) for p in subset[1:]]
        if _lp_rank(dirs) != r - 1:
            continue
        normals = nullspace(dirs + [list(v) for v in nullspace(basis)])
        if len(normals) != 1:
            continue
        n = linalg.integer_primitive(normals[0])
        c = sum(a * b for a, b in zip(n, base))
        vals = [sum(a * b for a, b in zip(n, p)) - c for p in s.points]
        if all(v >= 0 for v in vals):
            g = AffineFunctional.of(n, c)
        elif all(v <= 0 for v in vals):
            g = AffineFunctional.of([-v for v in n], -c)
        else:
            continue
        out[(g.normal, g.offset)] = g
    return sorted(out.values(), key=lambda g: (g.normal, g.offset))


def _lp_cell_vertices(d, functionals):
    verts = set()
    for chosen in combinations(functionals, d):
        rows = [list(g.normal) for g in chosen]
        if _lp_rank(rows) != d:
            continue
        x = _lp_solve(rows, [g.offset for g in chosen])
        if x is not None and all(g.value(x) >= 0 for g in functionals):
            verts.add(tuple(x))
    return sorted(verts)


def oracle_integrally_convex_lp(s):
    """is_integrally_convex as a Verdict with its CellWitness: each cell's
    clipped hull from the Fraction facets, its vertices from Fraction
    solves of every d constraints, each tested by an exact LP against the
    set's points on the cell's corners."""
    from latsep.geometry import AffineFunctional, PointSet, bounding_box, box_points, point_in_conv
    from latsep.verdicts import CellWitness, Verdict

    if len(s) == 1:
        return Verdict(True)
    d = s.dim
    facets = oracle_hull_facets_lp(s)
    lo, hi = bounding_box(s.points)
    ranges = [range(a, b) if b > a else range(a, a + 1) for a, b in zip(lo, hi)]
    for cell in product(*ranges):
        active = []
        for g in facets:
            base = g.value(cell)
            if base + sum(max(n, 0) for n in g.normal) < 0:
                break
            if base + sum(min(n, 0) for n in g.normal) <= 0:
                active.append(g)
        else:
            bounds = []
            for i in range(d):
                e = [int(i == j) for j in range(d)]
                bounds.append(AffineFunctional.of(e, cell[i]))
                bounds.append(AffineFunctional.of([-v for v in e], -(cell[i] + 1)))
            corners = [c for c in box_points(cell, tuple(z + 1 for z in cell)) if c in s]
            local = PointSet.of(corners, dim=d) if corners else None
            for v in _lp_cell_vertices(d, active + bounds):
                if local is None or not point_in_conv(v, local):
                    return Verdict(False, CellWitness(cell, v))
    return Verdict(True)
