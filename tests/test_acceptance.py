"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from itertools import combinations

from latsep.catalog import (
    quarter_boundary_flag,
    quarter_boundary_window,
    run_catalog,
    sqrt2_halfplane_window,
    sqrt2_window_flag,
)
from latsep.conditions import (
    Partition,
    check_parallelogram,
    check_ray,
    search_flag,
    verify_flag,
)
from latsep.constructions import MinimalTriangle, lemma_triple
from latsep.convexity import classify_holes, k_convex_hull
from latsep.errors import DimensionMismatchError
from latsep import explorer
from latsep.explorer import bipartitions, enumerate_family
from latsep.geometry import PointSet, lattice_points_in_conv

from oracles import oracle_flag_separable


def _report(n, ok, text):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_catalog_examples():
    t0 = time.time()
    results = []
    for entry_id in ("ex4.4", "ex4.5", "ex4.7", "ex4.8"):
        results.extend(run_catalog(entry_id).results)
    elapsed = time.time() - t0
    bad = [r for r in results if not r.passed]
    _report(
        1,
        not bad and elapsed < 60,
        f"{len(results)} catalog claims reproduced in {elapsed:.1f}s (limit 60s); "
        f"failures: {[f'{r.entry}:{r.claim}' for r in bad]}",
    )


def _in_segment(x, p, q):
    d = tuple(b - a for a, b in zip(p, q))
    v = tuple(b - a for a, b in zip(p, x))
    # v = t*d with t in [0,1]
    t_num = t_den = None
    for dv, vv in zip(d, v):
        if dv == 0:
            if vv != 0:
                return False
        elif t_num is None:
            t_num, t_den = vv, dv
        elif vv * t_den != t_num * dv:
            return False
    if t_num is None:
        return all(v2 == 0 for v2 in v)
    if t_den < 0:
        t_num, t_den = -t_num, -t_den
    return 0 <= t_num <= t_den


def _in_triangle_3d(x, p, q, r):
    w1 = tuple(b - a for a, b in zip(p, q))
    w2 = tuple(b - a for a, b in zip(p, r))
    n = (
        w1[1] * w2[2] - w1[2] * w2[1],
        w1[2] * w2[0] - w1[0] * w2[2],
        w1[0] * w2[1] - w1[1] * w2[0],
    )
    if n == (0, 0, 0):
        return False  # degenerate: covered by the segment sweep
    v = tuple(b - a for a, b in zip(p, x))
    if sum(a * b for a, b in zip(n, v)) != 0:
        return False
    j = max(range(3), key=lambda i: abs(n[i]))
    keep = [i for i in range(3) if i != j]
    x2 = (x[keep[0]], x[keep[1]])
    tri = [(t[keep[0]], t[keep[1]]) for t in (p, q, r)]
    s = (tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1]) - (
        tri[1][1] - tri[0][1]
    ) * (tri[2][0] - tri[0][0])
    if s < 0:
        tri = [tri[0], tri[2], tri[1]]
    for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
        if (b[0] - a[0]) * (x2[1] - a[1]) - (b[1] - a[1]) * (x2[0] - a[0]) < 0:
            return False
    return True


def test_criterion_2_hole_tower():
    t0 = time.time()
    generators = PointSet.of([(0, 0, 0), (13, 0, 0), (0, 7, 0), (0, 0, 4)])
    hull1 = k_convex_hull(generators, 1)
    hull2 = k_convex_hull(hull1, 2)
    hull3 = k_convex_hull(hull2, 3)
    full = lattice_points_in_conv(generators)
    diff21 = sorted(set(hull2.points) - set(hull1.points))
    diff32 = sorted(set(hull3.points) - set(hull2.points))
    reports = {r.hole: r.first_k for r in classify_holes(generators)}

    # the pinned hole is unreachable by pairs and triples of the other
    # simplex points
    target = (6, 2, 1)
    others = [p for p in full.points if p != target]
    pair_hit = any(_in_segment(target, p, q) for p, q in combinations(others, 2))
    triple_hit = any(
        _in_triangle_3d(target, p, q, r) for p, q, r in combinations(others, 3)
    )
    # spot-check the sweep against the rational-feasibility membership route
    from latsep.geometry import point_in_conv

    rng = random.Random(8)
    lp_hit = False
    for _ in range(150):
        subset = rng.sample(others, 3)
        lp_hit = lp_hit or point_in_conv(target, PointSet.of(subset))
    triple_hit = triple_hit or lp_hit
    elapsed = time.time() - t0
    ok = (
        diff21 == [(4, 3, 1)]
        and target in diff32
        and set(hull3.points) == set(full.points)
        and reports.get((4, 3, 1)) == 2
        and reports.get(target) == 3
        and not pair_hit
        and not triple_hit
        and elapsed < 600
    )
    _report(
        2,
        ok,
        f"hole tower of the 13-7-4 simplex: 2-hull minus 1-hull {diff21}, "
        f"(6,2,1) first reached at k=3, no pair or triple reaches it; "
        f"{elapsed:.0f}s (limit 600s)",
    )


def test_criterion_3_exhaustive_equivalences():
    t0 = time.time()
    rep1 = explorer.test_equivalence((3, 3), "integrally-convex", "parallelogram-2", "flag")
    rep2 = explorer.test_equivalence((3, 3), "hole-free", "parallelogram-3", "flag")
    elapsed = time.time() - t0
    ok = rep1.ok and rep2.ok
    _report(
        3,
        ok,
        f"integrally convex family: {rep1.sets_checked} sets / "
        f"{rep1.partitions_checked} partitions, {len(rep1.violations)} violations; "
        f"hole-free family: {rep2.sets_checked} sets / {rep2.partitions_checked} "
        f"partitions, {len(rep2.violations)} violations ({elapsed:.0f}s)",
    )


def test_criterion_4_planar_counterexamples():
    # exhaustive over hole-free subsets of the 3x3 grid (all of which are
    # subsets of the 4x4 grid), plus a bounded sweep over the 4x4 grid itself
    rep = explorer.test_equivalence((3, 3), "hole-free", "parallelogram-2", "flag")
    rep44 = explorer.test_equivalence(
        (4, 4), "hole-free", "parallelogram-2", "flag", stop_after=3
    )
    found = rep.violations + rep44.violations
    ok = len(rep.violations) >= 1 and len(rep44.violations) >= 1
    centroid_checked = 0
    for v in found:
        p = v.partition()
        assert v.left_holds and not v.right_holds
        par3 = check_parallelogram(p, 3)
        ok = ok and not par3.holds and par3.witness.order == 3
        left = tuple(map(sum, zip(*par3.witness.left)))
        right = tuple(map(sum, zip(*par3.witness.right)))
        ok = ok and left == right
        centroid_checked += 1
    _report(
        4,
        ok,
        f"{len(found)} partitions with the midpoint condition but no flag; "
        f"all {centroid_checked} carry an order-3 equal-centroid witness",
    )


def test_criterion_5_triangle_corpus():
    rng = random.Random(12345)
    done = 0
    failures = 0
    while done < 1000:
        pts = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(3)]
        try:
            tri = MinimalTriangle(*pts)
        except DimensionMismatchError:
            continue
        interior = set(tri.interior_points())
        if not interior:
            continue
        done += 1
        triple = lemma_triple(tri)
        in_b = all(q in interior for q in triple)
        sums = tuple(map(sum, zip(*triple))) == tuple(map(sum, zip(*tri.vertices())))
        if not (in_b and sums):
            failures += 1
    _report(
        5,
        failures == 0,
        f"1000 randomized minimal triangles: triple inside, sums equal, "
        f"{failures} failures",
    )


def test_criterion_6_implication_chains():
    t0 = time.time()
    instances = 0
    violations = []
    for _, s in enumerate_family((3, 3), "1-convex"):
        for p in bipartitions(s):
            instances += 1
            flag_holds = search_flag(p).holds
            if flag_holds:
                size = len(p.a) + len(p.b)
                for k in range(2, size + 1):
                    if not check_parallelogram(p, k).holds:
                        violations.append(("flag->par", p, k))
                        break
            if check_parallelogram(p, 2).holds and not check_ray(p).holds:
                violations.append(("par->ray", p, None))
    elapsed = time.time() - t0
    _report(
        6,
        not violations,
        f"chain properties over {instances} partitions of 1-convex subsets "
        f"of the 3x3 grid: {len(violations)} violations ({elapsed:.0f}s)",
    )


def test_criterion_7_flag_oracle_agreement():
    t0 = time.time()
    checked = 0
    mismatches = []

    def compare(a_pts, b_pts):
        nonlocal checked
        checked += 1
        p = Partition.of(a_pts, b_pts)
        got = search_flag(p)
        want = oracle_flag_separable(tuple(a_pts), tuple(b_pts))
        if got.holds != want:
            mismatches.append((a_pts, b_pts))
        elif got.holds:
            assert verify_flag(p, got.witness)

    # exhaustive over the 2x2 corner of the grid
    cells = [(x, y) for x in range(2) for y in range(2)]
    for mask in range(1, 1 << 4):
        pts = [cells[i] for i in range(4) if mask >> i & 1]
        if len(pts) < 2:
            continue
        for am in range(1, (1 << len(pts)) - 1):
            a = [pts[i] for i in range(len(pts)) if am >> i & 1]
            b = [pts[i] for i in range(len(pts)) if not am >> i & 1]
            compare(a, b)

    # fixed seeded draws from the 4x4 grid with up to 8 points
    rng = random.Random(20240817)
    grid = [(x, y) for x in range(4) for y in range(4)]
    for _ in range(60):
        size = rng.randint(3, 8)
        pts = sorted(rng.sample(grid, size))
        for _ in range(4):
            am = rng.randint(1, (1 << size) - 2)
            a = [pts[i] for i in range(size) if am >> i & 1]
            b = [pts[i] for i in range(size) if not am >> i & 1]
            compare(a, b)
    elapsed = time.time() - t0
    _report(
        7,
        not mismatches,
        f"search agrees with the elimination-based oracle on {checked} "
        f"instances from the 4x4 grid ({elapsed:.0f}s); mismatches: {mismatches[:3]}",
    )


def test_criterion_8_windowed_flags():
    t0 = time.time()
    notes = []
    ok = True

    for n in (10, 25, 50):
        p = sqrt2_halfplane_window(n)
        q = quarter_boundary_window(n)
        v1 = verify_flag(p, sqrt2_window_flag(n))
        v2 = verify_flag(q, quarter_boundary_flag())
        ok = ok and v1 and v2
        notes.append(f"verify@{n}:{v1 and v2}")

    # par at k=2 and k=3; at n=50 (10,201 points) both orders together
    # must stay under 3 s per window
    for n in (10, 50):
        slowest = 0.0
        for build in (sqrt2_halfplane_window, quarter_boundary_window):
            p = build(n)
            t_par = time.time()
            par = check_parallelogram(p, 2).holds and check_parallelogram(p, 3).holds
            slowest = max(slowest, time.time() - t_par)
            flag = search_flag(p).holds
            ok = ok and par and flag and slowest < 3
        notes.append(f"P2,P3,H@{n}:True (par {slowest:.2f}s)")

    # the ray check makes one pass of set operations on integer point
    # codes per point against the other side, quadratic in the window's
    # (2n+1)^2 points, so it runs on the lower rungs of the ladder; at
    # n=25 (2,601 points) it must stay under 3 s per window
    for n in (10, 20, 25):
        slowest = 0.0
        for build in (sqrt2_halfplane_window, quarter_boundary_window):
            p = build(n)
            t_ray = time.time()
            ok = ok and check_ray(p).holds
            slowest = max(slowest, time.time() - t_ray)
        ok = ok and slowest < 3
        notes.append(f"R@{n}:True (ray {slowest:.2f}s)")

    elapsed = time.time() - t0
    _report(8, ok, f"windowed ladder {'; '.join(notes)} ({elapsed:.0f}s)")
