"""Worked example configurations and a runner that re-verifies them.

Each entry builds its point sets from generators (so fixtures stay
readable), runs every claimed property through the public decision
procedures, and reports claim-by-claim pass/fail.  Windowed entries
derived from unbounded configurations record their window size; the
"fig2" entry stores a two-dimensional configuration found by the
explorer (midpoint-free but not flag-separable, with the equal-centroid
triple that rules out the 3-parallelogram condition).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

from .conditions import (
    Partition,
    SeparatingFlag,
    check_parallelogram,
    check_ray,
    lex_flag_to_subspace_chain,
    search_flag,
    verify_flag,
)
from .convexity import classify_holes, is_hole_free, is_integrally_convex, is_k_convex, k_convex_hull
from .errors import InstanceFormatError
from .geometry import AffineFunctional, PointSet, box_points, lattice_points_in_conv, point_in_conv


@dataclass(frozen=True)
class ClaimResult:
    entry: str
    claim: str
    passed: bool
    detail: str = ""


@dataclass
class CatalogReport:
    results: list[ClaimResult]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"[{mark}] {r.entry}: {r.claim}"
            if r.detail:
                line += f"  ({r.detail})"
            out.append(line)
        return out


# ---------------------------------------------------------------------------
# windowed generators

def sqrt2_halfplane_window(n: int) -> Partition:
    """A: window points on or above the line of slope sqrt(2) through the
    origin; B: the rest.  Exact integer test, no floating point."""
    a_pts, b_pts = [], []
    for x1, x2 in box_points((-n, -n), (n, n)):
        if x1 <= 0:
            above = x2 >= 0 or x2 * x2 <= 2 * x1 * x1
        else:
            above = x2 > 0 and x2 * x2 >= 2 * x1 * x1
        (a_pts if above else b_pts).append((x1, x2))
    return Partition.of(a_pts, b_pts, 2)


def sqrt2_window_flag(n: int) -> SeparatingFlag:
    """One-level flag for the sqrt(2) window: the rational slope is a
    continued-fraction convergent so fine that no window point changes
    side, and only the origin lies on the line."""
    p, q = 1, 1
    while q <= 2 * n:
        p, q = p + 2 * q, p + q  # next convergent of sqrt(2)
    return SeparatingFlag(2, (AffineFunctional.of([-p, q], 0),), "A")


def quarter_boundary_window(n: int) -> Partition:
    """A: open right half-plane plus the nonnegative part of the vertical
    axis; B: the rest.  Windowed to [-n, n]^2."""
    a_pts, b_pts = [], []
    for x1, x2 in box_points((-n, -n), (n, n)):
        inside = x1 > 0 or (x1 == 0 and x2 >= 0)
        (a_pts if inside else b_pts).append((x1, x2))
    return Partition.of(a_pts, b_pts, 2)


def quarter_boundary_flag() -> SeparatingFlag:
    return SeparatingFlag(
        2,
        (AffineFunctional.of([1, 0], 0), AffineFunctional.of([0, 1], 0)),
        "A",
    )


# ---------------------------------------------------------------------------
# fixed point data

BOX_543 = [(0, 0, 0), (5, 0, 0), (0, 4, 0), (0, 0, 3)]
SIMPLEX_1374 = [(0, 0, 0), (13, 0, 0), (0, 7, 0), (0, 0, 4)]
FANO_VERTICES = [(1, 0, 0), (0, 1, 0), (1, 1, 2), (-1, -1, -1)]
FIG2_A = ((0, 1), (1, 2), (2, 0))
FIG2_B = ((1, 1),)

CATALOG_WINDOW = 8  # window half-size used by the windowed catalog entries


def _run_ex_line_1d() -> list[tuple]:
    p = Partition.of([(0,), (1,), (2,)], [(-1,), (-2,)])
    flag = SeparatingFlag(1, (AffineFunctional.of([1], 0),), "A")
    return [
        ("ray condition holds", check_ray(p).holds),
        ("flag search succeeds", search_flag(p).holds),
        ("identity functional with residual owner A verifies", verify_flag(p, flag)),
    ]


def _run_ex_sqrt2_window() -> list[tuple]:
    n = CATALOG_WINDOW
    p = sqrt2_halfplane_window(n)
    flag = sqrt2_window_flag(n)
    chain = lex_flag_to_subspace_chain(flag)
    return [
        (f"stored flag verifies on window {n}", verify_flag(p, flag)),
        ("2-parallelogram condition holds", check_parallelogram(p, 2).holds),
        ("ray condition holds", check_ray(p).holds),
        ("flag search succeeds", search_flag(p).holds),
        ("chain is line inside plane", [len(b) for _, b in chain] == [1, 2]),
    ]


def _run_ex_quarter_window() -> list[tuple]:
    n = CATALOG_WINDOW
    p = quarter_boundary_window(n)
    flag = quarter_boundary_flag()
    chain = lex_flag_to_subspace_chain(flag)
    origin_only = chain[0][0] == (0, 0) and chain[0][1] == []
    return [
        (f"two-level flag verifies on window {n}", verify_flag(p, flag)),
        ("2-parallelogram condition holds", check_parallelogram(p, 2).holds),
        ("ray condition holds", check_ray(p).holds),
        ("flag search succeeds", search_flag(p).holds),
        ("chain is origin inside vertical axis inside plane",
         origin_only and [len(b) for _, b in chain] == [0, 1, 2]),
    ]


def _run_ex44() -> list[tuple]:
    p = Partition.of([(0, 0), (1, 1)], [(1, 0), (0, 1)])
    par = check_parallelogram(p, 2)
    flag = search_flag(p)
    return [
        ("union is integrally convex", is_integrally_convex(p.union()).holds),
        ("ray condition holds", check_ray(p).holds),
        ("2-parallelogram fails", not par.holds, "midpoint clash" if not par.holds else ""),
        ("no separating flag exists", not flag.holds),
    ]


def _run_ex45() -> list[tuple]:
    box = PointSet.of(
        [(x, y, z) for x in range(6) for y in range(5) for z in range(4)], 3
    )
    generators = PointSet.of(BOX_543, 3)
    s_prime = lattice_points_in_conv(generators)
    hull1 = k_convex_hull(generators, 1)
    a_pts = sorted(set(s_prime.points) - {(2, 1, 1)})
    b_pts = sorted(set(box.points) - set(a_pts))
    p = Partition.of(a_pts, b_pts, 3)
    par2 = check_parallelogram(p, 2)
    par3 = check_parallelogram(p, 3)
    flag = search_flag(p)
    conv_a = lattice_points_in_conv(p.a)
    triple_sum = tuple(
        a + b + c for a, b, c in zip((5, 0, 0), (0, 0, 3), (1, 3, 0))
    )
    return [
        ("simplex holds 28 lattice points", len(s_prime) == 28),
        ("segment closure of the vertices misses only (2,1,1)", set(hull1.points) == set(a_pts)),
        ("hull of A recovers every simplex lattice point",
         set(conv_a.points) == set(s_prime.points)),
        ("2-parallelogram condition holds", par2.holds),
        ("3-parallelogram fails", not par3.holds),
        ("triple sums match three times the hole",
         triple_sum == (6, 3, 3) == tuple(3 * v for v in (2, 1, 1))),
        ("A is 1-convex but not 2-convex",
         is_k_convex(p.a, 1).holds and not is_k_convex(p.a, 2).holds),
        ("no separating flag exists", not flag.holds),
    ]


def _run_ex46() -> list[tuple]:
    generators = PointSet.of(SIMPLEX_1374, 3)
    hull1 = k_convex_hull(generators, 1)
    hull2 = k_convex_hull(hull1, 2)
    hull3 = k_convex_hull(hull2, 3)
    full = lattice_points_in_conv(generators)
    diff21 = sorted(set(hull2.points) - set(hull1.points))
    diff32 = sorted(set(hull3.points) - set(hull2.points))
    reports = {r.hole: r.first_k for r in classify_holes(generators)}
    return [
        ("simplex holds 114 lattice points", len(full) == 114),
        ("2-hull minus 1-hull is exactly (4,3,1)", diff21 == [(4, 3, 1)]),
        ("(6,2,1) enters only at the 3-hull", (6, 2, 1) in diff32),
        ("2-hull is not 3-convex", not is_k_convex(hull2, 3).holds),
        ("3-hull is every lattice point", set(hull3.points) == set(full.points)),
        ("hole (4,3,1) classified with k = 2", reports.get((4, 3, 1)) == 2),
        ("hole (6,2,1) classified with k = 3", reports.get((6, 2, 1)) == 3),
    ]


def _run_ex47() -> list[tuple]:
    verts = PointSet.of(FANO_VERTICES, 3)
    pts = lattice_points_in_conv(verts)
    p = Partition.of(FANO_VERTICES, [(0, 0, 0)], 3)
    par4 = check_parallelogram(p, 4)
    par5 = check_parallelogram(p, 5)
    return [
        ("only lattice points are the vertices and the origin",
         set(pts.points) == set(FANO_VERTICES) | {(0, 0, 0)}),
        ("4-parallelogram condition holds", par4.holds),
        ("5-parallelogram fails (five-point relation)", not par5.holds),
        ("no separating flag exists", not search_flag(p).holds),
        ("union is not integrally convex", not is_integrally_convex(pts).holds),
    ]


def _run_ex48() -> list[tuple]:
    a_pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    b_pts = [(0, 0, 0), (1, 1, 2)]
    p = Partition.of(a_pts, b_pts, 3)
    a_in_conv_b = [q for q in a_pts if point_in_conv(q, p.b)]
    b_in_conv_a = [q for q in b_pts if point_in_conv(q, p.a)]
    return [
        ("union is hole free", is_hole_free(p.union()).holds),
        ("no A point inside hull of B", not a_in_conv_b),
        ("no B point inside hull of A", not b_in_conv_a),
        ("3-parallelogram condition holds", check_parallelogram(p, 3).holds),
        ("no separating flag exists", not search_flag(p).holds),
    ]


def _run_fig2() -> list[tuple]:
    p = Partition.of(FIG2_A, FIG2_B, 2)
    par2 = check_parallelogram(p, 2)
    par3 = check_parallelogram(p, 3)
    centroid_match = tuple(map(sum, zip(*FIG2_A))) == tuple(
        3 * v for v in FIG2_B[0]
    )
    return [
        ("union is hole free", is_hole_free(p.union()).holds),
        ("2-parallelogram condition holds", par2.holds),
        ("ray condition holds", check_ray(p).holds),
        ("no separating flag exists", not search_flag(p).holds),
        ("3-parallelogram fails", not par3.holds),
        ("centroids of the sides coincide", centroid_match),
    ]


# catalog id -> the function that checks the entry's claims, as
# (claim, passed[, detail]) tuples
ENTRIES = {
    "ex2.4-1d": _run_ex_line_1d,
    "ex2.4-window": _run_ex_sqrt2_window,
    "ex2.5-window": _run_ex_quarter_window,
    "ex4.4": _run_ex44,
    "ex4.5": _run_ex45,
    "ex4.6-holes": _run_ex46,
    "ex4.7": _run_ex47,
    "ex4.8": _run_ex48,
    "fig2-triangle-center": _run_fig2,
}


def entry_ids() -> list[str]:
    return list(ENTRIES)


def run_catalog(pattern: str | None = None) -> CatalogReport:
    """Run every entry whose id matches the pattern (fnmatch syntax or a
    literal id); unknown patterns raise InstanceFormatError."""
    selected = [
        eid for eid in ENTRIES if pattern is None or eid == pattern or fnmatchcase(eid, pattern)
    ]
    if not selected:
        raise InstanceFormatError(f"unknown catalog id or pattern: {pattern!r}")
    return CatalogReport([
        ClaimResult(eid, claim, bool(passed), *detail)
        for eid in selected
        for claim, passed, *detail in ENTRIES[eid]()
    ])
