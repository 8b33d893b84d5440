"""k-convexity, hulls, integral convexity, hole classification."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latsep import convexity, linalg
from latsep.convexity import (
    _corner_signs,
    _face_plan,
    _hull_support,
    _segment_points,
    _simplex_points,
    _sweep_additions,
    classify_holes,
    is_hole_free,
    is_integrally_convex,
    is_k_convex,
    k_convex_hull,
    simplex_lattice_points,
)
from latsep.geometry import (
    DirectionCodes,
    IntPoint,
    PointSet,
    affine_hull_basis,
    bounding_box,
    box_points,
    integer_facets,
    lattice_points_in_conv,
    point_in_conv,
    satisfies,
)
from latsep.verdicts import CellWitness, ConvexityWitness, Verdict

from oracles import oracle_integrally_convex_2d, oracle_integrally_convex_lp, oracle_one_convex
from test_geometry import rank_sets

GRID33 = [(x, y) for x in range(3) for y in range(3)]


def _subsets(grid):
    n = len(grid)
    for mask in range(1, 1 << n):
        yield [grid[i] for i in range(n) if mask >> i & 1]


def _simplex_543_family():
    gens = PointSet.of([(0, 0, 0), (5, 0, 0), (0, 4, 0), (0, 0, 3)])
    s_prime = lattice_points_in_conv(gens)
    a = PointSet.of(sorted(set(s_prime.points) - {(2, 1, 1)}))
    return gens, s_prime, a


def _closure_sweep(s: PointSet, k: int) -> PointSet:
    """The k-hull by the subset sweep alone, no shortcuts."""
    added = tuple(z for _, z in _sweep_additions(s, k))
    return PointSet(s.dim, tuple(sorted(s.points + added)))


def _sweep_is_k_convex(s: PointSet, k: int) -> Verdict:
    """k-convexity by the subset sweep alone: its first addition, if any,
    is the witness."""
    for subset, z in _sweep_additions(s, k):
        return Verdict(False, ConvexityWitness(subset, z))
    return Verdict(True)


def _inline_scan_simplex_points(points: tuple[IntPoint, ...]):
    """``_simplex_points`` as it was before it used
    ``geometry.lattice_points``, with its own solved-axis scan, kept
    verbatim as its reference."""
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
    m = len(cols)
    base = [p0[c] for c in cols]
    # Affine forms on the projected point y, coefficients then constant:
    # D times the barycentric coordinate of each edge and of p0, and D
    # times x_j - p0_j for each coordinate j outside cols.
    bary = [row + [-sum(r * b for r, b in zip(row, base))] for row in adj]
    bary.append([-sum(col) for col in zip(*bary)])
    bary[m][m] += det
    lifts = [
        (j, [sum(w[j] * f[r] for w, f in zip(edges, bary)) for r in range(m + 1)])
        for j in range(len(p0))
        if j not in cols
    ]
    proj = [[p[c] for c in cols] for p in points]
    *spans, last = [(min(v), max(v)) for v in zip(*proj)]
    for head in product(*(range(l, h + 1) for l, h in spans)):
        # each form is c + a*t in the last projected coordinate t
        t_lo, t_hi = last
        for f in bary:
            a, c = f[m - 1], f[m] + sum(u * v for u, v in zip(f, head))
            if a > 0:
                t_lo = max(t_lo, -(c // a))
            elif a < 0:
                t_hi = min(t_hi, c // -a)
            elif c < 0:
                t_hi = t_lo - 1
        for t in range(t_lo, t_hi + 1):
            y = head + (t,)
            point = list(p0)
            for c, v in zip(cols, y):
                point[c] = v
            for j, f in lifts:
                q, rem = divmod(sum(u * v for u, v in zip(f, y)) + f[m], det)
                if rem:
                    break
                point[j] += q
            else:
                yield tuple(point)


class TestSimplexLatticePoints:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rank_sets())
    def test_same_points_and_order_as_the_inline_scan(self, s):
        # every subset of up to d + 1 points: the affinely independent ones
        # list their lattice points, and both yield none for the others
        for size in range(1, min(len(s), s.dim + 1) + 1):
            for subset in combinations(s.points, size):
                got = tuple(_simplex_points(subset))
                assert got == tuple(_inline_scan_simplex_points(subset)), subset

    def test_segment(self):
        assert sorted(simplex_lattice_points(((0, 0), (3, 3)))) == [
            (0, 0), (1, 1), (2, 2), (3, 3),
        ]

    def test_triangle_2d_matches_membership(self):
        rng = random.Random(5)
        for _ in range(15):
            tri = tuple((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3))
            area2 = (tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1]) - (
                tri[1][1] - tri[0][1]
            ) * (tri[2][0] - tri[0][0])
            if area2 == 0:
                continue
            got = sorted(simplex_lattice_points(tri))
            want = sorted(lattice_points_in_conv(PointSet.of(tri)).points)
            assert got == want

    def test_triangle_3d_matches_membership(self):
        rng = random.Random(9)
        done = 0
        while done < 12:
            tri = tuple(
                (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(3)
            )
            s = PointSet.of(tri)
            if len(s) < 3:
                continue
            diffs = [tuple(b - a for a, b in zip(tri[0], p)) for p in tri[1:]]
            cx = (
                diffs[0][1] * diffs[1][2] - diffs[0][2] * diffs[1][1],
                diffs[0][2] * diffs[1][0] - diffs[0][0] * diffs[1][2],
                diffs[0][0] * diffs[1][1] - diffs[0][1] * diffs[1][0],
            )
            if cx == (0, 0, 0):
                continue
            got = sorted(simplex_lattice_points(tri))
            want = sorted(lattice_points_in_conv(s).points)
            assert got == want
            done += 1

    def test_tetrahedron_matches_membership(self):
        tet = ((0, 0, 0), (3, 0, 0), (0, 2, 0), (1, 1, 2))
        got = sorted(simplex_lattice_points(tet))
        want = sorted(lattice_points_in_conv(PointSet.of(tet)).points)
        assert got == want

    def test_matches_membership_in_every_dimension(self):
        # every simplex dimension m = 0..d in Z^1..Z^4, triangles and
        # tetrahedra in Z^4 included, against the LP membership reference
        rng = random.Random(5)
        for d in range(1, 5):
            top = 4 if d < 4 else 3
            for m in range(d + 1):
                done = 0
                while done < 10:
                    pts = tuple(
                        tuple(rng.randint(0, top) for _ in range(d)) for _ in range(m + 1)
                    )
                    s = PointSet.of(pts)
                    if len(s) < m + 1 or len(affine_hull_basis(s)[1]) < m:
                        continue
                    got = sorted(simplex_lattice_points(pts))
                    assert got == sorted(lattice_points_in_conv(s).points), pts
                    done += 1

    def test_dependent_points_rejected(self):
        with pytest.raises(ValueError):
            list(simplex_lattice_points(((0, 0), (1, 1), (2, 2))))

    def test_four_dimensional_closure(self):
        # k = 3 < rank 4 runs the tetrahedron sweep in Z^4
        s = PointSet.of([(0, 0, 0, 0), (3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
        start = time.perf_counter()
        hull = k_convex_hull(s, 3)
        elapsed = time.perf_counter() - start
        assert hull == lattice_points_in_conv(s) and len(hull) == 16
        assert elapsed < 2.0


class TestKConvex:
    def test_singleton_always(self):
        s = PointSet.of([(3, 4)])
        for k in (1, 2, 5):
            assert is_k_convex(s, k).holds

    def test_gap_segment_not_one_convex(self):
        v = is_k_convex(PointSet.of([(0, 0), (2, 0)]), 1)
        assert not v.holds
        assert v.witness.missing == (1, 0)

    def test_simplex_family_one_but_not_two(self):
        _, _, a = _simplex_543_family()
        assert is_k_convex(a, 1).holds
        v = is_k_convex(a, 2)
        assert not v.holds
        # the unique hole of this set is the dropped point
        assert v.witness.missing == (2, 1, 1)
        assert all(p in a.member_set() for p in v.witness.subset)
        assert point_in_conv((2, 1, 1), PointSet.of(v.witness.subset))

    def test_full_grid_k_convex(self):
        s = PointSet.of(GRID33)
        assert is_k_convex(s, 1).holds and is_k_convex(s, 2).holds

    def test_one_convex_matches_oracle_on_grid(self):
        for pts in _subsets(GRID33):
            assert is_k_convex(PointSet.of(pts), 1).holds == oracle_one_convex(pts)


class TestKConvexHull:
    def test_dim_closure_equals_lattice_points(self):
        # the raw sweep at k = dim must agree with box-plus-membership
        rng = random.Random(3)
        for _ in range(8):
            pts = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)]
            s = PointSet.of(pts)
            swept = _closure_sweep(s, 2)
            assert set(swept.points) == set(lattice_points_in_conv(s).points)
            assert set(k_convex_hull(s, 2).points) == set(swept.points)

    def test_simplex_543_tower(self):
        gens, s_prime, a = _simplex_543_family()
        h1 = k_convex_hull(gens, 1)
        assert set(h1.points) == set(a.points)
        h2 = k_convex_hull(gens, 2)
        assert set(h2.points) == set(s_prime.points)

    def test_monotone_tower(self):
        rng = random.Random(17)
        for _ in range(6):
            pts = [
                (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 2))
                for _ in range(4)
            ]
            s = PointSet.of(pts)
            prev = None
            for k in (1, 2, 3):
                cur = set(k_convex_hull(s, k).points)
                if prev is not None:
                    assert prev <= cur
                prev = cur

    def test_result_is_k_convex_and_contains_input(self):
        s = PointSet.of([(0, 0), (3, 1), (1, 3)])
        h = k_convex_hull(s, 1)
        assert set(s.points) <= set(h.points)
        assert is_k_convex(h, 1).holds


class TestHoleFree:
    def test_example_union_hole_free(self):
        s = PointSet.of([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (1, 1, 2)])
        assert is_hole_free(s).holds

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_set(self, dim):
        empty = PointSet(dim, ())
        assert is_hole_free(empty) == Verdict(True)
        for k in (1, 2, 3):
            assert is_k_convex(empty, k) == Verdict(True)
            assert k_convex_hull(empty, k) == empty

    def test_gap_segment(self):
        v = is_hole_free(PointSet.of([(0, 0), (2, 0)]))
        assert not v.holds and v.witness.missing == (1, 0)

    def test_integrally_convex_implies_hole_free(self):
        for pts in _subsets(GRID33):
            s = PointSet.of(pts)
            if is_integrally_convex(s).holds:
                assert is_hole_free(s).holds

    def test_hole_free_iff_dim_convex_on_spanning_sets(self):
        # compare against the raw subset sweep so the two routes stay
        # independent (the public op shortcuts k >= rank to hole-freeness)
        for pts in _subsets(GRID33):
            s = PointSet.of(pts)
            xs = {p[0] for p in pts}
            ys = {p[1] for p in pts}
            if len(xs) < 2 or len(ys) < 2:
                continue  # remark applies to sets spanning the dimension
            assert is_hole_free(s).holds == _sweep_is_k_convex(s, 2).holds
            assert is_k_convex(s, 2).holds == is_hole_free(s).holds


class TestIntegrallyConvex:
    def test_box(self):
        assert is_integrally_convex(
            PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        ).holds

    def test_long_diagonal_fails(self):
        v = is_integrally_convex(PointSet.of([(0, 0), (2, 1)]))
        assert not v.holds
        assert v.witness.cell == (0, 0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_set(self, dim):
        assert is_integrally_convex(PointSet(dim, ())) == Verdict(True)

    def test_unit_diagonal_passes(self):
        assert is_integrally_convex(PointSet.of([(0, 0), (1, 1)])).holds

    def test_grid_3x3(self):
        assert is_integrally_convex(PointSet.of(GRID33)).holds

    def test_matches_oracle_exhaustively(self):
        count = 0
        for pts in _subsets(GRID33):
            got = is_integrally_convex(PointSet.of(pts)).holds
            assert got == oracle_integrally_convex_2d(pts)
            count += got
        assert count == 117  # frozen by the clipping oracle

    def test_matches_lp_oracle(self):
        """Verdict and witness against the Fraction/LP implementation."""
        rng = random.Random(17)
        cases = []
        # clipped boxes of Z^3 as the conjecture hunt draws them, 4 per size 2..12
        per_size = {n: 0 for n in range(2, 13)}
        while any(v < 4 for v in per_size.values()):
            pts = list(product(*(range(rng.randint(1, 2) + 1) for _ in range(3))))
            for _ in range(rng.randint(1, 3)):
                normal = tuple(rng.randint(-2, 2) for _ in range(3))
                vals = [sum(a * b for a, b in zip(normal, p)) for p in pts]
                kept = [p for p, v in zip(pts, vals) if v <= rng.randint(min(vals), max(vals))]
                pts = kept if len(kept) >= 2 else pts
            if per_size.get(len(pts), 4) < 4:
                per_size[len(pts)] += 1
                cases.append(pts)
        cube = list(product(range(3), repeat=3))
        cases += [rng.sample(cube, rng.randint(1, 8)) for _ in range(30)]
        cases += [[(rng.randint(-3, 4),) for _ in range(rng.randint(1, 4))] for _ in range(15)]
        cases += [
            [(rng.randint(0, 4), rng.randint(0, 3)) for _ in range(rng.randint(1, 7))]
            for _ in range(40)
        ]
        # Z^4: subsets and clipped copies of one cube, which hold, two
        # sets that fail at a missing corner or a half-integral vertex,
        # and a few points of [0, 2]^4 (the oracle takes ~0.4 s per set)
        tesseract = list(product(range(2), repeat=4))
        cases += [rng.sample(tesseract, rng.randint(3, 6)) for _ in range(2)]
        cases += [
            [p for p in tesseract if sum(p) <= 2],
            [p for p in tesseract if p[0] + p[1] - p[3] <= 1],
        ]
        cases += [[(0, 0, 0, 0), (2, 0, 0, 0)], [(0, 0, 0, 0), (1, 1, 1, 0), (2, 2, 2, 1)]]
        cases += [
            [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(rng.randint(2, 5))]
            for _ in range(5)
        ]
        outcomes = set()
        for pts in cases:
            s = PointSet.of(pts)
            got = is_integrally_convex(s)
            assert got == oracle_integrally_convex_lp(s), s.points
            outcomes.add((s.dim, got.holds))
        assert outcomes == {(d, h) for d in (1, 2, 3, 4) for h in (True, False)}

    def test_full_cells_match_lp_oracle(self):
        """Boxes with one or two outside points: every cell whose corners
        are all members is skipped, and the verdict and witness still
        match the LP oracle."""
        rng = random.Random(23)
        outcomes = set()
        for _ in range(40):
            d = rng.choice((2, 3))
            pts = list(product(*(range(rng.randint(1, 2) + 1) for _ in range(d))))
            pts += [tuple(rng.randint(-1, 3) for _ in range(d)) for _ in range(rng.randint(1, 2))]
            s = PointSet.of(pts)
            got = is_integrally_convex(s)
            assert got == oracle_integrally_convex_lp(s), s.points
            outcomes.add(got.holds)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "box, extra, expected",
        [
            ((2, 3), [(3, 1)], "cell=(1, 0), vertex=(Fraction(2, 1), Fraction(1, 2))"),
            ((2, 2), [(0, 2), (0, 3)], "cell=(0, 1), vertex=(Fraction(1, 2), Fraction(2, 1))"),
            (
                (2, 3, 3),
                [(2, 1, 0), (2, 2, 0)],
                "cell=(1, 0, 0), vertex=(Fraction(3, 2), Fraction(1, 2), Fraction(1, 1))",
            ),
            (
                (3, 2, 3),
                [(0, 3, 0)],
                "cell=(0, 1, 0), vertex=(Fraction(0, 1), Fraction(2, 1), Fraction(0, 1))",
            ),
            (
                (3, 2, 3),
                [(3, 2, 2)],
                "cell=(0, 1, 0), vertex=(Fraction(1, 1), Fraction(4, 3), Fraction(2, 3))",
            ),
        ],
    )
    def test_witness_after_full_cells(self, box, extra, expected):
        """Sets failing on a cell that comes after a full, skipped cell
        keep the witness they had before the skip."""
        s = PointSet.of(list(product(*(range(n) for n in box))) + extra)
        assert repr(is_integrally_convex(s)) == (
            f"Verdict(holds=False, witness=CellWitness({expected}))"
        )


# The all-choices cell search that the face-by-face one replaced, kept
# verbatim as the reference: it solves every choice of d constraints
# among the cell's facets and its 2d bounds.

def _cell_vertices(d, constraints):
    """Vertices of {x : n . x >= c for all (n, c)} inside one unit cell,
    as (X, D) with x = X / D in lowest terms, in lexicographic order of x:
    the solves of d tight constraints that satisfy all the others."""
    verts = set()
    for chosen in combinations(constraints, d):
        found = linalg.minor_adjugate([n for n, _ in chosen])
        if found is None:
            continue
        _, det, adj = found
        x = [sum(row[r] * c for row, (_, c) in zip(adj, chosen)) for r in range(d)]
        if satisfies(x, det, constraints):
            g = gcd(det, *x)
            verts.add((tuple(v // g for v in x), det // g))
    scale = lcm(*(den for _, den in verts))
    return sorted(verts, key=lambda v: tuple(c * (scale // v[1]) for c in v[0]))


def _cell_constraints(d, facets, cell):
    """The facets that can be tight on the unit cell plus its 2d bounds,
    or None when the cell misses the hull: over the cell, n . x - c
    ranges from its value at the origin plus the negative entries of n
    to that value plus the positive ones."""
    out = []
    for n, c in facets:
        base = sum(a * b for a, b in zip(n, cell)) - c
        if base + sum(v for v in n if v > 0) < 0:
            return None
        if base + sum(v for v in n if v < 0) <= 0:
            out.append((n, c))
    for i in range(d):
        e = tuple(int(i == j) for j in range(d))
        out += [(e, cell[i]), (tuple(-v for v in e), -(cell[i] + 1))]
    return out


def _all_choices_integrally_convex(s: PointSet) -> Verdict:
    """``is_integrally_convex`` on the all-choices cell search."""
    d = s.dim
    facets = integer_facets(s.points)
    members = s.member_set()
    lo, hi = bounding_box(s.points)
    for cell in product(*(range(l, max(h, l + 1)) for l, h in zip(lo, hi))):
        if all(c in members for c in box_points(cell, tuple(z + 1 for z in cell))):
            continue
        constraints = _cell_constraints(d, facets, cell)
        if constraints is None:
            continue
        for x, den in _cell_vertices(d, constraints):
            if den != 1 or x not in members:
                return Verdict(False, CellWitness(cell, tuple(Fraction(v, den) for v in x)))
    return Verdict(True)


@st.composite
def _box_subset(draw):
    """1 to 14 points of a box [-1, side]^d in Z^1 to Z^3."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-1, draw(st.integers(1, 3)))
    return PointSet.of(draw(st.sets(st.tuples(*[coord] * dim), min_size=1, max_size=14)))


class TestFaceFirstCellSearch:
    """The face-by-face search for failing cell vertices against the
    all-choices search it replaced and the LP oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_box_subset())
    def test_matches_all_choices(self, s):
        assert repr(is_integrally_convex(s)) == repr(_all_choices_integrally_convex(s))

    def test_four_dimensional_sets_match_lp_oracle(self):
        # points of a unit tesseract and up to two points of [0, 2]^4
        rng = random.Random(41)
        tesseract = list(product(range(2), repeat=4))
        outcomes = set()
        for _ in range(6):
            pts = rng.sample(tesseract, rng.randint(2, 5))
            pts += [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(rng.randint(0, 2))]
            s = PointSet.of(pts)
            got = is_integrally_convex(s)
            assert got == oracle_integrally_convex_lp(s), s.points
            assert repr(got) == repr(_all_choices_integrally_convex(s))
            outcomes.add(got.holds)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "pts, face_dim, expected",
        [
            (
                [(0, 2, 2), (0, 3, -1), (1, 2, 2), (2, 0, 2)],
                0,
                "cell=(0, 0, 1), vertex=(Fraction(1, 1), Fraction(1, 1), Fraction(2, 1))",
            ),
            (
                [(0, 1, 2), (0, 2, 0), (0, 2, 1), (1, 2, 2)],
                1,
                "cell=(0, 1, 0), vertex=(Fraction(0, 1), Fraction(3, 2), Fraction(1, 1))",
            ),
            (
                [(0, 3, 3), (2, 3, 3), (3, 1, 2), (3, 2, 3)],
                2,
                "cell=(0, 2, 2), vertex=(Fraction(1, 1), Fraction(7, 3), Fraction(8, 3))",
            ),
        ],
    )
    def test_witness_on_each_face_dimension(self, pts, face_dim, expected):
        """Full-dimensional sets in Z^3 whose witness is a non-member
        corner, a point inside a cell edge and one inside a 2-face."""
        s = PointSet.of(pts)
        got = is_integrally_convex(s)
        assert repr(got) == f"Verdict(holds=False, witness=CellWitness({expected}))"
        assert sum(v.denominator != 1 for v in got.witness.vertex) == face_dim
        assert repr(got) == repr(_all_choices_integrally_convex(s))


# The row-sum face search that the corner signs replaced, kept verbatim
# as the reference: ``_face_rows`` re-sums each kept row over the free
# coordinates of every face, the cell included.

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


def _row_sums_failing_vertex(cell, rows, members):
    """The least vertex X / D of Q = conv(S) ∩ cell that fails the vertex
    rule, as (X, D), or None; ``rows`` are the cell's own ``_face_rows``.

    Face by face (see the algorithm notes in docs/): each vertex of Q lies
    inside one proper face of the cell, where f facets tight at it fix its
    f free coordinates (``linalg.minor_adjugate``).  Off the corners it is
    not integral, so it fails.  Faces whose corners are all members, or
    that conv(S) only touches, are skipped; only crossing rows are solved."""
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
        # A nonconstant m . y - b whose maximum over the face is 0 is below 0
        # inside it: conv(S) only touches the face.  One whose minimum is 0
        # is tight only on the face's boundary, so it is never solved.
        if any(any(m) and sum(v for v in m if v > 0) == b for m, b in face):
            continue
        crossing = [(m, b) for m, b in face if sum(v for v in m if v < 0) < b]
        for chosen in combinations(crossing, len(free)):
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


def _row_sums_cells(s: PointSet, failing_vertex) -> Verdict:
    """The cell loop of the row-sum search, with a given face search."""
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
        found = None if rows is None else failing_vertex(cell, rows, members)
        if found is not None:
            x, den = found
            return Verdict(False, CellWitness(cell, tuple(Fraction(v, den) for v in x)))
    return Verdict(True)


def _row_sums_integrally_convex(s: PointSet) -> Verdict:
    """``is_integrally_convex`` on the row-sum face search."""
    return _row_sums_cells(s, _row_sums_failing_vertex)


# The face search before the touching-face and crossing-row rules, kept
# verbatim as the reference: it solves every choice of |J| kept rows on
# every proper face that the range test and the member skip leave.

def _seed_failing_vertex(cell, rows, members):
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


def _seed_integrally_convex(s: PointSet) -> Verdict:
    """``is_integrally_convex`` on the reference face search."""
    return _row_sums_cells(s, _seed_failing_vertex)


def _decided(decide, s: PointSet) -> tuple[str, int]:
    """``repr(decide(s))`` and the ``minor_adjugate`` calls it makes beyond
    those of ``integer_facets``, i.e. the face search's solves."""
    with mock.patch.object(linalg, "minor_adjugate", wraps=linalg.minor_adjugate) as spy:
        verdict = decide(s)
        total = spy.call_count
        spy.reset_mock()
        integer_facets(s.points)
        return repr(verdict), total - spy.call_count


def _solves(decide, s: PointSet) -> int:
    """The face search's solves in ``decide(s)``."""
    return _decided(decide, s)[1]


@st.composite
def _tesseract_subset(draw):
    """1 to 10 points of [0, 2]^4."""
    coord = st.integers(0, 2)
    return PointSet.of(draw(st.sets(st.tuples(*[coord] * 4), min_size=1, max_size=10)))


@st.composite
def _flat_subset(draw):
    """1 to 8 points p + s u + t w of a lattice line (w = 0) or plane in Z^3."""
    vec = st.tuples(*[st.integers(-2, 2)] * 3)
    p, u, w = draw(vec), draw(vec), draw(st.one_of(st.just((0, 0, 0)), vec))
    steps = draw(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=8))
    return PointSet.of([tuple(a + s * b + t * c for a, b, c in zip(p, u, w)) for s, t in steps])


@st.composite
def _spread_subset(draw):
    """1 to 8 points of [-4, 4]^d in Z^1 to Z^4."""
    coord = st.integers(-4, 4)
    dim = draw(st.integers(1, 4))
    return PointSet.of(draw(st.sets(st.tuples(*[coord] * dim), min_size=1, max_size=8)))


@st.composite
def _thin_subset(draw):
    """A long lattice line, band or plane in any direction, p + s u + t w
    for 0 <= s < L and 0 <= t < M (a line for M = 1, a band for M = 2),
    with up to 3 points dropped; its bounding box spans up to 12 per axis
    in Z^3 and 6 in Z^4, and most of the box's cells miss conv(S)."""
    dim = draw(st.sampled_from((3, 4)))
    extent = draw(st.integers(6, 12) if dim == 3 else st.integers(3, 6))
    vec = st.tuples(*[st.integers(-1, 1)] * dim)
    p, u, w = draw(st.tuples(*[st.integers(-2, 2)] * dim)), draw(vec.filter(any)), draw(vec)
    width = draw(st.sampled_from((1, 2, 3, extent // 2)))
    pts = sorted({tuple(a + s * b + t * c for a, b, c in zip(p, u, w))
                  for s in range(extent + 2 - width) for t in range(width)})
    dropped = draw(st.sets(st.integers(0, len(pts) - 1), max_size=min(3, len(pts) - 1)))
    return PointSet.of([q for i, q in enumerate(pts) if i not in dropped])


def _face_signs(s: PointSet, cell, free, low):
    """The face of ``cell`` with free coordinates ``free`` and least corner
    ``low``, read off the corner signs of the facets the cell range test
    keeps, as rows (m, b) meaning m . y >= b on the face: those at most 0
    at some corner of the face, those that cross it (OR of < 0) and those
    that only touch it (AND of <= 0 and OR of < 0)."""
    rows = []
    for n, e in integer_facets(s.points):
        v = sum(a * c for a, c in zip(n, cell)) - e
        assert v + sum(a for a in n if a > 0) >= 0  # conv(S) meets the cell
        if v + sum(a for a in n if a < 0) <= 0:
            rows.append((n, v))
    corners = list(box_points(cell, tuple(z + 1 for z in cell)))
    halves, faces = _face_plan(s.dim)
    values, table = _corner_signs(rows, [c in s for c in corners], halves)
    face, base = next((f, b) for f, _, j, b in faces if j == free and corners[b] == low)
    _, missed, nonpositive, crossing = table[face]
    assert not missed
    on_face = [i for i, c in enumerate(corners)
               if all(c[j] == low[j] for j in range(s.dim) if j not in free)]

    def face_rows(keep):
        return [([n[j] for j in free], -vals[base])
                for i, ((n, _), vals) in enumerate(zip(rows, values)) if keep(i, vals)]

    return {"kept": face_rows(lambda i, vals: min(vals[c] for c in on_face) <= 0),
            "crossing": face_rows(lambda i, vals: crossing >> i & 1),
            "touching": face_rows(lambda i, vals: (nonpositive & crossing) >> i & 1)}


class TestCrossingFaces:
    """The face search that skips faces conv(S) only touches and solves
    only rows that cross the face, against the search before both rules
    and the LP oracle."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_box_subset(), _tesseract_subset()))
    def test_matches_reference(self, s):
        assert repr(is_integrally_convex(s)) == repr(_seed_integrally_convex(s))

    def test_solves_fall_on_a_fixed_set(self):
        s = PointSet.of([p for p in product(range(3), repeat=3) if sum(p) <= 4])
        assert is_integrally_convex(s).holds
        assert _solves(_seed_integrally_convex, s) == 120
        assert _solves(is_integrally_convex, s) == 0

    def test_face_touched_only_on_its_boundary(self):
        """The top edge of the unit triangle's cell meets conv(S) at the
        corner (0, 1) alone: there the facet x + y <= 1 reads -y0 >= 0,
        which is <= 0 at both ends of the edge and < 0 at one, so its
        maximum over the edge is 0 and it fails inside it."""
        s = PointSet.of([(0, 0), (1, 0), (0, 1)])
        face = _face_signs(s, (0, 0), (0,), (0, 1))
        assert face["kept"] == [([-1], 0), ([1], 0)]
        assert face["crossing"] == face["touching"] == [([-1], 0)]
        assert is_integrally_convex(s) == oracle_integrally_convex_lp(s) == Verdict(True)
        assert repr(is_integrally_convex(s)) == repr(_seed_integrally_convex(s))
        assert (_solves(_seed_integrally_convex, s), _solves(is_integrally_convex, s)) == (4, 0)

    def test_row_with_minimum_zero_on_the_face(self):
        """On the top edge of cell (0, -1) the facet x >= 0 reads y0 >= 0,
        which is 0 at its left end and > 0 at its right end, so it is never
        solved; the crossing row -2 y0 >= -1 gives the witness (1/2, 0)."""
        s = PointSet.of([(0, -1), (0, 0), (0, 1), (1, 1)])
        face = _face_signs(s, (0, -1), (0,), (0, 0))
        assert face["kept"] == [([-2], -1), ([1], 0)]
        assert face["crossing"] == [([-2], -1)]
        assert face["touching"] == []
        got = is_integrally_convex(s)
        assert got == oracle_integrally_convex_lp(s)
        assert got.witness == CellWitness((0, -1), (Fraction(1, 2), Fraction(0)))
        assert repr(got) == repr(_seed_integrally_convex(s))
        assert (_solves(_seed_integrally_convex, s), _solves(is_integrally_convex, s)) == (4, 1)


class TestCornerSigns:
    """The face search on corner sign masks against the row-sum search it
    replaced: the same verdicts, witnesses and solves."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_box_subset(), _tesseract_subset(), _flat_subset(), _spread_subset(),
                     _thin_subset()))
    def test_matches_row_sums(self, s):
        assert _decided(is_integrally_convex, s) == _decided(_row_sums_integrally_convex, s)

    def test_cells_the_range_test_skips_build_no_corner_signs(self):
        """{(t, t, t)} meets few cells of its bounding box: only the cells
        every facet's range reaches build corner signs."""
        s = PointSet.of([(t, t, t) for t in range(9)])
        facets = integer_facets(s.points)

        def reached(cell):
            return all(sum(a * c for a, c in zip(n, cell)) - e + sum(a for a in n if a > 0) >= 0
                       for n, e in facets)

        with mock.patch.object(convexity, "_corner_signs", wraps=_corner_signs) as spy:
            assert is_integrally_convex(s).holds
        cells = list(product(range(8), repeat=3))
        assert spy.call_count == sum(map(reached, cells)) < len(cells) // 8
        # at least the 50 cells that meet the segment itself
        assert spy.call_count >= sum(max(c) - min(c) <= 1 for c in cells) == 50

    def test_corners_only_on_reached_cells(self):
        """The cell scan builds corners only on the 62 cells of the 512 in
        the bounding box of {(t, t, t) : t <= 8} that every facet's range
        reaches, not on every cell of the box."""
        s = PointSet.of([(t, t, t) for t in range(9)])
        with mock.patch.object(convexity, "box_points", wraps=box_points) as spy:
            assert is_integrally_convex(s).holds
        assert spy.call_count == 62
        assert all(hi == tuple(z + 1 for z in lo) for (lo, hi), _ in spy.call_args_list)


class TestFaceProperties:
    """Edges of planar integrally convex sets are short and faces stay
    integrally convex; exhaustive over the 3x3 and 4x3 grids."""

    @pytest.mark.parametrize("dims", [(3, 3), (4, 3)])
    def test_edges_and_faces(self, dims):
        from latsep.geometry import hull_facets

        grid = [(x, y) for x in range(dims[0]) for y in range(dims[1])]
        admitted = 0
        for pts in _subsets(grid):
            s = PointSet.of(pts)
            if not is_integrally_convex(s).holds:
                continue
            admitted += 1
            xs = {p[0] for p in pts}
            ys = {p[1] for p in pts}
            if len(xs) < 2 or len(ys) < 2:
                continue  # edge structure needs a full-dimensional hull
            for g in hull_facets(s):
                contact = sorted(p for p in s.points if g.value(p) == 0)
                if len(contact) < 2:
                    continue
                d, _ = linalg.primitive_part(
                    tuple(b - a for a, b in zip(contact[0], contact[-1]))
                )
                assert set(d) <= {-1, 0, 1}
                assert is_integrally_convex(PointSet.of(contact)).holds
        expected = {(3, 3): 117, (4, 3): 251}[dims]
        assert admitted == expected  # frozen by the clipping oracle


class TestClassifyHoles:
    def test_hole_free_gives_empty(self):
        assert classify_holes(PointSet.of(GRID33)) == []

    def test_simplex_543(self):
        gens, s_prime, a = _simplex_543_family()
        reports = {r.hole: r.first_k for r in classify_holes(gens)}
        assert len(reports) == len(s_prime) - 4
        assert reports[(2, 1, 1)] == 2
        assert reports[(1, 1, 1)] == 1
        assert all(1 <= k <= 3 for k in reports.values())


def _random_spanning_sets(seed, count, size_range, hi):
    """Seeded random point sets of Z^3 whose affine hull is 3-dimensional."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size = rng.randint(*size_range)
        s = PointSet.of([tuple(rng.randint(0, hi) for _ in range(3)) for _ in range(size)])
        if len(affine_hull_basis(s)[1]) == 3:
            out.append(s)
    return out


class TestTargetDrivenClosure:
    """The candidate-driven k=2 closure against the subset sweep it
    replaces."""

    def test_two_hull_matches_sweep_on_random_3d_sets(self):
        strict = 0
        not_two_convex = 0
        for s in _random_spanning_sets(2, 200, (4, 5), 4):
            assert k_convex_hull(s, 1) == _closure_sweep(s, 1)
            hull = k_convex_hull(s, 2)
            assert hull == _closure_sweep(s, 2)
            for t in (s, hull):
                got = is_k_convex(t, 2)
                assert got.holds == _sweep_is_k_convex(t, 2).holds
                if not got.holds:
                    not_two_convex += 1
                    w = got.witness
                    assert 2 <= len(w.subset) <= 3 and set(w.subset) <= t.member_set()
                    assert w.missing not in t and point_in_conv(w.missing, PointSet.of(w.subset))
            # conv(s) is the union of its full-dimensional tetrahedra
            full = {
                z
                for tet in combinations(s.points, 4)
                if len(affine_hull_basis(PointSet.of(tet))[1]) == 3
                for z in simplex_lattice_points(tet)
            }
            strict += len(hull) < len(full)
        assert strict > 0  # some 2-hulls stop short of conv(s)
        assert not_two_convex > 0

    def test_classify_holes_matches_sweep_tower(self):
        seen_k = set()
        for s in _random_spanning_sets(4, 40, (4, 4), 5):
            tower = [set(s.points)]
            hull = s
            for k in (1, 2):
                hull = _closure_sweep(hull, k)
                tower.append(set(hull.points))
            tower.append(set(lattice_points_in_conv(s).points))
            want = {
                z: next(k for k in (1, 2, 3) if z in tower[k])
                for z in tower[3] - tower[0]
            }
            got = {r.hole: r.first_k for r in classify_holes(s)}
            assert got == want
            seen_k |= set(want.values())
        assert seen_k == {1, 2, 3}

    def test_classify_holes_in_z4_matches_hull_tower(self):
        # k = 3 < rank 4 runs the subset sweep on the 2-hull
        rng = random.Random(11)
        seen_k = set()
        for _ in range(40):
            while True:
                size = rng.randint(5, 6)
                s = PointSet.of([tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(size)])
                if len(affine_hull_basis(s)[1]) == 4:
                    break
            tower = [set(s.points)]
            tower += [set(k_convex_hull(s, k).points) for k in (1, 2, 3)]
            tower.append(set(lattice_points_in_conv(s).points))
            want = {
                z: next(k for k in (1, 2, 3, 4) if z in tower[k])
                for z in tower[4] - tower[0]
            }
            assert {r.hole: r.first_k for r in classify_holes(s)} == want
            seen_k |= set(want.values())
        assert seen_k == {1, 2, 3, 4}

    def test_decision_matches_hull_on_random_sets(self):
        # is_k_convex(s, k) holds exactly when s is its own k-hull, and a
        # failing witness names at most k + 1 members whose hull holds a
        # lattice point outside s
        rng = random.Random(12)
        failures = set()
        for i in range(300):
            d = 1 + i % 4
            hi = (8, 4, 3, 2)[d - 1]
            size = rng.randint(1, 7 - d // 2)
            s = PointSet.of([tuple(rng.randint(0, hi) for _ in range(d)) for _ in range(size)])
            for k in (1, 2, 3):
                got = is_k_convex(s, k)
                assert got.holds == (k_convex_hull(s, k) == s)
                if not got.holds:
                    failures.add((d, k))
                    w = got.witness
                    assert len(w.subset) <= k + 1 and set(w.subset) <= s.member_set()
                    assert w.missing not in s and point_in_conv(w.missing, PointSet.of(w.subset))
        assert {(d, k) for d in (2, 3, 4) for k in (1, 2, 3)} <= failures

    def test_classify_holes_lower_rank(self):
        # a planar set in Z^3: holes the 1-hull misses get k = rank = 2
        s = PointSet.of([(0, 0, 1), (2, 1, 1), (1, 2, 1)])
        assert [(r.hole, r.first_k) for r in classify_holes(s)] == [((1, 1, 1), 2)]
        # a segment: every hole is reached at k = rank = 1
        s = PointSet.of([(0, 0, 0), (3, 3, 0)])
        assert [r.first_k for r in classify_holes(s)] == [1, 1]


_OFFSET = st.integers(-2, 2)


@st.composite
def _kernel_case(draw):
    """A point z and up to 8 other points, given by their offsets from z;
    half the cases include three offsets a, b, -a-b, so that z is the
    centroid of a triangle."""
    dim = draw(st.integers(2, 3))
    offset = st.tuples(*[_OFFSET] * dim)
    z = draw(st.tuples(*[_OFFSET] * dim))
    offsets = draw(st.lists(offset, min_size=1, max_size=5))
    if draw(st.booleans()):
        a, b = draw(offset), draw(offset)
        offsets += [a, b, tuple(-x - y for x, y in zip(a, b))]
    pts = sorted({tuple(x + y for x, y in zip(z, o)) for o in offsets if any(o)})
    assume(pts)
    return z, pts


class TestHullSupportKernel:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_kernel_case())
    def test_support_is_sound_and_complete(self, case):
        z, pts = case
        support = _hull_support(z, pts, 2, DirectionCodes([z, *pts]))
        if support is not None:
            assert 2 <= len(support) <= 3
            assert set(support) <= set(pts)
            assert point_in_conv(z, PointSet.of(support))
        else:
            # hulls of smaller subsets lie inside those of the largest ones
            size = min(3, len(pts))
            assert not any(
                point_in_conv(z, PointSet.of(sub)) for sub in combinations(pts, size)
            )

    def test_segment_and_triangle_supports(self):
        def support(z, pts, k):
            return _hull_support(z, pts, k, DirectionCodes([z, *pts]))

        for k in (1, 2):
            assert set(support((1, 1), [(0, 0), (3, 0), (2, 2)], k)) == {(0, 0), (2, 2)}
        tetra = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)]
        assert set(support((1, 1, 1), tetra, 2)) == set(tetra[1:])
        assert support((1, 1, 1), tetra, 1) is None
        small = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
        assert support((1, 1, 1), small, 2) is None


@st.composite
def _retest_case(draw):
    """A point z, points around it in any order, and a start such that no
    subset of at most 3 of the points before it holds z: a candidate the
    closure tested against ``pts[:start]`` and now retests."""
    z, pts = draw(_kernel_case())
    pts = draw(st.permutations(pts))
    start = draw(st.integers(0, len(pts)))
    assume(not any(
        point_in_conv(z, PointSet.of(sub))
        for size in (2, 3)
        for sub in combinations(pts[:start], size)
    ))
    return z, pts, start


def _retest_starts(s: PointSet):
    """k_convex_hull(s, 2) and the (start, points) of each kernel call
    with start > 0 that it made."""
    starts = []
    kernel = convexity._hull_support

    def spy(z, pts, k, table, start=0):
        if start:
            starts.append((start, len(pts)))
        return kernel(z, pts, k, table, start)

    with mock.patch.object(convexity, "_hull_support", spy):
        return k_convex_hull(s, 2), starts


class TestRetestFromNewVertices:
    """A retest runs the triangle step only from the points added since
    the candidate's last test."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_retest_case())
    def test_finds_exactly_the_subsets_meeting_the_new_points(self, case):
        z, pts, start = case
        support = _hull_support(z, pts, 2, DirectionCodes([z, *pts]), start)
        new = set(pts[start:])
        holds = any(
            new.intersection(sub) and point_in_conv(z, PointSet.of(sub))
            for size in (2, 3)
            for sub in combinations(pts, size)
        )
        assert (support is not None) == holds
        if support is not None:
            assert 2 <= len(support) <= 3 and set(support) <= set(pts)
            assert point_in_conv(z, PointSet.of(support))

    def test_two_hull_matches_sweep_across_passes(self):
        gens = _simplex_543_family()[0]
        new_apexes = 0
        for s in [gens, *_random_spanning_sets(6, 60, (5, 6), 5)]:
            hull, starts = _retest_starts(s)
            assert hull == _closure_sweep(s, 2)
            new_apexes += sum(n - start for start, n in starts)
        assert new_apexes > 0  # some retest ran the triangle step


def _identity_sets():
    """1,500 seeded sets of 3 to 8 points in Z^2 and Z^3, then 100 of 3
    to 6 points in Z^4."""
    rng = random.Random(2024)
    out = []
    for i in range(1600):
        d = 4 if i >= 1500 else 2 + i % 2
        hi = {2: 7, 3: 4, 4: 2}[d]
        size = rng.randint(3, 8 if d < 4 else 6)
        out.append(PointSet.of([tuple(rng.randint(0, hi) for _ in range(d)) for _ in range(size)]))
    return out


class TestClosureIdentity:
    """The k <= 2 closure gives, byte for byte, the hulls, verdicts,
    witnesses and hole reports it gave before the triangle step went
    column-wise and retests ran from new vertices only: sha256 of the
    ``repr`` lines over ``_identity_sets``, pinned from that version."""

    DIGESTS = {
        "classify_holes": "3e16ef22ec629be73e2cc8214b72e140f4c1d4c9f60aad51a6822181cad4fc3f",
        "k_convex_hull_1": "387907b63ea9bbd7d28f289dfc84c65102f2083e1afb8e85175d5667374297e8",
        "k_convex_hull_2": "aeeb664b010a7176424af76063c143d0809e015aa02eacbaf3a7d73b53cb7ed9",
        "is_k_convex_1": "a8473ab65ee3de8ea3a21ab9df4fffae058e3a059294dda93ff23cd3a70f6f42",
        "is_k_convex_2": "a17110165d5b393364d10e9bddad291ab6194bec794780f0adeae99a11a9f164",
    }

    def test_same_repr_as_before(self):
        sets = _identity_sets()
        checks = {
            "classify_holes": classify_holes,
            "k_convex_hull_1": lambda s: k_convex_hull(s, 1),
            "k_convex_hull_2": lambda s: k_convex_hull(s, 2),
            "is_k_convex_1": lambda s: is_k_convex(s, 1),
            "is_k_convex_2": lambda s: is_k_convex(s, 2),
        }
        got = {
            name: hashlib.sha256("\n".join(repr(f(s)) for s in sets).encode()).hexdigest()
            for name, f in checks.items()
        }
        assert got == self.DIGESTS


def _count_simplex_calls(run):
    """run() and the number of ``_simplex_points`` calls it made."""
    calls = []
    simplex_points = convexity._simplex_points

    def spy(points):
        calls.append(points)
        return simplex_points(points)

    with mock.patch.object(convexity, "_simplex_points", spy):
        return run(), len(calls)


# 9 points in Z^4 with 50 lattice points in their hull, 41 of them holes
_FOUND_SET = PointSet.of([
    (-2, -1, 0, 0), (0, -2, 1, -1), (0, 1, 2, -2), (1, -2, -1, 2), (1, 0, 2, 2),
    (1, 1, 0, -2), (1, 2, -2, -2), (1, 2, -1, 2), (2, -1, 0, 2),
])


class TestClosureStopsAtLastMissingPoint:
    """Each closure yields at most as many additions as conv(s) has
    lattice points missing from s, and stops there: work is counted in
    ``_simplex_points`` calls, not timed."""

    def test_z4_hole_classes_with_few_simplices(self):
        reports, calls = _count_simplex_calls(lambda: classify_holes(_FOUND_SET))
        digest = hashlib.sha256(repr(reports).encode()).hexdigest()
        assert digest == "4d093388fa60b877d450cdbef7bc53df7650cf45d9334e423b2c63f43dccc3f4"
        assert [sum(r.first_k == k for r in reports) for k in (1, 2, 3)] == [25, 9, 7]
        assert calls <= 25_000  # 251,125 while the last sweep ran to its end

    @pytest.mark.parametrize("hi", [(2, 2, 2, 1), (3, 3, 3, 3)])
    def test_hole_free_box_sweeps_nothing(self, hi):
        box = PointSet.of(box_points((0, 0, 0, 0), hi))
        got, calls = _count_simplex_calls(lambda: (is_k_convex(box, 3), k_convex_hull(box, 3)))
        assert got == (Verdict(True), box)
        assert calls == 0

    def test_box_with_one_hole_stops_at_it(self):
        box = PointSet.of(box_points((0, 0, 0, 0), (2, 2, 2, 1)))
        s = PointSet.of([p for p in box.points if p != (1, 1, 1, 0)])
        hull, calls = _count_simplex_calls(lambda: k_convex_hull(s, 3))
        assert hull == box
        assert calls <= 100  # the sweep finds the hole in 51; C(53, 4) subsets follow it

    def test_matches_unbounded_sweep_in_z4(self):
        rng = random.Random(25)
        checked = failing = 0
        while checked < 60:
            size = rng.randint(5, 7)
            s = PointSet.of([tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(size)])
            if len(affine_hull_basis(s)[1]) < 4:
                continue  # k = 3 below the rank runs the closure
            checked += 1
            assert k_convex_hull(s, 3) == _closure_sweep(s, 3)
            want = _sweep_is_k_convex(s, 3)
            if not want.holds:
                failing += 1
                w = want.witness
                want = Verdict(False, ConvexityWitness(tuple(sorted(w.subset)), w.missing))
            assert is_k_convex(s, 3) == want
        assert 0 < failing < checked


# The tuple-based segment step that the hull prune and the 1-hull ran
# before the shared direction kernel (``geometry.DirectionCodes``), kept
# verbatim with the triangle step around it as their reference.

def opposite_pairs(p, points):
    """Yield (q, r) for points q, r of ``points`` with p strictly inside
    the segment [q, r]: each r whose vector r - p has the primitive
    direction opposite to that of some earlier q - p, with q the first
    such point.  Points equal to p are skipped.

    One pass that buckets the vectors by ``linalg.primitive_part``; the
    opposite-direction test under the 1-hull and the hull prune (see the
    algorithm notes in docs/)."""
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for r in points:
        u, g = linalg.primitive_part(tuple(a - b for a, b in zip(r, p)))
        if not g:
            continue
        q = seen.get(tuple(-c for c in u))
        if q is not None:
            yield q, r
        seen.setdefault(u, r)


def _tuple_hull_support(z, pts, k):
    pair = next(opposite_pairs(z, pts), None)
    if pair is not None or k == 1:
        return pair
    vecs = [(p, tuple(a - b for a, b in zip(p, z))) for p in pts]
    for i, (p, v) in enumerate(vecs):
        vv = sum(c * c for c in v)
        lows = {}
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


def _assert_same_opposed(table, pts):
    """At every point of ``pts``, ``DirectionCodes.opposed`` gives, as
    vectors, the directions of the ``opposite_pairs`` and their negations."""
    codes = [table.code[q] for q in pts]
    for p in pts:
        want = set()
        for _, r in opposite_pairs(p, pts):
            u = linalg.primitive_part(tuple(a - b for a, b in zip(r, p)))[0]
            want |= {u, tuple(-v for v in u)}
        assert set(map(table.vector, table.opposed(table.code[p], codes))) == want, (pts, p)


@st.composite
def _wide_points(draw):
    """At most 20 distinct points of [-50, 50]^d, d <= 4, on the lattice
    shift + step * Z^d for a step of 1 to 12: difference codes span
    several digits of both signs, and the coarse lattices give collinear
    triples."""
    dim = draw(st.integers(1, 4))
    step = draw(st.integers(1, 12))
    shift = draw(st.tuples(*[st.integers(-2, 2)] * dim))
    t = st.integers(-48 // step, 48 // step)
    ts = draw(st.lists(st.tuples(*[t] * dim), min_size=1, max_size=20, unique=True))
    return sorted(tuple(o + step * v for o, v in zip(shift, x)) for x in ts)


class TestDirectionKernelAgainstTuples:
    """The segment step and the opposite directions on the shared
    direction codes give exactly the tuple-based answers."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_kernel_case())
    def test_same_support_on_kernel_cases(self, case):
        z, pts = case
        table = DirectionCodes([z, *pts])
        for k in (1, 2):
            assert _hull_support(z, pts, k, table) == _tuple_hull_support(z, pts, k)
        _assert_same_opposed(table, pts)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_wide_points())
    def test_same_support_on_wide_coordinates(self, pts):
        # one table over all the points, shared by every query, as in
        # the closures
        table = DirectionCodes(pts)
        for z in pts:
            others = [p for p in pts if p != z]
            for k in (1, 2):
                assert _hull_support(z, others, k, table) == _tuple_hull_support(z, others, k)
        _assert_same_opposed(table, pts)
