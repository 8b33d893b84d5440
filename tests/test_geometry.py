"""Geometry primitives against frozen oracle values and invariants."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsep import linalg
from latsep.convexity import is_hole_free
from latsep.errors import DimensionMismatchError
from latsep.geometry import (
    AffineFunctional,
    DirectionCodes,
    PointSet,
    affine_hull_basis,
    bounding_box,
    box_points,
    hull_facets,
    integer_facets,
    lattice_points,
    lattice_points_in_conv,
    lines_through,
    point_in_conv,
    satisfies,
)

from oracles import (
    oracle_conv_membership_grid,
    oracle_hull_facets_lp,
    oracle_lines_by_pairs,
    oracle_simplex_543_member,
    oracle_simplex_1374_member,
)


def _simplex_points_543():
    return PointSet.of([(0, 0, 0), (5, 0, 0), (0, 4, 0), (0, 0, 3)])


class TestPointSet:
    def test_dedupe_and_order(self):
        s = PointSet.of([(1, 0), (0, 0), (1, 0)])
        assert s.points == ((0, 0), (1, 0))
        assert (1, 0) in s and (2, 2) not in s

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            PointSet.of([(0, 0), (0, 0, 0)])
        with pytest.raises(DimensionMismatchError):
            PointSet.of([(0.5, 1)])
        with pytest.raises(DimensionMismatchError):
            PointSet.of([(0, True)])


class TestAffineHull:
    def test_single_point(self):
        anchor, basis = affine_hull_basis(PointSet.of([(0, 0)]))
        assert anchor == (0, 0) and basis == []

    def test_collinear(self):
        anchor, basis = affine_hull_basis(PointSet.of([(0, 0), (2, 0), (1, 0)]))
        assert len(basis) == 1
        assert basis[0][1] == 0 and basis[0][0] != 0

    def test_simplex_rank_three(self):
        # frozen by the elimination oracle: the 5-4-3 simplex spans rank 3
        pts = lattice_points_in_conv(_simplex_points_543())
        _, basis = affine_hull_basis(pts)
        assert len(basis) == 3

    def test_every_point_reachable(self):
        s = PointSet.of([(0, 0), (1, 2), (3, 1), (2, 2)])
        anchor, basis = affine_hull_basis(s)
        # rank 2 in the plane: difference space is everything
        assert len(basis) == 2


class TestPointInConv:
    def test_equal_thirds_combination(self):
        s = PointSet.of([(5, 0, 0), (0, 0, 3), (1, 3, 0)])
        assert point_in_conv((2, 1, 1), s)

    def test_vertex_membership(self):
        s = PointSet.of([(0, 0), (4, 1), (2, 5)])
        for p in s.points:
            assert point_in_conv(p, s)

    def test_outside(self):
        s = PointSet.of([(0, 0), (1, 0), (0, 1)])
        assert not point_in_conv((1, 1), s)
        assert point_in_conv((Fraction(1, 2), Fraction(1, 2)), s)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            point_in_conv((0, 0, 0), PointSet.of([(0, 0)]))

    def test_agrees_with_grid_oracle(self):
        # small instances whose basic solutions have denominators dividing 12
        cases = [
            ([(0, 0), (2, 0), (0, 2)], [12]),
            ([(0, 0), (1, 2), (2, 1)], [3, 4]),
            ([(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)], [2, 3]),
        ]
        for pts, dens in cases:
            s = PointSet.of(pts)
            lo = [min(p[i] for p in pts) for i in range(s.dim)]
            hi = [max(p[i] for p in pts) for i in range(s.dim)]
            for cand in _box(lo, hi):
                got = point_in_conv(cand, s)
                want = oracle_conv_membership_grid(cand, pts, dens)
                assert got == want, (pts, cand)


def _box(lo, hi):
    if len(lo) == 1:
        return [(x,) for x in range(lo[0], hi[0] + 1)]
    return [(x,) + rest for x in range(lo[0], hi[0] + 1) for rest in _box(lo[1:], hi[1:])]


@st.composite
def rank_sets(draw):
    """A set of at most 6 points of Z^1..Z^4 whose affine hull has at most
    a random rank: an origin plus combinations of that many directions,
    so lower-dimensional sets, single points and the empty set occur."""
    d = draw(st.integers(1, 4))
    rank = draw(st.integers(0, d))
    unit = st.integers(-1, 1)
    origin = draw(st.tuples(*[st.integers(-2, 2)] * d))
    dirs = draw(st.lists(st.tuples(*[unit] * d), min_size=rank, max_size=rank))
    coefs = draw(st.lists(st.tuples(*[unit] * rank), max_size=6))
    return PointSet.of(
        [tuple(o + sum(c * w[i] for c, w in zip(cs, dirs)) for i, o in enumerate(origin)) for cs in coefs],
        d,
    )


def _box_tested_lattice_points(s: PointSet) -> PointSet:
    """The box test ``lattice_points_in_conv`` ran before the solved-axis
    scan, kept verbatim as its reference."""
    if not s.points:
        return s
    facets = integer_facets(s.points)
    lo, hi = bounding_box(s.points)
    inside = [x for x in box_points(lo, hi) if satisfies(x, 1, facets)]
    return PointSet(s.dim, tuple(inside))


class TestLatticePointsInConv:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rank_sets())
    def test_same_points_and_order_as_the_box_test(self, s):
        assert lattice_points_in_conv(s).points == _box_tested_lattice_points(s).points

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(
                st.lists(
                    st.tuples(st.tuples(*[st.integers(-2, 2)] * d), st.integers(-4, 4)),
                    max_size=4,
                ),
                st.tuples(*[st.integers(-3, 0)] * d),
                st.tuples(*[st.integers(0, 3)] * d),
            )
        )
    )
    def test_scan_filters_the_box_by_any_pairs(self, case):
        # any pairs, a zero last entry and none at all included
        pairs, lo, hi = case
        want = [x for x in box_points(lo, hi) if satisfies(x, 1, pairs)]
        assert list(lattice_points(pairs, lo, hi)) == want

    def test_unimodular_triangle(self):
        s = PointSet.of([(0, 0), (1, 0), (0, 1)])
        assert lattice_points_in_conv(s).points == s.points

    def test_simplex_543_frozen_count(self):
        pts = lattice_points_in_conv(_simplex_points_543())
        assert len(pts) == 28  # frozen by the closed-form membership oracle
        for p in pts.points:
            assert oracle_simplex_543_member(p)

    def test_simplex_1374_frozen_count(self):
        s = PointSet.of([(0, 0, 0), (13, 0, 0), (0, 7, 0), (0, 0, 4)])
        pts = lattice_points_in_conv(s)
        assert len(pts) == 114
        assert all(oracle_simplex_1374_member(p) for p in pts.points)

    def test_terminal_simplex_only_five_points(self):
        s = PointSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 2), (-1, -1, -1)])
        pts = lattice_points_in_conv(s)
        assert set(pts.points) == set(s.points) | {(0, 0, 0)}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_set(self, dim):
        assert lattice_points_in_conv(PointSet(dim, ())) == PointSet(dim, ())

    def test_superset_and_idempotent(self):
        rng = random.Random(7)
        for _ in range(10):
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            s = PointSet.of(pts)
            full = lattice_points_in_conv(s)
            assert set(s.points) <= set(full.points)
            again = lattice_points_in_conv(full)
            assert again.points == full.points


class TestHullFacets:
    def test_triangle(self):
        fs = hull_facets(PointSet.of([(0, 0), (1, 0), (0, 1)]))
        assert len(fs) == 3

    def test_square(self):
        fs = hull_facets(PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert len(fs) == 4

    def test_simplex_1374_normals(self):
        # frozen by the cross-product oracle on the face vertices
        s = lattice_points_in_conv(
            PointSet.of([(0, 0, 0), (13, 0, 0), (0, 7, 0), (0, 0, 4)])
        )
        fs = hull_facets(s)
        got = {(tuple(int(v) for v in g.normal), int(g.offset)) for g in fs}
        assert got == {
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((0, 0, 1), 0),
            ((-28, -52, -91), -364),
        }

    def test_one_sidedness_invariant(self):
        rng = random.Random(11)
        for _ in range(8):
            pts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(5)]
            s = PointSet.of(pts)
            for g in hull_facets(s):
                assert all(g.value(p) >= 0 for p in s.points)

    def test_degenerate_segment_has_exact_description(self):
        s = PointSet.of([(0, 0), (2, 1)])
        fs = hull_facets(s)
        inside = [p for p in _box((-1, -1), (3, 3)) if all(g.value(p) >= 0 for g in fs)]
        assert inside == [(0, 0), (2, 1)]


def _random_rank_set(rng, dim, rank, reach=2):
    """Up to 7 points of Z^dim whose affine hull has the given rank: an
    origin plus combinations of ``rank`` independent directions, with
    entries and coefficients in [-reach, reach]."""
    while True:
        dirs = [tuple(rng.randint(-reach, reach) for _ in range(dim)) for _ in range(rank)]
        origin = tuple(rng.randint(-2, 2) for _ in range(dim))
        pts = [origin]
        for _ in range(rng.randint(rank, 6)):
            coef = [rng.randint(-reach, reach) for _ in range(rank)]
            pts.append(tuple(o + sum(c * w[i] for c, w in zip(coef, dirs)) for i, o in enumerate(origin)))
        s = PointSet.of(pts)
        if len(affine_hull_basis(s)[1]) == rank:
            return s


# The prune and C(h, r) subset scan that ``integer_facets`` ran before the
# double-description pass, kept with the null vector of each subset read
# off ``linalg.minor_adjugate`` as the reference the pass is tested against.

def _subset_scan_facets(points):
    table = DirectionCodes(points)
    pts = [p for p, c in zip(points, table.codes) if not table.opposed(c, table.codes)]
    anchor = pts[0]
    d = len(anchor)
    diffs = (tuple(x - a for x, a in zip(p, anchor)) for p in pts[1:])
    equations = linalg.null_vectors(linalg.independent_subset(diffs), d)
    out = set()
    for n in equations:
        c = sum(a * b for a, b in zip(n, anchor))
        out.add((n, c))
        out.add((tuple(-v for v in n), -c))
    if len(equations) == d:
        return sorted(out)
    for subset in combinations(pts, d - len(equations)):
        base = subset[0]
        rows = [tuple(x - b for x, b in zip(p, base)) for p in subset[1:]] + equations
        if rows and linalg.minor_adjugate(rows) is None:
            continue
        n = linalg.null_vectors(rows, d)[0]
        c = sum(a * b for a, b in zip(n, base))
        side = 0
        for p in pts:
            v = sum(a * b for a, b in zip(n, p)) - c
            if v and side and (v > 0) != (side > 0):
                break
            side = side or v
        else:
            out.add((n, c) if side > 0 else (tuple(-v for v in n), -c))
    return sorted(out)


@st.composite
def _facet_inputs(draw):
    """A point list for ``integer_facets`` in Z^1..Z^4: a ``rank_sets``
    set (lower-rank sets and single points included) or up to 12 points
    of a small box, with up to 3 points repeated, in shuffled order."""
    box = st.integers(1, 4).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=12)
    )
    pts = draw(st.one_of(rank_sets().filter(len).map(lambda s: list(s.points)), box))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return draw(st.permutations(pts))


class TestIntegerFacets:
    """The integer facet kernel against the Fraction/LP code it replaced."""

    def test_hull_facets_match_lp_oracle(self):
        # The oracle gives no pair for a single point or a set in Z^1,
        # where the kernel now returns the +-e_i pairs and the endpoints;
        # those cases are checked by test_pairs_alone_cut_out_the_hull.
        rng = random.Random(31)
        for dim in (1, 2, 3, 4):
            for rank in range(dim + 1):
                for _ in range(12):
                    s = _random_rank_set(rng, dim, rank)
                    want = oracle_hull_facets_lp(s)
                    if rank == 0 or dim == 1:
                        assert want == [], s.points
                    else:
                        assert hull_facets(s) == want, s.points

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=7)
        )
    )
    def test_pairs_alone_cut_out_the_hull(self, pts):
        s = PointSet.of(pts)
        pairs = integer_facets(s.points)
        lo, hi = bounding_box(s.points)
        box = box_points(tuple(v - 1 for v in lo), tuple(v + 1 for v in hi))
        assert [x for x in box if satisfies(x, 1, pairs)] == list(lattice_points_in_conv(s).points)

    def test_single_point_and_line_pairs(self):
        assert integer_facets([(2, -1)]) == [
            ((-1, 0), -2), ((0, -1), 1), ((0, 1), -1), ((1, 0), 2)
        ]
        assert integer_facets([(3,), (-1,), (0,)]) == [((-1,), -3), ((1,), -1)]

    def test_empty_input_is_refused(self):
        with pytest.raises(DimensionMismatchError, match="empty point set"):
            integer_facets([])
        with pytest.raises(DimensionMismatchError, match="empty point set"):
            hull_facets(PointSet(2, ()))

    def test_lattice_points_match_point_in_conv_box_filter(self):
        rng = random.Random(32)
        for dim in (1, 2, 3, 4):
            for rank in range(dim + 1):
                for _ in range(4):
                    s = _random_rank_set(rng, dim, rank, reach=1)
                    lo = tuple(min(c) for c in zip(*s.points))
                    hi = tuple(max(c) for c in zip(*s.points))
                    want = [x for x in box_points(lo, hi) if point_in_conv(x, s)]
                    assert list(lattice_points_in_conv(s).points) == want, s.points

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_facet_inputs())
    def test_same_pairs_as_the_subset_scan(self, pts):
        assert integer_facets(pts) == _subset_scan_facets(pts)

    def test_simplex_of_39711_points(self):
        # conv{0, 60 e_i}: four facet pairs over 39,711 lattice points, a
        # set the prune and subset scan did not finish in minutes
        s = lattice_points_in_conv(PointSet.of([(0, 0, 0), (60, 0, 0), (0, 60, 0), (0, 0, 60)]))
        assert len(s) == 39711
        want = [((-1, -1, -1), -60), ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0)]
        assert integer_facets(s.points) == want
        assert is_hole_free(s).holds


class TestLinesThrough:
    def test_axis_trace(self):
        s = PointSet.of([(0, 0), (1, 0), (2, 0), (0, 1)])
        ls = lines_through(s)
        axis = [l for l in ls if l.direction == (1, 0) and l.base == (0, 0)]
        assert axis and axis[0].trace == ((0, 0), (1, 0), (2, 0))

    def test_grid_3x3_frozen_count(self):
        s = PointSet.of([(x, y) for x in range(3) for y in range(3)])
        ls = lines_through(s)
        assert len(ls) == 20  # frozen by the exhaustive pair oracle
        assert len(oracle_lines_by_pairs(s.points)) == 20

    def test_two_points_single_line(self):
        ls = lines_through(PointSet.of([(0, 0), (1, 1)]))
        assert len(ls) == 1 and len(ls[0].trace) == 2

    def test_pair_coverage_property(self):
        rng = random.Random(23)
        for _ in range(6):
            pts = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(6)}
            if len(pts) < 2:
                continue
            s = PointSet.of(pts)
            ls = lines_through(s)
            cover = {}
            for li, l in enumerate(ls):
                for p, q in combinations(l.trace, 2):
                    cover.setdefault((p, q), []).append(li)
            for p, q in combinations(s.points, 2):
                assert len(cover.get((p, q), [])) == 1


def test_affine_functional_primitive():
    for sign in (1, -1):
        normal = (Fraction(2 * sign, 3), Fraction(-4 * sign, 3))
        offset = Fraction(2 * sign, 3)
        g = AffineFunctional.of(normal, offset)
        assert (g.normal, g.offset) == ((sign, -2 * sign), sign)
        assert all(type(v) is int for v in g.normal + (g.offset,))
        # the input's sign at every point of a small box
        for x in box_points((-3, -3), (3, 3)):
            want = sum(n * v for n, v in zip(normal, x)) - offset
            assert (g.value(x) > 0) - (g.value(x) < 0) == (want > 0) - (want < 0)
