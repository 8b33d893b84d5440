"""Separation conditions: parallelogram, ray, flag verification/search."""

import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsep import catalog, conditions, explorer, geometry, linalg
from latsep.conditions import (
    Partition,
    SeparatingFlag,
    check_parallelogram,
    check_ray,
    lex_flag_to_subspace_chain,
    search_flag,
    verify_flag,
)
from latsep.errors import DimensionMismatchError, InvalidFlagError, LatsepError
from latsep.geometry import (
    AffineFunctional,
    Line,
    PointSet,
    lattice_points_in_conv,
    line_key,
    lines_through,
    point_codes,
)
from latsep.verdicts import CommonPoint, ParallelogramWitness, RayViolation, Verdict
import fraction_oracles
from fraction_oracles import frac_rows, rref
from oracles import is_common_point, oracle_flag_separable
from test_geometry import rank_sets


def _fraction_rank(vectors) -> int:
    return len(rref(frac_rows(vectors))[1])


def _p44():
    return Partition.of([(0, 0), (1, 1)], [(1, 0), (0, 1)])


def _p45():
    box = [(x, y, z) for x in range(6) for y in range(5) for z in range(4)]
    s_prime = lattice_points_in_conv(
        PointSet.of([(0, 0, 0), (5, 0, 0), (0, 4, 0), (0, 0, 3)])
    )
    a = sorted(set(s_prime.points) - {(2, 1, 1)})
    b = sorted(set(box) - set(a))
    return Partition.of(a, b, 3)


class TestPartition:
    def test_rejects_overlap(self):
        with pytest.raises(DimensionMismatchError):
            Partition.of([(0,)], [(0,)])

    def test_rejects_empty_side(self):
        with pytest.raises(DimensionMismatchError):
            Partition.of([(0,)], [])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Partition.of([(0, 0)], [(1,)], None)

    def test_union(self):
        p = _p44()
        assert len(p.union()) == 4


class TestParallelogram:
    def test_midpoint_clash(self):
        v = check_parallelogram(_p44(), 2)
        assert not v.holds
        w = v.witness
        assert w.order == 2 and w.total == (1, 1)
        assert sorted(w.left) == [(0, 0), (1, 1)]
        assert sorted(w.right) == [(0, 1), (1, 0)]

    def test_box_partition_holds_at_two(self):
        assert check_parallelogram(_p45(), 2).holds

    def test_box_partition_fails_at_three(self):
        v = check_parallelogram(_p45(), 3)
        assert not v.holds and v.witness.order == 3

    def test_terminal_simplex_four_not_five(self):
        p = Partition.of(
            [(1, 0, 0), (0, 1, 0), (1, 1, 2), (-1, -1, -1)], [(0, 0, 0)]
        )
        assert check_parallelogram(p, 4).holds
        v = check_parallelogram(p, 5)
        assert not v.holds
        assert v.witness.order == 5 and v.witness.total == (0, 0, 0)

    def test_order_one_is_input_sanity(self):
        assert check_parallelogram(_p44(), 1).holds

    def test_witness_sums_agree(self):
        rng = random.Random(2)
        for _ in range(20):
            pts = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(6)}
            pts = sorted(pts)
            if len(pts) < 3:
                continue
            cut = rng.randint(1, len(pts) - 1)
            p = Partition.of(pts[:cut], pts[cut:])
            v = check_parallelogram(p, 3)
            if not v.holds:
                w = v.witness
                left = tuple(map(sum, zip(*w.left)))
                right = tuple(map(sum, zip(*w.right)))
                assert left == right == w.total
                assert len(w.left) == len(w.right) == w.order


@st.composite
def _small_partition(draw):
    """A partition of at most 8 distinct points of [-3, 3]^d, d <= 3."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-3, 3)] * dim)
    pts = draw(st.lists(point, min_size=2, max_size=8, unique=True))
    cut = draw(st.integers(1, len(pts) - 1))
    return Partition.of(pts[:cut], pts[cut:], dim)


def _bitsets(p, k):
    return conditions._parallelogram_on(p, k, point_codes(p.a.points + p.b.points, k)[0], conditions._BITSETS)


def _sets(p, k):
    return conditions._parallelogram_on(p, k, point_codes(p.a.points + p.b.points, k)[0], conditions._SETS)


def _multiset_enumeration(p, k):
    """The check as it was before it kept sets of sums: every
    multiset of each order in ``combinations_with_replacement`` order,
    summed from scratch; the independent reference for the witness."""
    a_pts = p.a.points
    b_pts = p.b.points
    code = dict(zip(a_pts + b_pts, point_codes(a_pts + b_pts, k)[0]))
    for order in range(1, k + 1):
        table = {}
        for combo in combinations_with_replacement(a_pts, order):
            total = sum(code[q] for q in combo)
            if total not in table:
                table[total] = combo
        for combo in combinations_with_replacement(b_pts, order):
            total = sum(code[q] for q in combo)
            left = table.get(total)
            if left is not None:
                vec = tuple(sum(c) for c in zip(*combo))
                return Verdict(False, ParallelogramWitness(order, left, combo, vec))
    return Verdict(True)


# The kind of sums each former parallelogram path kept, by its name.
_KINDS = {
    "_parallelogram_by_kronecker": conditions._BITSETS,
    "_parallelogram_by_enumeration": conditions._SETS,
}


def _spy(monkeypatch, name, calls):
    """Record the orders each call of the sumset loop on the kind of
    sums that the former path ``name`` kept is given."""
    original = conditions._parallelogram_on

    def loop(p, k, codes, kind):
        if kind is _KINDS[name]:
            calls.append(k)
        return original(p, k, codes, kind)

    monkeypatch.setattr(conditions, "_parallelogram_on", loop)


class TestParallelogramAgainstEnumeration:
    """The sumset check on bitsets against the same loop on sets of sums,
    and both against multiset enumeration."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_small_partition(), st.integers(1, 5))
    def test_same_verdict_and_witness(self, p, k):
        got = _bitsets(p, k)
        want = _sets(p, k)
        assert got.holds == want.holds
        assert check_parallelogram(p, k) == want
        if got.holds:
            return
        w = got.witness
        assert w.order == want.witness.order
        assert len(w.left) == len(w.right) == w.order
        assert set(w.left) <= p.a.member_set() and set(w.right) <= p.b.member_set()
        assert tuple(map(sum, zip(*w.left))) == tuple(map(sum, zip(*w.right))) == w.total
        # the same multisets as enumeration, so the CLI prints the same
        assert got == want

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_small_partition(), st.integers(1, 5))
    def test_sum_sets_give_the_multiset_enumeration_witness(self, p, k):
        # both kinds of sums, since they share the loop and the peel
        assert _sets(p, k) == _multiset_enumeration(p, k) == _bitsets(p, k)

    def test_seeded_cases_fail_at_several_orders(self):
        # A is one point; the check fails at order j when it is the
        # centroid of j points of B
        rng = random.Random(7)
        orders = set()
        for _ in range(300):
            pts = sorted({(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(6)})
            if len(pts) < 2:
                continue
            a = pts.pop(rng.randrange(len(pts)))
            p = Partition.of([a], pts)
            v = _bitsets(p, 5)
            assert v == _sets(p, 5)
            if not v.holds:
                orders.add(v.witness.order)
        assert orders == {2, 3, 4, 5}

    def test_digit_counts_above_one_byte(self):
        # 200 ordered pairs of A share the sum 199, which B's pair reaches
        p = Partition.of([(x,) for x in range(200)], [(-100,), (299,)])
        v = _bitsets(p, 2)
        assert not v.holds and v.witness.total == (199,)
        assert v == _sets(p, 2)

    def test_far_apart_points_take_the_enumeration_path(self, monkeypatch):
        calls = []
        _spy(monkeypatch, "_parallelogram_by_enumeration", calls)
        far = Partition.of([(0, 0)], [(10**9, 1), (1, 10**9)])
        assert check_parallelogram(far, 5).holds
        mid = Partition.of([(0, 0), (2 * 10**9, 2)], [(10**9, 1)])
        v = check_parallelogram(mid, 3)
        assert not v.holds and v.witness.order == 2 and v.witness.total == (2 * 10**9, 2)
        assert calls == [5, 3]

    def test_moderately_spread_points_take_the_enumeration_path(self, monkeypatch):
        # 41 x 41 bits for 18 multiset sums: 93 per sum, above the
        # measured break-even of 64 but below twice it; the same shape
        # in a box of width 16 has 33 x 33 bits, 60.5 per sum, and takes
        # bitsets
        fast, slow = [], []
        _spy(monkeypatch, "_parallelogram_by_kronecker", fast)
        _spy(monkeypatch, "_parallelogram_by_enumeration", slow)
        p = Partition.of([(0, 0), (20, 1), (1, 20)], [(15, 16), (20, 20), (10, 0)])
        _, digits = point_codes(p.a.points + p.b.points, 2)
        assert conditions._DIGITS_PER_SUM * 18 < digits <= 2 * conditions._DIGITS_PER_SUM * 18
        assert check_parallelogram(p, 2).holds
        assert (fast, slow) == ([], [2])
        q = Partition.of([(0, 0), (16, 1), (1, 16)], [(12, 13), (16, 16), (8, 0)])
        _, digits = point_codes(q.a.points + q.b.points, 2)
        assert conditions._DIGITS_PER_SUM * 17 < digits <= conditions._DIGITS_PER_SUM * 18
        assert check_parallelogram(q, 2).holds
        assert (fast, slow) == ([2], [2])

    def test_dense_points_take_bitsets_below_cap(self, monkeypatch):
        fast, slow = [], []
        _spy(monkeypatch, "_parallelogram_by_kronecker", fast)
        _spy(monkeypatch, "_parallelogram_by_enumeration", slow)
        grid = [(x, y) for x in range(5) for y in range(5)]
        p = Partition.of([q for q in grid if q[0] < 2], [q for q in grid if q[0] >= 2])
        assert check_parallelogram(p, 3).holds
        assert (fast, slow) == ([3], [])
        # at k = 3 the codes reach 4 * 13 + 4 = 56, and each side's
        # order-j bitset j * 56 + 1 bits
        monkeypatch.setattr(conditions, "_BITSET_MAX_BITS", 3 * 4 * 56 + 2 * 3 - 1)
        assert check_parallelogram(p, 3).holds
        assert (fast, slow) == ([3], [3])

    def test_budget_counts_every_kept_integer(self, monkeypatch):
        fast, slow = [], []
        _spy(monkeypatch, "_parallelogram_by_kronecker", fast)
        _spy(monkeypatch, "_parallelogram_by_enumeration", slow)
        p = Partition.of([(0, 0), (1, 0)], [(0, 1), (1, 1)])
        # the codes reach k + 2, so each side's order-j bitset has
        # j * (k + 2) + 1 bits; the budget holds k = 2's four, while k = 5
        # keeps ten, the order-5 one alone wider than the budget
        monkeypatch.setattr(conditions, "_BITSET_MAX_BITS", 2 * 3 * 4 + 2 * 2)
        for k in (1, 2, 5, 50):
            assert check_parallelogram(p, k).holds
        assert (fast, slow) == ([1, 2], [5, 50])
        monkeypatch.setattr(conditions, "_BITSET_MAX_BITS", 2 * 3 * 4 + 2 * 2 - 1)
        assert check_parallelogram(p, 2).holds
        assert (fast, slow) == ([1, 2], [5, 50, 2])

    def test_budget_charges_the_widths_the_orders_reach(self, monkeypatch):
        # 2k * D = 2 * 512 * 513^2 bits would pass the budget, but the
        # order-j bitsets reach only bit j * 514: 512 * 513 * 514 + 1024
        fast = []
        _spy(monkeypatch, "_parallelogram_by_kronecker", fast)
        p = Partition.of([(0, 0), (1, 0)], [(0, 1), (1, 1)])
        codes, digits = point_codes(p.a.points + p.b.points, 512)
        assert 2 * 512 * digits > conditions._BITSET_MAX_BITS
        assert 512 * 513 * max(codes) + 2 * 512 <= conditions._BITSET_MAX_BITS
        got = check_parallelogram(p, 512)
        assert fast == [512] and got == _sets(p, 512)
        q = Partition.of([(0,), (512,)], [(1,)])
        got = check_parallelogram(q, 512)
        assert fast == [512, 512] and got == _sets(q, 512)
        assert got.witness.order == 512

    def test_large_k_builds_each_order_from_the_last(self, monkeypatch):
        # the Kronecker integers would take gigabytes here; each order's
        # sums are the previous order's plus one code, so two points a
        # side cost about k^2 additions, where summing every multiset
        # from scratch costs k^3 (about a minute)
        slow = []
        _spy(monkeypatch, "_parallelogram_by_enumeration", slow)
        p = Partition.of([(0, 0), (1, 0)], [(0, 1), (1, 1)])
        start = time.perf_counter()
        assert check_parallelogram(p, 1000).holds
        assert time.perf_counter() - start < 5
        # first fails at order 500: 500 (1)s against 499 (0)s and a (500)
        v = check_parallelogram(Partition.of([(0,), (500,)], [(1,)]), 1000)
        assert v == Verdict(False, ParallelogramWitness(500, ((0,),) * 499 + ((500,),), ((1,),) * 500, (500,)))
        assert slow == [1000, 1000]

    def test_dense_window_holds_at_large_k_on_bitsets(self, monkeypatch):
        # the 61 x 61 window at k = 16: 2k bitsets of 961^2 bits fit the
        # budget, while sets would cover more multisets than their bound
        fast = []
        _spy(monkeypatch, "_parallelogram_by_kronecker", fast)
        assert check_parallelogram(catalog.sqrt2_halfplane_window(30), 16).holds
        assert fast == [16]


class TestRay:
    def test_diagonal_pairs_hold(self):
        assert check_ray(_p44()).holds

    def test_one_dimensional_blocks(self):
        p = Partition.of([(0,), (1,), (2,)], [(-1,), (-2,)])
        assert check_ray(p).holds

    def test_interleaved_fails(self):
        v = check_ray(Partition.of([(0,), (2,)], [(1,)]))
        assert not v.holds
        assert v.witness.sides == ("A", "B", "A")

    def test_violating_line_is_reported(self):
        p = Partition.of([(0, 0), (2, 2)], [(1, 1), (0, 1)])
        v = check_ray(p)
        assert not v.holds
        assert v.witness.direction == (1, 1)


# The all-directions line sweep that the ray check and ``lines_through``
# ran before the opposite-direction kernel, kept verbatim as their oracle.

def _sweep_canonical_direction(vec):
    prim = linalg.integer_primitive(vec)
    for v in prim:
        if v != 0:
            return prim if v > 0 else tuple(-x for x in prim)
    return prim


def _sweep_iter_lines(points):
    directions = set()
    for p, q in combinations(points, 2):
        directions.add(_sweep_canonical_direction(tuple(b - a for a, b in zip(p, q))))
    for d in sorted(directions):
        buckets = {}
        for p in points:
            buckets.setdefault(line_key(p, d), []).append(p)
        traces = [tr for _, tr in sorted(buckets.items()) if len(tr) >= 2]
        if traces:
            yield d, traces


def _sweep_check_ray(p):
    side = {q: "A" for q in p.a.points}
    side.update({q: "B" for q in p.b.points})
    pts = sorted(side)
    for direction, traces in _sweep_iter_lines(pts):
        for tr in traces:
            sides = [side[q] for q in tr]
            count_a = sides.count("A")
            if count_a == 0 or count_a == len(tr):
                continue
            idx = [i for i, sd in enumerate(sides) if sd == "A"]
            if idx[-1] == count_a - 1 or idx[0] == len(tr) - count_a:
                continue
            return Verdict(
                False, RayViolation(tr[0], direction, tuple(tr), tuple(sides))
            )
    return Verdict(True)


def _sweep_lines_through(s):
    out = []
    for d, traces in _sweep_iter_lines(list(s.points)):
        for tr in traces:
            out.append(Line(tr[0], d, tuple(tr)))
    return out


@st.composite
def _ray_partition(draw):
    """At most 12 distinct points of [-3, 3]^d, d <= 3, each assigned to
    a side, with the first on A and the second on B."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-3, 3)] * dim)
    pts = draw(st.lists(point, min_size=2, max_size=12, unique=True))
    on_a = [True, False] + draw(st.lists(st.booleans(), min_size=len(pts) - 2, max_size=len(pts) - 2))
    a = [q for q, x in zip(pts, on_a) if x]
    b = [q for q, x in zip(pts, on_a) if not x]
    return Partition.of(a, b, dim)


@st.composite
def _wide_ray_partition(draw):
    """At most 30 distinct points of [-50, 50]^d, d <= 4, on the lattice
    shift + step * Z^d for a step of 1 to 12, so that difference codes
    span several digits of both signs, and the coarser lattices give
    collinear triples whose differences have a gcd above 1."""
    dim = draw(st.integers(1, 4))
    step = draw(st.integers(1, 12))
    shift = draw(st.tuples(*[st.integers(-2, 2)] * dim))
    t = st.integers(-48 // step, 48 // step)
    ts = draw(st.lists(st.tuples(*[t] * dim), min_size=2, max_size=30, unique=True))
    pts = [tuple(o + step * v for o, v in zip(shift, x)) for x in ts]
    on_a = [True, False] + draw(st.lists(st.booleans(), min_size=len(pts) - 2, max_size=len(pts) - 2))
    a = [q for q, x in zip(pts, on_a) if x]
    b = [q for q, x in zip(pts, on_a) if not x]
    return Partition.of(a, b, dim)


class TestRayAgainstLineSweep:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_ray_partition())
    def test_same_violation_and_lines(self, p):
        assert repr(check_ray(p)) == repr(_sweep_check_ray(p))
        s = p.union()
        assert lines_through(s) == _sweep_lines_through(s)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_wide_ray_partition())
    def test_same_violation_on_wide_coordinates(self, p):
        assert repr(check_ray(p)) == repr(_sweep_check_ray(p))
        assert lines_through(p.union()) == _sweep_lines_through(p.union())

    def test_least_of_several_failing_directions(self):
        # (0, 0) fails along (1, -1), (1, 0) and (1, 1) but not (0, 1):
        # the least, with a negative second digit, is reported
        b = [(1, 0), (-1, 0), (1, -1), (-1, 1), (1, 1), (-1, -1), (0, 1)]
        p = Partition.of([(0, 0)], b)
        want = RayViolation((-1, 1), (1, -1), ((-1, 1), (0, 0), (1, -1)), ("B", "A", "B"))
        assert check_ray(p) == Verdict(False, want)
        assert repr(check_ray(p)) == repr(_sweep_check_ray(p))

    def test_one_dimensional_violation(self):
        p = Partition.of([(-7,), (3,)], [(-2,), (9,)])
        want = RayViolation((-7,), (1,), ((-7,), (-2,), (3,), (9,)), ("A", "B", "A", "B"))
        assert check_ray(p) == Verdict(False, want)

    def test_table_of_primitive_codes_stays_linear_on_sparse_points(self, monkeypatch):
        # far-apart random points hardly repeat a difference: the shared
        # direction table is cleared when full rather than holding every
        # pair, and the ray check and lines_through each give what an
        # unbounded table gives
        sizes = []
        missing = geometry.DirectionCodes.__missing__

        def recording(table, c):
            sizes.append(len(table))
            return missing(table, c)

        rng = random.Random(7)
        pts = list({(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(300)})
        p = Partition.of(pts[:150] + [(0, 0), (2, 2)], pts[150:] + [(1, 1)])
        s = p.union()
        # (caller, most entries one point's pass adds past the cap)
        runs = [
            (lambda: check_ray(p), 152),
            (lambda: lines_through(s), 303),
        ]
        monkeypatch.setattr(geometry.DirectionCodes, "__missing__", recording)
        got = []
        for run, per_pass in runs:
            sizes.clear()
            got.append(run())
            assert max(sizes) <= geometry._CODES_PER_POINT * 303 + per_pass
        monkeypatch.setattr(geometry, "_CODES_PER_POINT", 303**2)
        for (run, _), want in zip(runs, got):
            sizes.clear()
            assert run() == want
            assert max(sizes) > 2 * 150 * 150
        assert got[0].witness.trace == ((0, 0), (1, 1), (2, 2))

    def test_violation_only_along_non_primitive_differences(self):
        # every difference along the failing line is 2 * (2, 1); the
        # other points see no line through two of the other side
        p = Partition.of([(0, 0), (8, 4), (0, 3)], [(4, 2), (9, -1)])
        want = RayViolation((0, 0), (2, 1), ((0, 0), (4, 2), (8, 4)), ("A", "B", "A"))
        assert check_ray(p) == Verdict(False, want)
        assert repr(check_ray(p)) == repr(_sweep_check_ray(p))


class TestVerifyFlag:
    def test_two_level_quarter_flag(self):
        a = [(1, 0), (1, -1), (0, 0), (0, 1)]
        b = [(-1, 0), (-1, 1), (0, -1)]
        p = Partition.of(a, b)
        flag = SeparatingFlag(
            2, (AffineFunctional.of([1, 0], 0), AffineFunctional.of([0, 1], 0)), "A"
        )
        assert verify_flag(p, flag)
        wrong = SeparatingFlag(
            2, (AffineFunctional.of([1, 0], 0), AffineFunctional.of([0, 1], 0)), "B"
        )
        assert not verify_flag(p, wrong)

    def test_strict_single_level(self):
        p = Partition.of([(2, 0), (3, 1)], [(0, 0), (-1, 2)])
        flag = SeparatingFlag(2, (AffineFunctional.of([1, 0], 1),), "empty")
        assert verify_flag(p, flag)

    def test_constant_level_rejected(self):
        p = _p44()
        flag = SeparatingFlag(
            2,
            (
                AffineFunctional.of([1, 0], 0),
                AffineFunctional.of([1, 0], 0),  # constant on {x1 = 0}
            ),
            "A",
        )
        with pytest.raises(InvalidFlagError):
            verify_flag(p, flag)

    def test_dim_mismatch(self):
        flag = SeparatingFlag(3, (AffineFunctional.of([1, 0, 0], 0),), "A")
        with pytest.raises(DimensionMismatchError):
            verify_flag(_p44(), flag)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_level_by_level_matches_classifying_each_point(self, data):
        p, flag = data.draw(_flagged_partitions())
        assert _outcome(verify_flag, p, flag) == _outcome(_classifying_verify_flag, p, flag)


def _classifying_verify_flag(p: Partition, flag: SeparatingFlag) -> bool:
    """``verify_flag`` as it was before it went level by level, kept
    verbatim as its reference."""
    if flag.dim != p.dim:
        raise DimensionMismatchError("flag/partition dimension mismatch")
    conditions.lex_flag_to_subspace_chain(flag)  # structural validation
    for own, pts in ((conditions.OWNER_A, p.a.points), (conditions.OWNER_B, p.b.points)):
        for q in pts:
            got = flag.classify(q)
            if got == "residual":
                if flag.residual_owner != own:
                    return False
            elif got != own:
                return False
    return True


def _outcome(check, p, flag):
    """The answer of ``check(p, flag)``, or the type of what it raised."""
    try:
        return check(p, flag)
    except LatsepError as exc:
        return type(exc)


@st.composite
def _flagged_partitions(draw):
    """A flag of up to d levels in Z^1-Z^4, with any residual owner, and a
    partition of 2-8 points of a small box.  Each point goes to the side
    the flag gives it (a point where every level vanishes to the residual
    owner, or to a drawn side for "empty"); then up to two drawn points
    switch sides.  Small coefficients put many points on the zero sets,
    so later levels and the residual owner decide often."""
    d = draw(st.integers(1, 4))
    coef = st.integers(-1, 1)
    levels = draw(
        st.lists(
            st.tuples(st.lists(coef, min_size=d, max_size=d), coef), min_size=1, max_size=d
        )
    )
    owner = draw(st.sampled_from(["A", "B", "empty"]))
    flag = SeparatingFlag(d, tuple(AffineFunctional.of(n, c) for n, c in levels), owner)
    box = st.tuples(*[st.integers(-2, 2)] * d)
    pts = draw(st.lists(box, min_size=2, max_size=8, unique=True))
    on_a = []
    for q in pts:
        side = flag.classify(q)
        if side == "residual":
            side = owner if owner != "empty" else draw(st.sampled_from(["A", "B"]))
        on_a.append(side == "A")
    for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=2)):
        on_a[i] = not on_a[i]
    if all(on_a) or not any(on_a):
        on_a[0] = not on_a[0]
    a = [q for q, x in zip(pts, on_a) if x]
    return Partition.of(a, [q for q, x in zip(pts, on_a) if not x], d), flag


@st.composite
def _flag_points(draw):
    """2-7 distinct sorted points in Z^1-Z^4: the points of a small box
    in Z^r, r <= d, sent into Z^d by x -> (x, M x) + t for a random
    integer matrix M and shift t, so that lower-rank sets come up often."""
    d = draw(st.integers(1, 4))
    r = d - draw(st.integers(0, d - 1))
    row = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    extra = draw(st.lists(row, min_size=d - r, max_size=d - r))
    shift = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    n = min(7 - draw(st.integers(0, 5)), 3**r)
    box = st.tuples(*[st.integers(0, 2)] * r)
    local = draw(st.lists(box, min_size=n, max_size=n, unique=True))
    return sorted(
        tuple(v + t for v, t in zip(q + tuple(sum(map(mul, m, q)) for m in extra), shift))
        for q in local
    )


@st.composite
def _flag_partitions(draw):
    """Partitions of the points of ``_flag_points``."""
    pts = draw(_flag_points())
    sides = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    sides[0], sides[draw(st.integers(1, len(pts) - 1))] = True, False
    return Partition.of(
        [q for q, s in zip(pts, sides) if s], [q for q, s in zip(pts, sides) if not s]
    )


@st.composite
def _interleaved_partitions(draw):
    """Partitions of two or three sets from ``_flag_points``, in a drawn
    order.  When the first set has three or more points, the second is
    the first less its last point, split also along the first set's A
    sides that fit, so two partitions with one A side and different
    unions come up.  Each set also gets a one-point A and a one-point B
    side."""
    first = draw(_flag_points())
    sets = [first, first[:-1]] if len(first) > 2 else [first]
    sets += draw(st.lists(_flag_points(), min_size=2 - len(sets), max_size=3 - len(sets)))
    a_sides = {}
    for pts in sets:
        sides = a_sides[tuple(pts)] = [pts[:1], pts[:1] + pts[2:]]
        for _ in range(draw(st.integers(0, 3))):
            on_a = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
            on_a[0], on_a[draw(st.integers(1, len(pts) - 1))] = True, False
            sides.append([q for q, x in zip(pts, on_a) if x])
    if len(first) > 2:
        a_sides[tuple(first[:-1])] += [
            a for a in a_sides[tuple(first)] if first[-1] not in a and len(a) < len(first) - 1
        ]
    parts = [
        Partition.of(a, [q for q in pts if q not in a], len(pts[0]))
        for pts, sides in a_sides.items()
        for a in sides
    ]
    return draw(st.permutations(parts))


@st.composite
def _wide_partitions(draw):
    """The 20-150 points of a box in Z^2 or Z^3, shifted, split by a drawn
    integer hyperplane (the hulls are disjoint) or at random (the hulls
    nearly always meet)."""
    d = draw(st.integers(2, 3))
    sides = draw(
        st.lists(st.integers(2, 12), min_size=d, max_size=d).filter(
            lambda s: 20 <= prod(s) <= 150
        )
    )
    shift = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
    pts = [tuple(map(sum, zip(q, shift))) for q in product(*map(range, sides))]
    if draw(st.booleans()):
        normal = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any))
        values = [sum(map(mul, normal, q)) for q in pts]
        cut = draw(st.integers(min(values), max(values) - 1))
        on_a = [v > cut for v in values]
    else:
        on_a = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
        on_a[0], on_a[-1] = True, False
    return Partition.of(
        [q for q, x in zip(pts, on_a) if x], [q for q, x in zip(pts, on_a) if not x]
    )


def _assert_certificate(p, v):
    """A common point of the two hulls, or a flag of one level that is
    strict on every point, checked by integer sums."""
    if not v.holds:
        assert isinstance(v.witness, CommonPoint)
        assert is_common_point(p.a.points, p.b.points, v.witness)
        return
    (g,) = v.witness.functionals
    assert v.witness.residual_owner == "empty"

    def value(q):
        return sum(n * x for n, x in zip(g.normal, q)) - g.offset

    assert all(value(q) > 0 for q in p.a.points)
    assert all(value(q) < 0 for q in p.b.points)


class TestSearchFlag:
    def test_counterexample_partitions_fail(self):
        assert not search_flag(_p44()).holds
        assert not search_flag(_p45()).holds
        p48 = Partition.of(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 0), (1, 1, 2)]
        )
        assert not search_flag(p48).holds

    def test_coordinate_gap_single_level(self):
        p = Partition.of([(1, 0), (2, 3)], [(0, 0), (0, 3), (-1, 1)])
        v = search_flag(p)
        assert v.holds and len(v.witness.functionals) == 1
        assert verify_flag(p, v.witness)

    def test_common_point_reported(self):
        # (0,0) + (1,1) = (1,0) + (0,1): the diagonals cross at (1/2, 1/2)
        v = search_flag(_p44())
        assert v == Verdict(False, CommonPoint(((0, 0), (1, 1)), (1, 1), ((0, 1), (1, 0)), (1, 1)))
        # 2(0,0,1) + (0,1,0) + (1,0,0) = 3(0,0,0) + (1,1,2), over 4
        p48 = Partition.of([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 0), (1, 1, 2)])
        assert search_flag(p48).witness == CommonPoint(
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)), (2, 1, 1), ((0, 0, 0), (1, 1, 2)), (3, 1)
        )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_flag_partitions())
    def test_one_lp_matches_the_oracle(self, p):
        v = search_flag(p)
        assert v.holds == oracle_flag_separable(p.a.points, p.b.points)
        _assert_certificate(p, v)

    def test_wide_partitions_are_sifted_to_checked_certificates(self, monkeypatch):
        lps = []

        class Spy(conditions.EqualityFeasibility):
            def __init__(self, rows, b):
                lps.append(len(rows[0]))
                super().__init__(rows, b)

        rounds = []

        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(_wide_partitions())
        def check(p):
            n = len(p.a) + len(p.b)
            with monkeypatch.context() as m:
                m.setattr(conditions, "_SIFT_COLUMNS_PER_ROW", n)
                whole = search_flag(p)  # one LP on every point
            with monkeypatch.context() as m:
                m.setattr(conditions, "EqualityFeasibility", Spy)
                lps.clear()
                v = search_flag(p)
            assert v.holds == whole.holds
            _assert_certificate(p, v)
            if n <= 40:
                assert v.holds == fraction_oracles.search_flag(p).holds
            if n <= conditions._SIFT_COLUMNS_PER_ROW * (p.dim + 2):
                assert lps == [n]
            else:
                # each side's extreme points in each coordinate, then more
                assert lps[0] <= 4 * p.dim and lps == sorted(set(lps))
                rounds.append(len(lps))

        check()
        assert rounds and max(rounds) > 1

    def test_self_checks_reject_a_wrong_lp_answer(self, monkeypatch):
        class Heavier(conditions.EqualityFeasibility):
            """The LP with one more unit of weight on the first A point."""

            def feasible_point(self):
                x, den = super().feasible_point()
                return [x[0] + den, *x[1:]], den

        class Negated(conditions.EqualityFeasibility):
            """The LP with its Farkas vector negated."""

            def farkas_duals(self):
                y, den = super().farkas_duals()
                return [-v for v in y], den

        # the hulls meet: a narrow LP, and ex4.5's 120 points, sifted
        monkeypatch.setattr(conditions, "EqualityFeasibility", Heavier)
        for p in (_p44(), _p45()):
            with pytest.raises(LatsepError, match="does not balance"):
                search_flag(p)
        # flags: a narrow LP, and the 289-point sqrt(2) window, sifted
        monkeypatch.setattr(conditions, "EqualityFeasibility", Negated)
        gap = Partition.of([(1, 0), (2, 3)], [(0, 0), (0, 3), (-1, 1)])
        for p in (gap, catalog.sqrt2_halfplane_window(8)):
            with pytest.raises(LatsepError, match="does not separate the working points"):
                search_flag(p)

    def test_found_flags_verify(self):
        rng = random.Random(31)
        holds = 0
        for _ in range(40):
            pts = sorted({(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)})
            if len(pts) < 2:
                continue
            cut = rng.randint(1, len(pts) - 1)
            p = Partition.of(pts[:cut], pts[cut:])
            v = search_flag(p)
            if v.holds:
                holds += 1
                assert verify_flag(p, v.witness)
        assert holds > 5

    def test_translation_and_unimodular_invariance(self):
        rng = random.Random(41)
        mats = [((1, 0), (0, 1)), ((1, 1), (0, 1)), ((0, -1), (1, 0))]
        for _ in range(15):
            pts = sorted({(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(5)})
            if len(pts) < 2:
                continue
            cut = rng.randint(1, len(pts) - 1)
            a, b = pts[:cut], pts[cut:]
            base = search_flag(Partition.of(a, b)).holds
            mat = mats[rng.randrange(len(mats))]
            shift = (rng.randint(-3, 3), rng.randint(-3, 3))

            def tf(p):
                return (
                    mat[0][0] * p[0] + mat[0][1] * p[1] + shift[0],
                    mat[1][0] * p[0] + mat[1][1] * p[1] + shift[1],
                )

            got = search_flag(
                Partition.of([tf(p) for p in a], [tf(p) for p in b])
            ).holds
            assert got == base

    def test_classification_totality(self):
        p = Partition.of([(1, 0), (2, 3)], [(0, 0), (0, 3), (-1, 1)])
        flag = search_flag(p).witness
        for q in p.union().points:
            side = flag.classify(q)
            assert side in ("A", "B", "residual")


@st.composite
def _chain_flags(draw):
    """A flag of 0 to d + 2 levels in Z^1-Z^5 with primitive functionals,
    among them zero normals, repeated and dependent normals (an earlier
    normal plus a multiple of another) and normals of the wrong
    dimension."""
    d = draw(st.integers(1, 5))
    coef = st.integers(-4, 4)
    funcs = []
    for _ in range(draw(st.integers(0, d + 2))):
        kind = draw(st.sampled_from(("free",) * 12 + ("zero", "repeat", "combine", "wrong dim")))
        if kind == "zero":
            normal = (0,) * d
        elif kind == "wrong dim":
            n = draw(st.sampled_from((d - 1, d + 1)))
            normal = draw(st.lists(coef, min_size=n, max_size=n))
        elif funcs and kind in ("repeat", "combine"):
            g, h = draw(st.sampled_from(funcs)), draw(st.sampled_from(funcs))
            t = draw(coef) if kind == "combine" else 0
            normal = [x + t * y for x, y in zip(g.normal, h.normal)]
        else:
            normal = draw(st.lists(coef, min_size=d, max_size=d).filter(any))
        funcs.append(AffineFunctional.of(normal, draw(coef)))
    return SeparatingFlag(d, tuple(funcs), "A")


def _chain_outcome(chain_of, flag):
    """The chain of ``flag``, or the type and message of what was raised."""
    try:
        return chain_of(flag)
    except LatsepError as exc:
        return type(exc), str(exc)


class TestSubspaceChain:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(_chain_flags())
    def test_matches_the_fraction_walk(self, flag):
        assert _chain_outcome(lex_flag_to_subspace_chain, flag) == _chain_outcome(
            fraction_oracles.lex_flag_to_subspace_chain, flag
        )

    def test_single_level_in_plane(self):
        flag = SeparatingFlag(2, (AffineFunctional.of([1, 0], 0),), "A")
        chain = lex_flag_to_subspace_chain(flag)
        assert [len(b) for _, b in chain] == [1, 2]

    def test_quarter_chain(self):
        flag = SeparatingFlag(
            2, (AffineFunctional.of([1, 0], 0), AffineFunctional.of([0, 1], 0)), "A"
        )
        chain = lex_flag_to_subspace_chain(flag)
        assert [len(b) for _, b in chain] == [0, 1, 2]
        assert chain[0][0] == (Fraction(0), Fraction(0))

    def test_zero_level_flag_is_ambient_only(self):
        flag = SeparatingFlag(2, (), "A")
        chain = lex_flag_to_subspace_chain(flag)
        assert len(chain) == 1 and len(chain[0][1]) == 2

    def test_functionals_vanish_on_their_flats(self):
        p = Partition.of([(0, 1), (1, 1), (2, 2)], [(0, 0), (2, 1)])
        v = search_flag(p)
        if not v.holds:
            pytest.skip("instance not separable under this seed")
        flag = v.witness
        chain = lex_flag_to_subspace_chain(flag)
        # chain[i] is cut out by the first (len(chain) - 1 - i) functionals
        m = len(flag.functionals)
        for idx, (anchor, basis) in enumerate(chain):
            levels = m - idx if idx < m else 0
            for g in flag.functionals[:levels]:
                assert g.value(anchor) == 0
                for d in basis:
                    assert sum(n * x for n, x in zip(g.normal, d)) == 0


def test_search_flag_collinear_common_point():
    # collinear points: (1,1) is the midpoint of (0,0) and (2,2)
    v = search_flag(Partition.of([(0, 0), (2, 2)], [(1, 1)]))
    assert v == Verdict(False, CommonPoint(((0, 0), (2, 2)), (1, 1), ((1, 1),), (2,)))


def test_search_flag_collinear_separable():
    v = search_flag(Partition.of([(0, 0)], [(2, 2)]))
    assert v.holds and len(v.witness.functionals) == 1


class TestChart:
    """``_chart`` picks the coordinates that ``search_flag`` poses its LP
    on: the pivot columns of the union's affine hull basis."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rank_sets().filter(lambda s: len(s) > 1))
    def test_pivot_columns_project_the_hull_one_to_one(self, s):
        cols = conditions._chart(s.dim, s.points)
        diffs = [tuple(x - y for x, y in zip(q, s.points[0])) for q in s.points[1:]]
        rank = _fraction_rank(diffs)
        assert len(cols) == rank
        # the projected differences keep the rank, so the projection is
        # one to one on the whole affine hull, not only on the points
        assert _fraction_rank([tuple(v[j] for j in cols) for v in diffs]) == rank
        assert len({tuple(q[j] for j in cols) for q in s.points}) == len(s)

    def test_a_projection_that_is_not_one_to_one_is_refused(self, monkeypatch):
        # on the second coordinate B's point lies between A's, so the LP
        # is feasible there; in Z^2 the hulls are disjoint, so no feasible
        # point balances the two sides
        p = Partition.of([(0, 0), (0, 2)], [(1, 1)])
        assert search_flag(p).holds
        monkeypatch.setattr(conditions, "_chart", lambda dim, live: (1,))
        with pytest.raises(LatsepError):
            search_flag(p)


class TestChartMemo:
    """``search_flag`` takes its chart from the one-entry ``_chart``
    memo, keyed by the sorted union of the two sides."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_interleaved_partitions())
    def test_shared_chart_gives_the_fresh_answer(self, parts):
        warm = [repr(search_flag(p)) for p in parts]
        fresh = []
        for p in parts:
            conditions._chart.cache_clear()
            fresh.append(repr(search_flag(p)))
        assert warm == fresh

    def test_hunt_builds_one_chart_per_set(self, monkeypatch):
        s = PointSet.of(geometry.box_points((0, 0, 0), (2, 1, 1)))
        charts, searches = [], []
        hull, search = conditions.affine_hull_basis, explorer.search_flag
        monkeypatch.setattr(conditions, "affine_hull_basis", lambda t: charts.append(t) or hull(t))
        monkeypatch.setattr(explorer, "search_flag", lambda p: searches.append(p) or search(p))
        conditions._chart.cache_clear()
        explorer.hunt_over_set(s, explorer.HuntReport(seed=0, budget=0))
        assert charts == [s]
        # the hunt skips the survivors that earlier functionals already cut
        survivors = {explorer._split(s, mask) for mask in explorer.parallelogram_masks(s, 3)}
        assert 1 < len(searches) < len(survivors) and set(searches) <= survivors
