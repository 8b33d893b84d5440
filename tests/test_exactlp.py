"""Unit tests for the exact simplex."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latsep.exactlp
import latsep.geometry
from latsep.conditions import Partition, search_flag
from latsep.errors import LatsepError
from latsep.exactlp import EqualityFeasibility
from latsep.geometry import PointSet, convex_combination_support, point_in_conv
from latsep.linalg import common_denominator

import fraction_oracles
from oracles import is_common_point


def test_feasible_point_convex_combination():
    # (2,1,1) is the barycentre of (5,0,0),(0,0,3),(1,3,0): all three carry weight
    s = PointSet.of([(5, 0, 0), (0, 0, 3), (1, 3, 0)])
    assert convex_combination_support((2, 1, 1), s) == list(s.points)
    assert point_in_conv((2, 1, 1), s)


def test_feasible_point_negative_rhs_flip():
    # negative coordinates flip their rows; a rational point scales the weights
    s = PointSet.of([(-2, 0), (0, -2), (2, 2)])
    assert convex_combination_support((-1, -1), s) == [(-2, 0), (0, -2)]
    assert point_in_conv((Fraction(-3, 2), Fraction(-1, 4)), s)
    assert not point_in_conv((Fraction(-3, 2), Fraction(-3, 4)), s)
    assert convex_combination_support((-1, 0), PointSet.of([(0, 0), (1, 0)])) is None


def test_no_fraction_in_the_integer_layers():
    for module in (latsep.exactlp, latsep.geometry):
        assert Fraction not in vars(module).values()


def test_infeasible_farkas_certificate():
    # conv{(0,)} and conv{(2,)} share no point
    rows = [[0, -2], [1, 0], [0, 1]]
    rhs = [0, 1, 1]
    sys_ = EqualityFeasibility(rows, rhs)
    assert not sys_.feasible
    y, den = sys_.farkas_duals()
    assert den > 0
    assert sum(a * b for a, b in zip(y, rhs)) > 0
    for j in range(2):
        col = [rows[i][j] for i in range(3)]
        assert sum(a * b for a, b in zip(y, col)) <= 0


def test_misuse_raises_under_python_O():
    # library errors, not asserts, so the checks survive python -O
    infeasible = EqualityFeasibility([[0, -2], [1, 0], [0, 1]], [0, 1, 1])
    with pytest.raises(LatsepError):
        infeasible.feasible_point()
    feasible = EqualityFeasibility([[1, 1]], [1])
    with pytest.raises(LatsepError):
        feasible.farkas_duals()


def test_redundant_rows_are_dropped():
    # second row is twice the first
    rows = [[1, 1], [2, 2], [1, 0]]
    sys_ = EqualityFeasibility(rows, [1, 2, 1])
    assert sys_.feasible
    x, den = sys_.feasible_point()
    assert x == [den, 0] and den > 0


# ---------------------------------------------------------------------------
# the integer tableau against the Fraction tableau it replaced

_ints = st.integers(-3, 3)
_fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def _systems(entries):
    """(rows, rhs) with 1-4 rows and 1-6 columns."""
    return st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m),
                st.lists(entries.map(abs), min_size=m, max_size=m),
            )
        )
    )


def _fractions(ints, den):
    return [Fraction(v, den) for v in ints]


def _agree(rows, rhs):
    new = EqualityFeasibility(rows, rhs)
    old = fraction_oracles.EqualityFeasibility(rows, rhs)
    assert new.feasible == old.feasible
    if not new.feasible:
        assert _fractions(*new.farkas_duals()) == old.farkas_duals()
        return
    assert _fractions(*new.feasible_point()) == old.feasible_point()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_systems(_ints))
def test_integer_tableau_matches_fraction_tableau(system):
    rows, rhs = system
    _agree(rows, rhs)
    # a redundant row, whose artificial the Fraction tableau drives out
    _agree(rows + [[2 * v for v in rows[0]]], rhs + [2 * rhs[0]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_systems(_fracs))
def test_rational_systems_match_fraction_tableau(system):
    # the integer tableau takes integer rows: scale each row by the lcm
    # of its denominators
    rows, rhs = system
    scaled = [common_denominator([*row, bv])[0] for row, bv in zip(rows, rhs)]
    _agree([row[:-1] for row in scaled], [row[-1] for row in scaled])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(0, 2)] * d), min_size=2, max_size=8, unique=True
        ).flatmap(
            lambda pts: st.lists(
                st.booleans(), min_size=len(pts), max_size=len(pts)
            ).map(lambda sides: (pts, sides))
        )
    )
)
def test_search_flag_matches_fraction_search(case):
    pts, sides = case
    a = [q for q, s in zip(pts, sides) if s]
    b = [q for q, s in zip(pts, sides) if not s]
    if not a or not b:
        return
    p = Partition.of(a, b)
    got, want = search_flag(p), fraction_oracles.search_flag(p)
    if want.holds:
        assert got == want
        return
    # the common point lies in the flat on which the Fraction search
    # found every weak separator constant
    assert not got.holds and is_common_point(a, b, got.witness)
    anchor, basis = want.witness.anchor, want.witness.basis
    for q in got.witness.a_points + got.witness.b_points:
        offset = [x - y for x, y in zip(q, anchor)]
        assert _rank([*basis, offset]) == len(basis)


def _rank(vectors) -> int:
    return len(fraction_oracles.rref(fraction_oracles.frac_rows(vectors))[1])
