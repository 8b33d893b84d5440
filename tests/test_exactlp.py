"""Unit tests for the exact simplex."""

from fractions import Fraction

import pytest

from latsep.errors import LatsepError
from latsep.exactlp import EqualityFeasibility, feasible_point


def test_feasible_point_convex_combination():
    # is (2,1,1) a convex combination of (5,0,0),(0,0,3),(1,3,0)?
    pts = [(5, 0, 0), (0, 0, 3), (1, 3, 0)]
    rows = [[p[i] for p in pts] for i in range(3)] + [[1, 1, 1]]
    lam = feasible_point(rows, [2, 1, 1, 1])
    assert lam == [Fraction(1, 3)] * 3


def test_feasible_point_negative_rhs_flip():
    rows = [[1, 0], [0, 1], [1, 1]]
    lam = feasible_point(rows, [-1, 0, 1])
    assert lam is None  # x >= 0 cannot hit a negative coordinate sum


def test_minimize_and_duals_reduced_costs():
    a_pts = [(0, 0), (1, 1)]
    b_pts = [(1, 0), (0, 1)]
    rows = [[p[i] for p in a_pts] + [-q[i] for q in b_pts] for i in range(2)]
    rows += [[1, 1, 0, 0], [0, 0, 1, 1]]
    sys_ = EqualityFeasibility(rows, [0, 0, 1, 1])
    assert sys_.feasible
    for i in range(4):
        costs = [Fraction(0)] * 4
        costs[i] = Fraction(-1)
        res = sys_.minimize(costs)
        assert res.status == "optimal"
        assert -res.objective == Fraction(1, 2)
        y = sys_.duals(costs, res.basis)
        cols = [[rows[r][j] for r in range(4)] for j in range(4)]
        for j, col in enumerate(cols):
            rc = costs[j] - sum(a * b for a, b in zip(y, col))
            assert rc >= 0


def test_infeasible_farkas_certificate():
    # conv{(0,)} and conv{(2,)} share no point
    rows = [[0, -2], [1, 0], [0, 1]]
    rhs = [0, 1, 1]
    sys_ = EqualityFeasibility(rows, rhs)
    assert not sys_.feasible
    y = sys_.farkas_duals()
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


def test_unbounded():
    # min -x subject to x - y = 0: ray (t, t) drives the objective down
    sys_ = EqualityFeasibility([[1, -1]], [0])
    res = sys_.minimize([-1, 0])
    assert res.status == "unbounded"


def test_redundant_rows_are_dropped():
    # second row is twice the first
    rows = [[1, 1], [2, 2], [1, 0]]
    sys_ = EqualityFeasibility(rows, [1, 2, 1])
    assert sys_.feasible
    x = sys_.feasible_point()
    assert x == [Fraction(1), Fraction(0)]
    res = sys_.minimize([0, -1])
    assert res.status == "optimal"
    y = sys_.duals([Fraction(0), Fraction(-1)], res.basis)
    assert len(y) == 3  # duals reported for all original rows
