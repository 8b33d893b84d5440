"""Independent checks of every verdict a pass returned.

The known answers come from the paper, the catalog's windows and
``tests/oracles.py``, never from latsep's own output.  Each check returns
``(attempted, failed, problems)``; a verdict fails if it raised, disagrees
with the known answer, or carries a certificate these checks reject.
The checks live apart from ``workloads.py`` so that the timed set-up does
not import the oracles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import oracles

# The paper's hole towers: every lattice point of the simplex other than
# its vertices is a hole, first reached by the 1-hull except these.
DEEP_HOLES = {
    "13-7-4": {(4, 3, 1): 2, (6, 2, 1): 3},
    "5-4-3": {(2, 1, 1): 2},
}
SIMPLEX_MEMBER = {
    "13-7-4": oracles.oracle_simplex_1374_member,
    "5-4-3": oracles.oracle_simplex_543_member,
}
SIMPLEX_1374_LATTICE_POINTS = 114


def oracle_lattice_points(label, vertices):
    corner = [max(v[i] for v in vertices) for i in range(3)]
    box = itertools.product(*(range(c + 1) for c in corner))
    return [p for p in box if SIMPLEX_MEMBER[label](p)]


def flag_side(flag, point) -> str:
    """The side a lexicographic flag gives a point, by exact arithmetic."""
    for g in flag.functionals:
        value = sum(Fraction(c) * x for c, x in zip(g.normal, point)) - Fraction(g.offset)
        if value:
            return "A" if value > 0 else "B"
    return flag.residual_owner


def flag_separates(flag, partition) -> bool:
    return all(flag_side(flag, q) == "A" for q in partition.a.points) and all(
        flag_side(flag, q) == "B" for q in partition.b.points
    )


def equal_sum_free(a_pts, b_pts, k: int) -> bool:
    """No k' <= k points of A (with repetition) share a sum with k' of B."""
    for order in range(1, k + 1):
        sums = {
            tuple(map(sum, zip(*combo)))
            for combo in itertools.combinations_with_replacement(a_pts, order)
        }
        for combo in itertools.combinations_with_replacement(b_pts, order):
            if tuple(map(sum, zip(*combo))) in sums:
                return False
    return True


def check_window_ladder(cases, verdicts):
    problems = []
    flags = {label: flag for label, _, flag in cases}
    partitions = {label: p for label, p, _ in cases}
    for label, flag in flags.items():
        if flag is not None and not flag_separates(flag, partitions[label]):
            problems.append(f"{label}: the catalog's stored flag does not separate")
    for label, kind, outcome in verdicts:
        if isinstance(outcome, Exception):
            problems.append(f"{label} {kind}: raised {outcome!r}")
        elif kind == "verify":
            if outcome is not True:
                problems.append(f"{label} verify: the stored flag was rejected")
        elif not outcome.holds:
            problems.append(f"{label} {kind}: condition reported failing")
        elif kind == "search" and not flag_separates(outcome.witness, partitions[label]):
            problems.append(f"{label} search: the returned flag does not separate")
    return len(verdicts), len(problems), problems


def check_hole_tower(simplices, verdicts):
    problems = []
    expected = {}
    for label, s in simplices.items():
        points = oracle_lattice_points(label, s.points)
        if label == "13-7-4" and len(points) != SIMPLEX_1374_LATTICE_POINTS:
            problems.append(f"oracle: the 13-7-4 simplex holds {len(points)} lattice points")
        expected[label] = {
            p: DEEP_HOLES[label].get(p, 1) for p in points if p not in s.member_set()
        }
    for label, _, outcome in verdicts:
        if isinstance(outcome, Exception):
            problems.append(f"{label}: raised {outcome!r}")
            continue
        got = {r.hole: r.first_k for r in outcome}
        if got != expected[label]:
            wrong = sorted(set(got.items()) ^ set(expected[label].items()))
            problems.append(f"{label}: hole table differs at {wrong[:5]}")
    return len(verdicts), len(problems), problems


def check_conjecture_hunt(inputs, outcome):
    report, hunted_sets, errors = outcome
    problems = [f"{s}: raised {exc!r}" for s, exc in errors]
    expected = sum(2 ** (len(s) - 1) - 1 for s in hunted_sets)
    if report.partitions_checked != expected:
        problems.append(
            f"{report.partitions_checked} partitions checked, the hunted sets hold {expected}"
        )
    for v in report.counterexamples:
        confirmed = not oracles.oracle_flag_separable(v.a_points, v.b_points) and equal_sum_free(
            v.a_points, v.b_points, 3
        )
        if confirmed:
            print(f"confirmed counterexample: A={v.a_points} B={v.b_points}")
        else:
            problems.append(f"unconfirmed counterexample: A={v.a_points} B={v.b_points}")
    attempted = report.samples + report.partitions_checked
    return attempted, len(problems), problems


CHECKS = {
    "window-ladder": check_window_ladder,
    "hole-tower": check_hole_tower,
    "conjecture-hunt": check_conjecture_hunt,
}
