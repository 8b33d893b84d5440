"""Structured results of condition checks.

Every decision operation returns a ``Verdict`` whose witness either
certifies the positive answer (e.g. a separating flag) or refutes it
(e.g. a pair of equal-sum multisets).  Witnesses are plain frozen
dataclasses so reports are hashable and printable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .geometry import IntPoint


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Any = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ConvexityWitness:
    """A subset whose hull grabs a lattice point outside the set."""

    subset: tuple[IntPoint, ...]
    missing: IntPoint


@dataclass(frozen=True)
class HoleWitness:
    """A lattice point of the convex hull missing from the set."""

    missing: IntPoint


@dataclass(frozen=True)
class CellWitness:
    """A unit cell and the lexicographically first vertex of conv(S)
    clipped to that cell that is not covered by the set's points on the
    cell's corners: a vertex with a non-integral coordinate, or an
    integral one (a corner) missing from S."""

    cell: IntPoint
    vertex: tuple[Fraction, ...]


@dataclass(frozen=True)
class ParallelogramWitness:
    """Equal coordinate sums of two multisets of the given order."""

    order: int
    left: tuple[IntPoint, ...]
    right: tuple[IntPoint, ...]
    total: IntPoint


@dataclass(frozen=True)
class RayViolation:
    """A line on which one side's points are not a prefix or suffix."""

    base: IntPoint
    direction: tuple[int, ...]
    trace: tuple[IntPoint, ...]
    sides: tuple[str, ...]


@dataclass(frozen=True)
class CommonPoint:
    """A point of both sides' hulls, which certifies that no separating
    flag exists: positive integer weights on some A points and on some B
    points, with the same total and the same weighted sum."""

    a_points: tuple[IntPoint, ...]
    a_weights: tuple[int, ...]
    b_points: tuple[IntPoint, ...]
    b_weights: tuple[int, ...]

    def side_sums(self):
        """(total weight, weighted sum of the points) for A, then for B."""
        return tuple(
            (sum(ws), tuple(sum(w * x for w, x in zip(ws, col)) for col in zip(*pts)))
            for pts, ws in ((self.a_points, self.a_weights), (self.b_points, self.b_weights))
        )


@dataclass(frozen=True)
class HoleReport:
    """A hole and the smallest k whose hull closure reaches it."""

    hole: IntPoint
    first_k: int
