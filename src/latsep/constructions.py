"""Minimal lattice triangles and the equal-sum triple construction.

A minimal triangle has lattice-free edges; when its interior holds any
lattice points B, three of them (with repetition) can be chosen whose
sum equals the sum of the vertices.  The construction picks two interior
points extremal against the triangle's edge perpendiculars and takes the
third as the difference; the third point provably lands in B, which is
what makes such triangles violate the 3-parallelogram condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .convexity import simplex_lattice_points
from .errors import DimensionMismatchError, EmptyInteriorError
from .geometry import IntPoint, PointSet


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _edge_lattice_free(p, q) -> bool:
    return gcd(abs(q[0] - p[0]), abs(q[1] - p[1])) == 1


@dataclass(frozen=True)
class MinimalTriangle:
    """Triangle in Z^2 whose edges contain no lattice points besides
    their endpoints; vertices must not be collinear."""

    a1: IntPoint
    a2: IntPoint
    a3: IntPoint

    def __post_init__(self):
        for v in (self.a1, self.a2, self.a3):
            if len(v) != 2:
                raise DimensionMismatchError("minimal triangles live in dimension 2")
        if _cross(self.a1, self.a2, self.a3) == 0:
            raise DimensionMismatchError("vertices are collinear")
        for p, q in combinations((self.a1, self.a2, self.a3), 2):
            if not _edge_lattice_free(p, q):
                raise DimensionMismatchError(f"edge {p}-{q} contains interior lattice points")

    def vertices(self) -> tuple[IntPoint, IntPoint, IntPoint]:
        return (self.a1, self.a2, self.a3)

    def interior_points(self) -> list[IntPoint]:
        """Lattice points of the triangle other than the vertices; with
        lattice-free edges these are exactly the interior points."""
        verts = set(self.vertices())
        return sorted(
            z for z in simplex_lattice_points(self.vertices()) if z not in verts
        )


def lemma_triple(t: MinimalTriangle) -> tuple[IntPoint, IntPoint, IntPoint]:
    """Three interior points (b1, b2, b3), repetition allowed, with
    b1 + b2 + b3 = a1 + a2 + a3.

    After translating a3 to the origin, b1 maximizes the inner product
    with the perpendicular of a2 (oriented towards a1) among interior
    points shifted by a1, b2 symmetrically, and b3 is forced by the sum
    identity.  Argmax ties are resolved by lexicographic point order.
    """
    interior = t.interior_points()
    if not interior:
        raise EmptyInteriorError("triangle has no non-vertex lattice points")
    a1, a2, a3 = t.vertices()
    a1t = (a1[0] - a3[0], a1[1] - a3[1])
    a2t = (a2[0] - a3[0], a2[1] - a3[1])

    def perp_towards(v, towards):
        for c in ((-v[1], v[0]), (v[1], -v[0])):
            if c[0] * towards[0] + c[1] * towards[1] > 0:
                return c
        raise AssertionError("degenerate perpendicular")

    a1perp = perp_towards(a1t, a2t)
    a2perp = perp_towards(a2t, a1t)

    def argmax(perp):
        # a translation shifts every value alike, so it keeps the argmax;
        # interior is sorted and max keeps the first of equal values
        return max(interior, key=lambda b: b[0] * perp[0] + b[1] * perp[1])

    b1 = argmax(a2perp)
    b2 = argmax(a1perp)
    b3 = tuple(a1[i] + a2[i] + a3[i] - b1[i] - b2[i] for i in range(2))
    if b3 not in set(interior):
        raise AssertionError("constructed third point escaped the interior")
    return b1, b2, b3


def find_minimal_triangles(a: PointSet) -> list[MinimalTriangle]:
    """All triangles on points of the set with lattice-free edges and no
    set point strictly inside."""
    if a.dim != 2:
        raise DimensionMismatchError("minimal triangles live in dimension 2")
    members = a.member_set()
    out = []
    for t1, t2, t3 in combinations(a.points, 3):
        if _cross(t1, t2, t3) == 0:
            continue
        if not all(_edge_lattice_free(p, q) for p, q in combinations((t1, t2, t3), 2)):
            continue
        tri = MinimalTriangle(t1, t2, t3)
        if any(z in members for z in tri.interior_points()):
            continue
        out.append(tri)
    return out
