"""Exact decision procedures for hyperplane-flag separation and weak
discrete convexity of finite integer point sets.

All decisions run in exact rational arithmetic and return certificates:
separating flags, common points of two hulls, equal-sum multisets,
violated lines, missing lattice points.  See the README for the
instance format and the command line interface.
"""

from .conditions import (
    Partition,
    SeparatingFlag,
    check_parallelogram,
    check_ray,
    lex_flag_to_subspace_chain,
    search_flag,
    verify_flag,
)
from .constructions import MinimalTriangle, find_minimal_triangles, lemma_triple
from .convexity import (
    classify_holes,
    is_hole_free,
    is_integrally_convex,
    is_k_convex,
    k_convex_hull,
)
from .geometry import (
    AffineFunctional,
    Line,
    PointSet,
    affine_hull_basis,
    hull_facets,
    lattice_points_in_conv,
    lines_through,
    point_in_conv,
)
from .verdicts import (
    CellWitness,
    CommonPoint,
    ConvexityWitness,
    HoleReport,
    HoleWitness,
    ParallelogramWitness,
    RayViolation,
    Verdict,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFunctional",
    "CellWitness",
    "CommonPoint",
    "ConvexityWitness",
    "HoleReport",
    "HoleWitness",
    "Line",
    "MinimalTriangle",
    "ParallelogramWitness",
    "Partition",
    "PointSet",
    "RayViolation",
    "SeparatingFlag",
    "Verdict",
    "affine_hull_basis",
    "check_parallelogram",
    "check_ray",
    "classify_holes",
    "find_minimal_triangles",
    "hull_facets",
    "is_hole_free",
    "is_integrally_convex",
    "is_k_convex",
    "k_convex_hull",
    "lattice_points_in_conv",
    "lemma_triple",
    "lex_flag_to_subspace_chain",
    "lines_through",
    "point_in_conv",
    "search_flag",
    "verify_flag",
]
