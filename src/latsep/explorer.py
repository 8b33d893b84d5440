"""Exhaustive and randomized search harnesses.

Enumerates families of small point sets (optionally filtered by a
convexity property), checks every bipartition modulo the A/B swap, and
compares pairs of separation conditions.  Any (set, partition) pair on
which the two conditions disagree is reported with both sides' points
and can be replayed through the decision procedures.

The hunt for three-dimensional counterexamples samples lattice point
sets of random small polytopes, keeps the integrally convex ones, and
looks for bipartitions that satisfy the 3-parallelogram condition yet
admit no separating flag.  It does not test the bipartitions one by
one: the condition forbids equal-sum multisets on opposite sides, so
each set's equal-sum table gives clauses, and a backtracking search
over the points reaches only the partitions that break none of them.
Flag search runs on those, except the ones that a functional it found
earlier for the same set already splits at a threshold.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import asdict, dataclass, field, fields
from itertools import combinations, combinations_with_replacement
from math import prod
from operator import mul

from .conditions import Partition, check_parallelogram, check_ray, search_flag
from .convexity import is_hole_free, is_integrally_convex, is_k_convex
from .errors import InstanceFormatError, read_json_object
from .geometry import IntPoint, PointSet, box_points, lattice_points_in_conv, point_codes

# Most cells a grid may have: its 2**cells subsets are enumerated.
MAX_GRID_CELLS = 24

CONDITIONS = {
    "parallelogram-2": lambda p: check_parallelogram(p, 2),
    "parallelogram-3": lambda p: check_parallelogram(p, 3),
    "ray": check_ray,
    "flag": search_flag,
}

# family name -> the decision a member must pass (None: every subset)
FAMILY_FILTERS = {
    "any": None,
    "hole-free": is_hole_free,
    "integrally-convex": is_integrally_convex,
    "1-convex": lambda s: is_k_convex(s, 1),
}


def enumerate_family(dims, family: str = "any", start_mask: int = 0):
    """Nonempty subsets of the grid passing the filter, ascending bitmask
    order (deterministic), starting after ``start_mask``.  An unknown
    family or a grid of too many cells raises ValueError at the call."""
    if family not in FAMILY_FILTERS:
        raise ValueError(f"unknown family filter {family!r}")
    passes = FAMILY_FILTERS[family]
    cells = list(box_points([0] * len(dims), [d - 1 for d in dims]))
    n = len(cells)
    if n > MAX_GRID_CELLS:
        raise ValueError(f"grid with {n} cells is too large to enumerate")
    subsets = (
        (mask, PointSet.of([cells[i] for i in range(n) if mask >> i & 1], dim=len(dims)))
        for mask in range(max(1, start_mask + 1), 1 << n)
    )
    return ((mask, s) for mask, s in subsets if passes is None or passes(s).holds)


def bipartitions(s: PointSet):
    """All (A, B) with both sides nonempty, up to the A/B swap: the
    lexicographically smallest point always goes to A.  Partition number
    ``mask`` puts ``s.points[i + 1]`` in A exactly when bit i is set."""
    for mask in range(0, (1 << max(len(s) - 1, 0)) - 1):
        yield _split(s, mask)


def _split(s: PointSet, mask: int) -> Partition:
    """Bipartition number ``mask`` of s.  The sides are sorted slices of
    s's points, so they skip ``PointSet.of``."""
    rest = s.points[1:]
    a = (s.points[0],) + tuple(q for i, q in enumerate(rest) if mask >> i & 1)
    b = tuple(q for i, q in enumerate(rest) if not mask >> i & 1)
    return Partition(PointSet(s.dim, a), PointSet(s.dim, b))


def _threshold_cuts(s: PointSet, normal) -> set[int]:
    """The ``bipartitions`` numbers of the threshold cuts of x -> normal . x
    on s: for each value v above the least, the points with value >= v
    against the rest, point 0's side as A.  The flag 2 normal . x - (u + v),
    for u the value below v, splits each one strictly (algorithm notes)."""
    values = [sum(map(mul, normal, q)) for q in s.points]
    first, rest = values[0], values[1:]
    return {
        sum(1 << i for i, w in enumerate(rest) if (w >= v) == (first >= v))
        for v in sorted(set(values))[1:]
    }


def parallelogram_masks(s: PointSet, k: int) -> list[int]:
    """The ``bipartitions`` numbers, ascending, of the partitions of s
    with the k-parallelogram condition.

    The condition fails exactly when two equal-sum multisets of the same
    order j <= k with disjoint supports X and Y fall on opposite sides.
    Each such pair of supports is a clause, built once per set from the
    ``point_codes`` sums of s; it is broken when A & (X | Y) is X or Y.
    A backtracking search colours the points in index order, point 0 in
    A, and tests the clauses whose highest point has just been coloured,
    all at once: bit c of ``missed`` records that pattern c can no longer
    occur.  Only partitions with the condition reach a leaf (see the
    algorithm notes in docs/).
    """
    m = len(s)
    if m < 2:
        return []
    codes, _ = point_codes(s.points, k)
    patterns = set()  # (X | Y, X) and (X | Y, Y) of every clause
    for order in range(2, k + 1):
        groups: dict[int, set[int]] = {}
        for combo in combinations_with_replacement(range(m), order):
            support = 0
            for i in combo:
                support |= 1 << i
            groups.setdefault(sum(codes[i] for i in combo), set()).add(support)
        for supports in groups.values():
            for x, y in combinations(supports, 2):
                if not x & y:
                    patterns.update(((x | y, x), (x | y, y)))
    # top[i]: the patterns whose highest point is i; miss[j]: the patterns
    # that point j rules out when it goes to A and when it goes to B
    width = len(patterns) // 8 + 1
    top = [bytearray(width) for _ in range(m)]
    miss = [(bytearray(width), bytearray(width)) for _ in range(m)]
    for c, (both, side) in enumerate(patterns):
        byte, bit = c >> 3, 1 << (c & 7)
        top[both.bit_length() - 1][byte] |= bit
        for j in range(both.bit_length()):
            if both >> j & 1:
                miss[j][side >> j & 1][byte] |= bit
    top = [int.from_bytes(t, "little") for t in top]
    miss = [
        (int.from_bytes(in_a, "little"), int.from_bytes(in_b, "little"))
        for in_a, in_b in miss
    ]
    leaves = []

    def grow(i: int, a: int, missed: int) -> None:
        if i == m:
            leaves.append(a >> 1)
            return
        for coloured, ruled_out in ((a | 1 << i, miss[i][0]), (a, miss[i][1])):
            now = missed | ruled_out
            if not top[i] & ~now:
                grow(i + 1, coloured, now)

    grow(1, 1, miss[0][0])
    everything = (1 << m - 1) - 1  # B empty
    return sorted(mask for mask in leaves if mask != everything)


@dataclass(frozen=True)
class Violation:
    """A bipartition on which the two tested conditions disagree."""

    set_points: tuple[IntPoint, ...]
    a_points: tuple[IntPoint, ...]
    b_points: tuple[IntPoint, ...]
    left: str
    right: str
    left_holds: bool
    right_holds: bool

    def partition(self) -> Partition:
        return Partition.of(self.a_points, self.b_points)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Violation":
        """The violation ``as_dict`` gave, read back from JSON, which
        stores the points of the ``*_points`` fields as lists."""
        return cls(**{
            f.name: tuple(map(tuple, d[f.name])) if f.name.endswith("_points") else d[f.name]
            for f in fields(cls)
        })


@dataclass
class EquivalenceReport:
    dims: tuple[int, ...]
    family: str
    left: str
    right: str
    sets_checked: int = 0
    partitions_checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_set(args):
    mask, s, left, right = args
    violations = []
    n_partitions = 0
    for partition in bipartitions(s):
        n_partitions += 1
        lv = CONDITIONS[left](partition)
        rv = CONDITIONS[right](partition)
        if lv.holds != rv.holds:
            violations.append(
                Violation(
                    s.points,
                    partition.a.points,
                    partition.b.points,
                    left,
                    right,
                    lv.holds,
                    rv.holds,
                )
            )
    return mask, n_partitions, violations


def test_equivalence(
    dims,
    family: str,
    left: str,
    right: str,
    stop_after: int | None = None,
    jobs: int = 1,
    checkpoint: str | None = None,
    stream=None,
) -> EquivalenceReport:
    """Check left <=> right over every bipartition of every family member.

    ``stop_after`` ends the sweep once that many violations are found;
    ``checkpoint`` names a JSON file storing the enumeration cursor so an
    interrupted sweep resumes where it left off; ``stream`` receives one
    JSON line per progress chunk and per violation.  An unknown family or
    condition raises ValueError before any set is checked.
    """
    for name in (left, right):
        if name not in CONDITIONS:
            raise ValueError(f"unknown condition {name!r}")
    report = EquivalenceReport(tuple(dims), family, left, right)
    # the settings a checkpoint must match to be resumed (JSON has no tuples)
    keys = {"dims": list(dims), "family": family, "left": left, "right": right}
    start_mask = _resume(checkpoint, "equivalence", report, **keys) if checkpoint else 0

    tasks = ((mask, s, left, right) for mask, s in enumerate_family(dims, family, start_mask))
    pool = None
    if jobs > 1:
        # imported here: the module costs about 10 ms, and nothing else
        # in the library needs it
        import multiprocessing

        pool = multiprocessing.Pool(jobs)
    cursor = start_mask
    try:
        results = pool.imap(_check_set, tasks, chunksize=8) if pool else map(_check_set, tasks)
        for mask, n_partitions, violations in results:
            cursor = mask
            report.sets_checked += 1
            report.partitions_checked += n_partitions
            for v in violations:
                report.violations.append(v)
                _emit(stream, {"type": "violation", **v.as_dict()})
            if report.sets_checked % 64 == 0:
                _emit(
                    stream,
                    {
                        "type": "progress",
                        "cursor": cursor,
                        "sets": report.sets_checked,
                        "partitions": report.partitions_checked,
                    },
                )
                if checkpoint:
                    _save_checkpoint(checkpoint, "equivalence", report, cursor, **keys)
            if stop_after is not None and len(report.violations) >= stop_after:
                break
        else:
            cursor = (1 << prod(dims)) - 1
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    if checkpoint:
        _save_checkpoint(checkpoint, "equivalence", report, cursor, **keys)
    return report


# Per checkpoint kind: the report's count fields and its violation list.
# A checkpoint also stores its kind and the run's settings (grid, family
# and the two conditions; or seed, box and largest set), and any run with
# other ones refuses it.
_CHECKPOINT_FIELDS = {
    "equivalence": (("sets_checked", "partitions_checked"), "violations"),
    "conjecture": (("samples", "admitted_sets", "partitions_checked"), "counterexamples"),
}
_PROGRESS = {"cursor", *(f for c, v in _CHECKPOINT_FIELDS.values() for f in (*c, v))}


def _resume(path: str, kind: str, report, **keys) -> int:
    """Restore ``report`` from the checkpoint at ``path`` and return its
    cursor, or 0 when there is no file.  A checkpoint of another kind of
    run, with other ``keys`` or with a missing or ill-typed field raises
    InstanceFormatError, and the file is left as it is."""
    state = read_json_object(path, f"checkpoint {path}", missing_ok=True)
    if state is None:
        return 0
    if state.get("kind") != kind or any(state.get(k) != v for k, v in keys.items()):
        stored, wanted = (
            ", ".join(f"{k}={json.dumps(v)}" for k, v in sorted(d.items()) if k not in _PROGRESS)
            for d in (state, {"kind": kind, **keys})
        )
        raise InstanceFormatError(
            f"checkpoint {path}: holds a run with {stored or 'no settings'}, not this "
            f"one's {wanted}; name another checkpoint file"
        )
    counts, listed = _CHECKPOINT_FIELDS[kind]
    for name in ("cursor", *counts):
        value = state.get(name)
        if type(value) is not int or value < 0:
            raise InstanceFormatError(
                f"checkpoint {path}: field {name!r} must be a non-negative integer"
            )
    try:
        violations = [Violation.from_dict(v) for v in state[listed]]
    except (KeyError, TypeError):
        raise InstanceFormatError(
            f"checkpoint {path}: field {listed!r} must be a list of violations"
        ) from None
    for name in counts:
        setattr(report, name, state[name])
    setattr(report, listed, violations)
    return state["cursor"]


def _save_checkpoint(path: str, kind: str, report, cursor: int, **keys) -> None:
    """Store ``report`` and ``cursor`` at ``path``, in the fields that
    ``_resume`` reads back.  The state is written to a temporary file in
    the same directory and renamed onto ``path``, so a save cut short
    (an interrupt, a full disk) leaves the previous checkpoint whole."""
    counts, listed = _CHECKPOINT_FIELDS[kind]
    state = {"kind": kind, "cursor": cursor, **keys}
    state.update((name, getattr(report, name)) for name in counts)
    state[listed] = [v.as_dict() for v in getattr(report, listed)]
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path) or ".")
        with open(fd, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        tmp = None
    except OSError as e:
        raise InstanceFormatError(f"checkpoint {path}: {e.strerror or e}") from None
    finally:
        if tmp is not None:
            os.remove(tmp)


def _emit(stream, record: dict) -> None:
    if stream is not None:
        stream.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# conjecture hunt in dimension 3

@dataclass
class HuntReport:
    seed: int
    budget: int
    samples: int = 0
    admitted_sets: int = 0
    partitions_checked: int = 0
    counterexamples: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def hunt_over_set(s: PointSet, report: HuntReport, stream=None) -> None:
    """Decide every bipartition of one set: any with the 3-parallelogram
    condition but no separating flag is logged as a counterexample.

    ``parallelogram_masks`` lists the partitions with the condition;
    every other one breaks a clause, which is a 3-parallelogram failure,
    so all of them count as checked.  Flag search runs on the survivors
    in ascending order, and each functional it finds adds its threshold
    cuts on s to ``cut``: those partitions are flag-separable, so a
    survivor found there needs no LP and is no counterexample.
    """
    if len(s) < 2:
        return
    report.partitions_checked += (1 << len(s) - 1) - 1
    cut: set[int] = set()
    for mask in parallelogram_masks(s, 3):
        if mask in cut:
            continue
        partition = _split(s, mask)
        verdict = search_flag(partition)
        if verdict.holds:
            cut |= _threshold_cuts(s, verdict.witness.functionals[0].normal)
            continue
        v = Violation(
            s.points,
            partition.a.points,
            partition.b.points,
            "parallelogram-3",
            "flag",
            True,
            False,
        )
        report.counterexamples.append(v)
        _emit(stream, {"type": "counterexample", **v.as_dict()})


def _sample_candidate(rng: random.Random, box: int) -> PointSet:
    """One random candidate set for the hunt.

    Alternates between lattice points of a polytope with random vertices
    in [0, box]^3 and a random grid box clipped by half-spaces with
    {-1,0,1} normals.  Vertex polytopes are almost never integrally
    convex once the box grows, so the clipped-box mode keeps the
    admission rate of the integral-convexity filter useful.
    """
    if rng.random() < 0.5:
        n_verts = rng.randint(4, 7)
        verts = [tuple(rng.randint(0, box) for _ in range(3)) for _ in range(n_verts)]
        return lattice_points_in_conv(PointSet.of(verts, 3))
    dims = [rng.randint(1, 3) for _ in range(3)]
    pts = list(box_points([0, 0, 0], dims))
    for _ in range(rng.randint(1, 3)):
        normal = tuple(rng.choice((-1, 0, 1)) for _ in range(3))
        if normal == (0, 0, 0):
            continue
        vals = [sum(a * b for a, b in zip(normal, p)) for p in pts]
        cut = rng.randint(min(vals), max(vals))
        kept = [p for p, v in zip(pts, vals) if v <= cut]
        if len(kept) >= 2:
            pts = kept
    return PointSet.of(pts, 3)


def conjecture_hunt(
    budget: int,
    seed: int = 0,
    box: int = 2,
    max_set_size: int = 12,
    checkpoint: str | None = None,
    stream=None,
) -> HuntReport:
    """Sample small integrally convex subsets of Z^3 and look for
    bipartitions with the 3-parallelogram condition and no flag.

    Each sample index has its own derived RNG seed, so runs resumed from
    a checkpoint reproduce exactly the samples a fresh run would draw.
    """
    report = HuntReport(seed=seed, budget=budget)
    keys = {"seed": seed, "box": box, "max_set_size": max_set_size}
    start = _resume(checkpoint, "conjecture", report, **keys) if checkpoint else 0
    for i in range(start, budget):
        rng = random.Random(seed * 1000003 + i)
        report.samples += 1
        s = _sample_candidate(rng, box)
        if 2 <= len(s) <= max_set_size and is_integrally_convex(s).holds:
            report.admitted_sets += 1
            hunt_over_set(s, report, stream)
        _emit(
            stream,
            {
                "type": "progress",
                "cursor": i + 1,
                "admitted": report.admitted_sets,
                "partitions": report.partitions_checked,
            },
        )
        if checkpoint:
            _save_checkpoint(checkpoint, "conjecture", report, i + 1, **keys)
    return report
