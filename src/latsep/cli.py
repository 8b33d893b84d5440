"""Command-line front end.

Instance files are JSON: {"dim": d} plus exactly one of
  "S":       explicit point list,
  "A" / "B": a partition (disjoint point lists),
  "simplex": vertex list, meaning the lattice points of its hull,
  "box":     [lo, hi] corner vectors, meaning the box's lattice points.

Flag files mirror the separating-flag structure with rationals printed
in reduced p/q form.  Exit codes: 0 condition holds / success, 1
condition fails (witness printed), 2 usage or malformed input, 3
unsupported (``plot`` above dimension 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import count
from math import prod

from .catalog import run_catalog
from .conditions import (
    Partition,
    SeparatingFlag,
    check_parallelogram,
    check_ray,
    lex_flag_to_subspace_chain,
    search_flag,
    verify_flag,
)
from .constructions import MinimalTriangle, lemma_triple
from .convexity import (
    classify_holes,
    is_hole_free,
    is_integrally_convex,
    is_k_convex,
    k_convex_hull,
)
from .errors import (
    EmptyInteriorError,
    InstanceFormatError,
    InvalidFlagError,
    LatsepError,
    UnsupportedDimensionError,
    read_json_object,
)
from .explorer import CONDITIONS, FAMILY_FILTERS, MAX_GRID_CELLS, conjecture_hunt, test_equivalence
from .geometry import AffineFunctional, PointSet, bounding_box, box_points, lattice_points_in_conv
from .svgplot import render_svg
from .verdicts import CommonPoint

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

# Most lattice points an instance may span: the bounding box of a 'box'
# or 'simplex' instance's corners, or of a point list that a command
# scans the hull of, is checked before any lattice point is built.
MAX_INSTANCE_POINTS = 2 * 10**6


# ---------------------------------------------------------------------------
# parsing

def _is_int(v) -> bool:
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _point_list(raw, dim: int, where: str) -> list[tuple[int, ...]]:
    if not isinstance(raw, list):
        raise InstanceFormatError(f"field {where!r} must be a list of points")
    pts = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != dim
            or not all(_is_int(v) for v in entry)
        ):
            raise InstanceFormatError(
                f"field {where!r}, entry {i}: expected a vector of {dim} integers"
            )
        pts.append(tuple(entry))
    return pts


def _check_span(path: str, lo, hi) -> None:
    if prod(h - l + 1 for l, h in zip(lo, hi)) > MAX_INSTANCE_POINTS:
        raise InstanceFormatError(
            f"{path}: the bounding box of the instance holds more than "
            f"{MAX_INSTANCE_POINTS} lattice points"
        )


def parse_instance(path: str):
    """Parse an instance file into a Partition or a PointSet."""
    data = read_json_object(path, path)
    dim = data.get("dim")
    if not _is_int(dim) or dim < 1:
        raise InstanceFormatError(f"{path}: field 'dim' must be a positive integer")
    keys = [k for k in ("S", "A", "B", "simplex", "box") if k in data]
    if keys == ["A", "B"]:
        a = _point_list(data["A"], dim, "A")
        b = _point_list(data["B"], dim, "B")
        if not a or not b:
            raise InstanceFormatError(f"{path}: 'A' and 'B' must both be nonempty")
        clash = sorted(set(a) & set(b))
        if clash:
            raise InstanceFormatError(
                f"{path}: 'A' and 'B' overlap, e.g. at {clash[0]}"
            )
        return Partition.of(a, b, dim)
    if keys == ["S"]:
        pts = _point_list(data["S"], dim, "S")
        if not pts:
            raise InstanceFormatError(f"{path}: 'S' must be nonempty")
        return PointSet.of(pts, dim)
    if keys == ["simplex"]:
        verts = _point_list(data["simplex"], dim, "simplex")
        if not verts:
            raise InstanceFormatError(f"{path}: 'simplex' must list vertices")
        _check_span(path, *bounding_box(verts))
        return lattice_points_in_conv(PointSet.of(verts, dim))
    if keys == ["box"]:
        box = data["box"]
        if not (isinstance(box, list) and len(box) == 2):
            raise InstanceFormatError(f"{path}: 'box' must be [lo, hi]")
        lo, hi = _point_list(box, dim, "box")
        if any(l > h for l, h in zip(lo, hi)):
            raise InstanceFormatError(f"{path}: 'box' corners are out of order")
        _check_span(path, lo, hi)
        return PointSet.of(box_points(lo, hi), dim)
    raise InstanceFormatError(
        f"{path}: expected exactly one of 'S', 'A'+'B', 'simplex', 'box'"
    )


def _parse_fraction(raw, where: str) -> Fraction:
    try:
        if isinstance(raw, str) or _is_int(raw):
            return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        pass
    raise InstanceFormatError(f"{where}: expected an integer or 'p/q' string")


def parse_flag_file(path: str) -> SeparatingFlag:
    data = read_json_object(path, path)
    dim = data.get("dim")
    if not _is_int(dim) or dim < 1:
        raise InstanceFormatError(f"{path}: field 'dim' must be a positive integer")
    owner = data.get("residual_owner")
    if owner not in ("A", "B", "empty"):
        raise InstanceFormatError(f"{path}: 'residual_owner' must be 'A', 'B' or 'empty'")
    raw_funcs = data.get("functionals", [])
    if not isinstance(raw_funcs, list):
        raise InstanceFormatError(f"{path}: 'functionals' must be a list")
    funcs = []
    for i, g in enumerate(raw_funcs):
        where = f"{path}: functional {i}"
        if not isinstance(g, dict) or "normal" not in g or "offset" not in g:
            raise InstanceFormatError(f"{where}: expected 'normal' and 'offset'")
        if not isinstance(g["normal"], list) or len(g["normal"]) != dim:
            raise InstanceFormatError(f"{where}: 'normal' must have {dim} entries")
        normal = [_parse_fraction(v, where) for v in g["normal"]]
        offset = _parse_fraction(g["offset"], where)
        funcs.append(AffineFunctional.of(normal, offset))
    return SeparatingFlag(dim, tuple(funcs), owner)


def flag_to_json(flag: SeparatingFlag) -> dict:
    return {
        "dim": flag.dim,
        "functionals": [
            {"normal": [str(v) for v in g.normal], "offset": str(g.offset)}
            for g in flag.functionals
        ],
        "residual_owner": flag.residual_owner,
    }


# ---------------------------------------------------------------------------
# formatting

def _fmt_point(p) -> str:
    return "(" + ", ".join(str(v) for v in p) + ")"


def _fmt_points(pts) -> str:
    return " ".join(_fmt_point(p) for p in pts)


def _fmt_functional(g: AffineFunctional) -> str:
    terms = " + ".join(f"{v}*x{i + 1}" for i, v in enumerate(g.normal) if v != 0)
    return f"{terms or '0'} >= {g.offset}"


def _print_flag(flag: SeparatingFlag) -> None:
    print(f"flag with {len(flag.functionals)} level(s), residual owner {flag.residual_owner}")
    for i, g in enumerate(flag.functionals):
        print(f"  level {i + 1}: side A where {_fmt_functional(g)} is strict")
    print("nested subspace chain (smallest first):")
    for anchor, basis in lex_flag_to_subspace_chain(flag):
        dirs = " ".join(_fmt_point(v) for v in basis) or "-"
        print(f"  dim {len(basis)}: anchor {_fmt_point(anchor)} directions {dirs}")
    print("flag json:")
    print(json.dumps(flag_to_json(flag), sort_keys=True))


def _require_partition(obj, what: str) -> Partition:
    if not isinstance(obj, Partition):
        raise InstanceFormatError(f"{what} needs an instance with 'A' and 'B'")
    return obj


def _as_point_set(obj, path: str) -> PointSet:
    """The instance's points.  Every command that takes them scans the
    lattice points of their hull, so their bounding box is bounded like
    a 'box' instance's before any point is built."""
    s = obj.union() if isinstance(obj, Partition) else obj
    _check_span(path, *bounding_box(s.points))
    return s


def _verdict_exit(holds: bool) -> int:
    return EXIT_HOLDS if holds else EXIT_FAILS


# ---------------------------------------------------------------------------
# subcommands

# check name -> (its decision on the instance and the parsed arguments,
# whether it takes a partition rather than a point set, its "holds"
# line with the arguments filled in, its failing-witness line).  Each
# decision looks its function up when it runs, so a module attribute
# replaced in a test is the one called.
_CHECKS = {
    "par": (
        lambda p, args: check_parallelogram(p, args.k), True,
        "holds: no equal sums of up to {k} points per side",
        lambda w: f"fails at order {w.order}: {_fmt_points(w.left)} and "
        f"{_fmt_points(w.right)} both sum to {_fmt_point(w.total)}",
    ),
    "ray": (
        lambda p, args: check_ray(p), True,
        "holds: on every shared line one side is a prefix or suffix",
        lambda w: f"fails on line through {_fmt_point(w.base)} along {_fmt_point(w.direction)}: "
        + " ".join(f"{_fmt_point(q)}:{s}" for q, s in zip(w.trace, w.sides)),
    ),
    "hole-free": (
        lambda s, args: is_hole_free(s), False,
        "holds: set equals the lattice points of its hull",
        lambda w: f"fails: missing lattice point {_fmt_point(w.missing)}",
    ),
    "integrally-convex": (
        lambda s, args: is_integrally_convex(s), False,
        "holds: every local hull matches the global hull",
        lambda w: f"fails in cell at {_fmt_point(w.cell)}: vertex {_fmt_point(w.vertex)} "
        "not locally covered",
    ),
    "k-convex": (
        lambda s, args: is_k_convex(s, args.k), False,
        "holds: {k}-convex",
        lambda w: f"fails: hull of {_fmt_points(w.subset)} contains {_fmt_point(w.missing)}",
    ),
}


def _cmd_check(args) -> int:
    decide, on_partition, holds, fails = _CHECKS[args.condition]
    obj = parse_instance(args.file)
    obj = (_require_partition(obj, f"check {args.condition}") if on_partition
           else _as_point_set(obj, args.file))
    v = decide(obj, args)
    print(holds.format(**vars(args)) if v.holds else fails(v.witness))
    return _verdict_exit(v.holds)


def _cmd_separate(args) -> int:
    p = _require_partition(parse_instance(args.file), "separate")
    v = search_flag(p)
    if v.holds:
        _print_flag(v.witness)
        return EXIT_HOLDS
    w: CommonPoint = v.witness
    (weight, a_sum), (_, b_sum) = w.side_sums()
    print("no separating flag exists")
    print(f"the hulls meet: each side's weights total {weight} and give the same sum")
    for side, pts, weights, total in (
        ("A", w.a_points, w.a_weights, a_sum),
        ("B", w.b_points, w.b_weights, b_sum),
    ):
        terms = " + ".join(f"{c}*{_fmt_point(q)}" for q, c in zip(pts, weights))
        print(f"  {side}: {terms} = {_fmt_point(total)}")
    return EXIT_FAILS


def _cmd_verify_flag(args) -> int:
    p = _require_partition(parse_instance(args.file), "verify-flag")
    flag = parse_flag_file(args.flag)
    try:
        ok = verify_flag(p, flag)
    except InvalidFlagError as e:
        print(f"flag structurally invalid: {e}", file=sys.stderr)
        return EXIT_USAGE
    print("flag verifies" if ok else "flag rejected: some point lands on the wrong side")
    return _verdict_exit(ok)


def _cmd_hull(args) -> int:
    s = _as_point_set(parse_instance(args.file), args.file)
    hull = k_convex_hull(s, args.k)
    for p in hull.points:
        print(_fmt_point(p))
    return EXIT_HOLDS


def _cmd_holes(args) -> int:
    s = _as_point_set(parse_instance(args.file), args.file)
    reports = classify_holes(s)
    for r in reports:
        print(f"hole {_fmt_point(r.hole)} first_k {r.first_k}")
    if not reports:
        print("no holes")
    return EXIT_HOLDS


def _cmd_lemma49(args) -> int:
    s = _as_point_set(parse_instance(args.file), args.file)
    if s.dim != 2 or len(s) != 3:
        raise InstanceFormatError("lemma49 needs exactly three points in dimension 2")
    tri = MinimalTriangle(*s.points)
    try:
        b1, b2, b3 = lemma_triple(tri)
    except EmptyInteriorError as e:
        print(f"no interior points: {e}", file=sys.stderr)
        return EXIT_FAILS
    total = tuple(sum(v) for v in zip(*tri.vertices()))
    print(f"vertices {_fmt_points(tri.vertices())} sum {_fmt_point(total)}")
    print(f"triple {_fmt_points((b1, b2, b3))} sum {_fmt_point(tuple(b1[i] + b2[i] + b3[i] for i in range(2)))}")
    return EXIT_HOLDS


def _cmd_catalog(args) -> int:
    report = run_catalog(args.id)
    for line in report.lines():
        print(line)
    n_bad = sum(1 for r in report.results if not r.passed)
    print(f"{len(report.results)} claims, {n_bad} failed")
    return EXIT_HOLDS if report.ok else EXIT_FAILS


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(v) for v in text.lower().split("x"))
    except ValueError:
        raise InstanceFormatError(f"bad grid spec {text!r}; use e.g. 3x3") from None
    if not dims or any(v < 1 for v in dims):
        raise InstanceFormatError(f"bad grid spec {text!r}; use e.g. 3x3")
    if prod(dims) > MAX_GRID_CELLS:
        raise InstanceFormatError(f"grid {text!r} has more than {MAX_GRID_CELLS} cells")
    return dims


def _cmd_explore(args) -> int:
    if args.mode == "equivalence":
        report = test_equivalence(
            _parse_grid(args.grid),
            args.family,
            args.left,
            args.right,
            stop_after=args.stop_after,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            stream=sys.stdout,
        )
        print(
            f"checked {report.sets_checked} sets / {report.partitions_checked} "
            f"partitions: {len(report.violations)} violation(s)"
        )
        return EXIT_HOLDS if report.ok else EXIT_FAILS
    report = conjecture_hunt(
        args.budget,
        seed=args.seed,
        box=args.box,
        max_set_size=args.max_size,
        checkpoint=args.checkpoint,
        stream=sys.stdout,
    )
    print(
        f"samples {report.samples}, admitted {report.admitted_sets}, "
        f"partitions {report.partitions_checked}, "
        f"counterexamples {len(report.counterexamples)}"
    )
    return EXIT_HOLDS if report.ok else EXIT_FAILS


def _cmd_plot(args) -> int:
    obj = parse_instance(args.file)
    if isinstance(obj, Partition):
        a_pts, b_pts = obj.a.points, obj.b.points
    else:
        a_pts, b_pts = obj.points, ()
    funcs = ()
    if args.flag:
        flag = parse_flag_file(args.flag)
        if flag.dim != obj.dim:
            raise InstanceFormatError(
                f"{args.flag}: a flag of dimension {flag.dim} for an instance of dimension {obj.dim}"
            )
        funcs = flag.functionals
    svg = render_svg(a_pts, b_pts, funcs)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as e:
        raise InstanceFormatError(f"output {args.output}: {e.strerror or e}") from None
    print(f"wrote {args.output}")
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# argument wiring

def _int_in(low: int, high: int | None, what: str):
    """argparse type for an integer option from ``low`` to ``high`` (no
    upper bound for None).  Any other value becomes a usage error
    (exit 2), never a traceback with exit 1, which means "fails"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_in(1, None, "a positive integer")

# Largest 'explore conjecture --box': a sampled vertex polytope is
# scanned over its bounding box, up to [0, box]^3, which must hold at
# most MAX_INSTANCE_POINTS lattice points like an instance file's.
MAX_HUNT_BOX = next(b for b in count() if (b + 2) ** 3 > MAX_INSTANCE_POINTS)

# Largest 'check par --k': the sumset integers stay within
# conditions._KRONECKER_MAX_BITS (32 MiB in all) at any k, but past it the
# check enumerates C(n + k, k) multisets per side of n points, which grows
# fast with k; the catalog needs k <= 5.
MAX_PAR_K = 16

# Largest 'explore conjecture --max-size': the 27 points of {0,1,2}^3,
# the largest set whose hunt the tests cover.
MAX_HUNT_SET = 27


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latsep",
        description="exact decision procedures for separation and discrete convexity of integer point sets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="run a single condition check")
    chk_sub = chk.add_subparsers(dest="condition", required=True)
    for name in _CHECKS:
        if name == "par":
            c = chk_sub.add_parser(name, help="k-parallelogram condition")
            k_max = f"a positive integer up to {MAX_PAR_K}"
            c.add_argument("--k", type=_int_in(1, MAX_PAR_K, k_max), default=2)
        else:
            c = chk_sub.add_parser(name)
        if name == "k-convex":
            c.add_argument("--k", type=_positive_int, required=True)
        c.add_argument("file")
    chk.set_defaults(fn=_cmd_check)

    sep = sub.add_parser("separate", help="decide flag separation")
    sep.add_argument("file")
    sep.set_defaults(fn=_cmd_separate)

    vf = sub.add_parser("verify-flag", help="verify a stored flag")
    vf.add_argument("file")
    vf.add_argument("--flag", required=True)
    vf.set_defaults(fn=_cmd_verify_flag)

    hp = sub.add_parser("hull", help="k-convex hull points")
    hp.add_argument("--k", type=_positive_int, required=True)
    hp.add_argument("file")
    hp.set_defaults(fn=_cmd_hull)

    ho = sub.add_parser("holes", help="classify holes by first k")
    ho.add_argument("file")
    ho.set_defaults(fn=_cmd_holes)

    lm = sub.add_parser("lemma49", help="equal-sum interior triple of a minimal triangle")
    lm.add_argument("file")
    lm.set_defaults(fn=_cmd_lemma49)

    cat = sub.add_parser("catalog", help="catalog operations")
    cat_sub = cat.add_subparsers(dest="catalog_cmd", required=True)
    cr = cat_sub.add_parser("run")
    cr.add_argument("--id", default=None, help="entry id or fnmatch pattern")
    cat.set_defaults(fn=_cmd_catalog)

    ex = sub.add_parser("explore", help="search harnesses")
    ex_sub = ex.add_subparsers(dest="mode", required=True)
    eq = ex_sub.add_parser("equivalence")
    eq.add_argument("--grid", default="3x3")
    eq.add_argument("--family", default="integrally-convex", choices=FAMILY_FILTERS)
    eq.add_argument("--left", default="parallelogram-2", choices=sorted(CONDITIONS))
    eq.add_argument("--right", default="flag", choices=sorted(CONDITIONS))
    eq.add_argument("--stop-after", type=_positive_int, default=None)
    cpus = os.cpu_count() or 1
    eq.add_argument("--jobs", type=_int_in(1, cpus, f"an integer from 1 to {cpus}"), default=1)
    eq.add_argument("--checkpoint", default=None)
    cj = ex_sub.add_parser("conjecture")
    cj.add_argument("--budget", type=_int_in(0, None, "a nonnegative integer"), default=100)
    cj.add_argument("--seed", type=int, default=0)
    cj.add_argument(
        "--box", type=_int_in(0, MAX_HUNT_BOX, f"an integer from 0 to {MAX_HUNT_BOX}"), default=2
    )
    hunt_size = _int_in(2, MAX_HUNT_SET, f"an integer from 2 to {MAX_HUNT_SET}")
    cj.add_argument("--max-size", type=hunt_size, default=12)
    cj.add_argument("--checkpoint", default=None)
    ex.set_defaults(fn=_cmd_explore)

    pl = sub.add_parser("plot", help="render a 2-D instance as SVG")
    pl.add_argument("file")
    pl.add_argument("--flag", default=None)
    pl.add_argument("-o", "--output", required=True)
    pl.set_defaults(fn=_cmd_plot)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UnsupportedDimensionError as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (InstanceFormatError, LatsepError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
