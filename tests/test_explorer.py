"""Search harnesses: enumeration, equivalence sweeps, conjecture hunt."""

import io
import json
import random
import re
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsep import conditions, explorer
from latsep.conditions import check_parallelogram, check_ray, search_flag
from latsep.errors import InstanceFormatError
from latsep.explorer import (
    CONDITIONS,
    HuntReport,
    Violation,
    bipartitions,
    conjecture_hunt,
    enumerate_family,
    hunt_over_set,
    parallelogram_masks,
)
from latsep.geometry import PointSet, box_points
from oracles import oracle_flag_separable


class TestEnumerateFamily:
    def test_2x2_any_has_15(self):
        assert sum(1 for _ in enumerate_family((2, 2), "any")) == 15

    def test_2x2_hole_free_has_15(self):
        # frozen by the clipping oracle: every subset of a unit cell
        assert sum(1 for _ in enumerate_family((2, 2), "hole-free")) == 15

    def test_3x3_frozen_counts(self):
        assert sum(1 for _ in enumerate_family((3, 3), "integrally-convex")) == 117
        assert sum(1 for _ in enumerate_family((3, 3), "hole-free")) == 213
        assert sum(1 for _ in enumerate_family((3, 3), "1-convex")) == 217
        assert sum(1 for _ in enumerate_family((3, 3), "any")) == 511

    def test_guard_rejects_large_grids(self):
        with pytest.raises(ValueError):
            list(enumerate_family((5, 5), "any"))

    def test_unknown_family_is_refused_at_the_call(self):
        refused = re.escape("unknown family filter 'nope'")
        with pytest.raises(ValueError, match=refused):
            enumerate_family((2, 2), "nope")  # not iterated
        with pytest.raises(ValueError, match=refused):
            explorer.test_equivalence((2, 2), "nope", "ray", "flag")

    def test_deterministic_order(self):
        first = [m for m, _ in enumerate_family((2, 2), "any")]
        second = [m for m, _ in enumerate_family((2, 2), "any")]
        assert first == second == sorted(first)


class TestBipartitions:
    def test_counts_and_swap_reduction(self):
        s = PointSet.of([(0, 0), (1, 0), (0, 1)])
        parts = list(bipartitions(s))
        assert len(parts) == 3  # 2^(3-1) - 1
        for p in parts:
            assert s.points[0] in p.a

    def test_single_point_has_none(self):
        assert list(bipartitions(PointSet.of([(0, 0)]))) == []


class TestEquivalence:
    def test_violations_replay(self):
        report = explorer.test_equivalence(
            (3, 3), "hole-free", "parallelogram-2", "flag", stop_after=2
        )
        assert len(report.violations) >= 1
        for v in report.violations:
            p = v.partition()
            assert check_parallelogram(p, 2).holds == v.left_holds
            assert search_flag(p).holds == v.right_holds

    def test_integrally_convex_equivalence_clean(self):
        report = explorer.test_equivalence((2, 3), "integrally-convex", "parallelogram-2", "flag")
        assert report.ok and report.sets_checked > 0

    def test_stream_records(self):
        buf = io.StringIO()
        explorer.test_equivalence(
            (3, 3), "hole-free", "parallelogram-2", "flag", stop_after=1, stream=buf
        )
        lines = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        assert any(rec["type"] == "violation" for rec in lines)

    def test_checkpoint_resume(self, tmp_path):
        cp = tmp_path / "cp.json"
        partial = explorer.test_equivalence(
            (2, 3), "any", "parallelogram-2", "flag", stop_after=1, checkpoint=str(cp)
        )
        resumed = explorer.test_equivalence(
            (2, 3), "any", "parallelogram-2", "flag", checkpoint=str(cp)
        )
        fresh = explorer.test_equivalence((2, 3), "any", "parallelogram-2", "flag")
        assert resumed.sets_checked == fresh.sets_checked
        assert resumed.partitions_checked == fresh.partitions_checked
        assert len(resumed.violations) == len(fresh.violations)
        assert partial.sets_checked <= fresh.sets_checked

    def test_resume_after_a_periodic_save_matches_fresh(self, tmp_path, monkeypatch):
        # a sweep cut off right after its first periodic save (every 64
        # sets) resumes from that save to the report of an uncut sweep
        run = ((3, 3), "hole-free", "parallelogram-2", "flag")
        cp = tmp_path / "cp.json"
        save = explorer._save_checkpoint

        class Cut(Exception):
            pass

        def save_then_cut(*args, **kwargs):
            save(*args, **kwargs)
            raise Cut

        with monkeypatch.context() as patch:
            patch.setattr(explorer, "_save_checkpoint", save_then_cut)
            with pytest.raises(Cut):
                explorer.test_equivalence(*run, checkpoint=str(cp))
        saved = json.loads(cp.read_text())
        assert saved["sets_checked"] == 64
        fresh = explorer.test_equivalence(*run)
        assert fresh.sets_checked > 64 and fresh.violations
        assert explorer.test_equivalence(*run, checkpoint=str(cp)) == fresh

    def test_checkpoint_of_other_settings_is_refused(self, tmp_path):
        # the error names what the file holds, and the file is not touched
        cp = tmp_path / "cp.json"
        explorer.test_equivalence((2, 3), "any", "parallelogram-2", "flag", checkpoint=str(cp))
        stored = cp.read_bytes()
        held = 'dims=[2, 3], family="any", kind="equivalence", left="parallelogram-2", right="flag"'
        for run in (
            ((2, 3), "any", "parallelogram-2", "ray"),
            ((2, 2), "hole-free", "ray", "flag"),
            ((2, 2), "hole-free", "ray", "parallelogram-2"),
            ((3, 2), "hole-free", "ray", "parallelogram-2"),
        ):
            with pytest.raises(InstanceFormatError, match=re.escape(held)):
                explorer.test_equivalence(*run, checkpoint=str(cp))
            assert cp.read_bytes() == stored
        with pytest.raises(InstanceFormatError, match=re.escape(held)):
            conjecture_hunt(12, seed=1, checkpoint=str(cp))
        assert cp.read_bytes() == stored

    def test_jobs_match_serial(self):
        serial = explorer.test_equivalence((2, 3), "hole-free", "parallelogram-2", "flag")
        parallel = explorer.test_equivalence(
            (2, 3), "hole-free", "parallelogram-2", "flag", jobs=2
        )
        assert serial.partitions_checked == parallel.partitions_checked
        assert [v.as_dict() for v in serial.violations] == [
            v.as_dict() for v in parallel.violations
        ]

    def test_unknown_condition(self, tmp_path):
        # a one-cell grid has no partition, so only a check made up front
        # sees the name; no checkpoint is written
        cp = tmp_path / "cp.json"
        for left, right in (("nope", "flag"), ("ray", "nope")):
            with pytest.raises(ValueError, match=re.escape("unknown condition 'nope'")):
                explorer.test_equivalence((1,), "any", left, right, checkpoint=str(cp))
            assert not cp.exists()


# each condition decided on one partition at a time
_ONE_BY_ONE = {
    "parallelogram-2": lambda p: check_parallelogram(p, 2),
    "parallelogram-3": lambda p: check_parallelogram(p, 3),
    "ray": check_ray,
    "flag": search_flag,
}


@lru_cache(maxsize=None)
def _decided(sets):
    """Every bipartition of each set, in ``bipartitions`` order, with the
    verdict of every condition, decided one partition at a time."""
    return [
        (s, p, {name: decide(p).holds for name, decide in _ONE_BY_ONE.items()})
        for s in sets
        for p in bipartitions(s)
    ]


def _brute_force_sweep(sets, left, right):
    """Reference for the sweep: the partitions checked and the violations."""
    decided = _decided(tuple(sets))
    return len(decided), [
        Violation(s.points, p.a.points, p.b.points, left, right, holds[left], holds[right])
        for s, p, holds in decided
        if holds[left] != holds[right]
    ]


def _seeded_sets_in_z3():
    """Seeded sets of 2, 5 and 7 points in Z^3: random ones, subsets of
    the unit cube, and points of a line or a plane (lower-dimensional)."""
    rng = random.Random(33)
    cube = list(box_points((0, 0, 0), (1, 1, 1)))
    sets = []
    for size in (2, 5, 7):
        base, u, v = (tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
        sets += [
            [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(size)],
            rng.sample(cube, size),
            [tuple(b + t * x for b, x in zip(base, u)) for t in rng.sample(range(-3, 4), size)],
            [
                tuple(b + i * x + j * y for b, x, y in zip(base, u, v))
                for i, j in rng.sample([(i, j) for i in range(3) for j in range(3)], size)
            ],
        ]
    return tuple(PointSet.of(pts, 3) for pts in sets)


class TestOneDecisionPath:
    """The sweep decides through the ``CONDITIONS`` tests of each set's
    partition numbers; it must give what deciding each partition gives."""

    @pytest.mark.parametrize("dims, family", [((2, 3), "any"), ((3, 3), "hole-free")])
    def test_sweep_matches_brute_force(self, dims, family):
        sets = [s for _, s in enumerate_family(dims, family)]
        for left in CONDITIONS:
            for right in CONDITIONS:
                report = explorer.test_equivalence(dims, family, left, right)
                assert report.sets_checked == len(sets)
                assert (report.partitions_checked, report.violations) == _brute_force_sweep(
                    sets, left, right
                )

    def test_seeded_sets_in_z3_match_brute_force(self):
        sets = _seeded_sets_in_z3()
        assert {len(s) for s in sets} >= {2, 7}
        for left in CONDITIONS:
            for right in CONDITIONS:
                checked, found = 0, []
                for s in sets:
                    _, n_partitions, violations = explorer._check_set((0, s, left, right))
                    checked += n_partitions
                    found += violations
                assert (checked, found) == _brute_force_sweep(sets, left, right)

    def test_sweep_reuses_found_functionals(self, monkeypatch):
        # one LP per partition before; the threshold cuts of each found
        # functional now settle 756 of the 3,612, and the parallelogram
        # condition is read off one table per set
        lps, pars = [], []
        monkeypatch.setattr(explorer, "search_flag", lambda p: lps.append(p) or search_flag(p))
        for module in (explorer, conditions):
            monkeypatch.setattr(
                module,
                "check_parallelogram",
                lambda p, k: pars.append(p) or check_parallelogram(p, k),
                raising=False,
            )
        report = explorer.test_equivalence((3, 3), "hole-free", "parallelogram-2", "flag")
        assert report.partitions_checked == 3612 and len(report.violations) == 4
        assert len(lps) == 2856 and not pars


def _interrupted_dump(obj, fh, **kwargs):
    # a save cut short: part of the state reaches the file, then an interrupt
    fh.write(json.dumps(obj, **kwargs)[:40])
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "run",
    [
        lambda cp, partial=False: explorer.test_equivalence(
            (2, 3), "any", "parallelogram-2", "flag",
            stop_after=1 if partial else None, checkpoint=cp,
        ),
        lambda cp, partial=False: conjecture_hunt(20 if partial else 30, seed=1, checkpoint=cp),
    ],
    ids=["equivalence", "conjecture"],
)
def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, run):
    cp = tmp_path / "cp.json"
    run(str(cp), partial=True)
    stored = cp.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(explorer.json, "dump", _interrupted_dump)
        with pytest.raises(KeyboardInterrupt):
            run(str(cp))
    assert cp.read_bytes() == stored
    assert [f.name for f in tmp_path.iterdir()] == ["cp.json"]
    assert run(str(cp)) == run(None)


class TestConjectureHunt:
    def test_budget_zero(self):
        report = conjecture_hunt(0, seed=1)
        assert report.samples == 0 and report.ok

    def test_unit_cube_exhaustive(self):
        cube = PointSet.of(box_points((0, 0, 0), (1, 1, 1)))
        report = HuntReport(seed=0, budget=0)
        hunt_over_set(cube, report)
        assert report.partitions_checked == 127
        assert report.ok

    def test_terminal_simplex_excluded_by_filter(self):
        from latsep.convexity import is_integrally_convex
        from latsep.geometry import lattice_points_in_conv

        s = lattice_points_in_conv(
            PointSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 2), (-1, -1, -1)])
        )
        assert not is_integrally_convex(s).holds

    def test_seeded_run_deterministic(self):
        a = conjecture_hunt(8, seed=5)
        b = conjecture_hunt(8, seed=5)
        assert (a.samples, a.admitted_sets, a.partitions_checked) == (
            b.samples,
            b.admitted_sets,
            b.partitions_checked,
        )

    def test_checkpoint_resume_matches_fresh(self, tmp_path):
        cp = tmp_path / "hunt.json"
        conjecture_hunt(4, seed=3, checkpoint=str(cp))
        resumed = conjecture_hunt(10, seed=3, checkpoint=str(cp))
        fresh = conjecture_hunt(10, seed=3)
        assert (resumed.samples, resumed.admitted_sets, resumed.partitions_checked) == (
            fresh.samples,
            fresh.admitted_sets,
            fresh.partitions_checked,
        )

    def test_resume_after_a_periodic_save_matches_fresh(self, tmp_path, monkeypatch):
        # the hunt saves as the sweep does, every 64 samples and at the
        # end; one cut off right after its first save resumes from it to
        # the report of an uncut hunt
        cp = tmp_path / "hunt.json"
        save = explorer._save_checkpoint

        class Cut(Exception):
            pass

        def save_then_cut(*args, **kwargs):
            save(*args, **kwargs)
            raise Cut

        with monkeypatch.context() as patch:
            patch.setattr(explorer, "_save_checkpoint", save_then_cut)
            with pytest.raises(Cut):
                conjecture_hunt(100, seed=1, checkpoint=str(cp))
        assert json.loads(cp.read_text())["cursor"] == 64
        assert conjecture_hunt(100, seed=1, checkpoint=str(cp)) == conjecture_hunt(100, seed=1)

    def test_checkpoint_of_other_settings_is_refused(self, tmp_path):
        cp = tmp_path / "hunt.json"
        conjecture_hunt(12, seed=1, box=2, checkpoint=str(cp))
        stored = cp.read_bytes()
        held = 'box=2, kind="conjecture", max_set_size=12, seed=1'
        for seed, box, max_set_size in ((1, 5, 4), (1, 5, 12), (1, 2, 4), (2, 2, 12)):
            with pytest.raises(InstanceFormatError, match=re.escape(held)):
                conjecture_hunt(
                    12, seed=seed, box=box, max_set_size=max_set_size, checkpoint=str(cp)
                )
            assert cp.read_bytes() == stored
        with pytest.raises(InstanceFormatError, match=re.escape(held)):
            explorer.test_equivalence((2, 2), "any", "ray", "flag", checkpoint=str(cp))
        assert cp.read_bytes() == stored


def _brute_force_masks(s, k):
    """Reference for parallelogram_masks: one check per bipartition."""
    return [mask for mask, p in enumerate(bipartitions(s)) if check_parallelogram(p, k).holds]


def _brute_force_hunt(s):
    """Reference for hunt_over_set: the 3-parallelogram check and flag
    search on every bipartition."""
    report = HuntReport(seed=0, budget=0)
    for p in bipartitions(s):
        report.partitions_checked += 1
        if check_parallelogram(p, 3).holds and not search_flag(p).holds:
            report.counterexamples.append(
                Violation(
                    s.points, p.a.points, p.b.points, "parallelogram-3", "flag", True, False
                )
            )
    return report


@st.composite
def _small_sets(draw):
    dim = draw(st.sampled_from((2, 3)))
    size = draw(st.integers(1, 12))
    point = st.tuples(*[st.integers(0, 3)] * dim)
    return PointSet.of(draw(st.lists(point, min_size=size, max_size=size, unique=True)), dim)


class TestClausePrunedHunt:
    """parallelogram_masks and hunt_over_set against brute force."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_small_sets(), st.sampled_from((2, 3)))
    def test_masks_match_brute_force(self, s, k):
        assert parallelogram_masks(s, k) == _brute_force_masks(s, k)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_small_sets())
    def test_hunt_matches_brute_force(self, s):
        report = HuntReport(seed=0, budget=0)
        hunt_over_set(s, report)
        expected = _brute_force_hunt(s)
        assert report.partitions_checked == expected.partitions_checked
        assert report.counterexamples == expected.counterexamples

    @pytest.mark.parametrize("dims, count", [((2, 2, 3), 148), ((3, 3, 2), 441)])
    def test_boxes_match_brute_force(self, dims, count):
        box = PointSet.of(box_points((0, 0, 0), [d - 1 for d in dims]))
        masks = parallelogram_masks(box, 3)
        assert len(masks) == count
        assert masks == _brute_force_masks(box, 3)
        report = HuntReport(seed=0, budget=0)
        hunt_over_set(box, report)
        assert report.partitions_checked == 2 ** (len(box) - 1) - 1
        assert report.ok

    def test_box_333_exhaustive(self, monkeypatch):
        # 2**26 - 1 partitions; brute force would take hours
        box = PointSet.of(box_points((0, 0, 0), (2, 2, 2)))
        assert len(parallelogram_masks(box, 3)) == 1350
        lps = []
        monkeypatch.setattr(explorer, "search_flag", lambda p: lps.append(p) or search_flag(p))
        report = HuntReport(seed=0, budget=0)
        hunt_over_set(box, report)
        assert report.partitions_checked == 2**26 - 1
        assert report.ok
        # the other 1,076 are threshold cuts of the 274 functionals found
        assert len(lps) == 274

    def test_empty_and_one_point_sets(self):
        for pts in ([], [(0, 0)]):
            s = PointSet.of(pts, 2)
            report = HuntReport(seed=0, budget=0)
            hunt_over_set(s, report)
            assert parallelogram_masks(s, 3) == [] and report.partitions_checked == 0


def _cut_sets():
    """Seeded sets of at most 8 points in Z^2-Z^4 on which many points
    share a functional's value: random ones, collinear, coplanar, and
    subsets of 0/1 boxes."""
    rng = random.Random(27)
    sets = []
    for dim in (2, 3, 4):
        corners = list(box_points((0,) * dim, (1,) * dim))
        for _ in range(6):
            base, u, v = (tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(3))
            spots = rng.sample(range(-3, 4), rng.randint(2, 6))
            line = [tuple(b + t * x for b, x in zip(base, u)) for t in spots]
            plane = [
                tuple(b + i * x + j * y for b, x, y in zip(base, u, v))
                for i, j in rng.sample([(i, j) for i in range(3) for j in range(3)], 7)
            ]
            sets += [
                [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(2, 8))],
                line,
                plane,
                rng.sample(corners, min(len(corners), rng.randint(2, 8))),
            ]
    return [PointSet.of(pts, len(pts[0])) for pts in sets if len(set(pts)) > 1]


class TestThresholdCuts:
    """The cuts that let the hunt skip an LP, and the hunt that uses them."""

    def test_every_cut_is_flag_separable(self):
        rng = random.Random(5)
        cuts = 0
        for s in _cut_sets():
            normals = [tuple(rng.randint(-2, 2) for _ in range(s.dim)) for _ in range(3)]
            for mask in range(0, (1 << len(s) - 1) - 1, 5):
                verdict = search_flag(explorer._split(s, mask))
                if verdict.holds:
                    normals.append(verdict.witness.functionals[0].normal)
            for normal in normals:
                values = {sum(map(mul, normal, q)) for q in s.points}
                masks = explorer._threshold_cuts(s, normal)
                assert len(masks) == len(values) - 1
                for mask in masks:
                    assert 0 <= mask < (1 << len(s) - 1) - 1
                    p = explorer._split(s, mask)
                    assert oracle_flag_separable(p.a.points, p.b.points)
                    cuts += 1
        assert cuts > 1000

    def test_hunt_matches_brute_force_in_z4(self):
        # the 0/1 cube of Z^4 holds counterexamples, such as {0, 1111}
        # against the unit vectors; plant images of that one under the
        # cube's symmetries, with up to two more corners, among random
        # subsets of at most 8 corners
        rng = random.Random(11)
        corners = list(box_points((0,) * 4, (1,) * 4))
        core = [(0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        found = 0
        for n in range(30):
            if n % 2:
                pts = rng.sample(corners, rng.randint(2, 8))
            else:
                axes = rng.sample(range(4), 4)
                flips = [rng.randint(0, 1) for _ in range(4)]
                pts = [tuple(q[a] ^ f for a, f in zip(axes, flips)) for q in core]
                pts += rng.sample([q for q in corners if q not in pts], rng.randint(0, 2))
            s = PointSet.of(pts, 4)
            report = HuntReport(seed=0, budget=0)
            hunt_over_set(s, report)
            expected = _brute_force_hunt(s)
            assert report.partitions_checked == expected.partitions_checked
            assert report.counterexamples == expected.counterexamples
            found += len(report.counterexamples)
        assert found >= 5


def test_violation_round_trips_through_json():
    v = Violation(((0, 0), (1, 1)), ((0, 0),), ((1, 1),), "ray", "flag", True, False)
    assert Violation.from_dict(json.loads(json.dumps(v.as_dict()))) == v
