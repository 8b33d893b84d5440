"""The benchmark's workloads: inputs built from a seed, and one timed pass.

A pass calls into latsep through module attributes only, so that the
tracer's wrappers are the functions it reaches.  Each verdict is taken
with ``attempt``: an exception is kept as that verdict's outcome and the
pass goes on, so that the checks can count it as a failed verdict.
"""

from __future__ import annotations

import itertools
import random

from latsep import catalog, conditions, convexity, explorer
from latsep.geometry import PointSet


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed verdict by the checks
        return exc


class WindowLadder:
    """The paper's two flag-separable windowed half-planes.

    A few large instances (441 to 3,721 points): the time goes to the
    parallelogram check, to LPs with thousands of columns in flag search
    and to the line sweep of the ray check.  The instances are fixed, so
    the seed is not used.
    """

    name = "window-ladder"
    active_layers = ("linalg", "exactlp", "geometry", "conditions")
    RAY_N = 10
    LADDER_N = (20, 30)
    WINDOWS = (
        ("sqrt2", lambda n: (catalog.sqrt2_halfplane_window(n), catalog.sqrt2_window_flag(n))),
        ("quarter", lambda n: (catalog.quarter_boundary_window(n), catalog.quarter_boundary_flag())),
    )

    def setup(self, seed):
        """(label, partition, stored flag or None for a ray case) per case."""
        cases = []
        for label, build in self.WINDOWS:
            cases.append((f"{label}@{self.RAY_N}", build(self.RAY_N)[0], None))
            for n in self.LADDER_N:
                cases.append((f"{label}@{n}", *build(n)))
        return cases

    def run_pass(self, cases):
        verdicts = []
        for label, partition, flag in cases:
            if flag is None:
                verdicts.append((label, "ray", attempt(conditions.check_ray, partition)))
                continue
            verdicts.append(
                (label, "par2", attempt(conditions.check_parallelogram, partition, 2))
            )
            verdicts.append((label, "search", attempt(conditions.search_flag, partition)))
            verdicts.append(
                (label, "verify", attempt(conditions.verify_flag, partition, flag))
            )
        return verdicts

    def throughput(self, verdicts):
        return len(verdicts)


class HoleTower:
    """Hole classification of the paper's 13-7-4 and 5-4-3 simplices.

    One deep closure sweep: the k=2 step enumerates about 2.3e5 triangles
    of the 13-7-4 simplex, so hull closure and tiny rank computations do
    nearly all the work.  The instances are fixed; the seed is not used.
    """

    name = "hole-tower"
    active_layers = ("linalg", "convexity")
    SIMPLICES = {
        "13-7-4": ((0, 0, 0), (13, 0, 0), (0, 7, 0), (0, 0, 4)),
        "5-4-3": ((0, 0, 0), (5, 0, 0), (0, 4, 0), (0, 0, 3)),
    }

    def setup(self, seed):
        return {label: PointSet.of(gens, 3) for label, gens in self.SIMPLICES.items()}

    def run_pass(self, simplices):
        return [
            (label, "holes", attempt(convexity.classify_holes, s))
            for label, s in simplices.items()
        ]

    def throughput(self, verdicts):
        """Holes classified."""
        return sum(len(v) for _, _, v in verdicts if isinstance(v, list))


class ConjectureHunt:
    """Thousands of tiny instances: the integral-convexity filter on small
    subsets of Z^3, then the 3-parallelogram condition and flag search on
    every bipartition of the admitted sets.

    The candidates come from the seed, drawn like the explorer's
    clipped-box samples.  The explorer's own random samples are heavy
    tailed: one admitted 12-point set holds 2,047 partitions, so a pass
    of 100 samples varied by about a quarter from seed to seed.  The
    pass is therefore stratified by set size: for each size from 2 to 12
    it filters FILTER_QUOTA candidates and hunts over HUNT_QUOTA admitted
    sets, filtering more only while fewer have been admitted.
    """

    name = "conjecture-hunt"
    active_layers = ("linalg", "exactlp", "geometry", "conditions", "convexity", "explorer")
    SIZES = range(2, 13)
    FILTER_QUOTA = 10
    HUNT_QUOTA = 3
    POOL = 30  # candidates drawn per size; far more than the quotas need

    @staticmethod
    def candidate(rng):
        """Grid points of a box with sides 1 or 2, clipped by one to three
        half-spaces with normals in [-2, 2]^3."""
        dims = [rng.randint(1, 2) for _ in range(3)]
        pts = list(itertools.product(*(range(d + 1) for d in dims)))
        for _ in range(rng.randint(1, 3)):
            normal = tuple(rng.randint(-2, 2) for _ in range(3))
            if normal == (0, 0, 0):
                continue
            vals = [sum(a * b for a, b in zip(normal, p)) for p in pts]
            cut = rng.randint(min(vals), max(vals))
            kept = [p for p, v in zip(pts, vals) if v <= cut]
            if len(kept) >= 2:
                pts = kept
        return pts

    def setup(self, seed):
        rng = random.Random(seed)
        pools = {size: [] for size in self.SIZES}
        missing = len(pools) * self.POOL
        while missing:
            pts = self.candidate(rng)
            pool = pools.get(len(pts))
            if pool is not None and len(pool) < self.POOL:
                pool.append(PointSet.of(pts, 3))
                missing -= 1
        return seed, pools

    def run_pass(self, inputs):
        """Returns the pass's HuntReport, the hunted sets and the
        verdicts that raised."""
        seed, pools = inputs
        report = explorer.HuntReport(seed=seed, budget=len(pools) * self.FILTER_QUOTA)
        hunted_sets = []
        errors = []
        for size, pool in pools.items():
            filtered = hunted = 0
            for s in pool:
                if filtered >= self.FILTER_QUOTA and hunted >= self.HUNT_QUOTA:
                    break
                filtered += 1
                report.samples += 1
                verdict = attempt(convexity.is_integrally_convex, s)
                if isinstance(verdict, Exception):
                    errors.append((s, verdict))
                    continue
                if not verdict.holds:
                    continue
                report.admitted_sets += 1
                if hunted < self.HUNT_QUOTA:
                    hunted += 1
                    hunted_sets.append(s)
                    outcome = attempt(explorer.hunt_over_set, s, report)
                    if isinstance(outcome, Exception):
                        errors.append((s, outcome))
            if hunted < self.HUNT_QUOTA:
                errors.append((size, RuntimeError("candidate pool exhausted")))
        return report, hunted_sets, errors

    def throughput(self, outcome):
        """Partitions checked: HuntReport.partitions_checked."""
        return outcome[0].partitions_checked


WORKLOADS = {w.name: w for w in (WindowLadder(), HoleTower(), ConjectureHunt())}
