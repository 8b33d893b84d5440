"""latsep benchmark: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a latsep checkout; the library is imported from its
``src/`` and the independent oracles from ``tests/oracles.py``.

With ``--trace 0`` the run times whole passes over the workload until
``--seconds`` of passes have run (at least one pass), checks every
verdict outside the timing, and reports the end-to-end metrics, with
times scaled to a reference machine speed by ``speed.py``.  With
``--trace 1`` it runs one plain pass and two traced passes, requires
identical call counts from the two traced passes, and reports the
per-layer metrics.  Human readable lines come first; the last line of
stdout is the JSON result.
The exit code is 0 only when every verdict checked out.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 9  # fresh processes timed for setup_s
SETUP_PROBES = 25  # speed probes timed in each set-up child
TRACED_PASSES = 2  # their call counts must agree exactly

# Child process: import latsep and build the workload's inputs, timed; then
# time speed probes in the same process, for scaling.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].setup({seed!r})
seconds = time.perf_counter() - start
import speed, statistics
print(seconds, statistics.median(speed.probe() for _ in range({probes!r})))
"""


def fresh_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """One child's set-up time: (raw, scaled to the reference speed)."""
    code = SETUP_CHILD.format(
        src=str(ROOT / "src"), bench=str(BENCH), name=name, seed=seed, probes=SETUP_PROBES
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    raw, probe_s = map(float, done.stdout.strip().splitlines()[-1].split())
    return raw, raw * speed.REF_PROBE_S / probe_s


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_pass(workload, inputs):
    gc.collect()
    start = time.perf_counter()
    outcome = workload.run_pass(inputs)
    return time.perf_counter() - start, outcome


def probed_pass(workload, inputs):
    """A pass timed under speed probes: (speed.Timing, outcome)."""
    gc.collect()
    return speed.timed(workload.run_pass, inputs)


class Tally:
    """Verdicts attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, checked) -> None:
        attempted, failed, problems = checked
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def result(self, metrics) -> dict:
        print(f"error_rate {self.failed / self.attempted:.6g} ratio "
              f"({self.failed} failed of {self.attempted})")
        for problem in self.problems[:20]:
            print(f"FAILED: {problem}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def timed_run(workload, check, seed: int, seconds: float) -> dict:
    setups = [fresh_setup_seconds(workload.name, seed) for _ in range(SETUP_SAMPLES)]
    inputs = workload.setup(seed)
    tally = Tally()
    timings = []
    while not timings or sum(t.raw_s for t in timings) < seconds:
        timing, outcome = probed_pass(workload, inputs)
        timings.append(timing)
        tally.add(check(inputs, outcome))
    wall_s = statistics.median(t.scaled_s for t in timings)
    metrics = {
        "setup_s": metric(statistics.median(scaled for _, scaled in setups), "s"),
        "wall_s": metric(wall_s, "s"),
        "verdicts_per_s": metric(workload.throughput(outcome) / wall_s, "1/s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    probes = [p for t in timings for p in t.probes]
    print(f"workload {workload.name} seed {seed}")
    print(f"pass times {[round(t.raw_s, 4) for t in timings]} s raw, "
          f"{[round(t.scaled_s, 4) for t in timings]} s scaled")
    print(f"speed probes: {len(probes)}, median {statistics.median(probes) * 1e3:.3f} ms, "
          f"range {min(probes) * 1e3:.3f} to {max(probes) * 1e3:.3f} ms "
          f"(reference {speed.REF_PROBE_S * 1e3:.3f} ms)")
    print(f"setup times {[round(raw, 4) for raw, _ in setups]} s raw, "
          f"{[round(scaled, 4) for _, scaled in setups]} s scaled")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if workload.name == "conjecture-hunt":
        print(f"partitions_per_s {metrics['verdicts_per_s']['value']:.6g} 1/s")
    return tally.result(metrics)


def traced_run(workload, check, seed: int) -> dict:
    from tracer import LAYERS, Tracer

    inputs = workload.setup(seed)
    tally = Tally()
    untraced_s, outcome = timed_pass(workload, inputs)
    tally.add(check(inputs, outcome))

    tracer = Tracer()
    tracer.install()
    for span in tracer.missing:
        print(f"note: latsep has no {span}; it reads 0 calls")
    traced_s, stats = [], []
    for _ in range(TRACED_PASSES):
        tracer.reset()
        seconds_taken, outcome = timed_pass(workload, inputs)
        traced_s.append(seconds_taken)
        stats.append({span: list(stat) for span, stat in tracer.stats.items()})
        tally.add(check(inputs, outcome))

    calls = {span: stat[0] for span, stat in stats[0].items()}
    differ = sorted(span for span in calls if any(s[span][0] != calls[span] for s in stats))
    if differ:
        tally.fail(f"call counts differ between traced passes: {differ}")
    layer_calls = {
        layer: sum(calls[f"{layer}.{name}"] for name in names) for layer, names in LAYERS.items()
    }
    for layer in workload.active_layers:
        if layer_calls[layer] == 0:
            tally.fail(f"layer {layer} is active on {workload.name} but made 0 calls")

    def mean(values):
        return sum(values) / len(values)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for span in calls:
        metrics[f"{span}.calls"] = metric(calls[span], "count")
        metrics[f"{span}.self_s"] = metric(mean([s[span][2] for s in stats]), "s")
        metrics[f"{span}.total_s"] = metric(mean([s[span][1] for s in stats]), "s")
    for layer, names in LAYERS.items():
        self_s = sum(metrics[f"{layer}.{name}.self_s"]["value"] for name in names)
        metrics[f"{layer}.self_s"] = metric(self_s, "s")

    report = outcome[0] if workload.name == "conjecture-hunt" else None
    samples, admitted, partitions = (
        (report.samples, report.admitted_sets, report.partitions_checked) if report else (0, 0, 0)
    )
    for name, value, unit in (
        ("convexity.k_convex_hull.points_added", tracer.points_added, "count"),
        ("convexity.k_convex_hull.added_per_simplex",
         ratio(tracer.points_added, calls["convexity.simplex_lattice_points"]), "ratio"),
        ("exactlp.minimize_per_search",
         ratio(calls["exactlp.EqualityFeasibility.minimize"], calls["conditions.search_flag"]),
         "ratio"),
        ("explorer.samples", samples, "count"),
        ("explorer.admitted_sets", admitted, "count"),
        ("explorer.admit_ratio", ratio(admitted, samples), "ratio"),
        ("explorer.partitions_checked", partitions, "count"),
        ("explorer.flag_reach_ratio", ratio(calls["conditions.search_flag"], partitions), "ratio"),
        ("tracing_overhead_s", mean(traced_s) - untraced_s, "s"),
    ):
        metrics[name] = metric(value, unit)

    print(f"workload {workload.name} seed {seed}: traced")
    print(f"plain pass {untraced_s:.4f} s, traced passes {[round(t, 4) for t in traced_s]} s")
    for layer, n in layer_calls.items():
        print(f"layer {layer}: {n} calls, {metrics[f'{layer}.self_s']['value']:.4f} s self")
    for span in sorted(calls, key=lambda s: -metrics[f"{s}.self_s"]["value"]):
        if calls[span]:
            print(f"  {span}: {calls[span]} calls, "
                  f"{metrics[f'{span}.self_s']['value']:.4f} s self, "
                  f"{metrics[f'{span}.total_s']['value']:.4f} s total")
    return tally.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "latsep" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a latsep checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import latsep

    if Path(latsep.__file__).resolve().parent != ROOT / "src" / "latsep":
        print(f"error: imported latsep from {latsep.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from checks import CHECKS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    check = CHECKS[args.workload]
    if args.trace:
        result = traced_run(workload, check, args.seed)
    else:
        result = timed_run(workload, check, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
