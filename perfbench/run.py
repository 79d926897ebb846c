"""Simulator cost ledger: host wall time spent producing simulated results.

Run one workload from the repository root::

    python3 perfbench/run.py --workload fleet_diurnal --seed 1 --seconds 20 --trace 0

``--trace 0`` times runner calls in a closed loop (call, wait, call the
next) for ``--seconds`` seconds.  It scales each call's wall time to a
reference host speed with the probe in ``probe.py``, then reports the
end-to-end metrics.  ``--trace 1`` runs one cycle of calls untraced,
then the same calls under cProfile, and reports the per-layer split.

Either way, every call's simulated output is checked against the digest
pinned for the seed in ``digests.json``.  An unpinned seed must repeat
its first digest.  The output is a table of metrics with units, then a
``ledger`` line with the host and the spread over repeats, and last one
JSON result line.  The exit code is 1 when any call failed or
mismatched.  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import itertools
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC, "repro")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Timed cycles a run makes at least, however short ``--seconds`` is.
MIN_CYCLES = 3
#: Seconds of runner calls between two host-speed probes.
PROBE_INTERVAL = 1.0

sys.path.insert(0, HERE)
import ledger  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "sim_requests_per_s": "requests/s",
    "point_s_p50": "s",
    "point_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    units = {f"{layer}.self_share": "ratio" for layer in ledger.LAYERS + ("other",)}
    units.update(dict.fromkeys(ledger.entry_points(), "count/request"))
    units.update({"telemetry.spans_per_request": "count/request", "parallel.busy_share": "ratio",
                  "parallel.setup_s": "s", "trace_overhead": "ratio"})
    return units


class BenchError(Exception):
    """The benchmark cannot run here (no sources, wrong package...)."""


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(REPRO_DIR, "__init__.py")):
        raise BenchError(f"no repro sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.realpath(repro.__file__)) != os.path.realpath(REPRO_DIR):
        raise BenchError(f"imported repro from {repro.__file__}, not {REPRO_DIR}")


def stop_children() -> None:
    """Wait for every process ``multiprocessing`` started, so none outlives the run.

    Process pools are joined when their sweep ends, but the resource
    tracker that a spawn pool starts is meant to outlive the interpreter
    that started it.  Stop it and reap it here.
    """
    for child in multiprocessing.active_children():
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def host_record() -> Dict[str, object]:
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "interpreter": platform.python_implementation(),
        "version": platform.python_version(),
        "machine": platform.machine(),
    }


def spread(samples: List[float]) -> Dict[str, float]:
    """Median and quartiles of the repeats behind one metric."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": len(samples)}


def percentile(samples: List[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


class Judge:
    """Checks each call's digest against the pinned (or first-seen) one."""

    def __init__(self, pinned: Optional[List[str]], calls: int) -> None:
        if pinned is not None and len(pinned) != calls:
            raise BenchError(f"{len(pinned)} pinned digests for {calls} calls")
        self.expected: List[Optional[str]] = list(pinned) if pinned else [None] * calls
        self.pinned = pinned is not None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, index: int, outcome: Optional[workloads.Outcome], error: str = "") -> bool:
        self.attempted += 1
        problems = [error] if error else list(outcome.problems)
        if outcome is not None:
            if self.expected[index] is None:
                self.expected[index] = outcome.digest
            elif outcome.digest != self.expected[index]:
                problems.append(
                    f"call {index}: digest {outcome.digest} != expected {self.expected[index]}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def timed_call(bench, index: int, judge: Judge, *, traced: bool = False,
               profile: Optional[cProfile.Profile] = None):
    """One runner call: (wall seconds, outcome), or None if it raised."""
    gc.collect()
    try:
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            raw = bench.invoke(index, traced=traced)
        finally:
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - start
        outcome = bench.inspect(index, raw)
    except Exception as exc:  # a failing call is counted, not fatal
        judge.record(index, None, f"call {index}: {type(exc).__name__}: {exc}")
        return None
    del raw
    judge.record(index, outcome)
    return wall, outcome


def measure_setup(name: str, seed: int) -> List[float]:
    """Seconds from starting a fresh interpreter to the first runner call."""
    times = []
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
        times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(bench, judge: Judge, seconds: float, setup: List[float]):
    """Closed loop of whole cycles for ``seconds`` (at least MIN_CYCLES).

    Each call's wall time is scaled to the reference host speed by the
    mean of the host-speed probes taken just before and just after it.
    """
    calls = len(bench)
    probe.measure()
    timed_call(bench, 0, judge)  # warm-up: lazy imports and first-run paths
    # peak_rss_mb is the peak through set-up and the first call of each
    # index.  Repeating a call adds only allocator fragmentation, which
    # some seeds' allocation order hits (+7 MB on fleet_diurnal) and
    # others do not.
    rss = peak_rss_mb()
    probes = [probe.measure()]
    last_probe = start = time.perf_counter()
    timed = []  # (cycle, index, wall, requests, probes taken before the call)
    for cycle in itertools.count(1):
        for index in range(calls):
            result = timed_call(bench, index, judge)
            if result is not None:
                timed.append((cycle, index, result[0], result[1].requests, len(probes)))
            if cycle == 1 and index == calls - 1 and calls > 1:
                rss = peak_rss_mb()
            if time.perf_counter() - last_probe >= PROBE_INTERVAL:
                probes.append(probe.measure())
                last_probe = time.perf_counter()
        if cycle >= MIN_CYCLES and time.perf_counter() - start >= seconds:
            break
    probes.append(probe.measure())

    walls: List[List[float]] = [[] for _ in range(calls)]
    raw_walls: List[List[float]] = [[] for _ in range(calls)]
    cycles: Dict[int, List[tuple]] = {}
    for cycle, index, wall, requests, before in timed:
        speed = (probes[before - 1] + probes[before]) / (2 * probe.REFERENCE_SECONDS)
        walls[index].append(wall / speed)
        raw_walls[index].append(wall)
        cycles.setdefault(cycle, []).append((wall / speed, requests))
    complete = [done for done in cycles.values() if len(done) == calls]
    if not complete:
        raise BenchError(f"no cycle completed without errors: {judge.problems[:3]}")
    requests = sum(count for _, count in complete[0])
    cycle_rates = [requests / sum(wall for wall, _ in done) for done in complete]
    samples = [wall for per_call in walls for wall in per_call]
    # Requests of one cycle over the sum of each call's median wall time:
    # a single slow repeat of one call cannot move the figure.
    rate = requests / sum(statistics.median(per_call) for per_call in walls)
    raw_rate = requests / sum(statistics.median(per_call) for per_call in raw_walls)
    values = {
        "sim_requests_per_s": (rate, cycle_rates),
        "point_s_p50": (statistics.median(samples), samples),
        "point_s_p90": (percentile(samples, 90), samples),
        "setup_s": (statistics.median(setup), setup),
        "peak_rss_mb": (rss, [rss]),
    }
    notes = [f"host speed: probe median {statistics.median(probes):.4f} s over {len(probes)} "
             f"probes (reference {probe.REFERENCE_SECONDS} s); unscaled sim_requests_per_s "
             f"{raw_rate:.6g}"]
    return values, notes


def run_traced(bench, judge: Judge):
    """Untraced then profiled cycle of the same calls; per-layer metrics."""
    calls = len(bench)
    plain, base_wall, traced_wall, requests, spans = [], 0.0, 0.0, 0, 0
    for index in range(calls):
        result = timed_call(bench, index, judge)
        if result is not None:
            plain.append(result[1])
    for index in range(calls):
        result = timed_call(bench, index, judge, traced=True)
        if result is not None:
            base_wall += result[0]
    profile = cProfile.Profile()
    for index in range(calls):
        result = timed_call(bench, index, judge, traced=True, profile=profile)
        if result is not None:
            traced_wall += result[0]
            requests += result[1].requests
            spans += result[1].spans
    if not requests or not base_wall:
        raise BenchError("no traced call completed")
    seconds, counts = ledger.split(profile, REPRO_DIR)
    total = sum(seconds.values())
    values = {f"{layer}.self_share": seconds[layer] / total for layer in seconds}
    for metric, count in counts.items():
        values[metric] = count / requests
    values["telemetry.spans_per_request"] = spans / requests
    values["trace_overhead"] = traced_wall / base_wall

    notes = []
    pool = [outcome.host for outcome in plain if outcome.host]
    busy_share = pool_setup = 0.0
    if pool:
        busy_share = statistics.median(
            h["busy_seconds"] / (h["wall_seconds"] * h["workers"]) for h in pool)
        pool_setup = statistics.median(
            h["wall_seconds"] - h["busy_seconds"] / h["workers"] for h in pool)
        workers = max(h["workers"] for h in pool)
        usable = len(os.sched_getaffinity(0))
        if workers > usable:
            notes.append(f"parallel.busy_share not measurable: {workers} workers "
                         f"on {usable} usable CPUs")
    values["parallel.busy_share"] = busy_share
    values["parallel.setup_s"] = pool_setup
    return {name: (value, [value]) for name, value in values.items()}, notes


def report(args, units: Dict[str, str], values, notes: List[str], judge: Judge) -> int:
    correct = judge.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"digests {'pinned' if judge.pinned else 'self-consistent'}")
    print(f"{'metric':38s} {'value':>14s}  {'unit':14s} {'q1':>12s} {'q3':>12s} {'n':>5s}")
    ledger_metrics = {}
    for name, unit in units.items():
        value, samples = values[name]
        stats = spread(samples)
        ledger_metrics[name] = {"value": value, "unit": unit, **stats}
        print(f"{name:38s} {value:14.6g}  {unit:14s} {stats['q1']:12.6g} "
              f"{stats['q3']:12.6g} {stats['samples']:5d}")
    failed_share = judge.failed / judge.attempted
    print(f"{'failed_share':38s} {failed_share:14.6g}  {'ratio':14s} "
          f"({judge.failed} of {judge.attempted} runner calls)")
    for line in notes + judge.problems[:20]:
        print(f"note: {line}")
    if len(judge.problems) > 20:
        print(f"note: ... {len(judge.problems) - 20} more problems in the ledger line")
    print("ledger " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_record(), "failed_share": failed_share,
        "metrics": ledger_metrics, "notes": notes + judge.problems,
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return run(args)
    finally:
        stop_children()


def run(args) -> int:
    try:
        import_repro()
        if args.setup_only:
            bench = workloads.build(args.workload, args.seed, WORK_DIR)
            print("ready", flush=True)
            bench.close()
            return 0
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
        bench = workloads.build(args.workload, args.seed, WORK_DIR)
        try:
            judge = Judge(workloads.pinned_digests(DIGESTS, args.workload, args.seed),
                          len(bench))
            if args.trace:
                values, notes = run_traced(bench, judge)
                units = per_layer_units()
            else:
                values, notes = run_untraced(bench, judge, args.seconds, setup)
                units = END_TO_END_UNITS
        finally:
            bench.close()
            if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
                os.rmdir(WORK_DIR)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return report(args, units, values, notes, judge)


if __name__ == "__main__":
    sys.exit(main())
