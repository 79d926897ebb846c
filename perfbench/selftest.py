"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py [--workload NAME ...]

- a perturbed simulated output fails the digest check;
- the traced run's per-request counts repeat exactly across two runs;
- traced and untraced calls produce the same digest (``run_traced``
  checks every call of its untraced, base and profiled passes against
  one expected digest);
- the host-speed probe imports nothing from ``repro``;
- without ``src/repro`` the benchmark exits non-zero and prints no result;
- a ``cluster_day`` run leaves no process behind;
- ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py`` reports.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from typing import List

import run
import workloads

SEED = 1


def check_metric_names() -> List[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    errors = []
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.per_layer_units())):
        declared = {metric["name"]: metric["unit"] for metric in spec[key]}
        if declared != units:
            errors.append(f"{key}: BENCHMARK.json {declared} != run.py {units}")
    declared = [workload["name"] for workload in spec["workloads"]]
    if declared != list(workloads.WORKLOADS):
        errors.append(f"workloads: BENCHMARK.json {declared} != {workloads.WORKLOADS}")
    return errors


def check_perturbed_output_fails() -> List[str]:
    bench = workloads.build("figure_sweep", SEED, run.WORK_DIR)
    pinned = workloads.pinned_digests(run.DIGESTS, "figure_sweep", SEED)
    raw = bench.invoke(0)
    judge = run.Judge(pinned, len(bench))
    errors = []
    if not judge.record(0, bench.inspect(0, raw)):
        errors.append(f"unperturbed output rejected: {judge.problems}")
    metrics = raw.metrics
    nudged = dataclasses.replace(
        metrics, window_seconds=math.nextafter(metrics.window_seconds, math.inf))
    if judge.record(0, bench.inspect(0, dataclasses.replace(raw, metrics=nudged))):
        errors.append("a one-ulp change of window_seconds passed the digest check")
    return errors


def check_traced_counts_repeat(name: str) -> List[str]:
    bench = workloads.build(name, SEED, run.WORK_DIR)
    try:
        pinned = workloads.pinned_digests(run.DIGESTS, name, SEED)
        counts = [metric for metric, unit in run.per_layer_units().items()
                  if unit == "count/request"]
        passes = []
        for _ in range(2):
            judge = run.Judge(pinned, len(bench))
            values, _notes = run.run_traced(bench, judge)
            if judge.failed:
                return [f"{name}: traced/untraced digests disagree: {judge.problems}"]
            passes.append({metric: values[metric][0] for metric in counts})
    finally:
        bench.close()
    return [f"{name}: {metric} {passes[0][metric]!r} then {passes[1][metric]!r}"
            for metric in counts if passes[0][metric] != passes[1][metric]]


def check_probe_imports_no_repro() -> List[str]:
    code = ("import sys; import probe; probe.measure(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))")
    result = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                            capture_output=True, text=True, timeout=60)
    if result.returncode != 0 or result.stdout.strip() != "[]":
        return [f"probe: exit {result.returncode}, repro modules {result.stdout.strip()}"]
    return []


def check_refuses_without_sources() -> List[str]:
    bare = os.path.join(run.WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fleet_diurnal",
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if result.returncode == 0 or result.stdout.strip():
        return [f"bare directory: exit {result.returncode}, stdout {result.stdout!r}"]
    return []


def check_leaves_no_process() -> List[str]:
    """A process-mode run leaves nothing in its session once it has exited."""
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "cluster_day",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    code = child.wait(timeout=180)
    left = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if entry.isdigit() and int(fields[3]) == child.pid:  # fields[3] is the session id
            left.append(entry)
    errors = [f"exit {code}"] if code != 0 else []
    return errors + [f"process {pid} outlived the run" for pid in left]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    run.import_repro()
    checks = [("BENCHMARK.json names the metrics run.py prints", check_metric_names),
              ("perturbed output fails the digest check", check_perturbed_output_fails)]
    for name in args.workload or workloads.WORKLOADS:
        checks.append((f"{name}: traced counts repeat, traced digest matches untraced",
                       lambda name=name: check_traced_counts_repeat(name)))
    checks.append(("host-speed probe imports nothing from repro", check_probe_imports_no_repro))
    checks.append(("no sources: non-zero exit, no result", check_refuses_without_sources))
    checks.append(("a process-mode run leaves no process behind", check_leaves_no_process))
    failed = 0
    for title, check in checks:
        errors = check()
        failed += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {title}", flush=True)
        for error in errors:
            print(f"     {error}")
    if os.path.isdir(run.WORK_DIR) and not os.listdir(run.WORK_DIR):
        os.rmdir(run.WORK_DIR)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
