"""Pin the simulated-output digests the benchmark checks against.

    python3 perfbench/pin.py --seeds 0-20

Runs every call of each workload's cycle twice per seed, refuses to pin
unless both runs agree and pass the workload's invariants, and writes
``digests.json``.  Re-pin only when a change is meant to alter simulated
results; a mismatch from a change that is not meant to is a bug.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

import run
import workloads


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def cycle_digests(name: str, seed: int) -> List[str]:
    bench = workloads.build(name, seed, run.WORK_DIR)
    try:
        runs = []
        for _ in range(2):
            outcomes = [bench.inspect(i, bench.invoke(i)) for i in range(len(bench))]
            problems = [p for outcome in outcomes for p in outcome.problems]
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            runs.append([outcome.digest for outcome in outcomes])
    finally:
        bench.close()
    if runs[0] != runs[1]:
        raise SystemExit(f"{name} seed {seed}: two runs disagree; not deterministic")
    return runs[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,2,5-9")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    run.import_repro()
    with open(run.DIGESTS) as handle:
        pinned = json.load(handle)
    try:
        for name in args.workload or workloads.WORKLOADS:
            for seed in parse_seeds(args.seeds):
                pinned["workloads"].setdefault(name, {})[str(seed)] = cycle_digests(name, seed)
                print(f"pinned {name} seed {seed}", flush=True)
    finally:
        run.stop_children()
    with open(run.DIGESTS, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if os.path.isdir(run.WORK_DIR) and not os.listdir(run.WORK_DIR):
        os.rmdir(run.WORK_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
