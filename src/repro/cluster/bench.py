"""Cluster scaling harness: shard-count efficiency and the 10k-node day.

Seeds ``BENCH_cluster.json`` (mirroring ``BENCH_parallel.json``): every
future PR touching the cluster path reruns this and compares.  Two
probes:

- **scaling**: one fixed topology simulated serially and then with 1,
  2, and 4 process shards — wall clock, in-worker busy time, parallel
  efficiency, and a bit-identity check of every run's merged metrics
  against the serial baseline (the shard-count-invariance guarantee,
  measured rather than assumed).
- **day**: a 10,000-node cluster (2500 cells x 4 nodes) replaying the
  checked-in golden 24 h trace with the fluid cold-cell model on —
  the headline "a cluster-day in minutes" number.

Nothing here prints; the CLI (``python -m repro bench --cluster``)
renders the returned dict and writes the JSON file via
:func:`repro.parallel.bench.write_bench`.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from typing import Any, Dict, Optional, Sequence

from ..core.config import ServerConfig
from ..parallel.executor import usable_cpus
from ..workload import Workload
from .config import EXEC_PROCESS, ClusterConfig
from .runner import ClusterResult, run_cluster_experiment

__all__ = ["GOLDEN_DAY_TRACE", "bench_day", "bench_scaling", "run_cluster_bench"]

#: Bump when the harness shape changes incompatibly.
SCHEMA_VERSION = 1

#: The checked-in golden 24 h trace (relative to the repository root,
#: where CI and the bench CLI run).
GOLDEN_DAY_TRACE = os.path.join(
    "tests", "workload", "golden", "day.jsonl.gz")


def _fingerprint(result: ClusterResult) -> Dict[str, Any]:
    """Small stable signature of a run's merged metrics."""
    metrics = result.metrics
    return {
        "issued": result.issued,
        "completed": metrics.completed,
        "throughput": metrics.throughput,
        "latency_mean": metrics.latency.mean,
        "latency_p99": metrics.latency.p99,
    }


def bench_scaling(
    shard_counts: Sequence[int] = (1, 2, 4),
    *,
    cells: int = 8,
    nodes_per_cell: int = 2,
    rate: float = 400.0,
    duration_seconds: float = 30.0,
    seed: int = 0,
) -> Dict[str, Any]:
    """Serial baseline vs N process shards on one fixed topology."""
    workload = Workload.constant(rate, duration_seconds=duration_seconds)
    server = ServerConfig()
    base = ClusterConfig(cells=cells, nodes_per_cell=nodes_per_cell)
    serial = run_cluster_experiment(server, base, workload, seed=seed)
    runs = []
    for shards in shard_counts:
        result = run_cluster_experiment(
            server,
            base.with_overrides(shards=shards, execution=EXEC_PROCESS),
            workload, seed=seed,
        )
        runs.append({
            "shards": result.shard_count,
            "workers": result.workers,
            "wall_seconds": result.wall_seconds,
            "busy_seconds": result.busy_seconds,
            "parallel_efficiency": result.parallel_efficiency,
            "speedup_vs_serial": (
                serial.wall_seconds / result.wall_seconds
                if result.wall_seconds > 0 else 0.0
            ),
            "bit_identical": result.metrics == serial.metrics,
        })
    return {
        "cells": cells,
        "nodes_per_cell": nodes_per_cell,
        "node_count": base.node_count,
        "offered_rate": rate,
        "duration_seconds": duration_seconds,
        "requests": serial.completed,
        "epochs": serial.epochs,
        "serial_wall_seconds": serial.wall_seconds,
        "fingerprint": _fingerprint(serial),
        "runs": runs,
    }


def bench_day(
    trace_path: str = GOLDEN_DAY_TRACE,
    *,
    cells: int = 2500,
    nodes_per_cell: int = 4,
    seed: int = 0,
) -> Optional[Dict[str, Any]]:
    """Replay the golden 24 h day against a 10k-node cluster.

    Traffic hashes across 2500 cells, so nearly every cell stays cold:
    the fluid model serves the long tail analytically and only hot
    cells pay for discrete-event simulation.  Returns ``None`` when the
    golden trace is not on disk (running outside the repository).
    """
    if not os.path.exists(trace_path):
        return None
    workload = Workload.replay(trace_path)
    cluster = ClusterConfig(
        cells=cells, nodes_per_cell=nodes_per_cell,
        fluid=True, fluid_hot_threshold=8, fluid_hot_window_seconds=1.0,
    )
    start = time.perf_counter()
    result = run_cluster_experiment(
        ServerConfig(), cluster, workload, seed=seed)
    wall = time.perf_counter() - start
    return {
        "trace": trace_path,
        "node_count": cluster.node_count,
        "cells": cells,
        "nodes_per_cell": nodes_per_cell,
        "issued": result.issued,
        "completed": result.completed,
        "fluid_served": result.fluid_served,
        "cells_touched": result.cells_touched,
        "epochs": result.epochs,
        "simulated_seconds": 86400.0,
        "wall_seconds": wall,
        "fingerprint": _fingerprint(result),
    }


def run_cluster_bench(smoke: bool = False) -> Dict[str, Any]:
    """Full harness; ``smoke=True`` shrinks the scaling probe for CI."""
    if smoke:
        scaling = bench_scaling(rate=300.0, duration_seconds=8.0)
    else:
        scaling = bench_scaling()
    return {
        "schema_version": SCHEMA_VERSION,
        "smoke": smoke,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": sys.platform,
            "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
        },
        "scaling": scaling,
        "day": bench_day(),
    }
