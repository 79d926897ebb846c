"""Per-layer cost ledger: cProfile self time split across ``repro.<package>``.

A traced run profiles the runner calls only.  Every profiled function's
self time is charged to the ``repro`` package its source file lives in;
anything else (the standard library, builtins such as ``heapq`` and
``random``, packages this ledger does not name, the benchmark itself)
is charged to ``other``, so the shares add up to the whole profile.
Call counts of a few named entry points give the deterministic
per-request work figures.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

#: Layers reported as ``<layer>.self_share``; the rest of the profile is ``other``.
LAYERS = (
    "sim", "kernel", "core", "serving", "hardware", "vision", "models",
    "workload", "brokers", "apps", "telemetry", "cluster", "parallel",
)

Key = Tuple[str, int, str]


def _key(function) -> Key:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def entry_points() -> Dict[str, Tuple[Key, ...]]:
    """Per-request count metric -> profile keys whose calls it adds up."""
    from repro.core.batcher import DynamicBatcher
    from repro.models.dnn import inference_cost
    from repro.sim.engine import Environment
    from repro.sim.process import Process
    from repro.sim.resources import Request
    from repro.sim.stores import FilterStore, Store

    return {
        # Every scheduled event: pooled timeouts plus explicit schedules.
        "sim.events_per_request": tuple(map(_key, (
            Environment.timeout, Environment.schedule, Environment.schedule_at))),
        "sim.process_spawns_per_request": (_key(Process.__init__),),
        # PriorityRequest.__init__ chains to Request.__init__: one count each.
        "sim.resource_requests_per_request": (_key(Request.__init__),),
        "sim.store_ops_per_request": tuple(map(_key, (Store.put, Store.get, FilterStore.get))),
        "core.batches_per_request": (_key(DynamicBatcher.next_batch),),
        # inference_latency() delegates to inference_cost(): one count per evaluation.
        "models.cost_calls_per_request": (_key(inference_cost),),
    }


def layer_of(filename: str, repro_dir: str) -> str:
    """The ledger layer a source file belongs to."""
    rel = os.path.relpath(filename, repro_dir) if os.path.isabs(filename) else ".."
    parts = rel.split(os.sep)
    if parts[0] != ".." and len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return "other"


def split(profile, repro_dir: str) -> Tuple[Dict[str, float], Dict[str, int]]:
    """(self seconds per layer incl. ``other``, calls per count metric) of a profile."""
    stats = pstats.Stats(profile)
    seconds = dict.fromkeys(LAYERS + ("other",), 0.0)
    for (filename, _line, _name), (_cc, _nc, self_time, _ct, _callers) in stats.stats.items():
        seconds[layer_of(filename, repro_dir)] += self_time
    counts = {}
    for counter, keys in entry_points().items():
        counts[counter] = sum(stats.stats[key][1] for key in keys if key in stats.stats)
    return seconds, counts
