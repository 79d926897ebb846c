"""Host-speed probe: a fixed pure-Python event loop timed between runner calls.

The 2-vCPU VM this benchmark was tuned on changes speed by 10-30% over
tens of seconds, because other tenants share its cores.  That drift, not
the simulator, set the spread between runs.  So the benchmark times this
probe about once a second between runner calls.  It scales each call's
wall time to the host speed at which :data:`REFERENCE_SECONDS` was
measured.  On the three single-process workloads, that cut the spread
of ten runs from 17-29% to under 5% (README.md).

The probe does the same kind of work as the simulator kernel: it resumes
generator processes from a heap, churns small dicts and objects, and
draws random numbers.  So it slows down with the host in the same way.
It imports nothing from ``repro``, so a faster simulator cannot speed up
the probe and cancel its own gain.
"""

from __future__ import annotations

import heapq
import random
import time

#: About the median ``measure()`` on the reference host (2-vCPU Intel Xeon VM at
#: 2.1 GHz, CPython 3.11.7).
REFERENCE_SECONDS = 0.08

PROCESSES = 150
STEPS = 300


class _Entry:
    __slots__ = ("at", "process")


def _process(index: int, rng: random.Random, table: dict):
    for step in range(STEPS):
        table[(index, step % 17)] = [step, rng.random()]
        yield rng.expovariate(1000.0)


def measure() -> float:
    """Seconds this host takes for the probe's fixed work."""
    start = time.perf_counter()
    rng = random.Random(7)
    table: dict = {}
    queue = []
    for index in range(PROCESSES):
        heapq.heappush(queue, (0.0, index, _process(index, rng, table)))
    sequence = PROCESSES
    while queue:
        now, _, process = heapq.heappop(queue)
        try:
            delay = next(process)
        except StopIteration:
            continue
        entry = _Entry()
        entry.at = now + delay
        entry.process = process
        sequence += 1
        heapq.heappush(queue, (entry.at, sequence, process))
    return time.perf_counter() - start
