"""Process-pool sweep executor.

The paper's figures are built from sweeps — model zoo x image size x
concurrency x hardware config — replayed as dozens of *independent*
simulations.  Each point owns its own :class:`~repro.sim.Environment`
and :class:`~repro.sim.RandomStreams`, so points can run on separate
CPU cores with no shared state.  :func:`run_sweep` fans a list of
points across a process pool and aggregates results **in submission
order**, with a hard guarantee: the values produced by parallel
execution are bit-identical to serial execution, because every point is
a pure function of its (picklable) spec.

Design rules that keep the guarantee cheap to uphold:

- A *task* is a **module-level function** ``task(point) -> value`` (so it
  pickles by reference) and the *point* is a picklable spec — typically
  a frozen config dataclass; results cross back as the plain dicts of
  the existing ``.to_dict()`` API.
- Seeds for generated sweeps come from :func:`derive_seed`, which hashes
  ``(base_seed, key)``; the derivation is position-independent, so
  reordering or slicing a sweep never changes any point's result.
- Workers start from a ``spawn`` context by default: a fresh interpreter
  that imports only what the task needs, which keeps heavyweight
  optional dependencies (matplotlib & co) out of the workers and makes
  the execution environment identical no matter which process a point
  lands on.  ``fork`` is available opt-in for lower start-up latency.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "HEAVY_MODULES",
    "ParallelConfig",
    "PointResult",
    "SweepError",
    "SweepReport",
    "derive_seed",
    "run_sweep",
    "shutdown_persistent_pools",
]

#: Optional dependencies that must never be imported inside a pool
#: worker: they are slow to import, allocate aggressively, and nothing
#: in the simulation hot path needs them.  Enforced per-point by
#: :func:`_pool_point` and by the import-hygiene tests.
HEAVY_MODULES = ("matplotlib", "pandas", "PIL", "IPython", "notebook")


def derive_seed(base_seed: int, key: Any) -> int:
    """Deterministic per-point seed from ``(base_seed, key)``.

    Uses SHA-256 (like :class:`~repro.sim.rng.RandomStreams`), not
    Python's randomized ``hash()``, so the derivation is stable across
    interpreter launches and identical in every worker process.  ``key``
    is typically the point's index or a descriptive string.
    """
    digest = hashlib.sha256(f"{int(base_seed)}:point:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _describe(exc: BaseException) -> str:
    """``ExcType: first line of its message`` — a cause in one line."""
    lines = str(exc).strip().splitlines()
    name = type(exc).__name__
    return f"{name}: {lines[0]}" if lines else name


class SweepError(RuntimeError):
    """A sweep point failed; carries the failing index and point spec.

    The message names the index, the point's class and the cause in one
    line; the point itself (often a multi-KB config) is on :attr:`point`.
    """

    def __init__(self, index: int, point: Any, cause: BaseException) -> None:
        reason = cause.message if isinstance(cause, _ChunkPointError) else _describe(cause)
        super().__init__(f"sweep point {index} ({type(point).__name__}) failed: {reason}")
        self.index = index
        self.point = point


@dataclass(frozen=True, kw_only=True)
class ParallelConfig:
    """Execution knobs for :func:`run_sweep`."""

    #: Pool size; ``None`` uses every available core.
    workers: Optional[int] = None
    #: Force in-process serial execution (no pool at all).
    serial: bool = False
    #: Multiprocessing start method: ``"spawn"`` (default, clean worker
    #: imports) or ``"fork"`` (faster start-up on POSIX).
    mp_context: str = "spawn"
    #: Re-run the sweep serially afterwards and assert the values are
    #: identical (the bit-identity guarantee, paid for twice the work).
    verify: bool = False
    #: Reuse one long-lived pool per ``(mp_context, workers)`` across
    #: sweeps instead of spawning fresh interpreters every call.  A
    #: spawn worker costs ~100ms of interpreter+import start-up; with
    #: many small sweeps (parameter searches, the bench harness) that
    #: start-up dominates the 0.66 parallel-efficiency figure.  Pools
    #: live until :func:`shutdown_persistent_pools` or process exit.
    persistent: bool = False
    #: Points submitted per pool task.  ``None``/1 submits one point per
    #: task (maximal load-balancing); larger chunks amortize per-point
    #: pickle + result-transport overhead when points are small and
    #: numerous.  Results are bit-identical regardless of chunking —
    #: every point stays a pure function of its spec.
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.mp_context not in ("spawn", "fork", "forkserver"):
            raise ValueError(f"unknown mp_context {self.mp_context!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    def resolved_workers(self, point_count: int) -> int:
        """Actual pool size for a sweep of ``point_count`` points."""
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, point_count))


@dataclass(frozen=True)
class PointResult:
    """One executed sweep point: its value plus execution accounting."""

    index: int
    value: Any
    #: In-worker wall-clock of the task body (seconds).
    seconds: float
    #: PID of the process that ran the point.
    pid: int


@dataclass(frozen=True)
class SweepReport:
    """Ordered results of a sweep plus a progress/timing report."""

    results: Tuple[PointResult, ...]
    #: Parent-side wall-clock of the whole sweep (seconds).
    wall_seconds: float
    #: Pool size used ("1" for serial execution).
    workers: int
    #: ``"serial"`` or ``"parallel"``.
    mode: str
    #: True when a verify pass re-ran the sweep serially and matched.
    verified: bool = False
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def values(self) -> List[Any]:
        """Task return values in submission order."""
        return [r.value for r in self.results]

    @property
    def busy_seconds(self) -> float:
        """Total in-worker compute time across all points."""
        return sum(r.seconds for r in self.results)

    @property
    def parallel_efficiency(self) -> float:
        """busy / (wall * workers); 1.0 means a perfectly packed pool."""
        denom = self.wall_seconds * self.workers
        return self.busy_seconds / denom if denom > 0 else 0.0

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{len(self.results)} points in {self.wall_seconds:.2f}s "
            f"({self.mode}, {self.workers} worker(s), "
            f"busy {self.busy_seconds:.2f}s, "
            f"efficiency {self.parallel_efficiency:.0%})"
        )

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-safe accounting (not the per-point values)."""
        return {
            "points": len(self.results),
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "workers": self.workers,
            "mode": self.mode,
            "parallel_efficiency": self.parallel_efficiency,
            "verified": self.verified,
            "point_seconds": [r.seconds for r in self.results],
            **self.extras,
        }


def _run_point(task: Callable[[Any], Any], index: int, point: Any) -> PointResult:
    start = time.perf_counter()
    value = task(point)
    return PointResult(
        index=index,
        value=value,
        seconds=time.perf_counter() - start,
        pid=os.getpid(),
    )


def _check_import_hygiene() -> None:
    loaded = [name for name in HEAVY_MODULES if name in sys.modules]
    if loaded:
        raise ImportError(
            f"sweep worker imported heavyweight optional deps {loaded}; "
            "tasks given to repro.parallel must stay lean "
            "(plotting/analysis belongs in the parent process)"
        )


def _pool_point(task: Callable[[Any], Any], index: int, point: Any) -> PointResult:
    """Worker-side entry: run the point, then enforce import hygiene."""
    result = _run_point(task, index, point)
    _check_import_hygiene()
    return result


class _ChunkPointError(Exception):
    """Worker-side failure inside a chunk; names the failing point.

    Carries only the index and a rendered cause so it pickles across the
    pool boundary regardless of what the task raised.
    """

    def __init__(self, index: int, message: str) -> None:
        super().__init__(index, message)
        self.index = index
        self.message = message


def _pool_chunk(
    task: Callable[[Any], Any], chunk: List[Tuple[int, Any]]
) -> List[PointResult]:
    """Worker-side entry for a batch of points (one pickle round-trip)."""
    results: List[PointResult] = []
    for index, point in chunk:
        try:
            results.append(_run_point(task, index, point))
        except Exception as exc:
            raise _ChunkPointError(index, _describe(exc)) from exc
    _check_import_hygiene()
    return results


#: Long-lived pools reused across sweeps, keyed by (mp_context, workers).
_PERSISTENT_POOLS: Dict[Tuple[str, int], ProcessPoolExecutor] = {}


def _persistent_pool(mp_context: str, workers: int) -> ProcessPoolExecutor:
    import multiprocessing

    key = (mp_context, workers)
    pool = _PERSISTENT_POOLS.get(key)
    if pool is None:
        context = multiprocessing.get_context(mp_context)
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _PERSISTENT_POOLS[key] = pool
    return pool


def _evict_persistent_pool(mp_context: str, workers: int) -> None:
    pool = _PERSISTENT_POOLS.pop((mp_context, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_persistent_pools() -> None:
    """Shut down every pool created by ``ParallelConfig(persistent=True)``.

    Idempotent; also registered via :mod:`atexit` so leaked pools never
    outlive the parent process.
    """
    while _PERSISTENT_POOLS:
        _, pool = _PERSISTENT_POOLS.popitem()
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_persistent_pools)


def _run_serial(
    task: Callable[[Any], Any],
    points: Sequence[Any],
    on_progress: Optional[Callable[[PointResult, int], None]],
) -> List[PointResult]:
    results: List[PointResult] = []
    for index, point in enumerate(points):
        try:
            result = _run_point(task, index, point)
        except Exception as exc:
            raise SweepError(index, point, exc) from exc
        results.append(result)
        if on_progress is not None:
            on_progress(result, len(points))
    return results


def _run_pool(
    task: Callable[[Any], Any],
    points: Sequence[Any],
    workers: int,
    config: "ParallelConfig",
    on_progress: Optional[Callable[[PointResult, int], None]],
) -> List[PointResult]:
    import multiprocessing

    chunk_size = config.chunk_size or 1
    total = len(points)
    ordered: List[Optional[PointResult]] = [None] * total

    if config.persistent:
        pool = _persistent_pool(config.mp_context, workers)
        close = None
    else:
        context = multiprocessing.get_context(config.mp_context)
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        close = pool.shutdown

    try:
        if chunk_size == 1:
            pending = {
                pool.submit(_pool_point, task, index, point): [(index, point)]
                for index, point in enumerate(points)
            }
        else:
            indexed = list(enumerate(points))
            pending = {
                pool.submit(_pool_chunk, task, indexed[start : start + chunk_size]):
                    indexed[start : start + chunk_size]
                for start in range(0, total, chunk_size)
            }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = pending.pop(future)
                error = future.exception()
                if error is not None:
                    for other in pending:
                        other.cancel()
                    if isinstance(error, BrokenProcessPool) and config.persistent:
                        # A dead worker poisons the whole executor; evict
                        # it so the next sweep gets a fresh pool.
                        _evict_persistent_pool(config.mp_context, workers)
                    if isinstance(error, _ChunkPointError):
                        index = error.index
                        point = points[index]
                    else:
                        index, point = chunk[0]
                    raise SweepError(index, point, error) from error
                got = future.result()
                for result in got if chunk_size > 1 else [got]:
                    ordered[result.index] = result
                    if on_progress is not None:
                        on_progress(result, total)
    finally:
        if close is not None:
            close(wait=True)
    return [r for r in ordered if r is not None]


def run_sweep(
    task: Callable[[Any], Any],
    points: Sequence[Any],
    config: Optional[ParallelConfig] = None,
    *,
    on_progress: Optional[Callable[[PointResult, int], None]] = None,
) -> SweepReport:
    """Execute ``task`` over every point, fanning across CPU cores.

    ``task`` must be a module-level callable and each point must be
    picklable.  Results come back **in submission order** regardless of
    completion order.  ``on_progress`` (if given) is invoked in the
    parent as each point finishes with ``(point_result, total_points)``.

    Serial and parallel execution are interchangeable: both run the
    same pure function on the same spec, so the returned values are
    bit-identical (``config.verify=True`` re-checks this at runtime).
    A failing point raises :class:`SweepError` naming the point.
    """
    if config is None:
        config = ParallelConfig()
    points = list(points)
    start = time.perf_counter()
    if not points:
        return SweepReport(results=(), wall_seconds=0.0, workers=0, mode="serial")

    workers = config.resolved_workers(len(points))
    serial = config.serial or workers == 1 or len(points) == 1
    if serial:
        results = _run_serial(task, points, on_progress)
        mode, used = "serial", 1
    else:
        results = _run_pool(task, points, workers, config, on_progress)
        mode, used = "parallel", workers
    wall = time.perf_counter() - start

    verified = False
    if config.verify and not serial:
        check = _run_serial(task, points, None)
        for got, expect in zip(results, check):
            if got.value != expect.value:
                raise AssertionError(
                    f"parallel/serial mismatch at point {got.index}: "
                    f"{got.value!r} != {expect.value!r}"
                )
        verified = True

    extras: Dict[str, Any] = {}
    if mode == "parallel":
        extras["chunk_size"] = config.chunk_size or 1
        extras["persistent"] = config.persistent
    return SweepReport(
        results=tuple(results),
        wall_seconds=wall,
        workers=used,
        mode=mode,
        verified=verified,
        extras=extras,
    )
