"""The four benchmark workloads: inputs from a seed, runner calls, output checks.

Each workload is a fixed *cycle* of runner calls built from the seed.
``invoke(i)`` makes call ``i`` through a public ``repro`` entry point and
is the only part the benchmark times; ``inspect(i, raw)`` turns the raw
result into an :class:`Outcome` (completed simulated requests, a digest
of the simulated outputs, invariant violations) outside the timed
region.  Digests cover simulated fields only, never host timings, so
they are a pure function of ``(code, seed)``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

WORKLOADS = ("figure_sweep", "fleet_diurnal", "face_kafka_traced", "cluster_day")


def digest(obj: Any) -> str:
    """Short SHA-256 of a JSON-able structure (floats keep every digit)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one runner call produced, as the benchmark judges it."""

    requests: int
    digest: str
    problems: List[str] = field(default_factory=list)
    #: Host-side figures some layers report (cluster pool accounting).
    host: Dict[str, float] = field(default_factory=dict)
    #: Telemetry spans recorded during the call (face workload only).
    spans: int = 0


class Bench:
    """Defaults for a cycle of one runner call with nothing to clean up."""

    def __len__(self) -> int:
        return 1

    def close(self) -> None:
        pass


class FigureSweep(Bench):
    """Serial closed-loop ``run_experiment`` points of the Figs. 4/5/7 grid."""

    name = "figure_sweep"
    MODELS = ("mobilenet-v2", "resnet-50", "vit-base-16")
    DEVICES = ("cpu", "gpu")
    SIZES = ("small", "medium", "large")
    CONCURRENCY = (1, 16, 64)
    WARMUP = 50
    MEASURE = 300

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro import ExperimentConfig, ServerConfig, reference_dataset

        self.points = [
            ExperimentConfig(
                server=ServerConfig(model=model, preprocess_device=device),
                dataset=reference_dataset(size),
                concurrency=concurrency,
                seed=seed,
                warmup_requests=self.WARMUP,
                measure_requests=self.MEASURE,
                think_jitter_seconds=1e-4,
            )
            for model in self.MODELS
            for device in self.DEVICES
            for size in self.SIZES
            for concurrency in self.CONCURRENCY
        ]

    def __len__(self) -> int:
        return len(self.points)

    def invoke(self, index: int, traced: bool = False) -> Any:
        from repro import run_experiment

        return run_experiment(self.points[index])

    def inspect(self, index: int, raw: Any) -> Outcome:
        metrics = raw.metrics
        problems = []
        if metrics.completed < 1:
            problems.append(f"point {index}: no completions in the window")
        return Outcome(self.WARMUP + self.MEASURE, digest(metrics.to_dict()), problems)


class FleetDiurnal(Bench):
    """Open-loop diurnal wave into a 1-4 node autoscaled fleet."""

    name = "fleet_diurnal"
    MEAN_RATE = 3000.0
    SWING = 0.7
    PERIOD_SECONDS = 4.0
    SIM_SECONDS = 4.0

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.core import ServerConfig
        from repro.serving import AutoscalerPolicy
        from repro.vision import reference_dataset

        self.seed = seed
        self.server = ServerConfig(model="resnet-50", preprocess_batch_size=64)
        self.policy = AutoscalerPolicy(min_nodes=1, max_nodes=4, provision_delay_seconds=1.0)
        self.dataset = reference_dataset("medium")

    def invoke(self, index: int, traced: bool = False) -> Any:
        from repro.core import MetricsCollector
        from repro.serving import AutoscaledFleet, DiurnalArrivals, PatternedClient
        from repro.sim import Environment, RandomStreams

        env = Environment()
        collector = MetricsCollector()
        collector.arm(0.0)
        fleet = AutoscaledFleet(env, self.server, self.policy, metrics=collector)
        arrivals = DiurnalArrivals(
            mean_rate=self.MEAN_RATE, swing=self.SWING, period_seconds=self.PERIOD_SECONDS
        )
        client = PatternedClient(env, fleet, self.dataset, arrivals, RandomStreams(self.seed))
        env.run(until=self.SIM_SECONDS)
        collector.disarm(env.now)
        return fleet, client, collector.finalize()

    def inspect(self, index: int, raw: Any) -> Outcome:
        fleet, client, metrics = raw
        events = [(e.at_time, e.action, e.active_nodes) for e in fleet.events]
        problems = []
        actions = {action for _, action, _ in events}
        if actions != {"scale_out", "scale_in"}:
            problems.append(f"expected scale_out and scale_in, got {sorted(actions)}")
        if metrics.completed < 1:
            problems.append("no completed requests")
        out = {"metrics": metrics.to_dict(), "events": events, "issued": client.issued}
        return Outcome(metrics.completed, digest(out), problems)


class FaceKafkaTraced(Bench):
    """Closed-loop Kafka face pipeline with spans, SLO tracking and scraper on."""

    name = "face_kafka_traced"
    WARMUP = 150
    MEASURE = 2500

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.apps import FacePipelineConfig
        from repro.telemetry import SloConfig, TelemetryConfig

        self.seed = seed
        self.pipeline = FacePipelineConfig(broker="kafka")
        self.telemetry = TelemetryConfig(
            enabled=True,
            trace=True,
            trace_limit=10**7,
            slo=SloConfig(latency_objective_seconds=0.1, burn_windows_seconds=(1.0, 5.0)),
            scrape_interval_seconds=0.05,
        )

    def invoke(self, index: int, traced: bool = False) -> Any:
        from repro import run_face_pipeline

        return run_face_pipeline(
            self.pipeline,
            seed=self.seed,
            warmup_requests=self.WARMUP,
            measure_requests=self.MEASURE,
            telemetry=self.telemetry,
        )

    def inspect(self, index: int, raw: Any) -> Outcome:
        session = raw.telemetry
        tracer = session.tracer
        spans = sum(len(request.timeline or ()) for request in tracer.requests)
        problems = []
        if tracer.dropped:
            problems.append(f"tracer dropped {tracer.dropped} requests")
        if raw.metrics.completed < 1:
            problems.append("no completed frames")
        out = {
            "metrics": raw.metrics.to_dict(),
            "slo": session.slo.report(session.finalized_at).as_dict(),
            "traced_requests": len(tracer.requests),
            "spans": spans,
        }
        return Outcome(self.WARMUP + self.MEASURE, digest(out), problems, spans=spans)


class ClusterDay(Bench):
    """A synthesized diurnal day with Markov sessions on 16 cells x 2 nodes,
    run on two process shards."""

    name = "cluster_day"
    SESSION_RATE = 80.0
    DAY_SECONDS = 10.0
    #: Arrivals simulated per call.  A day's length varies with the seed
    #: (about 7.8k arrivals, sd ~5%); the cap fixes the work per call.
    MAX_REQUESTS = 6000
    CELLS = 16
    NODES_PER_CELL = 2
    SHARDS = 2

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.cluster import ClusterConfig
        from repro.core import ServerConfig
        from repro.workload import MarkovSessionModel, Workload, synthesize_trace

        self.seed = seed
        os.makedirs(work_dir, exist_ok=True)
        self.trace_path = os.path.join(work_dir, f"cluster_day-{seed}-{os.getpid()}.jsonl")
        day = Workload.diurnal(
            self.SESSION_RATE,
            swing=0.6,
            period_seconds=self.DAY_SECONDS,
            sessions=MarkovSessionModel(),
            duration_seconds=self.DAY_SECONDS,
            name="bench-day",
        )
        self.arrivals = synthesize_trace(day, self.trace_path, seed=seed)
        self.workload = Workload.replay(self.trace_path)
        self.server = ServerConfig(model="resnet-50", preprocess_batch_size=64)
        self.cluster = ClusterConfig(
            cells=self.CELLS,
            nodes_per_cell=self.NODES_PER_CELL,
            shards=self.SHARDS,
            execution="process",
        )

    def invoke(self, index: int, traced: bool = False) -> Any:
        from repro.cluster import run_cluster_experiment

        # A profiler sees only its own process, so a traced call runs the
        # same process-mode shard tasks in-process (a one-worker pool runs
        # serially); the shard-invariance guarantee keeps the digest equal.
        cluster = self.cluster.with_overrides(workers=1) if traced else self.cluster
        return run_cluster_experiment(
            self.server, cluster, self.workload, seed=self.seed, max_requests=self.MAX_REQUESTS
        )

    def inspect(self, index: int, raw: Any) -> Outcome:
        problems = []
        if raw.issued != self.MAX_REQUESTS:
            problems.append(f"issued {raw.issued} of the first {self.MAX_REQUESTS} of "
                            f"{self.arrivals} trace arrivals")
        if raw.completed < 1:
            problems.append("no completed requests")
        out = {
            "metrics": raw.metrics.to_dict(),
            "issued": raw.issued,
            "completed": raw.completed,
            "timeouts": raw.timeouts,
            "retries": raw.retries,
            "shed": raw.shed,
            "fluid_served": raw.fluid_served,
            "cells_touched": raw.cells_touched,
        }
        host = {
            "wall_seconds": raw.wall_seconds,
            "busy_seconds": raw.busy_seconds,
            "workers": raw.workers,
        }
        return Outcome(raw.completed, digest(out), problems, host=host)

    def close(self) -> None:
        if os.path.exists(self.trace_path):
            os.remove(self.trace_path)


_CLASSES = {
    cls.name: cls for cls in (FigureSweep, FleetDiurnal, FaceKafkaTraced, ClusterDay)
}


def build(name: str, seed: int, work_dir: str):
    """Construct workload ``name`` for ``seed`` (cluster inputs go in ``work_dir``)."""
    return _CLASSES[name](seed, work_dir)


def pinned_digests(path: str, name: str, seed: int) -> Optional[List[str]]:
    """Per-call digests pinned for ``(name, seed)``, or ``None`` if unpinned."""
    with open(path) as handle:
        pinned = json.load(handle)
    return pinned["workloads"].get(name, {}).get(str(seed))
