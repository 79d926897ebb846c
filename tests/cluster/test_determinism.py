"""The cluster's headline guarantees, pinned.

1. A one-cell, zero-latency-fabric cluster is *byte-identical* in its
   merged ``RunMetrics`` to the unsharded
   :func:`repro.serving.fleet.run_fleet_experiment` — same floats, not
   approximately equal.
2. For a fixed topology, results are invariant to the shard count, to
   the routing policy's execution packing, and to serial vs
   process-pool execution.  Sharding decides how fast the answer
   arrives, never what the answer is.
"""

import multiprocessing

import pytest

from repro.cluster import ClusterConfig, run_cluster_experiment
from repro.core import ServerConfig
from repro.parallel import executor
from repro.serving import run_fleet_experiment
from repro.telemetry.slo import SloConfig
from repro.workload import MarkovSessionModel, Workload, synthesize_trace

SERVER = ServerConfig(model="resnet-50", preprocess_batch_size=64)
WORKLOAD = Workload.constant(150.0, duration_seconds=3.0)


def cluster_run(config: ClusterConfig, seed: int = 0, **kwargs):
    return run_cluster_experiment(SERVER, config, WORKLOAD, seed=seed, **kwargs)


class TestFleetIdentity:
    def test_one_cell_zero_fabric_matches_unsharded_fleet(self):
        fleet = run_fleet_experiment(
            SERVER, node_count=3, workload=WORKLOAD, seed=11,
            warmup_requests=0, measure_requests=10**9,
            max_sim_seconds=10**6,
        )
        cluster = run_cluster_experiment(
            SERVER,
            ClusterConfig(cells=1, nodes_per_cell=3,
                          base_latency_seconds=0.0),
            WORKLOAD, seed=11,
        )
        # Dataclass equality on RunMetrics compares every float exactly,
        # including the sorted latency tuple and per-span means.
        assert cluster.metrics == fleet.metrics
        assert cluster.completed == fleet.metrics.completed

    def test_fabric_latency_shifts_latency_not_count(self):
        zero = cluster_run(ClusterConfig(cells=1, nodes_per_cell=2,
                                         base_latency_seconds=0.0))
        slow = cluster_run(ClusterConfig(cells=1, nodes_per_cell=2,
                                         base_latency_seconds=2e-3))
        assert slow.completed == zero.completed
        assert slow.metrics.latency.mean == pytest.approx(
            zero.metrics.latency.mean + 4e-3)


class TestShardInvariance:
    BASE = ClusterConfig(cells=6, nodes_per_cell=2)

    def test_serial_shard_count_invariant(self):
        reference = cluster_run(self.BASE)
        for shards in (2, 3, 6):
            result = cluster_run(self.BASE.with_overrides(shards=shards))
            assert result.metrics == reference.metrics
            assert result.issued == reference.issued

    @pytest.mark.parametrize("routing", ["round_robin", "least_backlog"])
    def test_routing_policies_shard_invariant(self, routing):
        base = self.BASE.with_overrides(routing=routing)
        one = cluster_run(base)
        many = cluster_run(base.with_overrides(shards=4))
        assert one.metrics == many.metrics

    def test_jittered_fabric_shard_invariant(self):
        base = self.BASE.with_overrides(jitter_latency_seconds=300e-6,
                                        topology_seed=5)
        assert cluster_run(base).metrics == cluster_run(
            base.with_overrides(shards=5)).metrics

    def test_process_pool_matches_serial(self):
        serial = cluster_run(self.BASE)
        pooled = cluster_run(
            self.BASE.with_overrides(shards=2, execution="process"))
        assert pooled.metrics == serial.metrics
        assert pooled.issued == serial.issued
        assert pooled.mode == "process"
        assert pooled.workers == 2

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method on this platform")
    def test_process_start_method_invariant(self, tmp_path, monkeypatch):
        """A Markov-session diurnal day replayed over two process shards:
        forked and spawned workers give the serial run's metrics."""
        trace = str(tmp_path / "day.jsonl")
        synthesize_trace(
            Workload.diurnal(40.0, swing=0.6, period_seconds=5.0,
                             sessions=MarkovSessionModel(), duration_seconds=5.0),
            trace, seed=3)
        day = Workload.replay(trace)
        config = ClusterConfig(cells=8, nodes_per_cell=2, shards=2)

        def run(execution):
            return run_cluster_experiment(
                SERVER, config.with_overrides(execution=execution), day,
                seed=3, max_requests=1500).metrics.to_dict()

        serial = run("serial")
        runs = {}
        for method in ("fork", "spawn"):
            monkeypatch.setattr(executor, "_start_method", lambda: method)
            runs[method] = run("process")
        assert runs["fork"] == serial
        assert runs["spawn"] == serial

    def test_fluid_knob_packing_and_mode_invariant(self):
        base = self.BASE.with_overrides(
            fluid=True, fluid_hot_threshold=5, fluid_hot_window_seconds=0.5)
        one = cluster_run(base)
        assert one.fluid_served > 0  # the knob actually engaged
        many = cluster_run(base.with_overrides(shards=5))
        pooled = cluster_run(base.with_overrides(shards=3,
                                                 execution="process"))
        assert many.metrics == one.metrics
        assert pooled.metrics == one.metrics
        assert many.fluid_served == one.fluid_served

    def test_seed_changes_results(self):
        assert cluster_run(self.BASE, seed=0).metrics != cluster_run(
            self.BASE, seed=1).metrics


class TestResultSurface:
    def test_slo_views(self):
        result = cluster_run(
            ClusterConfig(cells=4, nodes_per_cell=2, shards=2),
            slo=SloConfig(latency_objective_seconds=0.2, target=0.99),
        )
        assert result.slo is not None and result.slo.met
        assert len(result.shards) == 2
        for shard in result.shards:
            assert shard.slo is not None
            assert shard.slo["met"] is True

    def test_unbounded_workload_rejected(self):
        with pytest.raises(ValueError, match="bounded"):
            run_cluster_experiment(
                SERVER, ClusterConfig(), Workload.constant(50.0))

    def test_max_requests_bounds_unbounded_workload(self):
        result = run_cluster_experiment(
            SERVER, ClusterConfig(cells=2, nodes_per_cell=1),
            Workload.constant(100.0), max_requests=40)
        assert result.issued == 40

    def test_export_row_shape(self):
        row = cluster_run(ClusterConfig(cells=2, nodes_per_cell=1)).to_dict()
        assert row["shard_count"] == 1
        assert row["node_count"] == 2
        assert row["execution_mode"] == "serial"
        assert row["completed"] > 0
