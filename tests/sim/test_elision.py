"""Elided events: an event that can run no callback is never queued.

Three kinds of event used to reach dispatch with an empty callback list
and are no longer scheduled: every ``Release``, the finish event of a
process nobody holds, and the container put behind
``GpuMemoryPool.free``.  Dropping an event with no callback cannot move
any other event in the ``(time, priority, eid)`` order, so every trace
here must match the run with the refcount shortcuts forced off.

The shortcuts (pooling and process-finish elision) rest on CPython
reference-count baselines that an import-time self-check confirms; the
last class pins what happens when that check fails.
"""

import json
import random

import pytest

import repro.sim.engine as engine
import repro.sim.events as events
from repro.core.config import ServerConfig
from repro.hardware.memory import GpuMemoryPool
from repro.serving import run_fleet_experiment
from repro.serving.runner import ExperimentConfig, run_experiment
from repro.sim import (
    Environment,
    PriorityResource,
    Release,
    Resource,
    Store,
)
from repro.workload import Workload


@pytest.fixture
def shortcuts(monkeypatch):
    """Switch the refcount shortcuts; restored after the test."""
    monkeypatch.setattr(events, "_refcount_shortcuts", events._refcount_shortcuts)

    def switch(on: bool) -> None:
        events._refcount_shortcuts = on

    return switch


def _both_ways(shortcuts, scenario, *args):
    """``scenario(*args)`` with the shortcuts on, then forced off."""
    shortcuts(True)
    on = scenario(*args)
    shortcuts(False)
    off = scenario(*args)
    return on, off


def test_self_check_passes_on_this_interpreter():
    assert engine._refcount_probe() is True
    assert events._refcount_shortcuts is True


class TestProcessFinish:
    @staticmethod
    def _kept_process():
        env = Environment()
        trace = []

        def child():
            yield env.timeout(1.0)
            trace.append((env.now, "child returns"))
            return "payload"

        def bystander():
            yield env.timeout(0.0)
            yield env.timeout(1.0)
            trace.append((env.now, "bystander"))

        def parent():
            kept = env.process(child())
            yield env.timeout(0.0)
            yield env.timeout(1.0)
            # The child returned earlier in this time step, but its finish
            # event is still queued behind the bystander: the parent must
            # wait for it rather than resume in place.
            trace.append((env.now, "parent yields kept child"))
            value = yield kept
            trace.append((env.now, f"parent got {value}"))

        env.process(parent())
        env.process(bystander())
        env.run()
        return trace

    def test_kept_process_resumes_at_its_place(self, shortcuts):
        on, off = _both_ways(shortcuts, self._kept_process)
        assert on == off == [
            (1.0, "child returns"),
            (1.0, "parent yields kept child"),
            (1.0, "bystander"),
            (1.0, "parent got payload"),
        ]

    def test_unheld_finish_is_not_queued(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)

        env.process(quick())
        env.step()  # Initialize
        env.step()  # the timeout; the process returns and is not queued
        assert env.pending == 0

    def test_unheld_failure_still_escalates(self, shortcuts):
        for on in (True, False):
            shortcuts(on)
            env = Environment()

            def doomed():
                yield env.timeout(1.0)
                raise ValueError("nobody waits for me")

            env.process(doomed())
            with pytest.raises(ValueError, match="nobody waits for me"):
                env.run()
            assert env.now == 1.0


class TestRelease:
    def test_release_is_processed_and_resumes_in_place(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        trace = []

        def user():
            request = resource.request()
            yield request
            pending = env.pending
            release = resource.release(request)
            assert isinstance(release, Release)
            assert release.processed and release.ok and release.value is None
            assert env.pending == pending  # nothing was queued
            assert resource.count == 0
            yield release
            trace.append((env.now, "after release"))
            assert resource.release(request) is None  # double release: no-op
            assert resource.count == 0

        def bystander():
            yield env.timeout(0.0)
            trace.append((env.now, "bystander"))

        env.process(user())
        env.process(bystander())
        env.run()
        # Had the release been queued, the bystander would run first.
        assert trace == [(0.0, "after release"), (0.0, "bystander")]

    def test_release_grants_the_next_waiter_at_once(self):
        env = Environment()
        resource = PriorityResource(env, capacity=1)
        granted = []

        def holder():
            with resource.request(priority=0) as request:
                yield request
                yield env.timeout(1.0)

        def waiter(name, priority):
            with resource.request(priority=priority) as request:
                yield request
                granted.append((env.now, name))
                yield env.timeout(1.0)

        env.process(holder())
        for name, priority in (("low", 5), ("high", 1), ("mid", 3), ("high2", 1)):
            env.process(waiter(name, priority))
        env.run()
        assert granted == [(1.0, "high"), (2.0, "high2"), (3.0, "mid"), (4.0, "low")]


class TestGpuMemoryFree:
    @staticmethod
    def _blocked_allocs(queued_put):
        env = Environment()
        pool = GpuMemoryPool(env, capacity_bytes=100.0)
        if queued_put:
            # The former free(): a put event that nobody waits on.
            def free(allocation):
                allocation.released = True
                pool._free.put(allocation.nbytes)

            pool.free = free
        trace = []

        def owner():
            allocation = yield from pool.alloc(80.0)
            yield env.timeout(1.0)
            trace.append((env.now, "free"))
            pool.free(allocation)
            yield env.timeout(0.0)
            # The blocked allocs were woken by the free itself, so they
            # run before this same-time timeout.
            trace.append((env.now, "owner after free"))

        def borrower(name, delay, nbytes):
            yield env.timeout(delay)
            allocation = yield from pool.alloc(nbytes)
            trace.append((env.now, name))
            yield env.timeout(0.5)
            pool.free(allocation)

        env.process(owner())
        env.process(borrower("big", 0.25, 60.0))
        env.process(borrower("small", 0.5, 30.0))
        env.process(borrower("late", 1.0, 50.0))
        env.run()
        return trace, pool.free_bytes

    def test_free_wakes_blocked_allocs_in_the_same_order(self):
        direct = self._blocked_allocs(queued_put=False)
        queued = self._blocked_allocs(queued_put=True)
        assert direct == queued == ([
            (1.0, "free"),
            (1.0, "big"),
            (1.0, "small"),
            (1.0, "owner after free"),
            (1.5, "late"),
        ], 100.0)


def _random_program(seed):
    """A random graph of spawns, waits, resources and stores; its trace."""
    env = Environment()
    fifo = Resource(env, capacity=2)
    ranked = PriorityResource(env, capacity=1)
    store = Store(env, capacity=3)
    trace = []
    delays = (0.0, 0.0, 0.5, 1.0)

    def worker(name, rng, depth):
        for step in range(rng.randint(1, 6)):
            op = rng.randrange(9)
            label = f"{name}.{step}"
            if op == 0:
                yield env.timeout(rng.choice(delays))
            elif op == 1 and depth < 3:
                env.process(worker(label + "f", random.Random(rng.random()), depth + 1))
            elif op == 2 and depth < 3:
                kept = env.process(worker(label + "k", random.Random(rng.random()), depth + 1))
                yield env.timeout(rng.choice(delays))
                yield kept
            elif op == 3 and depth < 3:
                kids = [
                    env.process(worker(f"{label}a{i}", random.Random(rng.random()), depth + 1))
                    for i in range(rng.randint(1, 3))
                ]
                yield env.all_of(kids)
            elif op == 4:
                with fifo.request() as request:
                    yield request
                    yield env.timeout(rng.choice(delays))
            elif op == 5:
                request = ranked.request(priority=rng.randrange(3))
                yield request
                yield env.timeout(rng.choice(delays))
                yield ranked.release(request)
            elif op == 6:
                yield store.put(label)
            elif op == 7:
                item = yield store.get()
                label += f"<{item}"
            elif op == 8 and depth < 3:
                def failing():
                    yield env.timeout(rng.choice(delays))
                    raise KeyError(label)

                try:
                    yield env.process(failing())
                except KeyError:
                    label += "!"
            trace.append((env.now, label, op))
        return name

    rng = random.Random(seed)
    for index in range(rng.randint(2, 6)):
        env.process(worker(f"p{index}", random.Random(rng.random()), 0))
    env.run()
    return trace, env.now, env._eid


def test_random_programs_trace_identically(shortcuts):
    elided = 0
    for seed in range(60):
        (trace_on, now_on, queued_on), (trace_off, now_off, queued_off) = _both_ways(
            shortcuts, _random_program, seed)
        assert trace_on == trace_off, seed
        assert now_on == now_off, seed
        assert queued_on <= queued_off, seed
        elided += queued_off - queued_on
    assert elided > 0  # the property exercised the elision at all


class TestFailedSelfCheck:
    @staticmethod
    def _runs():
        server = ServerConfig(model="resnet-50", preprocess_batch_size=8)
        closed = run_experiment(ExperimentConfig(
            server=server, concurrency=8, warmup_requests=20,
            measure_requests=120, seed=7,
        ))
        fleet = run_fleet_experiment(
            server, node_count=2, workload=Workload.constant(2000.0),
            warmup_requests=100, measure_requests=300,
        )
        return [json.dumps(r.to_dict(), sort_keys=True) for r in (closed, fleet)]

    def test_failed_probe_turns_shortcuts_off_and_changes_no_result(self, monkeypatch):
        monkeypatch.setattr(events, "_refcount_shortcuts", events._refcount_shortcuts)
        reference = self._runs()
        monkeypatch.setattr(engine, "_refcount_probe", lambda: False)
        engine._self_check()
        assert events._refcount_shortcuts is False
        assert self._runs() == reference

    def test_shortcuts_off_allocate_and_queue_every_event(self, shortcuts):
        shortcuts(False)
        env = Environment()

        def quick():
            yield env.timeout(1.0)

        for _ in range(3):
            env.process(quick())
        env.run()
        assert env._timeout_pool == []
        assert env._eid == 9  # 3 × (Initialize, timeout, finish)
