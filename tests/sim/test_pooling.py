"""Event-object pooling: recycling is invisible and provably safe.

The engine recycles ``Timeout``/``Event``/``StoreGet``/``StorePut``
instances into per-environment free lists, but only when CPython's
reference count proves nothing outside the dispatch loop still holds
the object.  These tests pin the two halves of that contract:

- **Invisibility**: pooling never changes simulation results; a
  recycled object handed back by ``env.timeout()``/``env.event()`` is
  indistinguishable from a fresh one.
- **Safety**: an event the user still references is *never* recycled,
  so its ``value``/``ok`` stay readable forever.
"""

import pytest

from repro.sim import Environment, Store
from repro.sim.engine import _POOL_LIMIT


@pytest.fixture
def env():
    return Environment()


class TestTimeoutPooling:
    def test_pool_captures_unreferenced_timeouts(self, env):
        def proc(env):
            for _ in range(50):
                yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        # Steady-state reuse keeps the free list tiny (each timeout is
        # recycled and immediately handed back out); it must be
        # non-empty after the run ends.
        assert len(env._timeout_pool) >= 1

    def test_recycled_timeout_delivers_fresh_values(self, env):
        seen = []

        def proc(env):
            for i in range(20):
                value = yield env.timeout(1.0, value=f"v{i}")
                seen.append((env.now, value))

        env.process(proc(env))
        env.run()
        assert seen == [(float(i + 1), f"v{i}") for i in range(20)]

    def test_held_timeout_is_never_recycled(self, env):
        held = []

        def proc(env):
            for i in range(10):
                t = env.timeout(1.0, value=i)
                held.append(t)  # outside reference: recycling is vetoed
                yield t

        env.process(proc(env))
        env.run()
        # All ten are distinct live objects with their values intact.
        assert len({id(t) for t in held}) == 10
        assert [t.value for t in held] == list(range(10))
        assert all(t not in env._timeout_pool for t in held)

    def test_pool_respects_limit(self, env):
        def waiter(env):
            yield env.timeout(1.0)

        # Thousands of simultaneous timeouts, none referenced by the
        # test: the drain recycles them but the free list stays capped.
        for _ in range(2 * _POOL_LIMIT):
            env.process(waiter(env))
        env.run()
        assert len(env._timeout_pool) <= _POOL_LIMIT


class TestEventPooling:
    def test_fresh_event_state_after_reuse(self, env):
        def proc(env):
            for i in range(10):
                ev = env.event()
                ev.succeed(i)
                got = yield ev
                assert got == i
                yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        assert ev.callbacks == []

    def test_held_event_keeps_value_after_run(self, env):
        ev = env.event()

        def firer(env):
            yield env.timeout(2.0)
            ev.succeed("payload")

        env.process(firer(env))
        env.run()
        assert ev.processed
        assert ev.value == "payload"


class TestStoreEventPooling:
    def test_put_get_pools_refill_and_items_flow_in_order(self, env):
        store = Store(env)
        received = []

        def producer(env):
            for i in range(30):
                yield store.put(i)
                yield env.timeout(1.0)

        def consumer(env):
            for _ in range(30):
                item = yield store.get()
                received.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == list(range(30))
        assert len(env._put_pool) >= 1
        assert len(env._get_pool) >= 1

    def test_recycled_store_events_cleared_of_payload(self, env):
        """A pooled StorePut/StoreGet must not pin the last item or
        store alive through the free list."""
        store = Store(env)

        def pair(env):
            yield store.put(["big payload"])
            yield store.get()

        env.process(pair(env))
        env.run()
        for ev in env._put_pool:
            assert ev.item is None and ev.store is None
        for ev in env._get_pool:
            assert ev.store is None


class TestPoolingDeterminism:
    def test_step_driven_run_matches_run(self):
        """step() recycles through the same path as run(); both drive
        styles yield identical traces."""

        def workload(env, trace):
            store = Store(env)

            def producer(env):
                for i in range(10):
                    yield env.timeout(0.5)
                    yield store.put(i)

            def consumer(env):
                for _ in range(10):
                    item = yield store.get()
                    trace.append((env.now, item))

            env.process(producer(env))
            env.process(consumer(env))

        traces = []
        for drive in ("run", "step"):
            env = Environment()
            trace = []
            workload(env, trace)
            if drive == "run":
                env.run()
            else:
                while env.pending:
                    env.step()
            traces.append(trace)
        assert all(t == traces[0] for t in traces[1:])
