"""The simulation environment: event queue and main loop.

The queue is a ``heapq`` binary heap of ``(time, priority, eid, event)``
tuples, so events run in exact (time, priority, insertion order) and a
run is a pure function of its seed.  CPython's C-accelerated ``heapq``
wins on constant factors at every queue depth this repository reaches
(MODELING.md §10).

The dispatch loop also recycles the hottest event objects
(:class:`~repro.sim.events.Timeout`, plain :class:`~repro.sim.events.Event`,
and the store put/get pairs) through per-environment free lists.  An
event is recycled only when the interpreter's reference count proves
nothing outside the dispatch loop still holds it, so pooling is
invisible to policy code; a pooled event must never escape the
environment that owns it (see MODELING.md §10).  Events that can run no
callback are never queued at all (see :mod:`repro.sim.events`).

Both refcount shortcuts assume fixed reference-count baselines.  At
import, :func:`_self_check` probes them on this interpreter and turns
the shortcuts off when any differs: every event is then allocated and
queued as before, which is always correct, only slower.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

from . import events as _events
from .events import NORMAL, PENDING, AllOf, AnyOf, Event, Timeout, _getrefcount
from .process import Process
from .stores import StoreGet, StorePut

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]

#: Per-environment cap on each free list; a pathological run cannot
#: hoard unbounded garbage in the pools.
_POOL_LIMIT = 1024


def _pool_limit() -> int:
    """Free-list cap for the next dispatch: 0 while the shortcuts are off."""
    return _POOL_LIMIT if _events._refcount_shortcuts else 0


class EmptySchedule(Exception):
    """Raised when the event queue is empty and the simulation cannot advance."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at the until-event."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a monotonically increasing float (seconds, by convention, in
    this repository).  Events scheduled at the same time are processed in
    (priority, insertion order), which makes runs fully deterministic.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_proc",
        "_timeout_pool",
        "_event_pool",
        "_put_pool",
        "_get_pool",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_proc: Optional[Process] = None
        self._timeout_pool: List[Timeout] = []
        self._event_pool: List[Event] = []
        self._put_pool: List[StorePut] = []
        self._get_pool: List[StoreGet] = []

    def __repr__(self) -> str:
        return f"<Environment(now={self._now}, pending={len(self._queue)})>"

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled-but-undispatched events."""
        return len(self._queue)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between events)."""
        return self._active_proc

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event` (pooled)."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event._value = PENDING
            event._ok = True
            event._defused = False
            return event
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that triggers after ``delay`` (pooled).

        The construction + scheduling sequence is inlined here — this is
        the single most-executed allocation site in the simulator.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout._value = value
            timeout._delay = delay
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = []
            timeout._ok = True
            timeout._defused = False
            timeout._value = value
            timeout._delay = delay
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (self._now + delay, NORMAL, eid, timeout))
        return timeout

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Condition that waits for all of ``events``."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Condition that waits for any of ``events``."""
        return AnyOf(self, events)

    # -- scheduling and the main loop -------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put a triggered ``event`` on the queue after ``delay``."""
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (self._now + delay, priority, eid, event))

    def schedule_at(self, event: Event, at: float, priority: int = NORMAL) -> None:
        """Put a triggered ``event`` on the queue at absolute time ``at``.

        Unlike :meth:`schedule`, which computes ``now + delay``, this
        lands the event at exactly the given float.  Cross-environment
        coordinators (``repro.cluster``) need that exactness — and so
        does :meth:`run`'s until-event: a delivery computed as an
        absolute time must fire at the bit-identical time, and
        ``now + (at - now)`` can be one ulp off.
        """
        if at < self._now:
            raise ValueError(f"at ({at}) must be >= now ({self._now})")
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (at, priority, eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def _dispatch_next(self) -> None:
        """Pop and finish exactly one event — THE dispatch semantics.

        This is the single reference implementation that :meth:`step`
        uses and that the inlined loop in :meth:`run` replicates (the
        replication is pinned by ``tests/sim/test_engine.py``'s
        step/run-equivalence tests, so an edit to one path cannot fork
        behavior from the other).  A :class:`StopSimulation`
        raised by an until-event callback propagates to the caller.
        """
        try:
            item = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self._now = item[0]
        event = item[3]
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody handled: escalate to the caller.
            raise event._value
        self._recycle(event, callbacks)

    def _recycle(self, event: Event, callbacks: list) -> None:
        """Return a finished event to its free list when provably unheld.

        In the inlined run loop the safe refcount is 3 — the popped
        ``item`` tuple, the loop's ``event`` local, and the refcount
        call's own argument; here a fourth reference is this method's
        ``event`` parameter.  Any additional holder (a process that kept
        the event, a condition, a store waiter list) vetoes recycling,
        so reuse can never be observed from outside.  The detached
        ``callbacks`` list is cleared and re-attached so the next use
        allocates nothing.
        """
        cls = event.__class__
        if cls is Timeout:
            pool = self._timeout_pool
        elif cls is Event:
            pool = self._event_pool
        elif cls is StoreGet:
            pool = self._get_pool
        elif cls is StorePut:
            pool = self._put_pool
        else:
            return
        if _getrefcount(event) == 4 and len(pool) < _pool_limit():
            callbacks.clear()
            event.callbacks = callbacks
            if cls is StoreGet:
                event.store = None
                event.filter_fn = None
            elif cls is StorePut:
                event.store = None
                event.item = None
            pool.append(event)

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` when there is nothing left to do.
        Interleaving :meth:`step` with :meth:`run` is supported: both
        drive :meth:`_dispatch_next`'s semantics, so the resulting
        event order is identical to a pure :meth:`run`.
        """
        self._dispatch_next()

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until the event queue is exhausted.
        - a number: run until simulation time reaches it (time is advanced
          to exactly ``until`` even if no event occurs then).
        - an :class:`Event`: run until that event has been processed and
          return its value (raising its exception if it failed).
        """
        until_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until ({at}) must be >= now ({self._now})")
                until_event = Event(self)
                until_event._ok = True
                until_event._value = None
                # Priority below URGENT so everything at `at` runs first;
                # schedule_at lands the stop at *exactly* `at` (the
                # relative form re-introduces one-ulp `now + (at - now)`
                # drift).
                self.schedule_at(until_event, at, priority=NORMAL + 1)

            if until_event.callbacks is None:
                # Already processed before run() was called.
                if until_event._ok:
                    return until_event._value
                raise until_event._value
            until_event.callbacks.append(_stop_simulation)

        # Inlined event loop (equivalent to `while True: self.step()`).
        # This is the hottest code in the simulator: local bindings, no
        # per-event method call, and in-line recycling measurably raise
        # events/sec on large sweeps.  Keep it in lockstep with
        # _dispatch_next(): the step/run-equivalence tests pin this.
        queue = self._queue
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        get_pool = self._get_pool
        put_pool = self._put_pool
        refcount = _getrefcount
        limit = _pool_limit()
        try:
            while True:
                try:
                    item = heappop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                self._now = item[0]
                event = item[3]
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failed event nobody handled: escalate to the caller.
                    raise event._value
                # Inline of _recycle(); see its docstring for the invariant.
                cls = event.__class__
                if cls is Timeout:
                    if refcount(event) == 3 and len(timeout_pool) < limit:
                        callbacks.clear()
                        event.callbacks = callbacks
                        timeout_pool.append(event)
                elif cls is Event:
                    if refcount(event) == 3 and len(event_pool) < limit:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event_pool.append(event)
                elif cls is StoreGet:
                    if refcount(event) == 3 and len(get_pool) < limit:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event.store = None
                        event.filter_fn = None
                        get_pool.append(event)
                elif cls is StorePut:
                    if refcount(event) == 3 and len(put_pool) < limit:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event.store = None
                        event.item = None
                        put_pool.append(event)
        except StopSimulation as stop:
            finished: Event = stop.args[0]
            if finished._ok:
                return finished._value
            raise finished._value from None
        except EmptySchedule:
            if until_event is not None and until_event._value is PENDING:
                raise RuntimeError(
                    f"no scheduled events left but until event {until_event!r} "
                    "has not triggered"
                ) from None
        return None


def _stop_simulation(event: Event) -> None:
    """Callback attached to the until-event: unwind the main loop."""
    raise StopSimulation(event)


def _finish_at_once() -> Generator[Event, Any, None]:
    """A process body that returns on its first resume."""
    return
    yield  # pragma: no cover - makes this a generator


def _refcount_probe() -> bool:
    """Whether this interpreter reads the refcount baselines the shortcuts assume.

    Each shortcut runs once on an unheld object, which must take it, and
    once on an object the probe holds, which must not; together they pin
    the baseline exactly.  Pooling reads 3 in the inlined run loop and 4
    in :meth:`Environment._recycle` (``step()``); process-finish elision
    reads 4 in ``Process._resume``.
    """
    for stepped in (False, True):
        env = Environment()
        env.timeout(0.0)
        held = env.timeout(0.0)
        if stepped:
            while env.pending:
                env.step()
        else:
            env.run()
        pool = env._timeout_pool
        if len(pool) != 1 or pool[0] is held:
            return False
    env = Environment()
    env.process(_finish_at_once())
    held = env.process(_finish_at_once())
    env.step()
    env.step()
    # Only the held process's finish event may be queued.
    return env.pending == 1 and held.callbacks == []


def _self_check() -> None:
    """Set the private shortcut flag from :func:`_refcount_probe`."""
    _events._refcount_shortcuts = True
    _events._refcount_shortcuts = _refcount_probe()


_self_check()
