"""Coroutine processes for the simulation kernel.

A :class:`Process` wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  The process is itself an event: it triggers with the generator's
return value when the generator finishes, which lets processes wait for each
other (``yield env.process(...)``).  A successful finish that nothing waits
on and nothing holds is marked processed without being queued (see
:mod:`repro.sim.events`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from . import events as _events
from .events import PENDING, URGENT, Event, _getrefcount

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Process", "Interrupt", "Initialize"]


class Interrupt(Exception):
    """Raised into a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]

    def __str__(self) -> str:
        return f"Interrupt({self.cause!r})"


class Initialize(Event):
    """Internal bootstrap event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class _InterruptEvent(Event):
    """Internal urgent event that delivers an :class:`Interrupt`."""

    __slots__ = ()

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [process._resume]
        # Detach the process from whatever it was waiting on so the stale
        # event does not resume it a second time when it eventually fires.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:
                pass
        process._target = None
        process.env.schedule(self, priority=URGENT)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process event triggers when the generator terminates: successfully
    with its return value, or failed with the uncaught exception.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        # Initialize(env, self), inlined: spawning is a hot path.
        init = Initialize.__new__(Initialize)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._defused = False
        env.schedule(init, URGENT)
        #: The event the process is currently waiting for (None if just
        #: started, terminated, or currently being resumed).
        self._target: Optional[Event] = init

    def __repr__(self) -> str:
        return f"<Process({self.name}) object at {id(self):#x}>"

    @property
    def name(self) -> str:
        """Name of the wrapped generator function."""
        return getattr(self._generator, "__name__", str(self._generator))

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting on."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` until the wrapped generator has terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` exception into the process.

        The interrupt is delivered at the current simulation time with
        urgent priority.  Interrupting a terminated process is an error;
        a process cannot interrupt itself.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        _InterruptEvent(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the state of ``event``."""
        env = self.env
        env._active_proc = self
        generator = self._generator

        # Detach from the event we were waiting on so a stale interrupt does
        # not try to unregister from it.
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                # Generator finished: the process event succeeds.  With no
                # waiter and a refcount of 4 — the resuming bound method,
                # this frame's ``self``, ``env._active_proc`` and the
                # call's own argument — nobody can ever see the finish
                # event, so it is marked processed instead of queued.
                self._ok = True
                self._value = stop.value
                if self.callbacks or not _events._refcount_shortcuts or _getrefcount(self) != 4:
                    env.schedule(self)
                else:
                    self.callbacks = None
                break
            except BaseException as exc:  # noqa: BLE001 - deliberate catch-all
                # Generator died: the process event fails.  If nobody waits
                # on this process the exception will escalate from run().
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            # The generator yielded a new event to wait for (a yielded
            # None fails here as "not an event").
            if not isinstance(next_event, Event):
                event = _fail_yield(self, next_event)
                continue
            if next_event.env is not env:
                event = _fail_yield(self, next_event, reason="different environment")
                continue

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event not yet processed: register and suspend.
                callbacks.append(self._resume)
                self._target = next_event
                break

            # Event already processed: resume immediately with its state.
            event = next_event

        env._active_proc = None


class _YieldError(Event):
    """Failed pseudo-event used to report an invalid yield."""

    __slots__ = ()

    def __init__(self, env: "Environment", message: str) -> None:
        super().__init__(env)
        self._ok = False
        self._value = RuntimeError(message)
        self._defused = False


def _fail_yield(process: Process, item: Any, reason: str = "not an event") -> Event:
    """Build a failed event describing an invalid ``yield`` from a process."""
    message = f"invalid yield value {item!r} from {process.name} ({reason})"
    return _YieldError(process.env, message)
