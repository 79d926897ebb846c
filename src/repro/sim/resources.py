"""Shared resources with limited capacity (SimPy-style request/release).

A :class:`Resource` models a pool of identical slots (e.g. CPU cores held by
preprocessing workers, GPU compute occupancy).  Processes ``yield`` a
:meth:`Resource.request` event, which succeeds when a slot is granted, and
must eventually :meth:`Resource.release` it.  ``with`` semantics are
supported::

    with resource.request() as req:
        yield req
        ... use the resource ...

:class:`PriorityResource` grants queued requests in (priority, FIFO) order.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Request", "Release", "Resource", "PriorityResource"]


class Request(Event):
    """Event that succeeds when the resource grants a slot to the requester."""

    __slots__ = ("resource", "usage_since", "requested_at")

    def __init__(self, resource: "Resource") -> None:
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.usage_since: Optional[float] = None
        #: Time the request was issued; used for queue-time accounting.
        self.requested_at: float = env._now
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # Release if granted, cancel if still queued, else nothing: the
        # same as Resource.release, minus the Release nobody sees here.
        self.resource._do_release(self)

    @property
    def wait_time(self) -> float:
        """Time spent queued before the slot was granted (so far, if pending)."""
        granted_at = self.usage_since if self.usage_since is not None else self.env.now
        return granted_at - self.requested_at


class PriorityRequest(Request):
    """Request with a priority; lower values are granted first."""

    __slots__ = ("priority", "order")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        self.priority = priority
        #: Tie-break counter assigned by the resource for FIFO within priority.
        self.order: int = 0
        super().__init__(resource)

    @property
    def key(self):
        return (self.priority, self.order)


class Release(Event):
    """Event confirming a release (for symmetry with SimPy).

    The slot is freed in the constructor and nothing can wait on the
    release, so the event is born *processed* and never queued: yielding
    it resumes the process in place.
    """

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        self.env = resource.env
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False
        self.request = request
        resource._do_release(request)


class Resource:
    """A pool of ``capacity`` identical slots granted FIFO."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        # FIFO grant queue: deque for the O(1) pop in _next_request
        # (PriorityResource swaps in a sortable list).
        self.queue = self._new_queue()
        self.users: List[Request] = []
        # Utilization accounting: busy slot-seconds integrated over time.
        self._busy_time = 0.0
        self._last_change = env.now

    def __repr__(self) -> str:
        return (
            f"<{self.__class__.__name__}(capacity={self._capacity}, "
            f"users={len(self.users)}, queued={len(self.queue)})>"
        )

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Request a slot; the returned event succeeds when granted."""
        return Request(self)

    def release(self, request: Request) -> Optional[Release]:
        """Release a granted slot or cancel a queued request.

        Safe to call more than once for the same request (subsequent calls
        are no-ops), which makes ``with`` blocks robust.
        """
        if request in self.users or request in self.queue:
            return Release(self, request)
        return None

    # -- accounting --------------------------------------------------------

    def _account(self) -> None:
        now = self.env.now
        self._busy_time += len(self.users) * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Total busy slot-seconds accumulated up to the current time."""
        self._account()
        return self._busy_time

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Average fraction of capacity in use.

        ``elapsed`` defaults to the current simulation time (i.e. measured
        from t=0).
        """
        if elapsed is None:
            elapsed = self.env.now
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / (self._capacity * elapsed)

    # -- internal grant machinery -------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self._grant(request)
        else:
            self._enqueue(request)

    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)

    def _grant(self, request: Request) -> None:
        # Flat on purpose (account, append, stamp, one schedule): nearly
        # every request is granted at once, so this is a hot path.
        env = self.env
        now = env._now
        users = self.users
        self._busy_time += len(users) * (now - self._last_change)
        self._last_change = now
        users.append(request)
        request.usage_since = now
        request._value = None
        env.schedule(request)

    def _do_release(self, request: Request) -> None:
        users = self.users
        if request in users:
            # _account(), inlined for the same reason as _grant.
            now = self.env._now
            self._busy_time += len(users) * (now - self._last_change)
            self._last_change = now
            users.remove(request)
            if self.queue:
                self._dispatch()
        elif request in self.queue:
            # Cancelled while still waiting.
            self.queue.remove(request)

    def _new_queue(self):
        return deque()

    def _next_request(self) -> Optional[Request]:
        if not self.queue:
            return None
        return self.queue.popleft()

    def _dispatch(self) -> None:
        while len(self.users) < self._capacity:
            request = self._next_request()
            if request is None:
                return
            self._grant(request)


#: Grant-order key of a queued :class:`PriorityRequest`.
_PRIORITY_KEY = attrgetter("priority", "order")


class PriorityResource(Resource):
    """Resource whose queue is served in (priority, FIFO) order."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._order = itertools.count()

    def _new_queue(self):
        # Kept sorted in (priority, FIFO) order by insort on enqueue.
        return []

    def _next_request(self) -> Optional[Request]:
        if not self.queue:
            return None
        return self.queue.pop(0)

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        request.order = next(self._order)
        super()._do_request(request)

    def _enqueue(self, request: Request) -> None:
        # (priority, order) keys are unique, so insort places the request
        # exactly where appending and re-sorting would.
        insort(self.queue, request, key=_PRIORITY_KEY)

