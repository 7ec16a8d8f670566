"""Host event log.

Every observable state change on a :class:`~repro.environment.host.
SimulatedHost` is appended to its :class:`EventLog`.  The operations-time
protection loop (WP3) and the runtime monitors consume this log, so the
record format is deliberately small and stable: a monotonically increasing
logical timestamp, a dotted event type, and a free-form payload mapping.
"""

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Event:
    """One observable occurrence on a host.

    Attributes:
        time: Logical timestamp (monotonic per :class:`EventLog`).
        kind: Dotted event type, e.g. ``"package.removed"`` or
            ``"audit.policy_changed"``.
        payload: Event-specific details; values must be plain data.
    """

    time: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def matches(self, kind: str) -> bool:
        """Return True when this event's kind equals *kind* or is nested
        under it (``"package"`` matches ``"package.removed"``)."""
        return self.kind == kind or self.kind.startswith(kind + ".")


class Subscription:
    """Handle for one :class:`EventLog` subscriber.

    Cancel with :meth:`cancel` — or by calling the handle, which keeps
    the original ``unsubscribe = log.subscribe(cb); unsubscribe()``
    idiom working.  Cancellation is idempotent and safe from any
    thread, including from inside a dispatch.
    """

    def __init__(self, log: "EventLog",
                 callback: Callable[[Event], None]) -> None:
        self._log = log
        self.callback = callback

    @property
    def active(self) -> bool:
        return self._log.is_subscribed(self)

    def cancel(self) -> None:
        self._log.unsubscribe(self)

    def __call__(self) -> None:
        self.cancel()


class EventLog:
    """Append-only sequence of :class:`Event` with subscription support.

    Subscribers are called synchronously on every append; a subscriber
    raising propagates to the emitter, which keeps failure modes visible
    in tests instead of being swallowed.

    The log is safe to share across threads (the SOC runtime appends
    repair events from shard workers while scenario threads inject
    drift): timestamp assignment is atomic, and dispatch iterates a
    snapshot of the subscriber list, so subscribing or unsubscribing —
    even from inside a running dispatch — can never corrupt iteration.
    Every subscriber registered at emit time is invoked exactly once
    unless its subscription was cancelled before its turn came.
    """

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._clock = 0
        self._subscriptions: List[Subscription] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    @property
    def clock(self) -> int:
        """Current logical time (timestamp the *next* event will carry)."""
        return self._clock

    def advance(self, ticks: int = 1) -> int:
        """Advance logical time without emitting an event.

        Useful for modelling quiescent periods in monitoring benchmarks.
        Returns the new clock value.
        """
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        with self._lock:
            self._clock += ticks
            return self._clock

    def emit(self, kind: str, **payload: Any) -> Event:
        """Record an event at the current logical time and advance it.

        The append and timestamp are taken under the log's lock;
        subscribers run *outside* it (against a snapshot of the
        subscriber list), so a subscriber may emit, subscribe, or
        unsubscribe without deadlocking or corrupting dispatch.
        """
        with self._lock:
            # ``**payload`` is a fresh dict on every call: no copy.
            event = Event(self._clock, kind, payload)
            self._events.append(event)
            self._clock += 1
            snapshot = tuple(self._subscriptions)
        subscriptions = self._subscriptions
        for subscription in snapshot:
            if subscription in subscriptions:   # not cancelled meanwhile
                subscription.callback(event)
        return event

    def subscribe(self, callback: Callable[[Event], None]) -> Subscription:
        """Register *callback* for future events.

        Returns a :class:`Subscription` handle; call it (or its
        :meth:`~Subscription.cancel`) to detach.
        """
        subscription = Subscription(self, callback)
        with self._lock:
            self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach *subscription* (idempotent; no-op when unknown)."""
        with self._lock:
            if subscription in self._subscriptions:
                self._subscriptions.remove(subscription)

    def is_subscribed(self, subscription: Subscription) -> bool:
        return subscription in self._subscriptions

    @property
    def subscriber_count(self) -> int:
        return len(self._subscriptions)

    def since(self, time: int) -> List[Event]:
        """Events with ``event.time >= time``, oldest first."""
        return [e for e in self._events if e.time >= time]

    def of_kind(self, kind: str, since: int = 0) -> List[Event]:
        """Events matching *kind* (prefix semantics) from *since* onwards."""
        return [e for e in self._events if e.time >= since and e.matches(kind)]

    def last(self, kind: Optional[str] = None) -> Optional[Event]:
        """Most recent event, optionally restricted to *kind*."""
        if kind is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event.matches(kind):
                return event
        return None
