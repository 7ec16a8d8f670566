"""Bounded shard queues with selectable backpressure.

Every shard owns one :class:`ShardQueue`.  Ingress threads (host event
emitters) ``put``; the shard's worker ``get``s.  When the queue is full
the configured :class:`Backpressure` policy decides what gives:

* ``BLOCK`` — the emitter waits until the worker frees a slot (lossless,
  propagates pressure to the event source);
* ``DROP_OLDEST`` — the oldest queued item is evicted to admit the new
  one (bounded staleness, favours fresh events);
* ``REJECT`` — the new item is refused (bounded work, favours the
  backlog already accepted).

The queue tracks unfinished work like :class:`queue.Queue` so
``join()`` gives the SOC a deterministic drain barrier.
"""

import enum
import threading
from collections import deque
from typing import Any, Callable, List, Optional, Sequence


class Backpressure(enum.Enum):
    """What a full queue does to the *next* put."""

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    REJECT = "reject"


class PutResult(enum.Enum):
    """Outcome of one :meth:`ShardQueue.put`."""

    ACCEPTED = "accepted"
    DISPLACED = "displaced"   # accepted, but evicted the oldest item
    REJECTED = "rejected"


class QueueClosed(RuntimeError):
    """Raised when putting into a closed queue."""


class ShardQueue:
    """Bounded FIFO with backpressure policy and drain support."""

    def __init__(self, capacity: int = 256,
                 policy: Backpressure = Backpressure.BLOCK):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._all_done = threading.Condition(self._lock)
        self._unfinished = 0
        self._closed = False
        #: Items evicted by DROP_OLDEST (monotonic).
        self.dropped = 0
        #: Puts refused by REJECT (monotonic).
        self.rejected = 0
        #: High-water mark of queue depth.
        self.peak_depth = 0

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def unfinished(self) -> int:
        """Accepted items not yet credited via ``task_done``."""
        return self._unfinished

    # -- producer side -----------------------------------------------------------

    def put(self, item: Any) -> PutResult:
        """Enqueue *item* under the configured backpressure policy."""
        with self._lock:
            if self._closed:
                raise QueueClosed("put into closed queue")
            if len(self._items) >= self.capacity:
                if self.policy is Backpressure.BLOCK:
                    while len(self._items) >= self.capacity \
                            and not self._closed:
                        self._not_full.wait()
                    if self._closed:
                        raise QueueClosed("queue closed while blocked")
                elif self.policy is Backpressure.DROP_OLDEST:
                    self._items.popleft()
                    self.dropped += 1
                    self._task_done_locked()
                    self._append(item)
                    return PutResult.DISPLACED
                else:  # REJECT
                    self.rejected += 1
                    return PutResult.REJECTED
            self._append(item)
            return PutResult.ACCEPTED

    def run_if_idle(self, fn: Callable[[], None]) -> bool:
        """Call *fn* under the queue lock iff no item is queued or in
        flight; return whether it ran.

        With nothing unfinished the consumer holds no item and cannot
        take one until the lock is released, and producers wait on the
        lock too: *fn* runs at exactly the point of the stream where a
        :meth:`put` made now would have been consumed, without a
        wake-up of the consumer thread.  Refused once closed.
        """
        with self._lock:
            if self._unfinished or self._closed:
                return False
            fn()
            return True

    def _append(self, item: Any) -> None:
        self._items.append(item)
        self._unfinished += 1
        self.peak_depth = max(self.peak_depth, len(self._items))
        self._not_empty.notify()

    # -- consumer side -----------------------------------------------------------

    def get(self) -> Optional[Any]:
        """Blocking dequeue; ``None`` once the queue is closed and empty."""
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                self._not_empty.wait()
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def get_batch(self, max_items: int) -> Optional[List[Any]]:
        """Blocking dequeue of up to *max_items* under one lock round.

        Blocks like :meth:`get` until at least one item is available,
        then drains whatever is queued (capped at *max_items*) so the
        worker pays the condition-variable handshake once per batch
        instead of once per event.  ``None`` once closed and empty.
        """
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                self._not_empty.wait()
            take = min(max_items, len(self._items))
            batch = [self._items.popleft() for _ in range(take)]
            self._not_full.notify(take)
            return batch

    def requeue_front(self, items: Sequence[Any]) -> None:
        """Return dequeued-but-unprocessed *items* to the head.

        The crash/retry path: a worker that dies (or gives up on) part
        of a batch puts the unprocessed suffix back, in order, so a
        replacement worker picks up exactly where it left off.  The
        items are still accounted as unfinished (they were never
        ``task_done``'d), so ``join()`` keeps waiting for them; the
        capacity bound is deliberately ignored — these items were
        already admitted once and dropping them here would silently
        break event conservation.
        """
        if not items:
            return
        with self._lock:
            self._items.extendleft(reversed(list(items)))
            self._not_empty.notify(len(items))

    def task_done(self) -> None:
        """Mark one dequeued item fully processed (for :meth:`join`)."""
        with self._lock:
            self._task_done_locked()

    def task_done_many(self, count: int) -> None:
        """Mark *count* dequeued items processed in one lock round."""
        with self._lock:
            for _ in range(count):
                self._task_done_locked()

    def _task_done_locked(self) -> None:
        if self._unfinished <= 0:
            raise ValueError("task_done() called too many times")
        self._unfinished -= 1
        if self._unfinished == 0:
            self._all_done.notify_all()

    # -- lifecycle ---------------------------------------------------------------

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted item has been processed.

        With a *timeout* (seconds) the wait is bounded and the return
        value reports whether the queue actually drained — the hook
        that lets :meth:`SocService.drain` interleave dead-worker
        detection with the flush barrier instead of deadlocking on a
        crashed shard.
        """
        with self._lock:
            if timeout is None:
                while self._unfinished:
                    self._all_done.wait()
                return True
            deadline = threading.TIMEOUT_MAX if timeout <= 0 else timeout
            if self._unfinished:
                self._all_done.wait(deadline)
            return self._unfinished == 0

    def close(self) -> None:
        """Stop accepting puts and wake every blocked thread."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
