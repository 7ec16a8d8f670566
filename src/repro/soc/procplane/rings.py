"""SPSC ring buffers over ``multiprocessing.shared_memory``.

One producer process, one consumer process, fixed-width slots — the
minimal structure that makes the cross-process hot path cheap:

* head (consumer cursor) and tail (producer cursor) are free-running
  u64 counters at fixed offsets in the segment; ``tail - head`` is the
  depth, ``index % capacity`` the slot.  Both are read and written
  through one ``memoryview.cast("Q")`` over the header, so each cursor
  access is a single native 8-byte load or store at an 8-byte aligned
  address (the segment is page-aligned).
* the producer writes the slot body *then* publishes the new tail; the
  consumer reads records strictly below tail and advances head only
  after a record is fully processed.  A worker that dies mid-record
  therefore leaves it (and everything after it) in the ring for its
  replacement — the process backend's no-event-lost clause is this one
  line of protocol.
* no locks, no condition variables: each side spins briefly then backs
  off with short sleeps.  Cross-process wakeups via futexes would save
  microseconds at the cost of portability; at SOC batch sizes the poll
  loop is off the hot path (the consumer only waits when there is no
  work).

Memory ordering assumption: x86-64 (TSO).  An aligned 8-byte store
is atomic, so the other side never reads a torn cursor; stores become
visible in program order, so a consumer that reads the new tail also
sees the slot bytes written before it; and a load is not reordered
with a later store, so the consumer has read a slot before its head
advance lets the producer reuse it.  Python exposes no fences: on a
weaker memory model (ARM, POWER) this protocol would need them.  The
consumer still treats ``tail - head <= 0`` as "nothing to read"
(:meth:`SpscRing.poll`'s callers stop there), so a head that ever
passed the tail replays no stale slot.

The parent creates segments and unlinks them at stop; workers attach
by name.  Attach-side ``resource_tracker`` registration is suppressed
(CPython < 3.13 tracks segments it only attached to — the well-known
bpo-38119 behaviour — and with forked workers the tracker process is
*shared*, so an attach-side register/unregister pair would clobber
the parent's own registration).
"""

import time
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

_HEAD = 0           # u64 index 0: consumer cursor (free-running)
_TAIL = 1           # u64 index 1: producer cursor (free-running)
_CLOSED = 16        # u8 at byte 16: producer hung up
_HEADER = 64        # slot array starts here (cache-line away from cursors)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource tracking.

    Only the creating process owns the segment's lifetime; attaching
    must not register it (``SharedMemory(track=False)`` exists from
    3.13 — this is the portable equivalent).
    """
    original = resource_tracker.register
    try:
        resource_tracker.register = (
            lambda n, rtype: None if rtype == "shared_memory"
            else original(n, rtype))
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class RingFull(RuntimeError):
    """Raised by :meth:`SpscRing.push` when the ring is at capacity."""


class SpscRing:
    """Single-producer single-consumer ring of fixed-width slots."""

    def __init__(self, capacity: int, slot: int,
                 name: Optional[str] = None, create: bool = False):
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self.capacity = capacity
        self.slot = slot
        size = _HEADER + capacity * slot
        if create:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self._shm.buf[:_HEADER] = bytes(_HEADER)
        else:
            self._shm = _attach_untracked(name)
        self.buf = self._shm.buf
        #: The header as native u64 words: ``_cursors[_HEAD]`` and
        #: ``_cursors[_TAIL]`` are single aligned loads and stores.
        self._cursors = self.buf[:_HEADER].cast("Q")
        #: Producer-side cache of the consumer cursor (refreshed only
        #: when the ring looks full) and consumer-side cache of the
        #: producer cursor (refreshed only when the ring looks empty):
        #: the common-case push/pop touches one shared cursor, not two.
        self._cached_head = 0
        self._cached_tail = 0

    @property
    def name(self) -> str:
        return self._shm.name

    # -- cursors ------------------------------------------------------------

    @property
    def head(self) -> int:
        return self._cursors[_HEAD]

    @property
    def tail(self) -> int:
        return self._cursors[_TAIL]

    @property
    def depth(self) -> int:
        return self.tail - self.head

    @property
    def closed(self) -> bool:
        return self.buf[_CLOSED] != 0

    def close_producer(self) -> None:
        self.buf[_CLOSED] = 1

    # -- producer side ------------------------------------------------------

    def reserve(self) -> int:
        """Byte offset of the next free slot, or raise :class:`RingFull`.

        The caller packs the record at the returned offset and then
        calls :meth:`publish`.  Split so codecs can pack straight into
        shared memory without an intermediate bytes object.
        """
        tail = self._cached_tail
        if tail - self._cached_head >= self.capacity:
            self._cached_head = self._cursors[_HEAD]
            if tail - self._cached_head >= self.capacity:
                raise RingFull(self.name)
        return _HEADER + (tail % self.capacity) * self.slot

    def publish(self) -> None:
        """Make the record packed after :meth:`reserve` visible."""
        self._cached_tail += 1
        self._cursors[_TAIL] = self._cached_tail

    def push_blocking(self, pack, deadline: Optional[float] = None,
                      poll: float = 0.0002) -> bool:
        """Pack-and-publish via *pack(buf, offset)*, waiting for space.

        Returns False when *deadline* (monotonic) passes first.
        """
        while True:
            try:
                offset = self.reserve()
            except RingFull:
                if deadline is not None and time.monotonic() > deadline:
                    return False
                time.sleep(poll)
                continue
            pack(self.buf, offset)
            self.publish()
            return True

    # -- consumer side ------------------------------------------------------

    def poll(self) -> int:
        """Records currently available to the consumer."""
        available = self._cached_tail - self._cached_head
        if available <= 0:
            self._cached_tail = self._cursors[_TAIL]
            available = self._cached_tail - self._cached_head
        return available

    def peek_offset(self, index: int = 0) -> int:
        """Byte offset of the index-th unconsumed record (no advance)."""
        return _HEADER + ((self._cached_head + index) % self.capacity) \
            * self.slot

    def advance(self, count: int = 1) -> None:
        """Mark *count* records fully processed (publishes head)."""
        self._cached_head += count
        self._cursors[_HEAD] = self._cached_head

    def advance_local(self) -> None:
        """Consume one record *without* publishing the shared head.

        Pair with :meth:`commit_head` at a batch boundary: the publish
        is one shared-memory write per batch instead of per record.
        Crash redelivery granularity coarsens from one record to one
        batch (still at-least-once; the consumer must commit before
        any deliberate exit).
        """
        self._cached_head += 1

    def commit_head(self) -> None:
        """Publish local head advances to the shared cursor."""
        self._cursors[_HEAD] = self._cached_head

    def sync_consumer(self) -> None:
        """Re-read the shared head (after taking over a dead consumer)."""
        self._cached_head = self._cursors[_HEAD]
        self._cached_tail = self._cursors[_TAIL]

    def sync_producer(self) -> None:
        """Re-read the shared tail (after taking over a dead producer).

        A restarted worker resumes the merge ring exactly where its
        predecessor's last *published* record ended; a partially packed
        but unpublished slot is simply overwritten.
        """
        self._cached_tail = self._cursors[_TAIL]
        self._cached_head = self._cursors[_HEAD]

    # -- lifecycle ----------------------------------------------------------

    def detach(self) -> None:
        # The cursor view exports the mapping: release it before close.
        self._cursors.release()
        self.buf = None
        self._shm.close()

    def destroy(self) -> None:
        """Close and unlink (creator side)."""
        self.detach()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
