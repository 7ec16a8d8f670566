"""Streaming ingestion: bounded feeds diffed against the armed set.

The paper's continuous path — requirements flowing from live sources
into protection — needs two things the batch path doesn't have:

* **backpressure** between the front-ends and the SOC, so a bursty
  feed cannot outrun the shard queues (:class:`IngestBudget`, shared
  by :meth:`~repro.reqs.registry.FrontendRegistry.lower_iter` and the
  re-arm plane);
* a **diff engine** that turns "here is the feed's current view of a
  requirement" into the *minimal* change against what is armed
  (:class:`ReqStream` -> :class:`StreamDelta`), so re-arming touches
  only affected hosts instead of restarting the world.

Change detection is O(1) per record: armed records are indexed by rid,
and each record digests its blake2b content
:meth:`~repro.reqs.ir.Requirement.fingerprint` once and caches it, so
an unchanged record is one dict probe and one string compare, and
committing a delta digests nothing.  Whether a *changed* record needs
a fresh monitor (formula changed) or only new bindings is likewise an
identity check downstream, because compiled LTL formulas are
hash-consed (:mod:`repro.ltl.compile`): ``parse(old) is parse(new)``.
"""

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.reqs.ir import Requirement
from repro.reqs.registry import RejectedNative


class BudgetExhausted(RuntimeError):
    """An :class:`IngestBudget` acquire timed out."""


class IngestBudget:
    """A bounded pool of in-flight-record credits.

    The producer side (``lower_iter``, the CLI feed) acquires one
    credit per record it emits; the consumer side (the re-arm plane,
    after a delta lands in the SOC; the CLI, after a record is
    printed) releases it.  When the pool is empty the producer blocks
    — the feed slows to the speed of the slowest consumer instead of
    ballooning memory, and because the SOC's shard queues are bounded
    too, total in-flight work is capped end to end.
    """

    def __init__(self, limit: int = 256):
        if limit < 1:
            raise ValueError(f"budget limit must be >= 1, got {limit}")
        self.limit = limit
        self._available = limit
        self._cond = threading.Condition()
        self.acquired_total = 0
        self.blocked_total = 0

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self.limit - self._available

    def acquire(self, n: int = 1, timeout: Optional[float] = None) -> None:
        """Take *n* credits, blocking while the pool is empty.

        Raises :class:`BudgetExhausted` when *timeout* (seconds)
        elapses first — callers treat that as "downstream is wedged",
        not as a normal slow consumer.
        """
        with self._cond:
            if self._available < n:
                self.blocked_total += 1
            if not self._cond.wait_for(lambda: self._available >= n,
                                       timeout=timeout):
                raise BudgetExhausted(
                    f"ingest budget: {n} credit(s) unavailable after "
                    f"{timeout}s ({self.limit - self._available} in flight)")
            self._available -= n
            self.acquired_total += n

    def release(self, n: int = 1) -> None:
        with self._cond:
            self._available = min(self.limit, self._available + n)
            self._cond.notify_all()


@dataclass(frozen=True)
class StreamDelta:
    """The minimal change between a feed batch and the armed set.

    ``changed`` pairs are ``(old, new)`` — consumers use the old
    record to find what is currently armed (bindings, formula) and
    decide patch shape.  ``unchanged`` counts records the feed
    re-sent byte-identically; they cost one fingerprint probe each
    and produce no work.
    """

    generation: int
    added: Tuple[Requirement, ...] = ()
    changed: Tuple[Tuple[Requirement, Requirement], ...] = ()
    removed: Tuple[Requirement, ...] = ()
    unchanged: int = 0
    #: Natives that failed to lower, carried for reporting.
    rejected: Tuple[RejectedNative, ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.added or self.changed or self.removed)

    def summary(self) -> Dict[str, int]:
        return {"generation": self.generation,
                "added": len(self.added), "changed": len(self.changed),
                "removed": len(self.removed), "unchanged": self.unchanged,
                "rejected": len(self.rejected)}


class ReqStream:
    """The armed requirement set, diffed against incoming IR.

    Feeds are *upsert* streams: a record mentioned again replaces (or
    confirms) its rid; a record not mentioned stays armed until an
    explicit removal — live sources re-announce what changed, not the
    whole world.  :meth:`diff` computes a :class:`StreamDelta` without
    mutating state; :meth:`commit` folds a delta in after the re-arm
    plane has applied it, so a failed re-arm can be retried against
    unchanged bookkeeping.  Thread-safe: a feed thread can diff while
    the SOC's incident path reads :meth:`armed`.
    """

    def __init__(self, armed: Iterable[Requirement] = ()):
        self._armed: Dict[str, Requirement] = {
            record.rid: record for record in armed}
        self._generation = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._armed)

    def __contains__(self, rid: str) -> bool:
        return rid in self._armed

    @property
    def generation(self) -> int:
        return self._generation

    def armed(self) -> List[Requirement]:
        with self._lock:
            return list(self._armed.values())

    def get(self, rid: str) -> Optional[Requirement]:
        return self._armed.get(rid)

    def diff(self, items: Iterable[Union[Requirement, RejectedNative]],
             remove_rids: Iterable[str] = ()) -> StreamDelta:
        """One feed batch -> the minimal delta against the armed set.

        *items* is whatever ``lower_iter`` yielded — records upsert,
        :class:`RejectedNative` markers are carried through for
        reporting.  *remove_rids* are explicit retirements (unknown
        rids are ignored: removal is idempotent).  Within one batch
        the last mention of a rid wins.
        """
        upserts: Dict[str, Requirement] = {}
        rejected: List[RejectedNative] = []
        for item in items:
            if isinstance(item, RejectedNative):
                rejected.append(item)
            else:
                upserts[item.rid] = item
        added: List[Requirement] = []
        changed: List[Tuple[Requirement, Requirement]] = []
        unchanged = 0
        with self._lock:
            for rid, record in upserts.items():
                old = self._armed.get(rid)
                if old is None:
                    added.append(record)
                elif old.fingerprint() == record.fingerprint():
                    unchanged += 1
                else:
                    changed.append((old, record))
            removed = [self._armed[rid]
                       for rid in dict.fromkeys(remove_rids)
                       if rid in self._armed and rid not in upserts]
            return StreamDelta(
                generation=self._generation + 1,
                added=tuple(added), changed=tuple(changed),
                removed=tuple(removed), unchanged=unchanged,
                rejected=tuple(rejected))

    def commit(self, delta: StreamDelta) -> None:
        """Fold an *applied* delta into the armed bookkeeping."""
        with self._lock:
            for record in delta.added:
                self._armed[record.rid] = record
            for _, record in delta.changed:
                self._armed[record.rid] = record
            for record in delta.removed:
                self._armed.pop(record.rid, None)
            self._generation = max(self._generation, delta.generation)
