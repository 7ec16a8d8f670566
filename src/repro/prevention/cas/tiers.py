"""Read-through / write-back tiering over one bucket store.

A :class:`TieredVerdictStore` stacks two tiers:

* **memory** — a per-process LRU map, the hot path for warm runs;
* **one persistent tier** — a
  :class:`~repro.prevention.cas.store.BucketStore`: the *remote* on a
  directory a whole CI fleet shares when one is configured (every
  concurrent run reads and publishes the same verdict space), else
  the *local* store on the run's own disk.  A local store given beside
  a remote is never read or written: a CI agent's local tier would
  only ever mirror the remote it sits behind.

Lookup is read-through: memory first, then the persistent tier, and
the first tier holding the label decides the outcome exactly as the
flat JSON cache did — matching fingerprint is a hit (kept in memory),
a moved fingerprint is an invalidation (tombstoned in both tiers) plus
a miss.  A sequence of lookups/stores is therefore
*accounting-identical* to the flat cache — the equivalence property
suite pins exactly that.

Writes are write-back: ``store`` lands in memory immediately and is
journaled as pending; ``save`` publishes pending entries and
tombstones to the persistent tier in one pass under its bucket locks.
A lock timeout (real or chaos-injected) leaves the remainder pending
for the next ``save`` — nothing is lost, nothing torn.  Every hit
records provenance: which tier answered, which writer stored the
verdict, at what logical stamp.

A store takes no locks of its own: each caller owns one store per
thread (the verification gate looks up, stores and saves on its
calling thread; each fleet run opens its own store).  Writers that
share a persistent tier meet only under its bucket locks.
"""

from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.prevention.cas.store import BucketStore, CacheLockTimeout
from repro.prevention.stats import CacheStats


class MemoryLRU:
    """Bounded label -> entry map with least-recently-used eviction."""

    def __init__(self, max_entries: Optional[int] = None):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def get(self, label: str) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(label)
        if entry is not None:
            self._entries.move_to_end(label)
        return entry

    def put(self, label: str, entry: Dict[str, Any]) -> None:
        self._entries[label] = entry
        self._entries.move_to_end(label)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def delete(self, label: str) -> None:
        self._entries.pop(label, None)

    def labels(self) -> List[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class TieredVerdictStore:
    """The CAS front door: memory over one persistent verdict tier
    (the remote when given, else the local)."""

    def __init__(self,
                 local: Optional[BucketStore] = None,
                 remote: Optional[BucketStore] = None,
                 memory_entries: Optional[int] = None,
                 writer_id: str = "writer",
                 chaos=None,
                 stats: Optional[CacheStats] = None):
        self.stats = stats if stats is not None else CacheStats()
        self.memory = MemoryLRU(memory_entries)
        #: The one persistent tier and the name its hits count under.
        self.persistent = remote if remote is not None else local
        self.persistent_name = "remote" if remote is not None else "local"
        self.writer_id = writer_id
        self.chaos = chaos
        if self.persistent is not None:
            self.persistent.stats = self.stats
        #: Logical clock: advanced past every stamp this store observes,
        #: so fresh stores order after everything already seen.
        self._clock = 0
        self._pending: Dict[str, Dict[str, Any]] = {}
        #: Labels whose pending entry or tombstone the tier lacks.
        self._dirty: set = set()
        #: label -> highest stamp observed when invalidating; published
        #: as tombstones so a stale entry cannot resurrect from the
        #: tier before the next save.
        self._tombstones: Dict[str, int] = {}
        #: label -> stamp of the last in-process hit (LRU recency for
        #: compaction) and the last hit's provenance for stats surfaces.
        self._recency: Dict[str, int] = {}
        self.last_hit: Optional[Dict[str, Any]] = None

    # -- helpers ------------------------------------------------------------

    def tier_names(self) -> List[str]:
        if self.persistent is None:
            return ["memory"]
        return ["memory", self.persistent_name]

    def _observe(self, stamp: int) -> None:
        if stamp > self._clock:
            self._clock = stamp

    def _hit(self, label: str, entry: Dict[str, Any], tier: str):
        self.stats.hits += 1
        setattr(self.stats, f"{tier}_hits",
                getattr(self.stats, f"{tier}_hits") + 1)
        self._observe(entry.get("stored_at", 0))
        self._clock += 1
        self._recency[label] = self._clock
        self.last_hit = {
            "label": label,
            "tier": tier,
            "writer_id": entry.get("writer_id", "?"),
            "stored_at": entry.get("stored_at", 0),
        }
        return entry["verdict"]

    def _invalidate(self, label: str, entry: Dict[str, Any]) -> None:
        """Drop *label* everywhere: the artifact moved under it."""
        stamp = entry.get("stored_at", 0)
        if label in self._pending and self.persistent is not None:
            # A pending entry may not have reached the tier, so its
            # stamp says nothing about the entry the tier still holds
            # (which may carry a higher stamp from an earlier process).
            # Delete against the stamp the tier holds.
            held = self.persistent.get(label)
            if held is not None:
                stamp = max(stamp, held.get("stored_at", 0))
        self._observe(stamp)
        self.memory.delete(label)
        self._pending.pop(label, None)
        self._recency.pop(label, None)
        self._tombstones[label] = max(self._tombstones.get(label, 0), stamp)
        if self.persistent is not None:
            self._dirty.add(label)
        self.stats.invalidations += 1
        self.stats.misses += 1

    # -- the cache contract -------------------------------------------------

    def lookup(self, label: str, fp: str) -> Optional[Dict[str, Any]]:
        """The stored verdict for *label* at content address *fp*.

        The first tier holding the label decides: hit on a matching
        fingerprint (a tier hit is kept in memory), invalidation + miss
        on a moved one, miss when no tier knows the label.
        """
        entry = self.memory.get(label)
        if entry is not None:
            if entry["fingerprint"] == fp:
                return self._hit(label, entry, "memory")
            self._invalidate(label, entry)
            return None
        if label in self._tombstones or self.persistent is None:
            # A tombstone not yet flushed: the tier still holds the
            # stale entry; do not resurrect it.
            self.stats.misses += 1
            return None
        entry = self.persistent.get(label)
        if entry is not None and self.chaos is not None \
                and self.persistent_name == "remote" \
                and self.chaos.decide("cache.stale_read", f"{label}:{fp}"):
            self.stats.stale_reads += 1
            entry = None
        if entry is None:
            self.stats.misses += 1
            return None
        if entry["fingerprint"] != fp:
            self._invalidate(label, entry)
            return None
        self.memory.put(label, entry)
        return self._hit(label, entry, self.persistent_name)

    def store(self, label: str, fp: str, verdict: Dict[str, Any]) -> None:
        """Record *verdict* for *label* at content address *fp*."""
        self._clock += 1
        entry = {
            "fingerprint": fp,
            "verdict": verdict,
            "stored_at": self._clock,
            "writer_id": self.writer_id,
        }
        self.memory.put(label, entry)
        self._pending[label] = entry
        self._recency[label] = self._clock
        self._tombstones.pop(label, None)
        if self.persistent is not None:
            self._dirty.add(label)
        self.stats.stores += 1

    def save(self) -> bool:
        """Flush pending stores and tombstones to the persistent tier
        in one :meth:`~BucketStore.put_many` pass; True if any label
        reached it.  Partial progress is durable: every bucket is
        attempted, only the labels whose bucket flushed leave the
        dirty set, and the remainder stays pending for the next save —
        one timed-out lock never holds the rest hostage."""
        wrote = False
        if self._dirty:
            updates: Dict[str, Dict[str, Any]] = {}
            deletions: Dict[str, int] = {}
            for label in sorted(self._dirty):
                if label in self._pending:
                    updates[label] = self._pending[label]
                elif label in self._tombstones:
                    deletions[label] = self._tombstones[label]
            done = self.persistent.put_many(updates, deletions=deletions)
            for label in done & set(updates):
                # put_many assigned the final last-writer-wins stamp
                # in place; keep the clock ahead of it.
                self._observe(updates[label].get("stored_at", 0))
            self._dirty.difference_update(done)
            wrote = bool(done)
            if not self._dirty and self.persistent.max_entries is not None:
                try:
                    self.persistent.compact(recency=self._recency)
                except CacheLockTimeout:
                    pass      # eviction is advisory; retried next save
        if not self._dirty:
            self._pending.clear()
            self._tombstones.clear()
        return wrote

    # -- introspection ------------------------------------------------------

    def reachable_labels(self) -> List[str]:
        labels = set(self.memory.labels()) | set(self._pending)
        if self.persistent is not None:
            labels.update(self.persistent.labels())
        labels.difference_update(self._tombstones)
        return sorted(labels)

    def __len__(self) -> int:
        return len(self.reachable_labels())

    def stats_dict(self) -> Dict[str, int]:
        """The counters only: ``len(self)`` reads every bucket of the
        persistent tier, work that grows with the fleet, so callers
        that want the entry count ask for it once."""
        return self.stats.as_dict()

    def provenance_dict(self) -> Dict[str, Any]:
        """Cache-hit provenance for the run summary: who answered."""
        return {
            "writer_id": self.writer_id,
            "tiers": self.tier_names(),
            "tier_hits": {
                "memory": self.stats.memory_hits,
                "local": self.stats.local_hits,
                "remote": self.stats.remote_hits,
            },
            "last_hit": self.last_hit,
        }
