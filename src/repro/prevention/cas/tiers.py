"""Read-through / write-back tiering over the bucket stores.

A :class:`TieredVerdictStore` stacks up to three tiers:

* **memory** — a per-process LRU map, the hot path for warm runs;
* **local** — a :class:`~repro.prevention.cas.store.BucketStore` on
  the run's own disk (survives process restarts);
* **remote** — a second bucket store on a directory shared by a whole
  CI fleet (the distributed part: every concurrent run reads and
  publishes the same verdict space).

Lookup is read-through: tiers are consulted fastest-first, and the
first tier holding the label decides the outcome exactly as the flat
JSON cache did — matching fingerprint is a hit (promoted into the
faster tiers), a moved fingerprint is an invalidation (tombstoned
everywhere) plus a miss.  Because the decision is made by the first
tier that knows the label, a sequence of lookups/stores is
*accounting-identical* to the flat cache whenever the tiers are
coherent — the equivalence property suite pins exactly that.

Writes are write-back: ``store`` lands in memory immediately and is
journaled as pending; ``save`` publishes pending entries (and
tombstones) to the local tier, then to the remote tier, each under its
bucket locks.  A lock timeout (real or chaos-injected) leaves the
remainder pending for the next ``save`` — nothing is lost, nothing
torn.  Every hit records provenance: which tier answered, which
writer stored the verdict, at what logical stamp.
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
    """The CAS front door: memory -> local -> remote verdict tiers."""

    def __init__(self,
                 local: Optional[BucketStore] = None,
                 remote: Optional[BucketStore] = None,
                 memory_entries: Optional[int] = None,
                 writer_id: str = "writer",
                 chaos=None,
                 stats: Optional[CacheStats] = None):
        self.stats = stats if stats is not None else CacheStats()
        self.memory = MemoryLRU(memory_entries)
        self.local = local
        self.remote = remote
        self.writer_id = writer_id
        self.chaos = chaos
        for tier in (local, remote):
            if tier is not None:
                tier.stats = self.stats
        #: Logical clock: advanced past every stamp this store observes,
        #: so fresh stores order after everything already seen.
        self._clock = 0
        self._pending: Dict[str, Dict[str, Any]] = {}
        self._dirty_local: set = set()
        self._dirty_remote: set = set()
        #: label -> highest stamp observed when invalidating; published
        #: as tombstones so stale entries cannot resurrect from a
        #: slower tier before the next save.
        self._tombstones: Dict[str, int] = {}
        #: label -> stamp of the last in-process hit (LRU recency for
        #: compaction) and the last hit's provenance for stats surfaces.
        self._recency: Dict[str, int] = {}
        self.last_hit: Optional[Dict[str, Any]] = None

    # -- helpers ------------------------------------------------------------

    def tier_names(self) -> List[str]:
        names = ["memory"]
        if self.local is not None:
            names.append("local")
        if self.remote is not None:
            names.append("remote")
        return names

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
        if label in self._pending:
            # A pending entry has not reached every tier yet, so its
            # stamp says nothing about the entry a tier still holds
            # (which may carry a higher stamp from an earlier process).
            # Delete against the stamps the tiers hold.
            for tier in (self.local, self.remote):
                held = tier.get(label) if tier is not None else None
                if held is not None:
                    stamp = max(stamp, held.get("stored_at", 0))
        self._observe(stamp)
        self.memory.delete(label)
        self._pending.pop(label, None)
        self._recency.pop(label, None)
        self._tombstones[label] = max(self._tombstones.get(label, 0), stamp)
        if self.local is not None:
            self._dirty_local.add(label)
        if self.remote is not None:
            self._dirty_remote.add(label)
        self.stats.invalidations += 1
        self.stats.misses += 1

    # -- the cache contract -------------------------------------------------

    def lookup(self, label: str, fp: str) -> Optional[Dict[str, Any]]:
        """The stored verdict for *label* at content address *fp*.

        The first tier holding the label decides: hit on a matching
        fingerprint (the entry is promoted into the faster tiers),
        invalidation + miss on a moved one, miss when no tier knows
        the label.
        """
        entry = self.memory.get(label)
        if entry is not None:
            if entry["fingerprint"] == fp:
                return self._hit(label, entry, "memory")
            self._invalidate(label, entry)
            return None
        if label in self._tombstones:
            # Invalidated but not yet flushed: the slower tiers still
            # hold the stale entry; do not resurrect it.
            self.stats.misses += 1
            return None
        if self.local is not None:
            entry = self.local.get(label)
            if entry is not None:
                if entry["fingerprint"] == fp:
                    self.memory.put(label, entry)
                    return self._hit(label, entry, "local")
                self._invalidate(label, entry)
                return None
        if self.remote is not None:
            entry = self.remote.get(label)
            if entry is not None and self.chaos is not None \
                    and self.chaos.decide("cache.stale_read",
                                          f"{label}:{fp}"):
                self.stats.stale_reads += 1
                entry = None
            if entry is not None:
                if entry["fingerprint"] == fp:
                    self.memory.put(label, entry)
                    if self.local is not None:
                        # Write-back promotion: provenance (stamp and
                        # original writer) rides along unchanged.
                        self._pending[label] = entry
                        self._dirty_local.add(label)
                    return self._hit(label, entry, "remote")
                self._invalidate(label, entry)
                return None
        self.stats.misses += 1
        return None

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
        if self.local is not None:
            self._dirty_local.add(label)
        if self.remote is not None:
            self._dirty_remote.add(label)
        self.stats.stores += 1

    def save(self) -> bool:
        """Flush pending writes/tombstones tier by tier; True if any
        label reached a tier.  Partial progress is durable: every
        bucket is attempted, only the labels whose bucket flushed
        leave the dirty set, and the remainder stays pending for the
        next save — one timed-out lock never holds the rest hostage."""
        wrote = False
        for tier, dirty in ((self.local, self._dirty_local),
                            (self.remote, self._dirty_remote)):
            if tier is None or not dirty:
                continue
            fresh_updates: Dict[str, Dict[str, Any]] = {}
            promotions: Dict[str, Dict[str, Any]] = {}
            deletions: Dict[str, int] = {}
            for label in sorted(dirty):
                if label in self._pending:
                    entry = self._pending[label]
                    if entry.get("writer_id") == self.writer_id:
                        fresh_updates[label] = entry
                    else:
                        promotions[label] = entry
                elif label in self._tombstones:
                    deletions[label] = self._tombstones[label]
            done: set = set()
            if fresh_updates or deletions:
                done |= tier.put_many(fresh_updates, fresh=True,
                                      deletions=deletions)
            if promotions:
                done |= tier.put_many(promotions, fresh=False)
            for label in done & set(fresh_updates):
                # put_many assigned the final last-writer-wins stamp
                # in place; keep the clock ahead of it.
                self._observe(fresh_updates[label].get("stored_at", 0))
            dirty.difference_update(done)
            if done:
                wrote = True
            if not dirty and tier.max_entries is not None:
                try:
                    tier.compact(recency=self._recency)
                except CacheLockTimeout:
                    pass      # eviction is advisory; retried next save
        if not self._dirty_local and not self._dirty_remote:
            self._pending.clear()
            self._tombstones.clear()
        return wrote

    # -- introspection ------------------------------------------------------

    def reachable_labels(self) -> List[str]:
        labels = set(self.memory.labels()) | set(self._pending)
        if self.local is not None:
            labels.update(self.local.labels())
        if self.remote is not None:
            labels.update(self.remote.labels())
        labels.difference_update(self._tombstones)
        return sorted(labels)

    def __len__(self) -> int:
        return len(self.reachable_labels())

    def stats_dict(self) -> Dict[str, int]:
        stats = self.stats.as_dict()
        stats["entries"] = len(self)
        return stats

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
