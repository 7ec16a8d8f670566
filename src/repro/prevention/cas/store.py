"""Sharded, multi-writer-safe bucket store: the CAS persistence layer.

One :class:`BucketStore` is a directory of *buckets*: each entry is
addressed by its label's blake2b fingerprint, and the fingerprint's
leading hex digits pick the bucket file holding it
(``buckets/<prefix>.json``).  Sharding keeps the multi-writer unit
small — concurrent CI runs storing disjoint verdicts almost always
touch different buckets and never serialize behind one global file.

Writer protocol (the workflow-orchestrator persistent-state pattern:
lock, read, merge, atomic replace):

1. take the bucket's advisory lock: a write lock on byte
   ``int(prefix, 16)`` of the store's one lock file
   (``locks/buckets.lock``), taken as an open-file-description
   byte-range lock (``F_OFD_SETLK``) with a bounded spin.  OFD locks
   belong to the open file, not the process, so every acquisition
   opens the file afresh and two threads exclude each other exactly
   as two processes do.  Where ``F_OFD_SETLK`` is unavailable, an
   ``O_EXCL`` marker file per bucket (``locks/<prefix>.excl``) stands
   in;
2. re-read the bucket *under the lock* and merge the pending updates —
   conflicting labels resolve last-writer-wins by ``stored_at``
   logical stamp (fresh stores re-stamp above everything observed, so
   the writer holding the lock is by construction the latest);
3. write a temp file and ``os.replace`` it over the bucket.

The store once flocked one ``locks/<prefix>.lock`` file per bucket.
Those files are ignored now, and a writer of that protocol and a
writer of this one do not exclude each other on a shared root.  The
worst such a race can do is lose one update, which costs one
recompute and never a wrong verdict: every entry is checked against
its task's fingerprint before it is served.

Readers never lock: the atomic rename means any read observes a
complete document.  A torn temp file left by a killed writer is
ignored by reads and swept by compaction; a corrupt bucket file is
counted (``corrupt_loads``), warned about, and treated as empty — the
entries it held are re-verifiable by construction, never load-bearing.

Two chaos seams thread through (:mod:`repro.chaos`):
``cache.lock_timeout`` makes a lock acquisition time out (the write
stays pending and is retried on the next flush) and
``cache.stale_read`` makes a shared-tier read miss an entry that is
actually present (one redundant recompute; never a wrong verdict).
"""

import hashlib
import json
import os
import struct
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.prevention.stats import CacheStats

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback path
    fcntl = None

#: Open-file-description lock command (Linux); None selects the
#: ``O_EXCL`` marker-file fallback.
_OFD_SETLK = getattr(fcntl, "F_OFD_SETLK", None)


def _byte_lock(lock_type: int, byte: int) -> bytes:
    """A ``struct flock`` over one byte (``l_pid`` 0, as OFD locks
    require)."""
    return struct.pack("hhqqi4x", lock_type, os.SEEK_SET, byte, 1, 0)


def _in_dir(directory: Path, action):
    """Run *action*, which opens a file in *directory*; where the
    directory is missing, create it and run *action* once more.

    A warm store never pays for the ``mkdir``: it happens only on the
    first write to a fresh root, or after the root was removed.
    """
    try:
        return action()
    except FileNotFoundError:
        directory.mkdir(parents=True, exist_ok=True)
        return action()


class CacheLockTimeout(RuntimeError):
    """A bucket's advisory lock could not be taken in time."""


def bucket_prefix(label: str, prefix_len: int = 2) -> str:
    """The bucket shard for *label*: its fingerprint's leading digits."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8)
    return digest.hexdigest()[:prefix_len]


class BucketStore:
    """One tier of the CAS: a directory of sharded verdict buckets.

    Entries are ``label -> {fingerprint, verdict, stored_at,
    writer_id}``; ``stored_at`` is a logical (lamport-style) stamp that
    orders writers, ``writer_id`` names who stored it (provenance).
    Safe for concurrent writers across threads *and* processes; an
    internal mutex additionally serializes writers sharing this
    instance.
    """

    def __init__(self, root: Union[str, Path],
                 prefix_len: int = 2,
                 max_entries: Optional[int] = None,
                 lock_timeout_s: float = 5.0,
                 chaos=None,
                 stats=None,
                 tier: str = "local"):
        self.root = Path(root)
        self.buckets_dir = self.root / "buckets"
        self.locks_dir = self.root / "locks"
        self.prefix_len = prefix_len
        self.max_entries = max_entries
        self.lock_timeout_s = lock_timeout_s
        self.chaos = chaos
        self.tier = tier
        # Counters land in the owner's CacheStats when one is shared.
        self.stats = stats if stats is not None else CacheStats()
        self._mutex = threading.Lock()
        self._lock_attempts: Dict[str, int] = {}

    # -- bucket IO ----------------------------------------------------------

    def _bucket_path(self, prefix: str) -> Path:
        return self.buckets_dir / f"{prefix}.json"

    def _read_bucket(self, prefix: str) -> Dict[str, Dict[str, Any]]:
        """The bucket's entries; a corrupt document counts and reads
        empty (its verdicts are recomputable, never load-bearing)."""
        path = self._bucket_path(prefix)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            return {}
        except (OSError, json.JSONDecodeError) as exc:
            self.stats.corrupt_loads += 1
            warnings.warn(
                f"verification cache bucket {path} is corrupt and was "
                f"ignored ({exc}); its entries will be re-verified",
                RuntimeWarning, stacklevel=2)
            return {}
        entries = raw.get("entries", {}) if isinstance(raw, dict) else {}
        kept = {}
        for label, entry in entries.items():
            if isinstance(entry, dict) \
                    and isinstance(entry.get("fingerprint"), str):
                kept[label] = entry
        return kept

    def _write_bucket(self, prefix: str,
                      entries: Dict[str, Dict[str, Any]]) -> None:
        path = self._bucket_path(prefix)
        if not entries:
            # An emptied bucket is removed, not left as husk files.
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            return
        payload = json.dumps({"entries": entries}, sort_keys=True,
                             separators=(",", ":"))
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        _in_dir(self.buckets_dir, lambda: tmp.write_text(payload))
        os.replace(tmp, path)

    # -- advisory locking ---------------------------------------------------

    @contextmanager
    def _locked(self, prefix: str):
        """Hold bucket *prefix*'s advisory lock.

        The chaos seam draws per acquisition attempt (stable key
        ``tier:prefix:attempt``), so an injected timeout on one flush
        clears on a later retry instead of wedging the store forever.
        Real contention spins with a deadline; a genuine timeout raises
        the same :class:`CacheLockTimeout` the seam does.
        """
        with self._mutex:
            attempt = self._lock_attempts.get(prefix, 0)
            self._lock_attempts[prefix] = attempt + 1
        if self.chaos is not None and self.chaos.decide(
                "cache.lock_timeout", f"{self.tier}:{prefix}:{attempt}"):
            self.stats.lock_timeouts += 1
            raise CacheLockTimeout(
                f"injected lock timeout on bucket {prefix!r}")
        deadline = time.monotonic() + self.lock_timeout_s
        if _OFD_SETLK is not None:
            # A fresh open file description per acquisition: the lock
            # is owned by it, so it also excludes this process's other
            # threads (and other stores on the same root).
            fd = _in_dir(self.locks_dir, lambda: os.open(
                self.locks_dir / "buckets.lock",
                os.O_RDWR | os.O_CREAT, 0o644))
            byte = int(prefix, 16)
            try:
                while True:
                    try:
                        fcntl.fcntl(fd, _OFD_SETLK,
                                    _byte_lock(fcntl.F_WRLCK, byte))
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            self.stats.lock_timeouts += 1
                            raise CacheLockTimeout(
                                f"bucket {prefix!r} lock held past "
                                f"{self.lock_timeout_s}s")
                        time.sleep(0.002)
                try:
                    yield
                finally:
                    # Released explicitly: a child forked meanwhile
                    # shares the description and would keep it held.
                    fcntl.fcntl(fd, _OFD_SETLK,
                                _byte_lock(fcntl.F_UNLCK, byte))
            finally:
                os.close(fd)
        else:  # pragma: no cover - exercised only without F_OFD_SETLK
            marker = self.locks_dir / f"{prefix}.excl"
            while True:
                try:
                    fd = _in_dir(self.locks_dir, lambda: os.open(
                        marker, os.O_CREAT | os.O_EXCL))
                    os.close(fd)
                    break
                except FileExistsError:
                    if time.monotonic() >= deadline:
                        self.stats.lock_timeouts += 1
                        raise CacheLockTimeout(
                            f"bucket {prefix!r} lock held past "
                            f"{self.lock_timeout_s}s")
                    time.sleep(0.002)
            try:
                yield
            finally:
                try:
                    os.unlink(marker)
                except FileNotFoundError:
                    pass

    # -- reads --------------------------------------------------------------

    def get(self, label: str) -> Optional[Dict[str, Any]]:
        """The stored entry for *label*, or None (lock-free read)."""
        return self._read_bucket(
            bucket_prefix(label, self.prefix_len)).get(label)

    def entries(self) -> Dict[str, Dict[str, Any]]:
        """Every reachable entry across all buckets."""
        merged: Dict[str, Dict[str, Any]] = {}
        if not self.buckets_dir.is_dir():
            return merged
        for path in sorted(self.buckets_dir.glob("*.json")):
            merged.update(self._read_bucket(path.stem))
        return merged

    def labels(self) -> list:
        return sorted(self.entries())

    def __len__(self) -> int:
        return len(self.entries())

    # -- writes -------------------------------------------------------------

    def put_many(self, entries: Mapping[str, Dict[str, Any]],
                 fresh: bool = True,
                 deletions: Optional[Mapping[str, int]] = None
                 ) -> "set[str]":
        """Merge *entries* (and tombstoned *deletions*) into the store.

        Fresh stores re-stamp above every stamp observed in the bucket
        — the writer holding the lock is the latest writer, so
        conflicting labels resolve last-writer-wins.  The final stamp
        is written into the caller's entry dict *in place*: the owning
        tier store shares those dicts across its memory tier and
        pending journal, so every view agrees on the entry's identity
        after a flush.  Promotions (``fresh=False``, e.g. remote hits
        written back to the local tier) keep their original stamp and
        provenance and never overwrite a newer entry.  A deletion only
        lands while the bucket still holds the stamp the deleter
        observed: a concurrently re-stored entry survives its stale
        tombstone.

        A bucket whose advisory lock times out is skipped — its labels
        simply do not appear in the returned set, so callers keep them
        pending and retry on the next save.  One slow (or
        chaos-injected) bucket never blocks progress on the others.
        Returns the labels whose buckets were processed.
        """
        deletions = dict(deletions or {})
        by_prefix: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for label, entry in entries.items():
            by_prefix.setdefault(
                bucket_prefix(label, self.prefix_len), {})[label] = entry
        for label in deletions:
            by_prefix.setdefault(
                bucket_prefix(label, self.prefix_len),
                {})
        flushed: set = set()
        for prefix in sorted(by_prefix):
            updates = by_prefix[prefix]
            try:
                with self._locked(prefix):
                    bucket = self._read_bucket(prefix)
                    top = max(
                        (e.get("stored_at", 0) for e in bucket.values()),
                        default=0)
                    changed = False
                    for label, observed in deletions.items():
                        if bucket_prefix(label, self.prefix_len) != prefix:
                            continue
                        current = bucket.get(label)
                        if current is not None \
                                and current.get("stored_at", 0) <= observed:
                            del bucket[label]
                            changed = True
                        flushed.add(label)
                    for label, entry in updates.items():
                        current = bucket.get(label)
                        if fresh:
                            top = max(top + 1, entry.get("stored_at", 0))
                            entry["stored_at"] = top
                        elif current is not None and \
                                current.get("stored_at", 0) >= \
                                entry.get("stored_at", 0):
                            flushed.add(label)
                            continue
                        if current != entry:
                            bucket[label] = dict(entry)
                            changed = True
                        flushed.add(label)
                    if changed:
                        self._write_bucket(prefix, bucket)
            except CacheLockTimeout:
                continue
        return flushed

    def delete(self, label: str, observed_stamp: int) -> None:
        self.put_many({}, deletions={label: observed_stamp})

    # -- eviction / compaction ----------------------------------------------

    def compact(self, recency: Optional[Mapping[str, int]] = None,
                max_entries: Optional[int] = None) -> int:
        """Enforce the size bound and sweep writer debris.

        Keeps the ``max_entries`` most recently used entries — recency
        is ``max(stored_at, caller-observed hit stamp)``, so an old
        entry this process kept hitting outranks a never-read newer
        one.  Evicts under each affected bucket's lock, re-reading
        first: an entry a concurrent writer refreshed past our
        decision stamp survives.  Also removes torn temp files left by
        killed writers.  Returns the number of evicted entries.
        """
        bound = max_entries if max_entries is not None else self.max_entries
        recency = dict(recency or {})
        if self.buckets_dir.is_dir():
            for tmp in self.buckets_dir.glob("*.tmp.*"):
                try:
                    tmp.unlink()
                except OSError:
                    pass
        if bound is None:
            return 0
        snapshot = self.entries()
        if len(snapshot) <= bound:
            return 0
        self.stats.compactions += 1

        def rank(item: Tuple[str, Dict[str, Any]]) -> Tuple[int, str]:
            label, entry = item
            stamp = entry.get("stored_at", 0)
            return (max(stamp, recency.get(label, 0)), label)

        victims = sorted(snapshot.items(), key=rank)[:len(snapshot) - bound]
        evicted = 0
        by_prefix: Dict[str, list] = {}
        for label, entry in victims:
            by_prefix.setdefault(
                bucket_prefix(label, self.prefix_len), []).append(
                    (label, entry.get("stored_at", 0)))
        for prefix in sorted(by_prefix):
            with self._locked(prefix):
                bucket = self._read_bucket(prefix)
                changed = False
                for label, stamp in by_prefix[prefix]:
                    current = bucket.get(label)
                    if current is not None \
                            and current.get("stored_at", 0) <= stamp:
                        del bucket[label]
                        changed = True
                        evicted += 1
                if changed:
                    self._write_bucket(prefix, bucket)
        self.stats.evictions += evicted
        return evicted
