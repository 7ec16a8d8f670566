"""Sharded, multi-writer-safe bucket store: the CAS persistence layer.

One :class:`BucketStore` is a directory of *buckets*: each entry is
addressed by its label's blake2b fingerprint, and the fingerprint's
leading hex digits pick the bucket file holding it
(``buckets/<prefix>.json``).  Sharding keeps the multi-writer unit
small — concurrent CI runs storing disjoint verdicts almost always
touch different buckets and never serialize behind one global file.

Writer protocol (the workflow-orchestrator persistent-state pattern:
lock, read, merge, append or compact):

1. take the bucket's advisory lock: a write lock on byte
   ``int(prefix, 16)`` of the store's one lock file
   (``locks/buckets.lock``), taken as an open-file-description
   byte-range lock (``F_OFD_SETLK``) with a bounded spin.  OFD locks
   belong to the open file, not the process, so every write pass
   (one :meth:`BucketStore.put_many` or :meth:`BucketStore.compact`)
   opens the file afresh, once, and two threads exclude each other
   exactly as two processes do.  Where ``F_OFD_SETLK`` is
   unavailable, an ``O_EXCL`` marker file per bucket
   (``locks/<prefix>.excl``) stands in;
2. re-read the bucket *under the lock* and merge the pending updates —
   conflicting labels resolve last-writer-wins by ``stored_at``
   logical stamp (fresh stores re-stamp above everything observed, so
   the writer holding the lock is by construction the latest);
3. append one record holding only this flush's changes,
   ``{"entries": {label: entry | null}}`` and a newline (``null``
   deletes the label), in a single ``os.write``.  The bucket is
   instead written whole, as one record, through a temp file and
   ``os.replace`` when it is new, when its last record is torn, or
   when it already holds :data:`MAX_RECORDS` records, so a bucket
   file never outgrows that bound.  (On ext4 on a 2-CPU VM an append
   took about 4 µs, a rename replacing a file 85–130 µs.)

The store once flocked one ``locks/<prefix>.lock`` file per bucket.
Those files are ignored now, and a writer of that protocol and a
writer of this one do not exclude each other on a shared root.  The
worst such a race can do is lose one update, which costs one
recompute and never a wrong verdict: every entry is checked against
its task's fingerprint before it is served.

Readers never lock.  They replay the file's complete lines in order
(later records win) and drop one unterminated tail: an append cut
short by a killed writer (or still in flight) reads as the records
before it, and the next write to that bucket compacts it away.  A
lookup of one label parses only the newest record naming it.  A file
with no newline is parsed as one whole document, so buckets written
before the record format still read.  A torn temp file left by a
killed writer is ignored by reads and swept by compaction; a corrupt
bucket file (or a corrupt complete record) is counted
(``corrupt_loads``), warned about, and treated as empty — the entries
it held are re-verifiable by construction, never load-bearing.

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
from contextlib import ExitStack, contextmanager
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


#: The most records a bucket file holds.  A flush to a full bucket
#: writes it whole again as one record, so the replay each write makes
#: under its lock stays a few small records, and a bucket's size stays
#: bounded however often its labels change: one rename per
#: ``MAX_RECORDS`` flushes, appends in between.
MAX_RECORDS = 8


def _encode_record(entries: Mapping[str, Optional[Dict[str, Any]]]
                   ) -> bytes:
    """One bucket record: a JSON object on a line of its own."""
    return json.dumps({"entries": entries}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


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
        self._buckets = str(self.buckets_dir)
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

    def _bucket_path(self, prefix: str) -> str:
        return f"{self._buckets}/{prefix}.json"

    def _load(self, prefix: str, label: Optional[str] = None
              ) -> Tuple[Dict[str, Dict[str, Any]], Optional[int]]:
        """Replay the bucket: its entries, and the number of records a
        flush may append to (None when the next write must be whole:
        the bucket is missing, torn, corrupt, or a single document).

        Given a *label*, only what decides that label is parsed: the
        newest complete record naming it, so a lookup costs one small
        parse however many records the bucket holds.  A corrupt record
        such a read skips is counted by the next full replay (every
        write replays the whole bucket under its lock).

        A corrupt bucket counts and reads empty (its verdicts are
        recomputable, never load-bearing).
        """
        path = self._bucket_path(prefix)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
            end = raw.rfind(b"\n") + 1
            if not end:
                records = [json.loads(raw)]
            elif label is None:
                # Records hold no raw newline (JSON escapes it), so the
                # complete lines parse as one array; a torn tail past
                # the last newline is dropped.
                records = json.loads(
                    b"[" + raw[:end - 1].replace(b"\n", b",") + b"]")
            else:
                key = json.dumps(label).encode("utf-8")
                records = []
                for line in reversed(raw[:end - 1].split(b"\n")):
                    if key in line:
                        record = json.loads(line)
                        if label in record["entries"]:
                            records.append(record)
                            break
            entries: Dict[str, Dict[str, Any]] = {}
            for record in records:
                for name, entry in record["entries"].items():
                    if isinstance(entry, dict) \
                            and isinstance(entry.get("fingerprint"), str):
                        entries[name] = entry
                    else:
                        entries.pop(name, None)
        except FileNotFoundError:
            return {}, None
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            self.stats.corrupt_loads += 1
            warnings.warn(
                f"verification cache bucket {path} is corrupt and was "
                f"ignored ({exc!r}); its entries will be re-verified",
                RuntimeWarning, stacklevel=3)
            return {}, None
        if label is not None or end != len(raw) or not end:
            return entries, None
        return entries, len(records)

    def _write_bucket(self, prefix: str,
                      entries: Dict[str, Dict[str, Any]],
                      changes: Mapping[str, Optional[Dict[str, Any]]],
                      records: Optional[int]) -> None:
        """Persist a merge: *entries* is the bucket's new state,
        *changes* the labels it moved (None: deleted), *records* what
        :meth:`_load` reported under the same lock."""
        path = self._bucket_path(prefix)
        if not entries:
            # An emptied bucket is removed, not left as husk files.
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            return
        if records is not None and records < MAX_RECORDS:
            record = _encode_record(changes)
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            try:
                written = os.write(fd, record)
            finally:
                os.close(fd)
            if written != len(record):
                # The torn tail reads as the records before it; the
                # next write to this bucket compacts it away.
                raise OSError(f"short append to bucket {path}")
            return
        tmp = f"{path}.tmp.{os.getpid()}"
        payload = _encode_record(entries)

        def write_tmp():
            with open(tmp, "wb") as handle:
                handle.write(payload)

        _in_dir(self.buckets_dir, write_tmp)
        os.replace(tmp, path)

    # -- advisory locking ---------------------------------------------------

    @contextmanager
    def _lock_file(self):
        """One open description of ``locks/buckets.lock``, shared by a
        write pass's bucket locks (None on the marker-file fallback).

        OFD locks are owned by the description, so a pass that opens
        the file afresh excludes every other pass: other processes,
        this process's other threads, and other stores on the root.
        """
        if _OFD_SETLK is None:  # pragma: no cover - no F_OFD_SETLK
            yield None
            return
        fd = _in_dir(self.locks_dir, lambda: os.open(
            f"{self.locks_dir}/buckets.lock",
            os.O_RDWR | os.O_CREAT, 0o644))
        try:
            yield fd
        finally:
            os.close(fd)

    @contextmanager
    def _locked(self, prefix: str, lock_fd: Optional[int] = None):
        """Hold bucket *prefix*'s advisory lock, taken on *lock_fd* (a
        :meth:`_lock_file` description) or on a description of its own.

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
            with ExitStack() as stack:
                if lock_fd is None:
                    lock_fd = stack.enter_context(self._lock_file())
                byte = int(prefix, 16)
                while True:
                    try:
                        fcntl.fcntl(lock_fd, _OFD_SETLK,
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
                    fcntl.fcntl(lock_fd, _OFD_SETLK,
                                _byte_lock(fcntl.F_UNLCK, byte))
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
        return self._load(bucket_prefix(label, self.prefix_len),
                          label)[0].get(label)

    def entries(self) -> Dict[str, Dict[str, Any]]:
        """Every reachable entry across all buckets."""
        merged: Dict[str, Dict[str, Any]] = {}
        if not self.buckets_dir.is_dir():
            return merged
        for path in sorted(self.buckets_dir.glob("*.json")):
            merged.update(self._load(path.stem)[0])
        return merged

    def labels(self) -> list:
        return sorted(self.entries())

    def __len__(self) -> int:
        return len(self.entries())

    # -- writes -------------------------------------------------------------

    def put_many(self, entries: Mapping[str, Dict[str, Any]],
                 deletions: Optional[Mapping[str, int]] = None
                 ) -> "set[str]":
        """Merge fresh *entries* and tombstoned *deletions* into the
        store, in one pass over their buckets.

        Fresh stores re-stamp above every stamp observed in the bucket
        — the writer holding the lock is the latest writer, so
        conflicting labels resolve last-writer-wins.  The final stamp
        is written into the caller's entry dict *in place*: the owning
        tier store shares those dicts across its memory tier and
        pending journal, so every view agrees on the entry's identity
        after a flush.  A deletion only lands while the bucket still
        holds the stamp the deleter observed: a concurrently re-stored
        entry survives its stale tombstone.  Within a bucket, deletions
        apply first, then fresh stores.

        A bucket whose advisory lock times out is skipped — its labels
        simply do not appear in the returned set, so callers keep them
        pending and retry on the next save.  One slow (or
        chaos-injected) bucket never blocks progress on the others.
        Returns the labels whose buckets were processed.
        """
        by_prefix: Dict[str, Tuple[dict, dict]] = {}
        for slot, updates in enumerate((deletions or {}, entries)):
            for label, update in updates.items():
                prefix = bucket_prefix(label, self.prefix_len)
                if prefix not in by_prefix:
                    by_prefix[prefix] = ({}, {})
                by_prefix[prefix][slot][label] = update
        flushed: set = set()
        if not by_prefix:
            return flushed
        with self._lock_file() as lock_fd:
            for prefix in sorted(by_prefix):
                try:
                    with self._locked(prefix, lock_fd):
                        self._merge(prefix, *by_prefix[prefix])
                except CacheLockTimeout:
                    continue
                for updates in by_prefix[prefix]:
                    flushed.update(updates)
        return flushed

    def _merge(self, prefix: str, deletions: Dict[str, int],
               fresh: Dict[str, Dict[str, Any]]) -> None:
        """One bucket's share of :meth:`put_many`, under its lock."""
        bucket, records = self._load(prefix)
        top = max((e.get("stored_at", 0) for e in bucket.values()),
                  default=0)
        changes: Dict[str, Optional[Dict[str, Any]]] = {}
        for label, observed in deletions.items():
            current = bucket.get(label)
            if current is not None \
                    and current.get("stored_at", 0) <= observed:
                del bucket[label]
                changes[label] = None
        for label, entry in fresh.items():
            top = max(top + 1, entry.get("stored_at", 0))
            entry["stored_at"] = top
            if bucket.get(label) != entry:
                bucket[label] = changes[label] = dict(entry)
        if changes:
            self._write_bucket(prefix, bucket, changes, records)

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
        with self._lock_file() as lock_fd:
            for prefix in sorted(by_prefix):
                with self._locked(prefix, lock_fd):
                    bucket, records = self._load(prefix)
                    changes = {}
                    for label, stamp in by_prefix[prefix]:
                        current = bucket.get(label)
                        if current is not None \
                                and current.get("stored_at", 0) <= stamp:
                            del bucket[label]
                            changes[label] = None
                    if changes:
                        self._write_bucket(prefix, bucket, changes,
                                           records)
                        evicted += len(changes)
        self.stats.evictions += evicted
        return evicted
