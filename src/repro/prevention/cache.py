"""Persistent content-addressed verdict store (compat front door).

Historically this module *was* the store: one JSON file mapping task
labels to ``{fingerprint, verdict}`` entries.  It is now a thin shim
over the tiered CAS in :mod:`repro.prevention.cas` — an in-memory LRU
over one persistent bucket store: a directory-based remote that
concurrent CI runs share when one is given, else a sharded local
store — with the exact lookup semantics the prevention plane was
built on:

* label present, fingerprint matches — **hit**: the stored verdict is
  returned (byte-identical to the flat-cache era) and no model
  checking runs;
* label present, fingerprint differs — **invalidation**: the stale
  entry is dropped (counted) and the lookup reports a miss;
* label absent — **miss**.

A save appends one record of its changes to each dirty bucket under
that bucket's advisory lock (a bucket is rewritten whole, through a
temp file and rename, only when it is new, torn or full), and only
dirty buckets are touched — a fully-warm run leaves every file as it
was.  A legacy single-file store (``verification-cache.json``) found
at the local cache root is migrated into the local bucket store on
first local open and renamed ``*.migrated``; a corrupt legacy file is
counted in ``corrupt_loads`` and warned about instead of being
silently swallowed.  All operations take the internal locks they
need: the parallel verification gate fans its misses out to a thread
pool and stores results back concurrently.
"""

import json
import os
import threading
import warnings
from itertools import count
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.prevention.cas.store import BucketStore
from repro.prevention.cas.tiers import TieredVerdictStore
from repro.prevention.stats import CacheStats

__all__ = ["CacheStats", "VerificationCache"]

#: Distinguishes writers sharing one process (fleet-simulator threads).
_WRITER_SEQ = count()

#: Tier configurations ``--cache-tier`` may request: the one tier the
#: memory tier persists to (none, the local store, the shared remote).
CACHE_TIERS = ("memory", "local", "shared")


def default_writer_id() -> str:
    return f"w{os.getpid()}.{next(_WRITER_SEQ)}"


class VerificationCache:
    """Tiered verdict cache keyed by task label + fingerprint.

    ``path`` is the local cache root (a directory; a legacy file path
    is accepted and resolved to its parent).  ``shared`` is the remote
    bucket store's directory — the tier a CI fleet shares.  ``tier``
    picks the one persistent tier: ``"memory"`` (no persistence),
    ``"local"`` (requires *path*; ignores *shared*), or ``"shared"``
    (requires *shared*; *path* is not used).  It defaults to
    ``"shared"`` when *shared* is given, else ``"local"`` when *path*
    is, else ``"memory"``.
    """

    FILENAME = "verification-cache.json"

    def __init__(self, path: Union[str, Path, None],
                 shared: Union[str, Path, None] = None,
                 tier: Optional[str] = None,
                 max_entries: Optional[int] = None,
                 memory_entries: Optional[int] = None,
                 writer_id: Optional[str] = None,
                 chaos=None):
        if tier is None:
            tier = "shared" if shared is not None else \
                ("local" if path is not None else "memory")
        if tier not in CACHE_TIERS:
            raise ValueError(f"unknown cache tier {tier!r}; "
                             f"choose from {', '.join(CACHE_TIERS)}")
        if tier == "shared" and shared is None:
            raise ValueError("tier 'shared' needs a shared cache "
                             "directory")
        if tier == "local" and path is None:
            raise ValueError("tier 'local' needs a local cache path")
        self.writer_id = writer_id if writer_id is not None \
            else default_writer_id()
        self.stats = CacheStats()
        self._lock = threading.Lock()

        legacy: Optional[Path] = None
        root: Optional[Path] = None
        if path is not None:
            path = Path(path)
            # A file path (the legacy single-file store, or any .json)
            # resolves to its parent directory — `--cache DIR` and the
            # historical `--cache DIR/verification-cache.json` both
            # land on the same root.
            if path.suffix == ".json" or path.is_file():
                legacy, root = path, path.parent
            else:
                legacy, root = path / self.FILENAME, path
        self.path = root
        self.legacy_path = legacy

        local = remote = None
        if tier == "local":
            local = BucketStore(root / "cas", max_entries=max_entries,
                                chaos=chaos, stats=self.stats,
                                tier="local")
        elif tier == "shared":
            remote = BucketStore(Path(shared) / "cas",
                                 max_entries=max_entries, chaos=chaos,
                                 stats=self.stats, tier="remote")
        self.store_tiers = TieredVerdictStore(
            local=local, remote=remote, memory_entries=memory_entries,
            writer_id=self.writer_id, chaos=chaos, stats=self.stats)
        if local is not None:
            self._migrate_legacy(legacy)

    # -- legacy single-file migration ---------------------------------------

    def _migrate_legacy(self, legacy: Path) -> None:
        """Fold a flat-era JSON store into the bucket store, once.

        The legacy document's entries are stored through the normal
        write-back path (they get stamps and provenance) and the file
        is renamed ``*.migrated`` so a later open cannot resurrect
        entries that were since invalidated or evicted.  A document
        that fails to parse is *counted* (``corrupt_loads``) and
        warned about — the flat-era shim swallowed it silently.
        """
        if not legacy.exists():
            return
        try:
            raw = json.loads(legacy.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            self.stats.corrupt_loads += 1
            warnings.warn(
                f"legacy verification cache {legacy} is corrupt and "
                f"was ignored ({exc}); starting empty",
                RuntimeWarning, stacklevel=2)
            return
        entries = raw.get("entries", {}) if isinstance(raw, dict) else {}
        migrated = 0
        for label, entry in entries.items():
            if isinstance(entry, dict) \
                    and isinstance(entry.get("fingerprint"), str):
                self.store_tiers.store(label, entry["fingerprint"],
                                       entry.get("verdict"))
                migrated += 1
        # Migration is plumbing, not cache traffic: flush the adopted
        # entries, then reset every counter the stores just bumped.
        self.store_tiers.save()
        self.stats.stores -= migrated
        self.stats.migrated += migrated
        os.replace(legacy, legacy.with_suffix(".json.migrated"))

    # -- the cache contract -------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self.store_tiers)

    def lookup(self, label: str, fp: str) -> Optional[Dict[str, Any]]:
        """The stored verdict for *label* at content address *fp*.

        Returns the verdict dict on a hit; ``None`` on a miss.  A stale
        entry (same label, different fingerprint) is dropped and counted
        as an invalidation plus a miss.
        """
        with self._lock:
            return self.store_tiers.lookup(label, fp)

    def store(self, label: str, fp: str, verdict: Dict[str, Any]) -> None:
        """Record *verdict* for *label* at content address *fp*."""
        with self._lock:
            self.store_tiers.store(label, fp, verdict)

    def save(self) -> bool:
        """Flush dirty entries to the persistent tier; returns whether
        any bucket was written."""
        with self._lock:
            return self.store_tiers.save()

    def labels(self) -> List[str]:
        with self._lock:
            return self.store_tiers.reachable_labels()

    def tier_names(self) -> List[str]:
        return self.store_tiers.tier_names()

    def stats_dict(self) -> Dict[str, int]:
        with self._lock:
            return self.store_tiers.stats_dict()

    def provenance_dict(self) -> Dict[str, Any]:
        with self._lock:
            return self.store_tiers.provenance_dict()
