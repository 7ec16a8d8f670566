"""Distributed content-addressed verification cache (CAS).

The prevention plane's verdict store, promoted from one JSON file to a
remote-cache architecture: sharded multi-writer buckets
(:mod:`~repro.prevention.cas.store`) stacked into read-through /
write-back tiers (:mod:`~repro.prevention.cas.tiers`) — an in-memory
LRU over one persistent store: a directory-based remote shared by a
whole CI fleet, or a local on-disk store when there is no remote.
:class:`~repro.prevention.cas.tiers.TieredVerdictStore` is the one
verdict store: callers build it over one :class:`BucketStore` and hand
it to the verification gate.
"""

from repro.prevention.cas.store import (
    BucketStore,
    CacheLockTimeout,
    bucket_prefix,
)
from repro.prevention.cas.tiers import MemoryLRU, TieredVerdictStore

__all__ = [
    "BucketStore",
    "CacheLockTimeout",
    "MemoryLRU",
    "TieredVerdictStore",
    "bucket_prefix",
]
