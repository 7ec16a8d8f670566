"""Verdict-store accounting: one counter block per
:class:`~repro.prevention.cas.tiers.TieredVerdictStore` lifetime,
shared with the bucket store beneath it.

The four classic counters (hits/misses/invalidations/stores) keep the
flat-cache contract CI leans on; the rest cover the tiers — per-tier
hit attribution, eviction/compaction work, and the failure-visibility
counters (``corrupt_loads`` for bucket documents that failed to
parse, ``lock_timeouts`` for bucket flushes that had to be retried,
``stale_reads`` for chaos-injected shared-tier misses).
Everything here is numeric by contract: the verification gate folds
the whole block into its float-valued metrics.
"""

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class CacheStats:
    """Counters for one cache lifetime (since load or last reset)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    stores: int = 0
    memory_hits: int = 0
    local_hits: int = 0
    remote_hits: int = 0
    evictions: int = 0
    compactions: int = 0
    corrupt_loads: int = 0
    lock_timeouts: int = 0
    stale_reads: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {field.name: getattr(self, field.name)
                for field in fields(self)}
