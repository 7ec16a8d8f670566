"""The incremental prevention plane: content-addressed verification.

Re-running a CI pipeline re-verifies every requirement from scratch —
the "security tooling slows the pipeline" friction DevSecOps surveys
report.  This package makes prevention incremental: every verification
task (network of timed automata, query) gets a content address — a
blake2b fingerprint over a canonical serialization, as every
requirement has its own (:meth:`repro.reqs.ir.Requirement.fingerprint`)
— and :class:`TieredVerdictStore` persists verdicts keyed by task
label so a re-run only re-checks tasks whose formal artifacts actually
changed.  Mutating any ingested artifact changes its fingerprint and
invalidates exactly the affected entries.

The store (:mod:`repro.prevention.cas`) is an in-memory LRU over one
sharded :class:`BucketStore` — a directory-based remote shared by the
fleet when one is given, else a local one — so verdicts flow between
concurrent CI runs instead of being recomputed per process;
:func:`simulate_fleet` measures that end to end.
"""

from repro.prevention.cas import (
    BucketStore,
    CacheLockTimeout,
    TieredVerdictStore,
    bucket_prefix,
)
from repro.prevention.fleet import FleetReport, FleetRun, simulate_fleet
from repro.prevention.fingerprint import (
    canonical_network,
    canonical_network_json,
    canonical_query,
    fingerprint,
    fingerprint_task,
)
from repro.prevention.stats import CacheStats
from repro.prevention.tasks import bundled_verification_tasks

__all__ = [
    "BucketStore",
    "CacheLockTimeout",
    "CacheStats",
    "FleetReport",
    "FleetRun",
    "TieredVerdictStore",
    "bucket_prefix",
    "bundled_verification_tasks",
    "simulate_fleet",
    "canonical_network",
    "canonical_network_json",
    "canonical_query",
    "fingerprint",
    "fingerprint_task",
]
