"""Security Operations Center runtime (operations-time, fleet-scale).

The paper's WP3 — reactive protection at operations — reproduced as a
long-running concurrent service instead of a synchronous per-host loop:

* :mod:`repro.soc.sharding` — consistent hashing of hosts onto shards;
* :mod:`repro.soc.queues` — bounded shard queues with backpressure
  (block / drop-oldest / reject);
* :mod:`repro.soc.bank` — one host's monitor bank: sound atom-indexed
  routing and transactional stepping, shared by both backends;
* :mod:`repro.soc.sessions` — the thread backend's per-host bank,
  progressed off the emitting thread;
* :mod:`repro.soc.incidents` — the incident pipeline: retry with
  exponential backoff + jitter, per-finding circuit breakers (the
  scheduler's :mod:`repro.sched.breaker` and :mod:`repro.sched.policy`,
  imported from there);
* :mod:`repro.soc.metrics` — counters / gauges / histograms,
  snapshotable as plain dicts;
* :mod:`repro.soc.workers` — the shard worker threads;
* :mod:`repro.soc.supervisor` — restarts dead workers, deposes hung
  ones, without losing queued events;
* :mod:`repro.soc.quarantine` — poison-event strikes and the bounded
  dead-letter queue;
* :mod:`repro.soc.service` — :class:`SocService`: ingress, lifecycle
  (start / drain / stop), reconcile sweep, results;
* :mod:`repro.soc.report` — human-readable and JSON run reports;
* :mod:`repro.soc.rearm` — live delta re-arming of a running service,
  and the monitor plan (drift detectors and LTL monitors) per record;
* :mod:`repro.soc.procplane` — the process backend: shard workers in
  their own processes behind a binary event plane.

Entry points: ``Fleet.arm_soc(...)`` from :mod:`repro.core.fleet`, the
``repro soc`` CLI subcommand, and benchmark E12.
"""

from repro.soc.incidents import IncidentPipeline
from repro.soc.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.soc.quarantine import DeadLetter, DeadLetterQueue, Quarantine
from repro.soc.queues import Backpressure, PutResult, QueueClosed, ShardQueue
from repro.soc.report import render_report, run_summary
from repro.soc.service import SocService, arm_soc
from repro.soc.sessions import Detection, MonitorSession
from repro.soc.sharding import HashRing, stable_hash
from repro.soc.supervisor import WorkerSupervisor
from repro.soc.workers import ShardWorker

__all__ = [
    "Backpressure",
    "Counter",
    "DeadLetter",
    "DeadLetterQueue",
    "Detection",
    "Gauge",
    "HashRing",
    "Histogram",
    "IncidentPipeline",
    "MetricsRegistry",
    "MonitorSession",
    "PutResult",
    "Quarantine",
    "QueueClosed",
    "ShardQueue",
    "ShardWorker",
    "SocService",
    "WorkerSupervisor",
    "arm_soc",
    "render_report",
    "run_summary",
    "stable_hash",
]
