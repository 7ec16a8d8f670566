"""The SOC service: sharded, concurrent fleet protection.

:class:`SocService` is the operations-time runtime the serial
:class:`~repro.core.protection.ProtectionLoop` grows into:

* **ingress** — subscribes to every protected host's event log; each
  event is routed by consistent hash of the host id onto one of N
  bounded shard queues (:mod:`repro.soc.queues` backpressure policies);
* **workers** — one thread per shard progresses the per-host
  :class:`~repro.soc.sessions.MonitorSession` off the emitting thread,
  under a :class:`~repro.soc.supervisor.WorkerSupervisor` that restarts
  dead workers and deposes hung ones without losing queued events;
* **incident pipeline** — detections become incidents with
  retry/backoff/jitter enforcement, per-finding circuit breakers, and
  repair-exception escalation (:mod:`repro.soc.incidents`);
* **quarantine** — events that repeatedly fail are parked in a bounded
  dead-letter queue (:mod:`repro.soc.quarantine`) instead of wedging
  their shard;
* **metrics** — every stage reports into one
  :class:`~repro.soc.metrics.MetricsRegistry`;
* **lifecycle** — ``start`` / ``drain`` / ``stop``, all idempotent and
  safe to call from concurrent threads.  ``drain()`` is a
  deterministic flush barrier: after it returns, every accepted event
  has been fully processed or dead-lettered, and dead workers
  discovered mid-drain are restarted rather than deadlocking the
  barrier.
* **chaos** — an optional
  :class:`~repro.chaos.controller.ChaosController` wraps every seam
  above with seeded, replayable fault injection; ``reconcile()`` is
  the degradation ladder's last rung, sweeping hosts back to
  compliance when faults ate the event-driven path.

Because a host is pinned to exactly one shard, its events are processed
in emission order and its incidents handled serially, while distinct
hosts proceed in parallel — the same per-host semantics as the serial
loop, at fleet scale.
"""

import os
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.protection import Incident
from repro.environment.events import Event
from repro.environment.host import SimulatedHost
from repro.ltl.monitor import LtlMonitor
from repro.rqcode.catalog import StigCatalog
from repro.rqcode.concepts import CheckStatus
from repro.sched.policy import RetryPolicy
from repro.soc.incidents import IncidentPipeline
from repro.soc.metrics import MetricsRegistry
from repro.soc.quarantine import DeadLetterQueue, Quarantine
from repro.soc.queues import Backpressure, PutResult, QueueClosed, ShardQueue
from repro.soc.sessions import MonitorSession
from repro.soc.sharding import HashRing
from repro.soc.supervisor import WorkerSupervisor
from repro.soc.workers import ShardWorker

#: One host's armed monitors and their RQCODE bindings.
ProtectionPlan = Tuple[Dict[str, LtlMonitor], Dict[str, List[str]]]

#: Recognized shard-execution backends (see ``backend=`` below).
BACKENDS = ("thread", "process")

#: Environment override for the default backend (CLI/constructor win).
BACKEND_ENV = "REPRO_SOC_BACKEND"


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a backend name: explicit arg > $REPRO_SOC_BACKEND > thread."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown SOC backend {backend!r}; expected one of {BACKENDS}")
    return backend


class SocService:
    """Sharded concurrent protection over a set of hosts."""

    def __init__(self, hosts: Sequence[SimulatedHost], catalog: StigCatalog,
                 plans: Dict[str, ProtectionPlan],
                 shards: int = 4,
                 queue_capacity: int = 256,
                 policy: Backpressure = Backpressure.BLOCK,
                 retry: Optional[RetryPolicy] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: int = 2,
                 seed: int = 0,
                 sleeper=None,
                 metrics: Optional[MetricsRegistry] = None,
                 chaos=None,
                 max_deliveries: int = 3,
                 dead_letter_capacity: int = 64,
                 supervisor_interval: float = 0.02,
                 backend: Optional[str] = None,
                 risk=None,
                 placement: Optional[Dict[str, int]] = None):
        self.backend = resolve_backend(backend)
        #: Optional :class:`~repro.reqs.risk.RiskIndex` — orders the
        #: reconcile sweep (highest-risk requirements repaired first
        #: within the bounded budget) and accumulates incident history
        #: through the pipeline.
        self.risk = risk
        self.hosts = {host.name: host for host in hosts}
        missing = set(self.hosts) - set(plans)
        if missing:
            raise ValueError(f"no protection plan for: {sorted(missing)}")
        self.catalog = catalog
        self.plans = plans
        self.shards = shards
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.chaos = chaos
        hang_timeout = None
        if chaos is not None:
            chaos.metrics = self.metrics
            if chaos.plan.queue_capacity is not None:
                queue_capacity = chaos.plan.queue_capacity
            max_deliveries = chaos.plan.max_deliveries
            dead_letter_capacity = chaos.plan.dead_letter_capacity
            hang_timeout = chaos.plan.hang_timeout
        pipeline_kwargs = dict(
            retry=retry, breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown, seed=seed, chaos=chaos,
            risk=risk)
        if sleeper is not None:
            pipeline_kwargs["sleeper"] = sleeper
        self.pipeline = IncidentPipeline(catalog, self.metrics,
                                         **pipeline_kwargs)
        self.ring = HashRing(shards)
        policy = Backpressure(policy)   # accept "block" etc. verbatim
        self.queues = [ShardQueue(queue_capacity, policy)
                       for _ in range(shards)]
        self.dead_letters = DeadLetterQueue(dead_letter_capacity)
        self.quarantines = [Quarantine(max_deliveries)
                            for _ in range(shards)]
        self.sessions: Dict[str, MonitorSession] = {}
        #: Optional explicit host→shard routing hints (e.g. the
        #: conduit-aware placement a generated topology derives); hosts
        #: without a hint fall back to hash-ring placement.
        if placement:
            bad = {name: shard for name, shard in placement.items()
                   if not isinstance(shard, int)
                   or isinstance(shard, bool)
                   or not 0 <= shard < shards}
            if bad:
                raise ValueError(
                    f"placement hints out of range for {shards} "
                    f"shard(s): {bad}")
        self._placement: Dict[str, int] = {}
        for name, host in sorted(self.hosts.items()):
            monitors, bindings = plans[name]
            self.sessions[name] = MonitorSession(host, monitors, bindings)
            self._placement[name] = (
                placement[name] if placement and name in placement
                else self.ring.shard_for(name))
            self.pipeline.register_host(name)
        self._shard_sessions: Dict[int, Dict[str, MonitorSession]] = {
            index: {} for index in range(shards)}
        for name, session in self.sessions.items():
            self._shard_sessions[self._placement[name]][name] = session
        self.workers: List[ShardWorker] = []
        self.supervisor = WorkerSupervisor(
            self, interval=supervisor_interval, hang_timeout=hang_timeout)
        self._proc = None
        if self.backend == "process":
            from repro.soc.procplane.backend import ProcessBackend
            self._proc = ProcessBackend(
                self, queue_capacity, policy,
                max_deliveries=max_deliveries,
                chaos_plan_json=(chaos.plan.to_json()
                                 if chaos is not None else None),
                supervisor_interval=supervisor_interval)
        self._subscriptions = []
        self._config_hooks: List[Tuple[SimulatedHost, object]] = []
        self._running = False
        self._stop_started = False
        self._terminated = False
        self._stopped_event = threading.Event()
        self._lock = threading.Lock()
        self._steps_lock = threading.Lock()
        #: Session steps already folded into ``soc.monitors.stepped``.
        self._steps_folded = 0

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def for_fleet(cls, fleet, orchestrator=None,
                  frontends: Optional[Sequence[str]] = None,
                  **kwargs) -> "SocService":
        """Build a service for a :class:`~repro.core.fleet.Fleet`,
        deriving each host's plan from the orchestrator's standards
        ingest (the same monitors ``FleetProtection`` would arm).

        ``frontends`` names additional registered front-ends (e.g.
        ``["standards"]``) whose bundled corpora are lowered into the
        IR and ingested as well; their host-targeted records route
        drift monitors onto matching hosts exactly like the native
        standards ingest — SOC monitor routing is front-end agnostic.
        """
        from repro.core.orchestrator import VeriDevOpsOrchestrator

        if orchestrator is None:
            orchestrator = VeriDevOpsOrchestrator(catalog=fleet.catalog)
            for platform in sorted({host.os_family
                                    for host in fleet.hosts()}):
                orchestrator.ingest_standards(platform)
        for name in frontends or ():
            orchestrator.ingest_frontend(name)
        plans = {host.name: orchestrator.protection_plan(host)
                 for host in fleet.hosts()}
        return cls(fleet.hosts(), fleet.catalog, plans, **kwargs)

    # -- lifecycle -------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    @property
    def accepts_restarts(self) -> bool:
        """The supervisor may spawn replacement workers (until the
        service has fully terminated)."""
        return not self._terminated

    def _make_worker(self, index: int, generation: int = 0) -> ShardWorker:
        return ShardWorker(index, self.queues[index],
                           self._shard_sessions[index], self.pipeline,
                           self.metrics, chaos=self.chaos,
                           quarantine=self.quarantines[index],
                           dead_letters=self.dead_letters,
                           generation=generation,
                           on_death=self.supervisor.note_death)

    def start(self) -> "SocService":
        """Spin up shard workers and attach ingress (idempotent)."""
        with self._lock:
            if self._running:
                return self
            if self._terminated:
                raise RuntimeError("service already stopped; "
                                   "build a fresh SocService")
            if self._proc is not None:
                self._proc.start()
            else:
                self.workers = [self._make_worker(index)
                                for index in range(self.shards)]
                for worker in self.workers:
                    worker.start()
            for name, host in sorted(self.hosts.items()):
                self._subscriptions.append(
                    host.events.subscribe(self._ingress_for(name)))
                if self.chaos is not None \
                        and self.chaos.plan.rate("config.slow") > 0:
                    hook = self.chaos.config_read_hook(name)
                    host.config.set_read_hook(hook)
                    self._config_hooks.append((host, hook))
            self.metrics.gauge("soc.shards").set(self.shards)
            self.metrics.gauge("soc.hosts").set(len(self.hosts))
            self._running = True
        if self._proc is None:
            self.supervisor.start()
        return self

    def _put(self, host_name: str, queue: ShardQueue, event: Event,
             counters) -> None:
        """Enqueue one (possibly chaos-expanded) event with accounting."""
        ingested, dropped, rejected = counters
        try:
            result = queue.put((host_name, event))
        except QueueClosed:
            # Racing a concurrent stop(): the event is refused, counted.
            rejected.inc()
            return
        if result is PutResult.REJECTED:
            rejected.inc()
            return
        if result is PutResult.DISPLACED:
            dropped.inc()
        ingested.inc()

    def _deliver_for(self, host_name: str):
        """The accounted per-host enqueue path, backend-resolved once."""
        counters = (self.metrics.counter("soc.events.ingested"),
                    self.metrics.counter("soc.events.dropped"),
                    self.metrics.counter("soc.events.rejected"))
        if self._proc is not None:
            raw = self._proc.putter(host_name)
            ingested, _dropped, rejected = counters

            def deliver(event: Event) -> None:
                try:
                    result = raw(event)
                except QueueClosed:
                    rejected.inc()
                    return
                if result is PutResult.REJECTED:
                    rejected.inc()
                    return
                ingested.inc()

            return deliver
        queue = self.queues[self._placement[host_name]]
        return lambda event: self._put(host_name, queue, event, counters)

    def _ingress_for(self, host_name: str):
        deliver = self._deliver_for(host_name)
        offered = self.metrics.counter("soc.events.offered")
        suppressed = self.metrics.counter("soc.events.suppressed")
        chaos = self.chaos

        def ingress(event: Event) -> None:
            # Repair echo: events this very thread is emitting while
            # enforcing must not re-enter the monitors (see incidents.py).
            if self.pipeline.in_repair():
                suppressed.inc()
                return
            if chaos is not None:
                for item in chaos.ingress_events(host_name, event):
                    offered.inc()
                    deliver(item)
            else:
                offered.inc()
                deliver(event)

        return ingress

    def _flush_chaos_stashes(self) -> None:
        """Release reorder-stashed events so the barrier sees them."""
        if self.chaos is None:
            return
        offered = self.metrics.counter("soc.events.offered")
        for host_name in sorted(self.hosts):
            stashed = self.chaos.flush_stash(host_name)
            if not stashed:
                continue
            deliver = self._deliver_for(host_name)
            for event in stashed:
                offered.inc()
                deliver(event)

    def drain(self) -> "SocService":
        """Block until every accepted event has been fully processed.

        The barrier interleaves with the supervisor: a worker that
        crashed (or was deposed) while holding part of the backlog is
        replaced mid-drain, so the flush always terminates instead of
        deadlocking on a dead shard.
        """
        self._flush_chaos_stashes()
        if self._proc is not None:
            self._proc.drain()
            return self
        for queue in self.queues:
            while not queue.join(timeout=0.05):
                self.supervisor.ensure_alive()
        return self

    def stop(self, drain: bool = True) -> None:
        """Detach ingress, optionally flush, then stop the workers.

        Idempotent and thread-safe: concurrent calls from two threads
        are serialized — the first performs the shutdown, the rest
        block until it completes and return with the service stopped.
        """
        with self._lock:
            if self._stop_started or not self._running:
                if not self._stop_started:
                    # Never started (or already fully stopped): nothing
                    # to wind down.
                    self._stopped_event.set()
                    self._terminated = True
                first = False
            else:
                self._stop_started = True
                first = True
            if first:
                for subscription in self._subscriptions:
                    subscription.cancel()
                self._subscriptions = []
                for host, _hook in self._config_hooks:
                    host.config.set_read_hook(None)
                self._config_hooks = []
                self._running = False
        if not first:
            self._stopped_event.wait(timeout=30.0)
            return
        try:
            if drain:
                self.drain()
            if self._proc is not None:
                self._proc.stop()
            else:
                for queue in self.queues:
                    queue.close()
                for worker in list(self.workers):
                    worker.join(timeout=5.0)
                self.supervisor.stop()
        finally:
            self._terminated = True
            self._stopped_event.set()

    def __enter__(self) -> "SocService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- degradation ladder: last rung ---------------------------------------------

    def reconcile(self, max_sweeps: int = 25) -> int:
        """Sweep hosts back to full compliance (bounded, breaker-aware).

        The event-driven path can legitimately lose a detection under
        degradation — a drift event dead-lettered, dropped by policy,
        or its repair budget burned by faults.  ``reconcile`` is the
        ladder's final rung: re-check every bound finding on every
        host and enforce what fails, through the same budgeted pipeline
        path (so open breakers keep absorbing cooldown and eventually
        re-probe).  Sweeps repeat until a sweep repairs nothing more or
        *max_sweeps* is hit.  Returns the number of effective repairs.
        """
        repaired_total = 0
        for _sweep in range(max_sweeps):
            self.metrics.counter("soc.reconcile.sweeps").inc()
            repaired = 0
            clean = True
            for name in sorted(self.hosts):
                host = self.hosts[name]
                session = self.sessions[name]
                if self.risk is not None:
                    # Highest-risk requirements sweep first: the sweep
                    # budget (max_sweeps, open breakers) is spent on
                    # what matters most.  Deterministic: ties break on
                    # req_id, then finding id.
                    ordered_reqs = self.risk.order(session.bindings)
                else:
                    ordered_reqs = sorted(session.bindings)
                finding_ids = []
                seen_findings = set()
                for req_id in ordered_reqs:
                    for finding_id in sorted(session.bindings[req_id]):
                        if finding_id not in seen_findings:
                            seen_findings.add(finding_id)
                            finding_ids.append(finding_id)
                for finding_id in finding_ids:
                    try:
                        entry = self.catalog.get(finding_id)
                    except KeyError:
                        continue
                    requirement = entry.instantiate(host)
                    try:
                        compliant = requirement.check() is CheckStatus.PASS
                    except Exception:
                        compliant = False
                    if compliant:
                        continue
                    clean = False
                    action = self.pipeline.enforce_finding(host, finding_id)
                    if action.detail.endswith(CheckStatus.PASS.value):
                        repaired += 1
            if repaired:
                self.metrics.counter("soc.reconcile.repairs").inc(repaired)
                repaired_total += repaired
            if clean:
                break
        return repaired_total

    # -- results ---------------------------------------------------------------------

    def incidents(self) -> List[Incident]:
        return self.pipeline.incidents()

    def incidents_by_host(self) -> Dict[str, List[Incident]]:
        return {name: self.pipeline.incidents_for(name)
                for name in sorted(self.hosts)}

    def effective_repairs(self) -> int:
        return sum(1 for incident in self.incidents() if incident.effective)

    def placement(self) -> Dict[str, int]:
        """Host -> shard assignment (stable across runs)."""
        return dict(self._placement)

    def queue_stats(self) -> List[Dict[str, object]]:
        if self._proc is not None:
            return self._proc.queue_stats()
        return [
            {"shard": index, "depth": queue.depth,
             "peak_depth": queue.peak_depth, "dropped": queue.dropped,
             "rejected": queue.rejected}
            for index, queue in enumerate(self.queues)
        ]

    def final_verdicts(self) -> Dict[Tuple[str, str], Tuple[str, str]]:
        """(host, req_id) -> (verdict, obligation id hex).

        The cross-backend equivalence surface: identical ingress must
        yield identical maps from either backend.  On the process
        backend the map is collected during ``stop()``, so read it
        after the service has stopped (the thread backend's sessions
        can be read any time).
        """
        from repro.ltl.compile import obligation_id

        if self._proc is not None:
            return self._proc.final_verdicts()
        verdicts: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for name, session in self.sessions.items():
            for req_id, monitor in session.monitors.items():
                verdicts[(name, req_id)] = (
                    monitor.verdict.value,
                    obligation_id(monitor.obligation).hex())
        return verdicts

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        if self._proc is None:
            self._fold_monitor_steps()
        return self.metrics.snapshot()

    def _fold_monitor_steps(self) -> None:
        """Bring ``soc.monitors.stepped`` up to the sessions' own step
        counts.  Thread workers add nothing per event for it; the
        process backend's merge plane folds each PROGRESS record's
        count into the same counter instead."""
        with self._steps_lock:
            total = sum(session.monitors_stepped
                        for session in self.sessions.values())
            if total > self._steps_folded:
                self.metrics.counter("soc.monitors.stepped").inc(
                    total - self._steps_folded)
                self._steps_folded = total


def arm_soc(hosts: Iterable[SimulatedHost], catalog: StigCatalog,
            plans: Dict[str, ProtectionPlan], **kwargs) -> SocService:
    """Convenience: build and start a service over explicit plans."""
    return SocService(list(hosts), catalog, plans, **kwargs).start()
