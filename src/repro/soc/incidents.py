"""The SOC incident pipeline: detect -> enforce, with failure budget.

Detections arrive from shard workers; the pipeline turns each into an
:class:`~repro.core.protection.Incident` and enforces the requirement's
bound RQCODE findings, hardened for operations:

* **retry with exponential backoff + jitter** — transient enforcement
  failures are retried up to ``RetryPolicy.max_attempts`` times, the
  wait doubling each round with seeded jitter so simultaneous repairs
  across shards do not thundering-herd one backend;
* **per-finding circuit breaker** — a finding whose enforcement keeps
  failing is skipped for a cooldown instead of burning the worker;
* **per-host serialization** — hosts are pinned to shards, so one
  host's incidents are handled strictly in detection order on one
  thread, while different hosts repair concurrently;
* **exception escalation** — an enforcement that *raises* (a broken
  backend, an injected chaos fault) is contained: it counts as a
  failed attempt against the retry budget and the circuit breaker
  instead of propagating up and killing the shard worker.

All of that budget machinery is the scheduler's unified policy stack
(:mod:`repro.sched.policy`): the :class:`~repro.sched.policy.RetryPolicy`
budget is the scheduler's, the breakers come from a
:class:`~repro.sched.policy.BreakerBank`, and every enforcement runs
through one :class:`~repro.sched.policy.PolicyRunner` — this module
keeps only the SOC-specific parts (what an attempt *does*, which
metrics to count, how a verdict becomes a RepairAction).

Repair actions mutate the host, which emits events back into the very
log being monitored.  Workers flag themselves *in repair* for the
duration (thread-local), and ingress suppresses the same-thread echo so
repairs never re-trigger the monitors doing the repairing — the
concurrent analogue of the serial loop's detach-while-enforcing.
"""

import contextlib
import functools
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.protection import Incident, RepairAction
from repro.environment.host import SimulatedHost
from repro.rqcode.catalog import CatalogEntry, StigCatalog
from repro.rqcode.concepts import (CheckableEnforceableRequirement,
                                   CheckStatus, EnforcementStatus)
from repro.sched.breaker import BreakerState, CircuitBreaker
from repro.sched.policy import BreakerBank, PolicyRunner, RetryPolicy
from repro.soc.metrics import Counter, Histogram, MetricsRegistry
from repro.soc.sessions import Detection

__all__ = ["IncidentPipeline"]

#: Precheck verdicts, built once: most incidents on a drift-dense fleet
#: settle here (one drift trips every detector watching its kind, and
#: all but one of them find their finding already compliant).
_COMPLIANT = (True, (EnforcementStatus.SUCCESS, CheckStatus.PASS))
_NOT_IN_CATALOGUE = (False, (EnforcementStatus.FAILURE, CheckStatus.FAIL))


class IncidentPipeline:
    """Turns detections into incidents and repairs, with a failure budget."""

    def __init__(self, catalog: StigCatalog, metrics: MetricsRegistry,
                 retry: Optional[RetryPolicy] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: int = 2,
                 seed: int = 0,
                 sleeper: Callable[[float], None] = time.sleep,
                 chaos=None,
                 risk=None):
        self.catalog = catalog
        self.metrics = metrics
        #: Optional :class:`~repro.reqs.risk.RiskIndex`: incidents feed
        #: the requirement's incident-history component back into it,
        #: so requirements that keep firing climb every risk-ordered
        #: queue (reconcile sweeps, verification fan-out, re-arm order).
        self.risk = risk
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.seed = seed
        self.sleeper = sleeper
        self.chaos = chaos
        self._breakers = BreakerBank(failure_threshold=breaker_threshold,
                                     cooldown=breaker_cooldown)
        self._runner = PolicyRunner(
            retry=self.retry,
            # Late-bound so tests may swap the sleeper after construction.
            sleeper=lambda delay: self.sleeper(delay),
            on_attempt_failed=lambda index: self.metrics.counter(
                "soc.enforce.retries").inc(),
            on_exception=self._contain_exception,
        )
        self._rngs: Dict[str, random.Random] = {}
        #: (host, finding id) -> (catalogue entry, requirement).  RQCODE
        #: requirements are stateless views of their host (check and
        #: enforce read and write the host, never the instance), so one
        #: instance per host and entry serves every incident; a finding
        #: registered again gets a fresh one.
        self._requirements: Dict[Tuple[SimulatedHost, str],
                                 Tuple[CatalogEntry,
                                       CheckableEnforceableRequirement]] = {}
        self._incidents: Dict[str, List[Incident]] = {}
        self._local = threading.local()

    # The registry hands out one stable object per name, so the hot
    # counters are resolved once, on first use (a counter is created
    # only when first counted, as ``metrics.counter`` would do).

    @functools.cached_property
    def _incident_count(self) -> Counter:
        return self.metrics.counter("soc.incidents")

    @functools.cached_property
    def _success_count(self) -> Counter:
        return self.metrics.counter("soc.enforce.success")

    @functools.cached_property
    def _attempts(self) -> Histogram:
        return self.metrics.histogram("soc.repair_attempts")

    # -- repair-echo suppression ---------------------------------------------------

    def in_repair(self) -> bool:
        """True when the *calling thread* is currently enforcing."""
        return getattr(self._local, "repairing", False)

    @contextlib.contextmanager
    def repairing(self):
        """Mark the calling thread as enforcing for the duration.

        Ingress suppresses repair echoes by asking :meth:`in_repair`;
        anything that repairs outside :meth:`handle` (the reconcile
        sweep) must run inside this context or its own repair events
        feed straight back into the monitors.
        """
        previous = getattr(self._local, "repairing", False)
        self._local.repairing = True
        try:
            yield
        finally:
            self._local.repairing = previous

    # -- deterministic per-host state ----------------------------------------------

    def _rng_for(self, host_name: str) -> random.Random:
        # One seeded stream per host: jitter sequences are reproducible
        # regardless of how hosts interleave across shards.
        if host_name not in self._rngs:
            self._rngs[host_name] = random.Random(f"{self.seed}:{host_name}")
        return self._rngs[host_name]

    def breaker_for(self, host_name: str, finding_id: str) -> CircuitBreaker:
        return self._breakers.get((host_name, finding_id))

    def register_host(self, host_name: str) -> None:
        """Pre-create per-host stores so handling needs no locking."""
        self._incidents.setdefault(host_name, [])
        self._rng_for(host_name)

    # -- the pipeline --------------------------------------------------------------

    def handle(self, host: SimulatedHost, detection: Detection,
               finding_ids: List[str]) -> Incident:
        """Process one detection: build the incident, enforce bindings."""
        event = detection.event
        # Positional: (req_id, detected_at, trigger_kind, violation_time).
        incident = Incident(detection.req_id, event.time, event.kind,
                            event.time)
        self._incident_count.inc()
        if self.risk is not None:
            self.risk.note_incident(detection.req_id)
        # :meth:`repairing` inlined: this runs once per detection on the
        # shard worker, ahead of every later detection of the same event.
        local = self._local
        previous = getattr(local, "repairing", False)
        local.repairing = True
        try:
            repairs = incident.repairs
            for finding_id in finding_ids:
                repairs.append(self._enforce_with_budget(host, finding_id))
        finally:
            local.repairing = previous
        self._incidents.setdefault(host.name, []).append(incident)
        return incident

    def enforce_finding(self, host: SimulatedHost,
                        finding_id: str) -> RepairAction:
        """Enforce one finding outside a detection (reconcile sweep).

        Runs the same budgeted path as incident handling — breaker,
        retries, exception escalation — with repair-echo suppression
        armed for the calling thread.
        """
        with self.repairing():
            return self._enforce_with_budget(host, finding_id)

    def _contain_exception(
            self, exc: BaseException
    ) -> Tuple[EnforcementStatus, CheckStatus]:
        """A raising attempt becomes a failed one (and is counted)."""
        self.metrics.counter("soc.enforce.exception").inc()
        return (EnforcementStatus.FAILURE, CheckStatus.FAIL)

    def _enforce_with_budget(self, host: SimulatedHost,
                             finding_id: str) -> RepairAction:
        breaker = self._breakers.get((host.name, finding_id))
        requirement = None

        def precheck():
            # Short-circuits that spend no attempt budget but do count
            # against the breaker: an unknown finding is a permanent
            # failure; an already-compliant host a free success.
            nonlocal requirement
            try:
                entry = self.catalog.get(finding_id)
            except KeyError:
                return _NOT_IN_CATALOGUE
            built = self._requirements.get((host, finding_id))
            if built is None or built[0] is not entry:
                built = self._requirements[host, finding_id] = (
                    entry, entry.instantiate(host))
            requirement = built[1]
            try:
                if requirement.check() is CheckStatus.PASS:
                    return _COMPLIANT
            except Exception:
                self.metrics.counter("soc.enforce.exception").inc()
            return None

        # No annotations on these closures: they would be evaluated
        # (typing subscripts) every time the ``def`` runs.
        def attempt(index):
            # An enforcement that raises — genuinely broken backend or
            # an injected chaos fault — is contained by the policy
            # runner: it burns this attempt and, if the budget runs
            # out, escalates through the breaker.  The shard worker
            # never sees the exception.
            fault = (self.chaos.repair_fault(host.name, finding_id)
                     if self.chaos is not None else None)
            if fault is not None and fault.value == "raise":
                from repro.chaos.controller import InjectedRepairError
                raise InjectedRepairError(
                    f"{host.name}/{finding_id} attempt {index}")
            if fault is not None and fault.value == "noop":
                # The repair silently does nothing: the re-check
                # below observes the still-drifted host.
                status = EnforcementStatus.SUCCESS
            else:
                status = requirement.enforce()
            after = requirement.check()
            return after is CheckStatus.PASS, (status, after)

        outcome = self._runner.run(attempt, rng=self._rng_for(host.name),
                                   breaker=breaker, precheck=precheck)
        if not outcome.ran:
            self.metrics.counter("soc.enforce.skipped_by_breaker").inc()
            return RepairAction(
                finding_id=finding_id,
                status=EnforcementStatus.INCOMPLETE,
                detail="circuit breaker open; enforcement skipped",
            )
        if outcome.prechecked:
            if outcome.success:
                self._success_count.inc()
                # Positional: (finding_id, status, detail).
                return RepairAction(finding_id, EnforcementStatus.SUCCESS,
                                    "already compliant")
            self._note_breaker(breaker)
            self.metrics.counter("soc.enforce.failure").inc()
            return RepairAction(
                finding_id=finding_id,
                status=EnforcementStatus.FAILURE,
                detail="finding not in catalogue",
            )
        status, after = outcome.value
        self._attempts.observe(outcome.attempts)
        if outcome.success:
            self._success_count.inc()
        else:
            self._note_breaker(breaker)
            self.metrics.counter("soc.enforce.failure").inc()
        detail = (f"enforced; attempts={outcome.attempts}; "
                  f"re-check {after.value}")
        return RepairAction(finding_id=finding_id, status=status,
                            detail=detail)

    def _note_breaker(self, breaker: CircuitBreaker) -> None:
        if breaker.state is BreakerState.OPEN:
            self.metrics.counter("soc.breaker.trips").inc()

    # -- results -------------------------------------------------------------------

    def incidents_for(self, host_name: str) -> List[Incident]:
        return list(self._incidents.get(host_name, ()))

    def incidents(self) -> List[Incident]:
        """All incidents, ordered by detection time then host."""
        merged: List[Tuple[int, str, Incident]] = []
        for host_name, incidents in self._incidents.items():
            for incident in incidents:
                merged.append((incident.detected_at, host_name, incident))
        merged.sort(key=lambda item: (item[0], item[1], item[2].req_id))
        return [incident for _, _, incident in merged]

    def breaker_states(self) -> Dict[str, str]:
        return {f"{host}/{finding}": breaker.state.value
                for (host, finding), breaker in self._breakers.items()}
