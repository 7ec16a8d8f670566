"""Invariant checking for SOC runs: conservation laws under chaos.

Every chaos run — in fact every SOC run — must end in a state where a
handful of conservation properties hold regardless of which faults
fired.  The :class:`InvariantChecker` asserts them after the drain
barrier:

* **Event conservation.**  Every event offered to ingress is accounted
  for: ``offered == ingested + rejected`` (admission), and
  ``ingested == processed + dropped`` (disposition) where *processed*
  includes dead-lettered events — parking is a terminal disposition,
  loss is not.  Nothing vanishes; the only exits are the counted ones.
  On the thread backend a live re-arm's ``SessionPatch`` items ride
  the shard queues and the workers credit them as processed; they
  are not ingested events, so the dequeued patches
  (``soc.rearm.patches_applied`` + ``patches_suppressed``) come off
  the processed count before the law is checked.
* **Quiescent drain.**  After ``drain()``, every shard queue is empty
  with zero unfinished credit — the barrier actually flushed.
* **At most one effective repair per drift.**  A host's effective
  (state-changing, re-check-passing) repairs never exceed its drift
  events: duplicated events, retries, and reconcile sweeps may all
  *attempt* repairs, but only a genuinely drifted host can yield an
  effective one.
* **No phantom incidents.**  Every incident's trigger is a drift event
  that actually exists in its host's log at the recorded time — chaos
  may duplicate, delay, or reorder events, but it can never make the
  SOC react to something that did not happen.
* **Bounded dead letters.**  The dead-letter queue never exceeds its
  capacity, and its monotonic ledger matches the metrics counter.

Violations are collected (not raised one at a time) so a failing chaos
seed reports everything that broke; ``report.ok`` / ``report.raise_if_
violated()`` are the test-facing API.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.soc.service import SocService


class InvariantViolation(AssertionError):
    """At least one SOC conservation invariant failed."""


@dataclass
class InvariantReport:
    """Outcome of one invariant sweep over a drained service."""

    violations: List[str] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            raise InvariantViolation(
                f"{len(self.violations)} invariant violation(s):\n  "
                + "\n  ".join(self.violations))

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.violations)} VIOLATED"
        return (f"invariants {state} "
                f"({len(self.checked)} checked; "
                + ", ".join(f"{k}={v}" for k, v in sorted(
                    self.facts.items())) + ")")


class InvariantChecker:
    """Asserts the SOC's conservation laws on a drained service."""

    def check(self, service: SocService) -> InvariantReport:
        report = InvariantReport()
        counters = service.metrics_snapshot()["counters"]
        self._check_conservation(service, counters, report)
        self._check_quiescence(service, report)
        self._check_repair_uniqueness(service, report)
        self._check_no_phantom_incidents(service, report)
        self._check_dead_letter_bounds(service, counters, report)
        return report

    # -- individual invariants ------------------------------------------------

    def _check_conservation(self, service, counters, report) -> None:
        report.checked.append("event-conservation")
        offered = counters.get("soc.events.offered", 0)
        ingested = counters.get("soc.events.ingested", 0)
        rejected = counters.get("soc.events.rejected", 0)
        dropped = counters.get("soc.events.dropped", 0)
        patches = counters.get("soc.rearm.patches_applied", 0) \
            + counters.get("soc.rearm.patches_suppressed", 0)
        processed = sum(
            value for name, value in counters.items()
            if name.startswith("soc.shard.") and name.endswith(".processed")
        ) - patches
        report.facts.update(offered=offered, ingested=ingested,
                            rejected=rejected, dropped=dropped,
                            processed=processed, rearm_patches=patches)
        if offered != ingested + rejected:
            report.violations.append(
                f"admission leak: offered={offered} != "
                f"ingested={ingested} + rejected={rejected}")
        if ingested != processed + dropped:
            report.violations.append(
                f"disposition leak: ingested={ingested} != "
                f"processed={processed} + dropped={dropped}")
        if service.chaos is not None \
                and service.chaos.pending_stash():
            report.violations.append(
                f"{service.chaos.pending_stash()} event(s) still held in "
                f"the chaos reorder stash after drain")

    def _check_quiescence(self, service, report) -> None:
        report.checked.append("quiescent-drain")
        for index, queue in enumerate(service.queues):
            if queue.depth:
                report.violations.append(
                    f"shard {index} queue not empty after drain "
                    f"(depth={queue.depth})")
            if queue.unfinished:
                report.violations.append(
                    f"shard {index} has {queue.unfinished} unfinished "
                    f"item(s) after drain")

    def _check_repair_uniqueness(self, service, report) -> None:
        report.checked.append("one-effective-repair-per-drift")
        effective_total = 0
        for host_name, incidents in service.incidents_by_host().items():
            host = service.hosts[host_name]
            drifts = sum(1 for event in host.events
                         if event.kind.startswith("drift"))
            effective = sum(1 for incident in incidents
                            if incident.effective)
            effective_total += effective
            if effective > drifts:
                report.violations.append(
                    f"{host_name}: {effective} effective repairs for "
                    f"only {drifts} drift event(s)")
        report.facts["effective_repairs"] = effective_total

    def _check_no_phantom_incidents(self, service, report) -> None:
        report.checked.append("no-phantom-incidents")
        for host_name, incidents in service.incidents_by_host().items():
            host = service.hosts[host_name]
            for incident in incidents:
                matches = any(
                    event.time == incident.detected_at
                    and event.kind == incident.trigger_kind
                    for event in host.events)
                if not matches:
                    report.violations.append(
                        f"{host_name}: incident {incident.req_id} claims "
                        f"trigger {incident.trigger_kind!r} at t="
                        f"{incident.detected_at}, but no such event "
                        f"exists in the host log")
                if not incident.trigger_kind.startswith("drift"):
                    report.violations.append(
                        f"{host_name}: incident {incident.req_id} "
                        f"triggered by non-drift event "
                        f"{incident.trigger_kind!r}")

    def _check_dead_letter_bounds(self, service, counters, report) -> None:
        report.checked.append("bounded-dead-letters")
        dlq = service.dead_letters
        retained = len(dlq)
        report.facts["dead_lettered"] = dlq.parked_total
        if retained > dlq.capacity:
            report.violations.append(
                f"dead-letter queue over capacity: {retained} > "
                f"{dlq.capacity}")
        counted = counters.get("soc.events.dead_lettered", 0)
        if counted != dlq.parked_total:
            report.violations.append(
                f"dead-letter ledger mismatch: metrics say {counted}, "
                f"queue says {dlq.parked_total}")


def check_invariants(service: SocService) -> InvariantReport:
    """Convenience: one-shot invariant sweep (see InvariantChecker)."""
    return InvariantChecker().check(service)


# -- campaign stage invariants ----------------------------------------------


@dataclass
class StageWindow:
    """One campaign stage's observable footprint on a run.

    The harness records, per stage, the half-open logical-clock window
    ``[start, end)`` of every host (host clocks are monotonic, so a
    window pins exactly the events the stage produced), the hosts the
    stage targeted, and the stage's slice of the fault-decision
    ledger.  The checker attributes drifts, incidents, and parked
    events to stages through these windows.
    """

    stage: str
    index: int
    targets: Tuple[str, ...]
    rounds: int
    clocks: Dict[str, Tuple[int, int]]
    decisions: Dict[str, str] = field(default_factory=dict)

    def contains(self, host_name: str, time: int) -> bool:
        start, end = self.clocks.get(host_name, (0, 0))
        return start <= time < end


class CampaignInvariantChecker:
    """Per-stage detection/repair assertions over a campaign run.

    For every :class:`StageWindow` (on a drained, reconciled service):

    * **Stage detection.**  Every drift the stage injected on a
      targeted host was either detected (an incident whose trigger
      falls inside the window) or terminally parked in the dead-letter
      queue — chaos may delay or park an attack symptom, but it can
      never silently vanish between stages.
    * **Stage repair uniqueness.**  Effective repairs attributed to a
      stage window never exceed the drifts the stage injected —
      the global one-effective-repair-per-drift law, stage-scoped.
    * **Stage targeting.**  Drift events and drift-triggered incidents
      appear only on the stage's target hosts: a campaign stage that
      claims to attack the DMZ must not leave fingerprints on the
      control zone.
    """

    def check(self, service: SocService,
              windows: List[StageWindow]) -> InvariantReport:
        report = InvariantReport()
        incidents_by_host = service.incidents_by_host()
        letters = (service.dead_letters.letters()
                   if service.dead_letters is not None else [])
        for window in windows:
            self._check_stage(service, window, incidents_by_host,
                              letters, report)
        return report

    def _check_stage(self, service, window, incidents_by_host,
                     letters, report) -> None:
        label = f"stage {window.stage!r}"
        report.checked.append(f"{label}: detection+repair")
        targeted = set(window.targets)
        stage_drifts = 0
        stage_detected = 0
        stage_effective = 0
        for host_name, host in sorted(service.hosts.items()):
            drifts = [event for event in host.events
                      if event.kind.startswith("drift")
                      and window.contains(host_name, event.time)]
            incidents = [
                incident
                for incident in incidents_by_host.get(host_name, [])
                if window.contains(host_name, incident.detected_at)]
            parked = [
                letter for letter in letters
                if letter.host == host_name
                and letter.event.kind.startswith("drift")
                and window.contains(host_name, letter.event.time)]
            effective = sum(1 for incident in incidents
                            if incident.effective)
            stage_drifts += len(drifts)
            stage_detected += len(incidents)
            stage_effective += effective
            if targeted and host_name not in targeted:
                if drifts:
                    report.violations.append(
                        f"{label}: {len(drifts)} drift event(s) on "
                        f"untargeted host {host_name}")
                if incidents:
                    report.violations.append(
                        f"{label}: {len(incidents)} incident(s) on "
                        f"untargeted host {host_name}")
                continue
            if len(incidents) + len(parked) < len(drifts):
                report.violations.append(
                    f"{label}: {host_name} had {len(drifts)} drift(s) "
                    f"but only {len(incidents)} incident(s) + "
                    f"{len(parked)} parked — "
                    f"{len(drifts) - len(incidents) - len(parked)} "
                    f"attack symptom(s) vanished")
            if effective > len(drifts):
                report.violations.append(
                    f"{label}: {host_name} has {effective} effective "
                    f"repair(s) for only {len(drifts)} stage drift(s)")
        report.facts[f"stage.{window.stage}.drifts"] = stage_drifts
        report.facts[f"stage.{window.stage}.detected"] = stage_detected
        report.facts[f"stage.{window.stage}.effective"] = stage_effective
        report.facts[f"stage.{window.stage}.injections"] = \
            len(window.decisions)


def check_campaign(service: SocService,
                   windows: List[StageWindow]) -> InvariantReport:
    """Convenience: one-shot per-stage sweep (see the checker)."""
    return CampaignInvariantChecker().check(service, windows)
