"""Reactive protection at operations (WP3).

Two protection styles, matching the E2 ablation:

* :class:`ProtectionLoop` — **event-driven**: subscribes to the host's
  event log; every event becomes a step fed to the armed LTL monitors;
  a FALSE verdict raises an :class:`Incident`, and the loop responds by
  enforcing the requirement's bound RQCODE findings, then re-arms.
* :class:`PollingProtection` — **polling** (the RQCODE
  ``MonitoringLoop`` style): on each ``poll()``, check the whole
  catalogue against the host and enforce whatever fails.

Both record incidents with detection latency, measured in host events
between the violation and its detection — the E2 metric.
"""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.drift import OBJECT_FIELDS, event_atom
from repro.environment.events import Event
from repro.environment.host import SimulatedHost
from repro.ltl.compile import step_monitors
from repro.ltl.monitor import LtlMonitor
from repro.rqcode.catalog import StigCatalog
from repro.rqcode.concepts import CheckStatus, EnforcementStatus


@dataclass
class RepairAction:
    """One enforcement performed in response to a detection."""

    finding_id: str
    status: EnforcementStatus
    detail: str = ""


@dataclass
class Incident:
    """A detected violation and what was done about it."""

    req_id: str
    detected_at: int                # host logical time of detection
    trigger_kind: str               # event kind that tripped the monitor
    violation_time: Optional[int]   # time of the underlying violation
    repairs: List[RepairAction] = field(default_factory=list)

    @property
    def detection_latency(self) -> Optional[int]:
        """Host events between violation and detection (0 = immediate)."""
        if self.violation_time is None:
            return None
        return self.detected_at - self.violation_time

    @property
    def effective(self) -> bool:
        """True when a repair actually changed the host *and* the
        re-check passed (as opposed to a re-check that found the finding
        already compliant, or an enforcement that failed)."""
        return any(
            r.detail.startswith("enforced") and r.detail.endswith("PASS")
            for r in self.repairs
        )


#: Bound on the (kind, object) step memo: distinct drifted objects are
#: open-ended, so the memo starts over past this many.
STEP_MEMO_LIMIT = 4096

#: kind -> step, for every kind that names no drifted object.
_STEPS: Dict[str, FrozenSet[str]] = {}
#: (kind, object field values...) -> step, for drift events that do.
_OBJECT_STEPS: Dict[tuple, FrozenSet[str]] = {}


def event_propositions(event: Event) -> List[str]:
    """Propositions an event contributes to a monitoring step.

    The full kind plus every dotted prefix, so ``drift.audit`` satisfies
    atoms ``drift.audit`` and ``drift``; a drift event that names its
    object adds that object's atom (:func:`~repro.core.drift.
    event_atom`), such as ``drift.package.telnetd``, which only the
    detectors bound to that package watch.
    """
    parts = event.kind.split(".")
    propositions = [".".join(parts[:i]) for i in range(1, len(parts) + 1)]
    atom = event_atom(event.kind, event.payload)
    if atom is not None:
        propositions.append(atom)
    return propositions


def event_step(event: Event) -> FrozenSet[str]:
    """The event's propositions as a monitoring step, memoized so the
    hot paths never rebuild the frozenset: one dict lookup per kind for
    kinds that name no object, and per (kind, object) for drift events
    (a bounded memo, :data:`STEP_MEMO_LIMIT`)."""
    step = _STEPS.get(event.kind)
    if step is not None:
        return step
    fields = OBJECT_FIELDS.get(event.kind)
    if fields is None:
        step = _STEPS[event.kind] = frozenset(event_propositions(event))
        return step
    payload = event.payload
    key = (event.kind, *[payload.get(name) for name in fields])
    step = _OBJECT_STEPS.get(key)
    if step is None:
        if len(_OBJECT_STEPS) >= STEP_MEMO_LIMIT:
            _OBJECT_STEPS.clear()
        step = _OBJECT_STEPS[key] = frozenset(event_propositions(event))
    return step


class ProtectionLoop:
    """Event-driven detect -> respond -> re-arm loop for one host.

    Every event steps every armed monitor (:func:`step_monitors`), with
    no routing.  That is deliberate: this loop is the serial baseline
    that E2 and E12 measure the SOC's routed
    :class:`~repro.soc.bank.MonitorBank` against, so routing it would
    change what those experiments compare.
    """

    def __init__(self, host: SimulatedHost, catalog: StigCatalog,
                 monitors: Dict[str, LtlMonitor],
                 bindings: Optional[Dict[str, Sequence[str]]] = None):
        self.host = host
        self.catalog = catalog
        self.monitors = dict(monitors)
        self.bindings = {k: list(v) for k, v in (bindings or {}).items()}
        self.incidents: List[Incident] = []
        self._unsubscribe = None
        #: Last event time seen per requirement, to stamp violations.
        self._armed_since: Dict[str, int] = {
            req_id: host.events.clock for req_id in self.monitors}

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ProtectionLoop":
        """Attach to the host's event stream (idempotent)."""
        if self._unsubscribe is None:
            self._unsubscribe = self.host.events.subscribe(self._on_event)
        return self

    def stop(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- detection ----------------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        # Batch stepping: the step is normalized once and fed to every
        # armed monitor; responses run after the sweep (equivalent —
        # the loop is detached during enforcement either way, so later
        # monitors never see repair events mid-sweep).
        for req_id in step_monitors(self.monitors, event_step(event)):
            self._respond(req_id, event)
            self.monitors[req_id].reset()
            self._armed_since[req_id] = event.time + 1

    def _respond(self, req_id: str, event: Event) -> None:
        incident = Incident(
            req_id=req_id,
            detected_at=event.time,
            trigger_kind=event.kind,
            violation_time=event.time,
        )
        # Enforcement happens while detached so repair events do not
        # re-trigger the very monitors doing the repairing.
        self.stop()
        try:
            for finding_id in self.bindings.get(req_id, []):
                incident.repairs.append(self._enforce(finding_id))
        finally:
            self.start()
        self.incidents.append(incident)

    def _enforce(self, finding_id: str) -> RepairAction:
        try:
            entry = self.catalog.get(finding_id)
        except KeyError:
            return RepairAction(
                finding_id=finding_id,
                status=EnforcementStatus.FAILURE,
                detail="finding not in catalogue",
            )
        requirement = entry.instantiate(self.host)
        # A requirement whose backend raises must degrade to a FAILURE
        # repair action, not tear down the loop: the serial analogue of
        # the SOC pipeline's exception escalation.
        try:
            if requirement.check() is CheckStatus.PASS:
                return RepairAction(
                    finding_id=finding_id,
                    status=EnforcementStatus.SUCCESS,
                    detail="already compliant",
                )
            status = requirement.enforce()
            after = requirement.check()
        except Exception as exc:
            return RepairAction(
                finding_id=finding_id,
                status=EnforcementStatus.FAILURE,
                detail=f"enforcement raised {type(exc).__name__}: {exc}",
            )
        detail = f"enforced; re-check {after.value}"
        return RepairAction(finding_id=finding_id, status=status,
                            detail=detail)

    # -- reporting -----------------------------------------------------------------

    def incident_count(self) -> int:
        return len(self.incidents)

    def repaired_count(self) -> int:
        return sum(
            1 for incident in self.incidents
            if incident.repairs and all(
                r.status is EnforcementStatus.SUCCESS
                for r in incident.repairs)
        )


class PollingProtection:
    """Poll-based protection: periodic full-catalogue check/enforce."""

    def __init__(self, host: SimulatedHost, catalog: StigCatalog):
        self.host = host
        self.catalog = catalog
        self.incidents: List[Incident] = []
        self.polls = 0

    def poll(self) -> List[Incident]:
        """One polling cycle: check everything, enforce what fails.

        The detection latency of each incident is the distance from the
        most recent drift event touching the host to this poll —
        polling can never beat the poll period.
        """
        self.polls += 1
        detected: List[Incident] = []
        last_drift = self.host.events.last("drift")
        for entry in self.catalog.entries_for(self.host.os_family):
            requirement = entry.instantiate(self.host)
            before = requirement.check()
            if before is CheckStatus.PASS:
                continue
            status = requirement.enforce()
            after = requirement.check()
            incident = Incident(
                req_id=entry.finding_id,
                detected_at=self.host.events.clock,
                trigger_kind="poll",
                violation_time=(last_drift.time
                                if last_drift is not None else None),
                repairs=[RepairAction(
                    finding_id=entry.finding_id, status=status,
                    detail=f"enforced; re-check {after.value}")],
            )
            detected.append(incident)
        self.incidents.extend(detected)
        return detected
