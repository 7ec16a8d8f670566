"""Per-host monitor sessions: verdicts computed off the emitting thread.

A :class:`MonitorSession` owns one host's armed :class:`LtlMonitor`
set.  The serial :class:`~repro.core.protection.ProtectionLoop` runs
every monitor on every event *inside* the emit call; a session instead
consumes events on its shard's worker thread and — crucially for fleet
throughput — routes each event only to the monitors that can possibly
react to it.

Routing is sound, not heuristic: a monitor is *skippable* on an event
iff its current obligation is a fixed point of progression under a step
containing none of the obligation's atoms
(:func:`~repro.ltl.compile.empty_step_stable` — with interned formulas
the probe is a memoized identity check).  Drift detectors
(``G !drift.x``) have that property permanently, so a benign event
touches only the handful of monitors actually watching its kind;
monitors whose obligation is empty-step-sensitive (``X p`` tails,
pending ``U`` obligations) are kept on the run-every-event list until
their obligation stabilises again.  The monitors themselves are
typically :class:`~repro.ltl.compile.CompiledMonitor`\\ s, so every
session on the same requirement shares one warmed transition table.
Sessions are single-threaded by construction (one host -> one shard ->
one worker) and need no locks.  The one other writer is a live re-arm
on an idle shard, which patches sessions in place under the shard
queue's lock while nothing is queued or in flight
(:meth:`~repro.soc.queues.ShardQueue.run_if_idle`): the worker cannot
touch them until that lock is released.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.environment.events import Event
from repro.environment.host import SimulatedHost
from repro.core.protection import event_step
from repro.ltl.compile import empty_step_stable
from repro.ltl.monitor import LtlMonitor, Verdict


@dataclass(frozen=True)
class Detection:
    """One monitor going FALSE on one event."""

    req_id: str
    event: Event


@dataclass(frozen=True)
class SessionPatch:
    """One host's monitor-bank delta, applied *in stream order*.

    A patch travels the same shard queue as the host's events, so its
    application is totally ordered against them: every event enqueued
    before the patch is observed by the old bank, every event after by
    the patched bank — re-arming never drops or double-processes an
    in-flight event.  ``add`` maps req_id -> (monitor, finding ids);
    an add for an already-armed req_id *replaces* that monitor (a
    changed formula re-arms fresh), while untouched req_ids keep their
    obligation state.  Patches are idempotent under redelivery: the
    ``token`` identifies the re-arm generation, and a session skips
    tokens it has already applied (a crashed worker's requeued batch
    may replay one).
    """

    host_name: str
    token: int
    add: Tuple[Tuple[str, LtlMonitor, Tuple[str, ...]], ...] = ()
    remove: Tuple[str, ...] = ()
    #: req_id -> new bindings for monitors kept armed (formula
    #: unchanged, but the enforcement bindings moved).
    rebind: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()


@dataclass(frozen=True)
class ShardPatch:
    """One re-arm's :class:`SessionPatch`\\ es for the hosts of one
    shard, shipped as a single queue item.

    The item is queued behind every event already enqueued for any of
    its hosts, so each patch keeps the in-stream ordering it would have
    riding alone, at one queue put and one worker wake-up per shard
    instead of per host.  A shard with nothing queued or in flight
    gets no item at all: the re-arming thread applies the patches in
    place, at the same point of the stream
    (:meth:`~repro.soc.rearm.Rearmer.apply`).
    """

    patches: Tuple[SessionPatch, ...]


class MonitorSession:
    """One host's armed monitors, indexed for selective progression."""

    #: Seen-set pruning: when the set outgrows the limit, times more
    #: than KEEP behind the newest are discarded.  Reordering is
    #: adjacent-swap at worst, so an event that far behind the
    #: watermark cannot legitimately arrive for the first time.
    _SEEN_LIMIT = 4096
    _SEEN_KEEP = 1024

    def __init__(self, host: SimulatedHost,
                 monitors: Dict[str, LtlMonitor],
                 bindings: Dict[str, Sequence[str]]):
        self.host = host
        self.monitors = dict(monitors)
        self.bindings = {req_id: list(finding_ids)
                         for req_id, finding_ids in bindings.items()}
        self.events_seen = 0
        self.monitors_stepped = 0
        #: Per-host log times already fully observed — the idempotent
        #: delivery guard.  Host log times are unique per event, so a
        #: redelivered time is a duplicate by construction.
        self._seen: Set[int] = set()
        #: atom name -> req_ids whose obligation mentions it (skippable set)
        self._watch: Dict[str, Set[str]] = {}
        #: req_id -> the atoms it is filed under in ``_watch``
        self._filed: Dict[str, FrozenSet[str]] = {}
        #: req_ids that must see every event (empty-step-sensitive)
        self._always: Set[str] = set()
        #: Re-arm tokens already applied (idempotent patch redelivery).
        self._patched: Set[int] = set()
        for req_id in self.monitors:
            self._classify(req_id)

    # -- routing index -----------------------------------------------------------

    def _unfile(self, req_id: str) -> None:
        """Drop one monitor from the routing index."""
        self._always.discard(req_id)
        for atom in self._filed.pop(req_id, ()):
            self._watch[atom].discard(req_id)

    def _classify(self, req_id: str) -> None:
        """(Re)index one monitor by its *current* obligation."""
        obligation = self.monitors[req_id].obligation
        self._unfile(req_id)
        if empty_step_stable(obligation):
            atoms = obligation.atoms()
            for atom in atoms:
                self._watch.setdefault(atom, set()).add(req_id)
            self._filed[req_id] = atoms
        else:
            self._always.add(req_id)

    # -- live re-arming ----------------------------------------------------------

    def apply_patch(self, patch: SessionPatch) -> bool:
        """Patch the armed set in place (idempotent per token).

        Runs between two events of the stream: on the owning shard
        worker's thread, or on the re-arming thread while the shard is
        idle and its queue lock held — one thread at a time either way.
        Monitors not named by the patch keep their obligation state
        (and their place in the routing index); replaced and added
        monitors enter fresh.  Returns False for an already-applied
        token (a redelivered patch) so callers can count suppression.
        """
        if patch.token in self._patched:
            return False
        for req_id in patch.remove:
            if self.monitors.pop(req_id, None) is not None:
                self._unfile(req_id)
            self.bindings.pop(req_id, None)
        for req_id, monitor, finding_ids in patch.add:
            self.monitors[req_id] = monitor
            self.bindings[req_id] = list(finding_ids)
            self._classify(req_id)
        for req_id, finding_ids in patch.rebind:
            if req_id in self.monitors:
                self.bindings[req_id] = list(finding_ids)
        self._patched.add(patch.token)
        return True

    def _relevant(self, propositions: Iterable[str]) -> Set[str]:
        relevant = set(self._always)
        for proposition in propositions:
            relevant.update(self._watch.get(proposition, ()))
        return relevant

    # -- observation -------------------------------------------------------------

    def already_observed(self, event: Event) -> bool:
        """True when this exact event was already fully observed.

        Ingress is at-least-once under chaos (duplicated events,
        redelivered batches); delivery to the monitors is made
        exactly-once here.  An event enters the seen-set only after a
        *successful* :meth:`observe` — a rolled-back failure leaves it
        unseen, so the retry is not mistaken for a duplicate.
        """
        return event.time in self._seen

    def observe(self, event: Event) -> List[Detection]:
        """Feed one event to the monitors that can react to it.

        FALSE verdicts become :class:`Detection`\\ s; the tripped monitor
        is reset and re-armed so the session keeps protecting.

        Observation is transactional: if any monitor raises mid-sweep,
        every obligation already advanced for this event is rolled back
        before the exception propagates, so the worker's retry of the
        same event cannot double-step the monitors that had already
        seen it.
        """
        self.events_seen += 1
        step = event_step(event)
        detections: List[Detection] = []
        undo = []
        try:
            for req_id in sorted(self._relevant(step)):
                monitor = self.monitors[req_id]
                before = monitor.obligation
                undo.append((req_id, monitor, before,
                             monitor.steps_observed))
                verdict = monitor.observe(step)
                self.monitors_stepped += 1
                if verdict is Verdict.FALSE:
                    detections.append(Detection(req_id=req_id, event=event))
                    monitor.reset()
                # Interning makes obligation change detection an identity
                # check — no structural comparison.
                if monitor.obligation is not before:
                    self._classify(req_id)
        except Exception:
            for req_id, monitor, obligation, steps in reversed(undo):
                monitor.obligation = obligation
                monitor.steps_observed = steps
                self._classify(req_id)
            raise
        self._seen.add(event.time)
        if len(self._seen) > self._SEEN_LIMIT:
            horizon = max(self._seen) - self._SEEN_KEEP
            self._seen = {t for t in self._seen if t >= horizon}
        return detections
