"""One host's monitor bank: sound selective routing, transactional steps.

A :class:`MonitorBank` holds one host's armed monitors, keyed by
requirement id, and is the only code that steps them for the SOC.  Both
backends use it: the thread backend through its
:class:`~repro.soc.sessions.MonitorSession` subclass, the process
backend inside each shard's worker process.  It imports nothing but the
LTL engine, so it is the same object on either side of the binary event
plane, and the two backends cannot drift apart.

Routing is sound, not heuristic: a monitor is *skippable* on an event
iff its current obligation is a fixed point of progression under a step
containing none of the obligation's atoms
(:func:`~repro.ltl.compile.empty_step_stable` — with interned formulas
the probe is a memoized identity check).  Drift detectors
(``G !drift.x``) have that property permanently, so a benign event
touches only the handful of monitors actually watching its kind;
monitors whose obligation is empty-step-sensitive (``X p`` tails,
pending ``U`` obligations) are kept on the run-every-event list until
their obligation stabilises again.  The serial
:class:`~repro.core.protection.ProtectionLoop` steps every monitor
instead; selective routing must agree with it on every trace.

A bank is single-threaded: one host lives on one shard, stepped by one
worker at a time, so it holds no locks.
"""

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ltl.compile import empty_step_stable
from repro.ltl.monitor import LtlMonitor, Verdict


class MonitorBank:
    """One host's armed monitors, indexed for selective progression."""

    #: Seen-set pruning: when the set outgrows the limit, times more
    #: than KEEP behind the newest are discarded.  Reordering is
    #: adjacent-swap at worst, so an event that far behind the
    #: watermark cannot legitimately arrive for the first time.
    _SEEN_LIMIT = 4096
    _SEEN_KEEP = 1024

    def __init__(self, monitors: Dict[str, LtlMonitor]):
        self.monitors = dict(monitors)
        #: Sweeps started (failed ones included) and monitor steps taken.
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
            watch = self._watch
            for atom in atoms:
                watchers = watch.get(atom)
                if watchers is None:
                    watch[atom] = {req_id}
                else:
                    watchers.add(req_id)
            self._filed[req_id] = atoms
        else:
            self._always.add(req_id)

    # -- live re-arming ----------------------------------------------------------

    def patch(self, add: Iterable[Tuple] = (),
              remove: Iterable[str] = ()) -> None:
        """Apply one re-arm delta between two events of the stream.

        *add* holds ``(req_id, monitor, ...)`` entries; anything past
        the monitor (a session patch's bindings) is not the bank's.
        Removals go first, so a req_id both removed and added is
        replaced.  Added monitors enter fresh; monitors not named keep
        their obligation state (and their place in the routing index) —
        that is the whole point of live re-arming.
        """
        for req_id in remove:
            if self.monitors.pop(req_id, None) is not None:
                self._unfile(req_id)
        monitors = self.monitors
        for entry in add:
            req_id = entry[0]
            monitors[req_id] = entry[1]
            self._classify(req_id)

    # -- observation -------------------------------------------------------------

    def already_observed(self, time: int) -> bool:
        """True when the event at this log time was already stepped.

        Ingress is at-least-once under chaos (duplicated events,
        redelivered batches); delivery to the monitors is made
        exactly-once here.  A time enters the seen-set only after a
        *successful* :meth:`step` — a rolled-back failure leaves it
        unseen, so the retry is not mistaken for a duplicate.
        """
        return time in self._seen

    def step(self, step: FrozenSet[str],
             time: Optional[int] = None) -> List[str]:
        """Feed one event's step to the monitors that can react to it.

        Monitors are stepped in req_id order.  Returns the req_ids whose
        monitor went FALSE, in that order; each tripped monitor is reset
        so the bank keeps protecting.  A given *time* enters the
        seen-set once the sweep succeeds.

        The sweep is transactional: if any monitor raises, every
        obligation, step count and index entry already changed for this
        event is rolled back before the exception propagates, and
        nothing is returned — so a retry of the same event neither
        double-steps a monitor nor reports a detection twice.
        """
        self.events_seen += 1
        relevant = set(self._always)
        for atom in step:
            relevant.update(self._watch.get(atom, ()))
        tripped: List[str] = []
        undo = []
        try:
            for req_id in sorted(relevant):
                monitor = self.monitors[req_id]
                before = monitor.obligation
                undo.append((req_id, monitor, before,
                             monitor.steps_observed))
                verdict = monitor.observe(step)
                self.monitors_stepped += 1
                if verdict is Verdict.FALSE:
                    tripped.append(req_id)
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
        if time is not None:
            seen = self._seen
            seen.add(time)
            if len(seen) > self._SEEN_LIMIT:
                horizon = max(seen) - self._SEEN_KEEP
                self._seen = {t for t in seen if t >= horizon}
        return tripped
