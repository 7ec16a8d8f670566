"""Per-host monitor sessions: verdicts computed off the emitting thread.

A :class:`MonitorSession` is one host's
:class:`~repro.soc.bank.MonitorBank` on the thread backend.  The serial
:class:`~repro.core.protection.ProtectionLoop` runs every monitor on
every event *inside* the emit call; a session instead consumes events
on its shard's worker thread, and its bank routes each event only to
the monitors that can possibly react to it.  The bank owns routing,
stepping order, rollback and the seen-set; the session adds the host,
the enforcement bindings and idempotent re-arm patches.

The monitors themselves are typically
:class:`~repro.ltl.compile.CompiledMonitor`\\ s, so every session on the
same requirement shares one warmed transition table.  Sessions are
single-threaded by construction (one host -> one shard -> one worker)
and need no locks.  The one other writer is a live re-arm on an idle
shard, which patches sessions in place under the shard queue's lock
while nothing is queued or in flight
(:meth:`~repro.soc.queues.ShardQueue.run_if_idle`): the worker cannot
touch them until that lock is released.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.environment.events import Event
from repro.environment.host import SimulatedHost
from repro.core.protection import event_step
from repro.ltl.monitor import LtlMonitor
from repro.soc.bank import MonitorBank


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


class MonitorSession(MonitorBank):
    """One host's :class:`~repro.soc.bank.MonitorBank` on the thread
    backend: the bank plus the host, its enforcement bindings and the
    re-arm tokens already applied."""

    def __init__(self, host: SimulatedHost,
                 monitors: Dict[str, LtlMonitor],
                 bindings: Dict[str, Sequence[str]]):
        super().__init__(monitors)
        self.host = host
        self.bindings = {req_id: list(finding_ids)
                         for req_id, finding_ids in bindings.items()}
        #: Re-arm tokens already applied (idempotent patch redelivery).
        self._patched: Set[int] = set()

    def apply_patch(self, patch: SessionPatch) -> bool:
        """Patch the armed set in place (idempotent per token).

        Runs between two events of the stream: on the owning shard
        worker's thread, or on the re-arming thread while the shard is
        idle and its queue lock held — one thread at a time either way.
        Returns False for an already-applied token (a redelivered
        patch) so callers can count suppression.
        """
        if patch.token in self._patched:
            return False
        self.patch(add=patch.add, remove=patch.remove)
        for req_id in patch.remove:
            self.bindings.pop(req_id, None)
        for req_id, _, finding_ids in patch.add:
            self.bindings[req_id] = list(finding_ids)
        for req_id, finding_ids in patch.rebind:
            if req_id in self.monitors:
                self.bindings[req_id] = list(finding_ids)
        self._patched.add(patch.token)
        return True

    def observe(self, event: Event) -> List[Detection]:
        """Step one event through the bank (see :meth:`MonitorBank.step`);
        FALSE verdicts become :class:`Detection`\\ s."""
        return [Detection(req_id=req_id, event=event)
                for req_id in self.step(event_step(event), event.time)]
