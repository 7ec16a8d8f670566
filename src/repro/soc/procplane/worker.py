"""Worker-process entry point: one shard's monitor bank, shared-nothing.

A worker process owns everything its shard needs and nothing else: the
monitor banks of the hosts placed on it (rebuilt locally from the
manifest — formula *text* is the wire format, interning re-canonicalizes
on parse), the routing index, the seen-sets, and local counters.  The
only shared state is the two rings: ingress in, merge out.

Degradation contract (mirrors :class:`~repro.soc.workers.ShardWorker`):

* **No event is lost to a worker failure.**  The ingress head advances
  only after a record is terminally handled (processed, struck-and-
  redelivered, or dead-lettered), so a crashed worker's replacement
  resumes at exactly the record its predecessor died on.  Delivery is
  therefore at-least-once across crashes; per-host order is the ring's
  FIFO order throughout.
* **Poison events quarantine instead of wedging the shard.**  Strike
  counts are *published to the parent* (STRIKE records) before the
  worker dies and handed back in the replacement's manifest, so a
  crash loop terminates at ``max_deliveries`` exactly like the thread
  backend's shard-owned :class:`~repro.soc.quarantine.Quarantine`.
* **Session failures stay inside the worker**: a monitor bank that
  raises on an event (genuine or injected) rolls back that event's
  obligation updates, strikes the event, and retries it in place —
  the process survives, and the budget bounds the retries.

Chaos: the fault plan travels to the worker as JSON and a local
:class:`~repro.chaos.controller.ChaosController` is rebuilt from it.
Decisions are pure in ``(seed, site, key)`` with keys built from
``host:time:strikes`` — all of which cross the codec intact — so a
process-backend run draws byte-identical worker faults to a thread
run of the same plan.
"""

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.environment.events import Event
from repro.ltl.compile import (
    CompiledMonitor,
    empty_step_stable,
    obligation_id,
    parse_formula_text,
)
from repro.ltl.monitor import Verdict
from repro.soc.procplane.codec import (
    EventCodec,
    MergeCodec,
    REASON_CODES,
    Tag,
)
from repro.soc.procplane.rings import SpscRing

#: Exit codes the supervisor distinguishes.
EXIT_CLEAN = 0
EXIT_CRASH = 3


@dataclass
class WorkerSpec:
    """Everything a worker process needs, as plain picklable data."""

    index: int
    generation: int
    ingress_name: str
    merge_name: str
    capacity: int
    merge_capacity: int
    slot: int
    atoms: List[str]
    #: host_id -> host name (only this shard's hosts).
    hosts: Dict[int, str]
    #: (monitor_id, host_id, req_id, formula_text), sorted by
    #: (host_id, req_id) — the order sessions step monitors in.
    monitors: List[Tuple[int, int, str, str]]
    max_deliveries: int = 3
    batch: int = 64
    #: Strike ledger carried over from dead predecessors:
    #: (host_id, time, kind_id) -> strikes.
    strikes: List[Tuple[int, int, int, int]] = field(default_factory=list)
    chaos_plan_json: Optional[str] = None
    #: Seen-sets are only paid for when ingress can duplicate (chaos).
    track_seen: bool = False
    #: Vocabulary capacity the slots were sized for (>= len(atoms));
    #: the worker's codec must compute the same word count as the
    #: parent's or slot layouts disagree.
    reserve_atoms: int = 0
    #: Highest re-arm generation already folded into this manifest.
    #: A replayed REARM record at or below it is skipped: the
    #: replacement worker's banks already contain that delta.
    rearm_generation: int = 0


class HostBank:
    """One host's monitors with the session's sound selective routing.

    The routing index mirrors :class:`~repro.soc.sessions.MonitorSession`
    exactly (same skippability criterion, same sorted stepping order),
    so thread and process backends produce identical detection
    sequences for identical ingress.
    """

    __slots__ = ("host_id", "monitors", "order", "_watch", "_filed",
                 "_always", "_route_memo", "seen", "events_seen",
                 "stepped")

    def __init__(self, host_id: int,
                 monitors: List[Tuple[int, str, CompiledMonitor]]):
        self.host_id = host_id
        #: monitor_id -> (req_id, monitor)
        self.monitors: Dict[int, Tuple[str, CompiledMonitor]] = {
            mon_id: (req_id, monitor)
            for mon_id, req_id, monitor in monitors}
        #: req_id sort order decides stepping order (as sessions do).
        self.order: Dict[int, str] = {mon_id: req_id
                                      for mon_id, req_id, _ in monitors}
        self._watch: Dict[str, Set[int]] = {}
        #: monitor_id -> the atoms it is filed under in ``_watch``
        self._filed: Dict[int, FrozenSet[str]] = {}
        self._always: Set[int] = set()
        #: bits -> tuple of monitor ids to step, invalidated whenever
        #: any obligation reclassifies.  Benign traffic resolves its
        #: routing in one dict probe.
        self._route_memo: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self.seen: Set[int] = set()
        self.events_seen = 0
        self.stepped = 0
        for mon_id in self.monitors:
            self._classify(mon_id)

    def _unfile(self, mon_id: int) -> None:
        self._always.discard(mon_id)
        for atom in self._filed.pop(mon_id, ()):
            self._watch[atom].discard(mon_id)

    def _classify(self, mon_id: int) -> None:
        obligation = self.monitors[mon_id][1].obligation
        self._unfile(mon_id)
        if empty_step_stable(obligation):
            atoms = obligation.atoms()
            for atom in atoms:
                self._watch.setdefault(atom, set()).add(mon_id)
            self._filed[mon_id] = atoms
        else:
            self._always.add(mon_id)
        self._route_memo.clear()

    def patch(self, add: List[Tuple[int, str, CompiledMonitor]],
              remove: List[int]) -> None:
        """Apply one re-arm delta in stream order (between two events).

        Removed monitors leave every index; added monitors enter fresh.
        Untouched monitors keep their obligation state — that is the
        whole point of live re-arming.
        """
        for mon_id in remove:
            if self.monitors.pop(mon_id, None) is None:
                continue
            self.order.pop(mon_id, None)
            self._unfile(mon_id)
        self._route_memo.clear()
        for mon_id, req_id, monitor in add:
            self.monitors[mon_id] = (req_id, monitor)
            self.order[mon_id] = req_id
            self._classify(mon_id)

    def route(self, bits: Tuple[int, ...],
              step: FrozenSet[str]) -> Tuple[int, ...]:
        relevant = self._route_memo.get(bits)
        if relevant is None:
            ids = set(self._always)
            for atom in step:
                ids.update(self._watch.get(atom, ()))
            relevant = tuple(sorted(ids, key=self.order.__getitem__))
            self._route_memo[bits] = relevant
        return relevant


# Seen-set pruning mirrors MonitorSession's constants.
_SEEN_LIMIT = 4096
_SEEN_KEEP = 1024


def build_banks(spec: WorkerSpec) -> Dict[int, HostBank]:
    """Rebuild this shard's monitor banks from the manifest."""
    per_host: Dict[int, List[Tuple[int, str, CompiledMonitor]]] = {
        host_id: [] for host_id in spec.hosts}
    for mon_id, host_id, req_id, text in spec.monitors:
        per_host[host_id].append(
            (mon_id, req_id, CompiledMonitor(parse_formula_text(text))))
    return {host_id: HostBank(host_id, monitors)
            for host_id, monitors in per_host.items()}


def worker_main(spec: WorkerSpec) -> None:
    """Drain the ingress ring until STOP; publish onto the merge ring."""
    ingress = SpscRing(spec.capacity, spec.slot, name=spec.ingress_name)
    merge = SpscRing(spec.merge_capacity, spec.slot, name=spec.merge_name)
    ingress.sync_consumer()
    merge.sync_producer()
    codec = EventCodec(spec.atoms, reserve=spec.reserve_atoms)
    banks = build_banks(spec)
    strikes: Dict[Tuple[int, int, int], int] = {
        (host_id, time_, kind_id): count
        for host_id, time_, kind_id, count in spec.strikes}
    chaos = None
    if spec.chaos_plan_json is not None:
        from repro.chaos.controller import ChaosController
        from repro.chaos.plan import FaultPlan
        chaos = ChaosController(FaultPlan.from_json(spec.chaos_plan_json))
    host_names = spec.hosts
    max_deliveries = spec.max_deliveries
    track_seen = spec.track_seen or chaos is not None
    parent = os.getppid()

    # Local counter deltas, flushed as one PROGRESS record per batch.
    processed = stepped = duplicates = session_errors = 0

    def flush_progress():
        nonlocal processed, stepped, duplicates, session_errors
        if not (processed or stepped or duplicates or session_errors):
            return
        p, s, d, e = processed, stepped, duplicates, session_errors
        merge.push_blocking(
            lambda buf, off: MergeCodec.pack_progress(buf, off, p, s, d, e))
        processed = stepped = duplicates = session_errors = 0

    def observe(bank: HostBank, bits, step, host_id, kind_id, etime):
        """Step one event through one bank, transactionally.

        Returns the number of monitor steps performed; detections are
        published inline.  On an exception every advanced obligation is
        rolled back before re-raising (the retry must not double-step).
        """
        undo = []
        steps = 0
        try:
            for mon_id in bank.route(bits, step):
                req_id, monitor = bank.monitors[mon_id]
                before = monitor.obligation
                undo.append((mon_id, monitor, before,
                             monitor.steps_observed))
                verdict = monitor.observe(step)
                steps += 1
                if verdict is Verdict.FALSE:
                    merge.push_blocking(
                        lambda buf, off, m=mon_id:
                        MergeCodec.pack_detection(buf, off, host_id, m,
                                                  kind_id, etime))
                    monitor.reset()
                if monitor.obligation is not before:
                    bank._classify(mon_id)
        except Exception:
            for mon_id, monitor, obligation, count in reversed(undo):
                monitor.obligation = obligation
                monitor.steps_observed = count
                bank._classify(mon_id)
            raise
        return steps

    # Hot-path locals: the batch loop below runs once per event, and
    # attribute lookups are a measurable fraction of per-event cost.
    ibuf = ingress.buf
    poll = ingress.poll
    peek = ingress.peek_offset
    advance = ingress.advance_local
    commit = ingress.commit_head
    unpack = codec.unpack_event
    step_memo = codec._step_memo
    unproject = codec.unproject
    batch_cap = spec.batch
    sleep = time.sleep
    EVENT = int(Tag.EVENT)
    REARM = int(Tag.REARM)

    # Live re-arm accumulation: chunks of one generation arrive
    # contiguously (single producer); the head is NOT committed while a
    # generation is partially accumulated, so a crash mid-delta replays
    # the whole delta to the replacement instead of a torn tail.
    rearm_chunks: Dict[int, List[Optional[bytes]]] = {}
    rearm_pending = False
    rearm_done = spec.rearm_generation

    # Idle strategy for oversubscribed cores: an empty poll sleeps
    # *immediately* with exponential backoff instead of busy-spinning —
    # with shards > cores, N-1 workers are idle at any instant and
    # every spin they burn is stolen from the producer.
    idle_spins = 0
    idle_sleep = 0.0002
    while True:
        available = poll()
        if not available:
            flush_progress()
            idle_spins += 1
            # Orphan guard: a parent that died without STOP would leave
            # us sleeping forever on a dead ring.
            if idle_spins % 256 == 0 and os.getppid() != parent:
                break
            sleep(idle_sleep)
            if idle_sleep < 0.004:
                idle_sleep *= 2
            continue
        idle_spins = 0
        idle_sleep = 0.0002
        # No low-depth batch cap here (contrast ShardWorker.LOW_WATER):
        # worker processes don't share a GIL, so a long batch never
        # starves another shard, and every extra wake costs a context
        # switch — take everything available.
        take = available if available < batch_cap else batch_cap
        stopping = False
        for _ in range(take):
            offset = peek()
            tag = ibuf[offset]
            if tag == EVENT:
                host_id, kind_id, etime, bits = unpack(ibuf, offset)
                bank = banks[host_id]
                if track_seen:
                    if etime in bank.seen:
                        duplicates += 1
                        processed += 1
                        advance()
                        continue
                if strikes:
                    strike_key = (host_id, etime, kind_id)
                    strike_count = strikes.get(strike_key, 0)
                else:
                    strike_key = None
                    strike_count = 0
                if strike_count >= max_deliveries:
                    merge.push_blocking(
                        lambda buf, off: MergeCodec.pack_strike(
                            buf, off, Tag.DEAD_LETTER, host_id, kind_id,
                            strike_count, etime,
                            REASON_CODES["delivery budget exhausted"]))
                    strikes.pop(strike_key, None)
                    processed += 1
                    advance()
                    continue
                fault = None
                if chaos is not None:
                    fault = chaos.worker_fault(
                        host_names[host_id],
                        Event(time=etime, kind=""), strike_count)
                if fault is not None and fault.value == "hang":
                    chaos.hang()
                if fault is not None and fault.value == "crash":
                    # Publish the strike so it survives us, then die
                    # without advancing the head: the replacement
                    # redelivers this very record with the strike
                    # visible in its manifest.
                    strike_count += 1
                    parked = strike_count >= max_deliveries
                    merge.push_blocking(
                        lambda buf, off: MergeCodec.pack_strike(
                            buf, off,
                            Tag.DEAD_LETTER if parked else Tag.STRIKE,
                            host_id, kind_id, strike_count, etime,
                            REASON_CODES["worker crash loop"]))
                    if parked:
                        processed += 1
                        advance()
                    flush_progress()
                    if not rearm_pending:
                        commit()
                    os._exit(EXIT_CRASH)
                step = step_memo.get(bits)
                if step is None:
                    step = unproject(bits)
                bank.events_seen += 1
                try:
                    if fault is not None and fault.value == "session-error":
                        from repro.chaos.controller import \
                            InjectedSessionError
                        raise InjectedSessionError(
                            f"{host_names[host_id]}@{etime}")
                    stepped += observe(bank, bits, step, host_id,
                                       kind_id, etime)
                except Exception:
                    session_errors += 1
                    strike_count += 1
                    parked = strike_count >= max_deliveries
                    merge.push_blocking(
                        lambda buf, off: MergeCodec.pack_strike(
                            buf, off,
                            Tag.DEAD_LETTER if parked else Tag.STRIKE,
                            host_id, kind_id, strike_count, etime,
                            REASON_CODES["session error"]))
                    if parked:
                        strikes.pop(strike_key, None)
                        processed += 1
                        advance()
                    else:
                        # Retry in place on redelivery: leave the head
                        # where it is and come back to this record.
                        strikes[strike_key] = strike_count
                        break
                    continue
                if strike_count:
                    strikes.pop(strike_key, None)
                if track_seen:
                    bank.seen.add(etime)
                    if len(bank.seen) > _SEEN_LIMIT:
                        horizon = max(bank.seen) - _SEEN_KEEP
                        bank.seen = {t for t in bank.seen if t >= horizon}
                processed += 1
                advance()
            elif tag == REARM:
                generation, seq, total, payload = \
                    MergeCodec.unpack_rearm_chunk(ibuf, offset)
                advance()
                if generation <= rearm_done:
                    # Replay of a delta already folded into this
                    # worker's manifest (crash after echo): skip.
                    continue
                chunks = rearm_chunks.setdefault(generation,
                                                 [None] * max(1, total))
                chunks[seq] = payload
                rearm_pending = any(part is None for part in chunks)
                if rearm_pending:
                    continue
                delta = json.loads(b"".join(chunks).decode("utf-8"))
                del rearm_chunks[generation]
                if delta.get("atoms"):
                    # Append-only: assigned bits never move, so
                    # in-flight events decode unchanged.
                    codec.extend(delta["atoms"])
                for host_id, adds, removes in delta.get("hosts", ()):
                    bank = banks.get(host_id)
                    if bank is None:
                        continue
                    bank.patch(
                        [(mon_id, req_id,
                          CompiledMonitor(parse_formula_text(text)))
                         for mon_id, req_id, text in adds],
                        removes)
                rearm_done = generation
                flush_progress()
                # Echo before committing the head: if we die between
                # the two, the parent has folded the delta into the
                # replacement's manifest AND the ring replays the
                # REARM records, which the replacement skips by
                # generation — the delta is never lost.
                merge.push_blocking(
                    lambda buf, off, g=generation:
                    MergeCodec.pack_rearmed(buf, off, g))
                commit()
            elif tag == Tag.FLUSH:
                token = MergeCodec.unpack_flushed(ibuf, offset)
                flush_progress()
                # The barrier echo implies everything before it is
                # terminally handled — publish the head first.
                if not rearm_pending:
                    commit()
                merge.push_blocking(
                    lambda buf, off: MergeCodec.pack_flushed(buf, off,
                                                             token))
                advance()
            elif tag == Tag.STOP:
                stopping = True
                advance()
                break
            else:                          # unknown tag: drop defensively
                advance()
        flush_progress()
        # One shared-memory head publish per batch, not per record.
        # Deliberate exits (crash fault, STOP) commit before leaving, so
        # at-least-once redelivery only coarsens for hard kills.  While
        # a re-arm delta is partially accumulated the head is held back,
        # so a crash replays the delta whole.
        if not rearm_pending:
            commit()
        if stopping:
            break

    # Finalize: publish every monitor's terminal state for the
    # equivalence surface, then sign off.
    for bank in banks.values():
        for mon_id in sorted(bank.monitors, key=bank.order.__getitem__):
            _req_id, monitor = bank.monitors[mon_id]
            digest = obligation_id(monitor.obligation)
            verdict = monitor.verdict.value
            merge.push_blocking(
                lambda buf, off, m=mon_id, v=verdict, d=digest:
                MergeCodec.pack_verdict(buf, off, m, v, d))
    merge.push_blocking(lambda buf, off: MergeCodec.pack_bye(buf, off))
    ingress.detach()
    merge.detach()
