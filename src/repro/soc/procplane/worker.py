"""Worker-process entry point: one shard's monitor bank, shared-nothing.

A worker process owns everything its shard needs and nothing else: a
:class:`~repro.soc.bank.MonitorBank` per host placed on it (rebuilt
locally from the manifest — formula *text* is the wire format, interning
re-canonicalizes on parse), each host's req_id -> monitor id map for the
wire records, and local counters.  The bank is the one the thread
backend's sessions step, so routing, stepping order, rollback and the
seen-set are the same code on both backends.  The only shared state is
the two rings: ingress in, merge out.

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
from typing import Dict, List, Optional, Tuple

from repro.environment.events import Event
from repro.ltl.compile import (
    CompiledMonitor,
    obligation_id,
    parse_formula_text,
)
from repro.soc.bank import MonitorBank
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


def build_banks(spec: WorkerSpec) -> Tuple[Dict[int, MonitorBank],
                                           Dict[int, Dict[str, int]]]:
    """Rebuild this shard's monitor banks from the manifest.

    Returns the banks by host id, and per host id the req_id ->
    monitor id map that wire records name monitors by.
    """
    monitors: Dict[int, Dict[str, CompiledMonitor]] = {
        host_id: {} for host_id in spec.hosts}
    mon_ids: Dict[int, Dict[str, int]] = {
        host_id: {} for host_id in spec.hosts}
    for mon_id, host_id, req_id, text in spec.monitors:
        monitors[host_id][req_id] = CompiledMonitor(parse_formula_text(text))
        mon_ids[host_id][req_id] = mon_id
    return ({host_id: MonitorBank(bank)
             for host_id, bank in monitors.items()}, mon_ids)


def worker_main(spec: WorkerSpec) -> None:
    """Drain the ingress ring until STOP; publish onto the merge ring."""
    ingress = SpscRing(spec.capacity, spec.slot, name=spec.ingress_name)
    merge = SpscRing(spec.merge_capacity, spec.slot, name=spec.merge_name)
    ingress.sync_consumer()
    merge.sync_producer()
    codec = EventCodec(spec.atoms, reserve=spec.reserve_atoms)
    banks, mon_ids = build_banks(spec)
    #: monitor id -> req_id, for re-arm removals (monitor ids are
    #: unique across the fleet and never reused).
    req_ids: Dict[int, str] = {mon_id: req_id for mon_id, _, req_id, _
                               in spec.monitors}
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
                if track_seen and bank.already_observed(etime):
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
                stepped_before = bank.monitors_stepped
                try:
                    if fault is not None and fault.value == "session-error":
                        from repro.chaos.controller import \
                            InjectedSessionError
                        raise InjectedSessionError(
                            f"{host_names[host_id]}@{etime}")
                    tripped = bank.step(step, etime if track_seen else None)
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
                stepped += bank.monitors_stepped - stepped_before
                # Published only once the whole sweep has succeeded: a
                # rolled-back sweep's retry cannot publish a twin.
                for req_id in tripped:
                    merge.push_blocking(
                        lambda buf, off, m=mon_ids[host_id][req_id]:
                        MergeCodec.pack_detection(buf, off, host_id, m,
                                                  kind_id, etime))
                if strike_count:
                    strikes.pop(strike_key, None)
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
                    ids = mon_ids[host_id]
                    removed = [req_ids.pop(mon_id) for mon_id in removes
                               if mon_id in req_ids]
                    for req_id in removed:
                        del ids[req_id]
                    for mon_id, req_id, _ in adds:
                        ids[req_id] = mon_id
                        req_ids[mon_id] = req_id
                    bank.patch(
                        [(req_id, CompiledMonitor(parse_formula_text(text)))
                         for _, req_id, text in adds],
                        removed)
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
    for host_id, bank in banks.items():
        for req_id in sorted(bank.monitors):
            monitor = bank.monitors[req_id]
            mon_id = mon_ids[host_id][req_id]
            digest = obligation_id(monitor.obligation)
            verdict = monitor.verdict.value
            merge.push_blocking(
                lambda buf, off, m=mon_id, v=verdict, d=digest:
                MergeCodec.pack_verdict(buf, off, m, v, d))
    merge.push_blocking(lambda buf, off: MergeCodec.pack_bye(buf, off))
    ingress.detach()
    merge.detach()
