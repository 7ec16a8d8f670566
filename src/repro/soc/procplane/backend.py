"""ProcessBackend: shard execution on worker processes.

The pluggable counterpart of the in-process thread path in
:class:`~repro.soc.service.SocService`.  Responsibilities:

* build the **manifest** once: host ids, the atom vocabulary, and the
  per-shard monitor lists (req id + canonical formula text + bindings)
  that worker processes rebuild their banks from;
* create one ingress and one merge :class:`SpscRing` per shard and
  spawn the workers (``fork`` start method where available — the
  manifest makes workers correct under ``spawn`` too, fork merely
  skips the interpreter warm-up);
* encode ingress events (:class:`EventCodec`) under the service's
  backpressure policy (``block`` and ``reject``; ``drop-oldest`` has
  no safe SPSC producer-side analogue and is refused up front);
* run the merge plane and the process supervisor: a worker that died
  is restarted with its predecessor's published strike ledger, so
  poison quarantine converges across restarts exactly like the thread
  backend's shard-owned quarantine;
* provide the flush barrier ``drain()`` (token echo through both
  rings — exact, and tolerant of workers dying mid-barrier) and the
  finalize path that collects every monitor's terminal verdict for
  the cross-backend equivalence surface.

Worker crashes make delivery at-least-once (a restarted bank has no
seen-set and redelivers the record its predecessor died on); repairs
are idempotent and the reconcile sweep stays the last rung, so the
degradation ladder carries over intact.
"""

import json
import multiprocessing
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.protection import event_step
from repro.ltl.compile import formula_text, obligation_id
from repro.soc.procplane.codec import EventCodec, MergeCodec
from repro.soc.procplane.merge import MergePlane
from repro.soc.procplane.rings import RingFull, SpscRing
from repro.soc.procplane.worker import EXIT_CRASH, WorkerSpec, worker_main
from repro.soc.queues import Backpressure, PutResult, QueueClosed

#: Default merge-ring capacity: detections are far sparser than events,
#: but verdict dumps at stop scale with monitors, so keep headroom.
MERGE_CAPACITY = 4096

#: Spare atom slots provisioned in the codec vocabulary for live
#: re-arming: slots are fixed at ring creation, so formulas added later
#: must fit in pre-reserved bit words (one extra word by default).
ATOM_HEADROOM = 64


def _start_method() -> str:
    preferred = os.environ.get("REPRO_SOC_MP_START")
    methods = multiprocessing.get_all_start_methods()
    if preferred:
        if preferred not in methods:
            raise ValueError(
                f"REPRO_SOC_MP_START={preferred!r} not available "
                f"(have: {methods})")
        return preferred
    return "fork" if "fork" in methods else "spawn"


class ProcessBackend:
    """Shard execution over worker processes + the binary event plane."""

    def __init__(self, service, queue_capacity: int,
                 policy: Backpressure,
                 max_deliveries: int = 3,
                 chaos_plan_json: Optional[str] = None,
                 supervisor_interval: float = 0.02,
                 merge_capacity: int = MERGE_CAPACITY):
        if policy is Backpressure.DROP_OLDEST:
            raise ValueError(
                "process backend supports backpressure policies "
                "'block' and 'reject'; drop-oldest would require the "
                "producer to evict from the consumer end of an SPSC "
                "ring (use the thread backend for drop-oldest)")
        self.service = service
        self.policy = policy
        self.capacity = queue_capacity
        self.merge_capacity = merge_capacity
        self.max_deliveries = max_deliveries
        self.chaos_plan_json = chaos_plan_json
        self.supervisor_interval = supervisor_interval
        self._ctx = multiprocessing.get_context(_start_method())

        # -- manifest -----------------------------------------------------
        self.host_names: List[str] = sorted(service.hosts)
        self._host_id: Dict[str, int] = {
            name: index for index, name in enumerate(self.host_names)}
        formulas = []
        self.monitor_host: List[str] = []
        self.monitor_req: List[str] = []
        self.monitor_bindings: List[List[str]] = []
        self.monitor_text: List[str] = []
        #: shard -> [(mon_id, host_id, req_id, formula_text)]
        self._shard_monitors: Dict[int, List[Tuple[int, int, str, str]]] = {
            index: [] for index in range(service.shards)}
        #: shard -> {host_id: host_name}
        self._shard_hosts: Dict[int, Dict[int, str]] = {
            index: {} for index in range(service.shards)}
        #: (host_name, req_id) -> live monitor id (re-arm bookkeeping).
        self._mon_id: Dict[Tuple[str, str], int] = {}
        for name in self.host_names:
            monitors, bindings = service.plans[name]
            shard = service._placement[name]
            host_id = self._host_id[name]
            self._shard_hosts[shard][host_id] = name
            for req_id in sorted(monitors):
                monitor = monitors[req_id]
                mon_id = len(self.monitor_req)
                self.monitor_host.append(name)
                self.monitor_req.append(req_id)
                self.monitor_bindings.append(
                    list(bindings.get(req_id, [])))
                text = formula_text(monitor.formula)
                self.monitor_text.append(text)
                formulas.append(monitor.formula)
                self._shard_monitors[shard].append(
                    (mon_id, host_id, req_id, text))
                self._mon_id[(name, req_id)] = mon_id
        self.codec = EventCodec.for_formulas(formulas, spare=ATOM_HEADROOM)

        # -- live re-arm state (see :meth:`rearm`) ------------------------
        #: shard -> generation -> (manifest add tuples, removed mon ids),
        #: folded into ``_shard_monitors`` when the worker echoes.
        self._pending_rearms: Dict[int, Dict[int,
                                             Tuple[list, list]]] = {}
        self._rearm_gen = [0] * service.shards
        self._rearm_counter = 0
        #: Guards the manifest arrays against the merge thread's fold;
        #: innermost lock — never held while taking ``_lock`` or a
        #: merge-ring lock.
        self._manifest_lock = threading.Lock()

        #: Open kind vocabulary, parent-side only (workers echo ids).
        self._kind_ids: Dict[str, int] = {}
        self.kind_names: List[str] = []
        self._kind_lock = threading.Lock()

        self.ingress: List[SpscRing] = []
        self.merge_rings: List[SpscRing] = []
        self.processes: List[Optional[multiprocessing.process.BaseProcess]] \
            = [None] * service.shards
        self.generations = [0] * service.shards
        self.peaks = [0] * service.shards
        self.rejected = [0] * service.shards
        self.merge: Optional[MergePlane] = None
        self._flush_token = 0
        self._lock = threading.Lock()
        self._stopping = False
        self._started = False
        self._supervisor: Optional[threading.Thread] = None
        self._supervisor_stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        slot = self.codec.slot
        for _ in range(self.service.shards):
            self.ingress.append(
                SpscRing(self.capacity, slot, create=True))
            self.merge_rings.append(
                SpscRing(self.merge_capacity, slot, create=True))
        self.merge = MergePlane(
            self.service, self.merge_rings, self.host_names,
            self.kind_names, self.monitor_host, self.monitor_req,
            self.monitor_bindings)
        self.merge.on_rearmed = self._fold_rearm
        self.merge.start()
        for index in range(self.service.shards):
            self._spawn(index)
        self._supervisor = threading.Thread(
            target=self._supervise, name="soc-proc-supervisor", daemon=True)
        self._supervisor.start()
        self._started = True

    def _spec(self, index: int) -> WorkerSpec:
        state = self.merge.shards[index]
        with self._manifest_lock:
            atoms = list(self.codec.atoms)
            monitors = list(self._shard_monitors[index])
            rearm_generation = self._rearm_gen[index]
        return WorkerSpec(
            index=index,
            generation=self.generations[index],
            ingress_name=self.ingress[index].name,
            merge_name=self.merge_rings[index].name,
            capacity=self.capacity,
            merge_capacity=self.merge_capacity,
            slot=self.codec.slot,
            atoms=atoms,
            hosts=dict(self._shard_hosts[index]),
            monitors=monitors,
            max_deliveries=self.max_deliveries,
            strikes=[(h, t, k, n)
                     for (h, t, k), n in sorted(state.strikes.items())],
            chaos_plan_json=self.chaos_plan_json,
            reserve_atoms=self.codec.capacity,
            rearm_generation=rearm_generation,
        )

    def _spawn(self, index: int) -> None:
        process = self._ctx.Process(
            target=worker_main, args=(self._spec(index),),
            name=f"soc-proc-shard-{index}.g{self.generations[index]}",
            daemon=True)
        process.start()
        self.processes[index] = process

    # -- ingress ------------------------------------------------------------

    def _kind_id(self, kind: str) -> int:
        kind_id = self._kind_ids.get(kind)
        if kind_id is None:
            with self._kind_lock:
                kind_id = self._kind_ids.get(kind)
                if kind_id is None:
                    self.kind_names.append(kind)
                    kind_id = len(self.kind_names) - 1
                    self._kind_ids[kind] = kind_id
        return kind_id

    def putter(self, host_name: str) -> Callable:
        """A per-host enqueue closure (the ingress hot path).

        Resolves host id, shard, and ring once; per event the closure
        costs three memoized lookups (kind id, the event's step, and the
        step's projected bits: a drift event's step names its object, so
        the bits are memoized per step, not per kind), one pack into
        shared memory, and a cursor publish.
        """
        host_id = self._host_id[host_name]
        shard = self.service._placement[host_name]
        ring = self.ingress[shard]
        codec = self.codec
        pack = codec.pack_event
        project = codec.project
        kind_ids = self._kind_ids
        blocking = self.policy is Backpressure.BLOCK
        peaks = self.peaks

        def put(event) -> PutResult:
            kind = event.kind
            kind_id = kind_ids.get(kind)
            if kind_id is None:
                kind_id = self._kind_id(kind)
            bits = project(event_step(event))
            while True:
                if ring.closed:
                    raise QueueClosed("put into closed ring")
                try:
                    offset = ring.reserve()
                    break
                except RingFull:
                    if not blocking:
                        self.rejected[shard] += 1
                        return PutResult.REJECTED
                    time.sleep(0.0002)
            pack(ring.buf, offset, host_id, kind_id, event.time, bits)
            ring.publish()
            depth = ring._cached_tail - ring._cached_head
            if depth > peaks[shard]:
                peaks[shard] = depth
            return PutResult.ACCEPTED

        return put

    # -- supervision --------------------------------------------------------

    def _supervise(self) -> None:
        while not self._supervisor_stop.wait(self.supervisor_interval):
            self.ensure_alive()

    def ensure_alive(self) -> int:
        """Restart dead workers (strike ledger carried over)."""
        restarted = 0
        with self._lock:
            if self._stopping or not self.service.accepts_restarts:
                return 0
            for index, process in enumerate(self.processes):
                if process is None or process.exitcode is None:
                    continue
                exitcode = process.exitcode
                # Fold the dead worker's final records (strikes, dead
                # letters, progress) before building the replacement's
                # manifest — the ledger is the restart contract.
                self.merge.pump(index, limit=1 << 30)
                process.join()
                metrics = self.service.metrics
                if exitcode == EXIT_CRASH:
                    metrics.counter("soc.worker.crashes").inc()
                metrics.counter("soc.worker.restarts").inc()
                self.generations[index] += 1
                self._spawn(index)
                restarted += 1
        return restarted

    # -- barriers and lifecycle --------------------------------------------

    def drain(self, timeout: float = 60.0) -> None:
        """Token flush barrier: every accepted event fully processed.

        Pushes a FLUSH token behind all accepted events on every
        ingress ring and waits for each worker's echo to come back
        through the merge plane — at which point every earlier record
        on every ring has been consumed *and* merged (both rings are
        FIFO).  Workers dying mid-barrier are restarted by the ticked
        :meth:`ensure_alive`; the unconsumed token survives in the
        ring, so the replacement echoes it.
        """
        with self._lock:
            self._flush_token += 1
            token = self._flush_token
        deadline = time.monotonic() + timeout
        for ring in self.ingress:
            if ring.closed:
                continue
            if not ring.push_blocking(
                    lambda buf, off: MergeCodec.pack_flush(buf, off, token),
                    deadline=deadline):
                raise TimeoutError("drain: ingress ring stayed full")
        ok = self.merge.wait(
            lambda: all(state.flushed_token >= token
                        for state in self.merge.shards),
            timeout=max(0.0, deadline - time.monotonic()),
            tick=self.ensure_alive)
        if not ok:
            raise TimeoutError("drain: flush token never echoed")
        self.merge.update_depth_gauges(self.ingress)

    # -- live re-arming -----------------------------------------------------

    def _fold_rearm(self, index: int, generation: int) -> None:
        """Fold an echoed delta into the restart manifest.

        Called from the merge pump the moment a worker acknowledges a
        generation: the worker committed its head *after* applying the
        delta, so from here on any replacement for this shard must be
        built with the delta included (and told to skip the replayed
        REARM records via ``rearm_generation``).
        """
        with self._manifest_lock:
            pending = self._pending_rearms.get(index, {}).pop(
                generation, None)
            if generation > self._rearm_gen[index]:
                self._rearm_gen[index] = generation
            if not pending:
                return
            added, removed = pending
            if removed:
                gone = set(removed)
                self._shard_monitors[index] = [
                    entry for entry in self._shard_monitors[index]
                    if entry[0] not in gone]
            self._shard_monitors[index].extend(added)

    def rearm(self, adds=(), removes=(), rebinds=(),
              timeout: float = 30.0) -> int:
        """Ship a manifest delta over the event plane — no restarts.

        * *adds*: ``(host_name, req_id, monitor, bindings)`` — arms a
          fresh monitor; an already-armed ``req_id`` on that host is
          replaced (its obligation state is dropped — that is what
          "the formula changed" means).
        * *removes*: ``(host_name, req_id)`` — disarms.
        * *rebinds*: ``(host_name, req_id, bindings)`` — enforcement
          bindings live parent-side (the merge plane resolves them per
          detection), so a bindings-only change never crosses the
          plane at all; the monitor keeps its obligation state.

        The delta rides the ingress rings as chunked REARM records, so
        application is totally ordered against in-flight events: no
        event is dropped or double-processed across the re-arm.  New
        formulas may introduce new atoms; they are appended to the
        codec vocabulary within the pre-reserved capacity (the append
        is broadcast to *every* shard so projections stay decodable
        fleet-wide) — past capacity, ``ValueError``: tear down and
        re-arm cold.  Like :meth:`drain`, this shares the producer
        side of the rings: callers must not race concurrent event
        emission from other threads.  Blocks until every affected
        worker acknowledges; returns the generation.
        """
        shard_ops: Dict[int, Dict[int, Tuple[list, list]]] = {}

        def ops_for(shard: int, host_id: int) -> Tuple[list, list]:
            return shard_ops.setdefault(shard, {}).setdefault(
                host_id, ([], []))

        with self._manifest_lock:
            self._rearm_counter += 1
            generation = self._rearm_counter
            new_atoms = set()
            for _host, _req, monitor, _bindings in adds:
                new_atoms |= monitor.formula.atoms()
            appended = self.codec.extend(sorted(new_atoms))
            pend: Dict[int, Tuple[list, list]] = {}
            for host_name, req_id in removes:
                mon_id = self._mon_id.pop((host_name, req_id), None)
                if mon_id is None:
                    continue
                shard = self.service._placement[host_name]
                ops_for(shard, self._host_id[host_name])[1].append(mon_id)
                pend.setdefault(shard, ([], []))[1].append(mon_id)
            for host_name, req_id, monitor, bindings in adds:
                shard = self.service._placement[host_name]
                host_id = self._host_id[host_name]
                old_id = self._mon_id.pop((host_name, req_id), None)
                if old_id is not None:
                    ops_for(shard, host_id)[1].append(old_id)
                    pend.setdefault(shard, ([], []))[1].append(old_id)
                mon_id = len(self.monitor_req)
                self.monitor_host.append(host_name)
                self.monitor_req.append(req_id)
                self.monitor_bindings.append(list(bindings))
                text = formula_text(monitor.formula)
                self.monitor_text.append(text)
                self._mon_id[(host_name, req_id)] = mon_id
                ops_for(shard, host_id)[0].append((mon_id, req_id, text))
                pend.setdefault(shard, ([], []))[0].append(
                    (mon_id, host_id, req_id, text))
            for host_name, req_id, bindings in rebinds:
                mon_id = self._mon_id.get((host_name, req_id))
                if mon_id is not None:
                    self.monitor_bindings[mon_id] = list(bindings)
            # A vocabulary append must reach shards with no monitor
            # changes too: their workers still decode fleet-wide
            # projections.
            if appended:
                for shard in range(self.service.shards):
                    shard_ops.setdefault(shard, {})
            for shard in shard_ops:
                self._pending_rearms.setdefault(shard, {})[generation] = \
                    pend.get(shard, ([], []))

        affected = sorted(shard_ops)
        if not affected:
            return generation
        capacity = MergeCodec.rearm_payload_capacity(self.codec.slot)
        deadline = time.monotonic() + timeout
        for shard in affected:
            hosts_payload = [
                [host_id, host_adds, host_removes]
                for host_id, (host_adds, host_removes)
                in sorted(shard_ops[shard].items())]
            payload = json.dumps(
                {"atoms": appended, "hosts": hosts_payload},
                separators=(",", ":")).encode("utf-8")
            chunks = [payload[start:start + capacity]
                      for start in range(0, len(payload), capacity)]
            total = len(chunks)
            ring = self.ingress[shard]
            for seq, chunk in enumerate(chunks):
                if not ring.push_blocking(
                        lambda buf, off, s=seq, c=chunk:
                        MergeCodec.pack_rearm_chunk(buf, off, generation,
                                                    s, total, c),
                        deadline=deadline):
                    raise TimeoutError("rearm: ingress ring stayed full")
        ok = self.merge.wait(
            lambda: all(self.merge.shards[s].rearmed_gen >= generation
                        for s in affected),
            timeout=max(0.0, deadline - time.monotonic()),
            tick=self.ensure_alive)
        if not ok:
            raise TimeoutError("rearm: delta never acknowledged")
        return generation

    def stop(self, timeout: float = 30.0) -> None:
        """Finalize workers, collect verdicts, tear the plane down."""
        if not self._started or self._stopping:
            return
        # Give every shard a live worker for the finalize handshake.
        self.ensure_alive()
        with self._lock:
            self._stopping = True
        self._supervisor_stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        deadline = time.monotonic() + timeout
        for index, ring in enumerate(self.ingress):
            process = self.processes[index]
            if process is None or process.exitcode is not None:
                continue
            ring.push_blocking(
                lambda buf, off: MergeCodec.pack_stop(buf, off),
                deadline=deadline)
            ring.close_producer()
        self.merge.wait(
            lambda: all(
                state.bye or self.processes[state.index] is None
                or self.processes[state.index].exitcode is not None
                for state in self.merge.shards),
            timeout=max(0.0, deadline - time.monotonic()))
        for process in self.processes:
            if process is not None:
                process.join(timeout=max(0.0,
                                         deadline - time.monotonic()))
                if process.exitcode is None:
                    process.terminate()
                    process.join(timeout=2.0)
        # Late records (verdicts pushed just before BYE) may still sit
        # in the merge rings after the thread saw the BYE flag.
        for index in range(len(self.merge_rings)):
            self.merge.pump(index, limit=1 << 30)
        self.merge.stop()
        for ring in self.ingress + self.merge_rings:
            ring.destroy()

    # -- results ------------------------------------------------------------

    def queue_stats(self) -> List[Dict[str, object]]:
        stats = []
        for index, ring in enumerate(self.ingress):
            try:
                depth = ring.depth
            except (TypeError, ValueError):   # destroyed
                depth = 0
            stats.append({"shard": index, "depth": depth,
                          "peak_depth": self.peaks[index], "dropped": 0,
                          "rejected": self.rejected[index]})
        return stats

    def final_verdicts(self) -> Dict[Tuple[str, str], Tuple[str, str]]:
        """(host, req_id) -> (verdict, obligation id hex), post-stop."""
        verdicts: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for state in self.merge.shards:
            for mon_id, (verdict, digest) in state.verdicts.items():
                verdicts[(self.monitor_host[mon_id],
                          self.monitor_req[mon_id])] = (verdict, digest)
        return verdicts
