"""Parent-side merge loop: fold worker records into the SOC surfaces.

One thread drains every shard's merge ring and translates binary
records back into the service's existing vocabulary:

* DETECTION -> :meth:`IncidentPipeline.handle` (repairs run here, on
  the merge thread, with repair-echo suppression armed exactly as on
  a thread-backend shard worker) + the detection-lag histogram;
* PROGRESS -> ``soc.shard.N.processed``, ``soc.monitors.stepped``
  and friends;
* STRIKE / DEAD_LETTER -> the parent's per-shard strike ledgers (the
  restart carryover) and the shared
  :class:`~repro.soc.quarantine.DeadLetterQueue`;
* FLUSHED / VERDICT / BYE -> barrier, equivalence, and lifecycle
  bookkeeping consumed by :class:`~repro.soc.procplane.backend.
  ProcessBackend`.

The merge thread is the *only* consumer of merge rings in steady
state; the backend's supervisor borrows the pump under a per-shard
lock when it must fold a dead worker's last records synchronously
before building the replacement's manifest.
"""

import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.environment.events import Event
from repro.soc.procplane.codec import MergeCodec, REASONS, Tag
from repro.soc.procplane.rings import SpscRing
from repro.soc.sessions import Detection


class ShardMergeState:
    """Per-shard merge bookkeeping (owned by the parent)."""

    def __init__(self, index: int):
        self.index = index
        self.flushed_token = 0
        self.rearmed_gen = 0
        self.bye = False
        #: The last empty read found the consumer cursor past the
        #: producer's (see :meth:`MergePlane.pump`).
        self.overrun = False
        #: (host_id, time, kind_id) -> strikes, for restart manifests.
        self.strikes: Dict[Tuple[int, int, int], int] = {}
        #: monitor_id -> (verdict, obligation id hex).
        self.verdicts: Dict[int, Tuple[str, str]] = {}


class MergePlane:
    """Drains merge rings; folds records into pipeline + metrics."""

    def __init__(self, service, rings: List[SpscRing],
                 host_names: List[str], kind_names: List[str],
                 monitor_host: List[str], monitor_req: List[str],
                 monitor_bindings: List[List[str]]):
        self.service = service
        self.rings = rings
        self.host_names = host_names
        self.kind_names = kind_names
        self.monitor_host = monitor_host
        self.monitor_req = monitor_req
        self.monitor_bindings = monitor_bindings
        self.shards = [ShardMergeState(index)
                       for index in range(len(rings))]
        self.locks = [threading.Lock() for _ in rings]
        #: Optional ``(shard_index, generation)`` callback invoked when
        #: a worker echoes a re-arm generation — the backend folds the
        #: delta into its restart manifest here (see
        #: :meth:`ProcessBackend.rearm`).
        self.on_rearmed: Optional[Callable[[int, int], None]] = None
        self._stop = threading.Event()
        self._progress = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        metrics = service.metrics
        self._lag = metrics.histogram("soc.detection_lag_events")
        self._dead_lettered = metrics.counter("soc.events.dead_lettered")
        self._duplicates = metrics.counter(
            "soc.events.duplicates_suppressed")
        self._session_errors = metrics.counter("soc.session.errors")
        self._stepped = metrics.counter("soc.monitors.stepped")
        self._overruns = metrics.counter("soc.merge.cursor_overruns")
        self._processed = [metrics.counter(f"soc.shard.{index}.processed")
                           for index in range(len(rings))]
        self._depth_gauges = [
            metrics.gauge(f"soc.shard.{index}.queue_depth")
            for index in range(len(rings))]

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "MergePlane":
        if self._thread is None:
            self._thread = threading.Thread(target=self._run,
                                            name="soc-merge", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None

    def _run(self) -> None:
        idle = 0
        while not self._stop.is_set():
            moved = 0
            for index in range(len(self.rings)):
                moved += self.pump(index)
            if moved:
                idle = 0
                with self._progress:
                    self._progress.notify_all()
            else:
                idle += 1
                if idle > 16:
                    self._stop.wait(0.0005 if idle < 256 else 0.005)

    # -- the pump -----------------------------------------------------------

    def pump(self, index: int, limit: int = 256) -> int:
        """Drain up to *limit* records from one shard's merge ring.

        Thread-safe per shard; callable from the merge thread and from
        the backend's supervisor (pre-restart synchronous fold).

        A negative :meth:`~SpscRing.poll` means the consumer head is
        past the producer tail: the slots from the head on hold records
        already handled, so the pump reads nothing and counts the
        overrun in ``soc.merge.cursor_overruns`` (once until the ring
        next reads empty) instead of replaying them.
        """
        ring = self.rings[index]
        state = self.shards[index]
        with self.locks[index]:
            handled = 0
            while handled < limit:
                available = ring.poll()
                if available <= 0:
                    if available < 0 and not state.overrun:
                        self._overruns.inc()
                    state.overrun = available < 0
                    break
                offset = ring.peek_offset()
                tag = ring.buf[offset]
                if tag == Tag.DETECTION:
                    self._detection(ring.buf, offset)
                elif tag == Tag.PROGRESS:
                    processed, stepped, duplicates, errors = \
                        MergeCodec.unpack_progress(ring.buf, offset)
                    if processed:
                        self._processed[index].inc(processed)
                    if stepped:
                        self._stepped.inc(stepped)
                    if duplicates:
                        self._duplicates.inc(duplicates)
                    if errors:
                        self._session_errors.inc(errors)
                elif tag in (Tag.STRIKE, Tag.DEAD_LETTER):
                    self._strike(state, tag, ring.buf, offset)
                elif tag == Tag.VERDICT:
                    mon_id, verdict, digest = MergeCodec.unpack_verdict(
                        ring.buf, offset)
                    state.verdicts[mon_id] = (verdict, digest.hex())
                elif tag == Tag.FLUSHED:
                    token = MergeCodec.unpack_flushed(ring.buf, offset)
                    if token > state.flushed_token:
                        state.flushed_token = token
                elif tag == Tag.REARMED:
                    generation = MergeCodec.unpack_rearmed(ring.buf,
                                                           offset)
                    if generation > state.rearmed_gen:
                        state.rearmed_gen = generation
                        if self.on_rearmed is not None:
                            self.on_rearmed(index, generation)
                elif tag == Tag.BYE:
                    state.bye = True
                ring.advance()
                handled += 1
        if handled:
            with self._progress:
                self._progress.notify_all()
        return handled

    def _detection(self, buf, offset) -> None:
        host_id, mon_id, kind_id, etime = MergeCodec.unpack_detection(
            buf, offset)
        host = self.service.hosts[self.host_names[host_id]]
        detection = Detection(
            req_id=self.monitor_req[mon_id],
            event=Event(time=etime, kind=self.kind_names[kind_id]))
        self._lag.observe(max(0, host.events.clock - 1 - etime))
        self.service.pipeline.handle(host, detection,
                                     self.monitor_bindings[mon_id])

    def _strike(self, state: ShardMergeState, tag, buf, offset) -> None:
        host_id, kind_id, strikes, etime, reason = MergeCodec.unpack_strike(
            buf, offset)
        key = (host_id, etime, kind_id)
        if tag == Tag.STRIKE:
            state.strikes[key] = strikes
            return
        state.strikes.pop(key, None)
        self.service.dead_letters.park(
            self.host_names[host_id],
            Event(time=etime, kind=self.kind_names[kind_id]),
            REASONS[reason], strikes)
        self._dead_lettered.inc()

    # -- barriers -----------------------------------------------------------

    def wait(self, predicate: Callable[[], bool], timeout: float,
             tick: Optional[Callable[[], None]] = None) -> bool:
        """Wait until *predicate* holds, pumping liveness via *tick*."""
        import time as _time
        deadline = _time.monotonic() + timeout
        with self._progress:
            while not predicate():
                if _time.monotonic() > deadline:
                    return False
                self._progress.wait(0.02)
                if tick is not None:
                    with_progress = self._progress
                    with_progress.release()
                    try:
                        tick()
                    finally:
                        with_progress.acquire()
        return True

    def update_depth_gauges(self, ingress_rings: List[SpscRing]) -> None:
        for gauge, ring in zip(self._depth_gauges, ingress_rings):
            gauge.set(ring.depth)
