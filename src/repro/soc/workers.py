"""Shard workers: the threads that drain shard queues.

One :class:`ShardWorker` per shard.  A worker owns the monitor sessions
of every host placed on its shard, so all per-host state it touches is
single-threaded and lock-free; cross-shard state (metrics, breakers,
the dead-letter queue) is thread-safe by construction.

Degradation contract (the chaos plane leans on every clause):

* **No event is lost to a worker failure.**  An event is credited to
  the queue (``task_done``) only once it is terminally handled —
  processed or dead-lettered.  A worker that crashes, is deposed, or
  gives up on an event requeues the unprocessed suffix of its batch at
  the queue head, in order, before exiting, so a replacement worker
  resumes exactly where it stopped and per-host ordering holds.
* **Delivery is idempotent.**  Ingress is at-least-once under chaos
  (duplicated events, redelivered batches); a worker consults its
  session's seen-set before paying for a delivery, so a duplicate is
  suppressed (and counted) instead of re-running monitors, re-raising
  its original's fault, or repairing the same drift twice.
* **Poison events quarantine instead of wedging the shard.**  An event
  whose processing keeps failing collects strikes in the shard's
  :class:`~repro.soc.quarantine.Quarantine`; at ``max_deliveries``
  strikes it is parked in the bounded dead-letter queue and counted.
* **Session failures stay inside the worker.**  An exception out of
  ``session.observe`` (genuine or injected) is caught, rolled back by
  the session, struck, and retried — the worker thread survives, and
  only the failing host's events are deferred back to the queue; the
  rest of the batch keeps flowing (per-host ordering, not per-shard,
  is the contract).
"""

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.soc.incidents import IncidentPipeline
from repro.soc.metrics import MetricsRegistry
from repro.soc.quarantine import DeadLetterQueue, Quarantine
from repro.soc.queues import ShardQueue
from repro.soc.sessions import MonitorSession, ShardPatch


def apply_shard_patch(item: ShardPatch,
                      sessions: Dict[str, MonitorSession],
                      metrics: MetricsRegistry) -> None:
    """Apply a re-arm item's patches to their hosts' sessions, counting
    each as applied or, for an already-applied token, suppressed."""
    applied = suppressed = 0
    for patch in item.patches:
        if sessions[patch.host_name].apply_patch(patch):
            applied += 1
        else:
            suppressed += 1
    if applied:
        metrics.counter("soc.rearm.patches_applied").inc(applied)
    if suppressed:
        metrics.counter("soc.rearm.patches_suppressed").inc(suppressed)


class ShardWorker:
    """Drains one shard queue: progress monitors, run the pipeline.

    Not a ``Thread`` subclass: a worker is a unit of *roster state*
    that usually runs on a thread of its own (:meth:`start`) but, after
    a crash, may instead run on its dead predecessor's thread
    (:meth:`carry`).  Keeping the thread an implementation detail also
    keeps restart construction cheap — a crash storm builds one worker
    per crash, and ``Thread.__init__`` is pure waste for the carried
    majority of them.
    """

    #: Max events pulled per lock round; also the metrics flush grain.
    BATCH = 64
    #: Backlog at or below which the worker caps its dequeue at
    #: :data:`LOW_BATCH`.  A big batch only amortizes lock traffic when
    #: there is a real backlog; on a shallow queue it just widens the
    #: window in which this worker runs a long uninterrupted stretch
    #: while every other shard's queued events age — the detection-lag
    #: regression at high shard counts.  Small batches at low depth
    #: interleave shards finely; the full batch size kicks back in
    #: exactly when the backlog (and so the amortization win) is real.
    LOW_WATER = 16
    LOW_BATCH = 8

    def __init__(self, index: int, queue: ShardQueue,
                 sessions: Dict[str, MonitorSession],
                 pipeline: IncidentPipeline,
                 metrics: MetricsRegistry,
                 chaos=None,
                 quarantine: Optional[Quarantine] = None,
                 dead_letters: Optional[DeadLetterQueue] = None,
                 generation: int = 0,
                 on_death=None):
        self.name = f"soc-shard-{index}.g{generation}"
        self.index = index
        self.generation = generation
        self.queue = queue
        self.sessions = sessions
        self.pipeline = pipeline
        self.metrics = metrics
        self.chaos = chaos
        self.quarantine = quarantine
        self.dead_letters = dead_letters
        self.processed = 0
        #: Set when the worker died to an (injected) crash — the
        #: supervisor's restart trigger.
        self.crashed = False
        #: Set by the supervisor to take a hung worker out of rotation;
        #: the worker requeues its remaining work and exits on wake.
        self.deposed = False
        #: True while serving an injected hang (depose eligibility).
        self.in_hang = False
        #: Wall-clock of the last liveness beat (monotonic seconds).
        self.last_beat = time.monotonic()
        self._replaced = False
        #: Called after a crash so the supervisor replaces this worker
        #: immediately instead of waiting out its poll interval.  May
        #: return a successor for the dying thread to carry in place.
        self._on_death = on_death
        #: The OS thread backing this worker when spawned (None until
        #: :meth:`start`, and forever for carried workers).
        self._thread: Optional[threading.Thread] = None
        self._carried = False
        self._finished = threading.Event()
        #: Carried-restart chain length; bounds handover stack depth.
        self.carry_depth = 0

    # -- supervisor interface ------------------------------------------------

    def beat(self) -> None:
        self.last_beat = time.monotonic()

    @property
    def beat_age(self) -> float:
        return time.monotonic() - self.last_beat

    @property
    def needs_replacement(self) -> bool:
        """Worker is out of rotation and nobody covers its queue yet.

        ``crashed`` is only set *after* the batch's finally block has
        requeued the unprocessed suffix, so the moment the flag is
        visible the shard is safe to hand to a successor — no need to
        wait for the crashed thread itself to finish dying.
        """
        if self._replaced:
            return False
        return self.deposed or self.crashed

    def mark_replaced(self) -> None:
        self._replaced = True

    # -- carried restarts ----------------------------------------------------

    def mark_carried(self, depth: int) -> None:
        """Flag this worker to run on its predecessor's thread.

        Must be called before the worker is installed in the service's
        roster so :meth:`is_alive` is carried-aware from the first
        moment any other thread can see it.
        """
        self._carried = True
        self.carry_depth = depth

    @property
    def carried(self) -> bool:
        return self._carried

    def carry(self) -> None:
        """Run this worker's loop on the calling thread.

        The calling thread is a crashed predecessor on its way out:
        its batch suffix is already requeued, so handing the shard
        over in-stack makes crash-to-restart latency a method call
        instead of an OS thread spawn (which costs around a
        millisecond under GIL contention — the dominant cost of a
        crash storm otherwise).  :meth:`start` uses the same entry
        point: a spawned worker is simply carried by a new thread.
        """
        try:
            self.run()
        finally:
            self._finished.set()

    # -- thread facade -------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self.carry,
                                        name=self.name, daemon=True)
        self._thread.start()

    def is_alive(self) -> bool:
        """Running (spawned or carried) and not yet finished."""
        return (self._carried or self._thread is not None) \
            and not self._finished.is_set()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
            return
        self._finished.wait(timeout)

    # -- the drain loop ------------------------------------------------------

    def run(self) -> None:
        processed_counter = self.metrics.counter(
            f"soc.shard.{self.index}.processed")
        depth_gauge = self.metrics.gauge(
            f"soc.shard.{self.index}.queue_depth")
        lag_histogram = self.metrics.histogram("soc.detection_lag_events")
        while not self.deposed:
            depth = self.queue.depth
            cap = self.BATCH if depth > self.LOW_WATER else self.LOW_BATCH
            depth_gauge.set(depth)
            batch = self.queue.get_batch(cap)
            if batch is None:       # queue closed and fully drained
                break
            credited = 0
            #: Patches past the first of each re-arm item: the item
            #: is one queue credit but counts as processed once per
            #: patch, as it did when every patch rode alone.
            extra_patches = 0
            requeue: List[Tuple[str, object]] = []
            #: Events of hosts whose session failed earlier in this
            #: batch: deferred for redelivery (at the queue head, in
            #: order) instead of breaking the whole batch — per-host
            #: ordering is preserved, other hosts keep flowing.
            deferred: List[Tuple[str, object]] = []
            blocked: set = set()
            crashed = False
            try:
                for position, (host_name, event) in enumerate(batch):
                    self.beat()
                    if self.deposed:
                        requeue = batch[position:]
                        break
                    if type(event) is ShardPatch:
                        # Live re-arm: the patches rode the queue behind
                        # the events they must not affect, so applying
                        # them here is exact — no chaos draw, no
                        # strikes, no seen-set (tokens make redelivery
                        # idempotent).
                        hosts = [patch.host_name for patch in event.patches]
                        if blocked.intersection(hosts):
                            # A host's failed events were deferred ahead
                            # of its patch: the item waits behind them,
                            # and the rest of this batch for its hosts
                            # waits behind the item.
                            deferred.append((host_name, event))
                            blocked.update(hosts)
                            continue
                        apply_shard_patch(event, self.sessions,
                                          self.metrics)
                        credited += 1
                        extra_patches += len(event.patches) - 1
                        continue
                    if host_name in blocked:
                        deferred.append((host_name, event))
                        continue
                    session = self.sessions[host_name]
                    if session.already_observed(event.time):
                        # At-least-once ingress (chaos duplicates) made
                        # delivery redundant; the session's seen-set
                        # makes it idempotent.  Suppressed before the
                        # fault draw: a duplicate shares its original's
                        # decision key and would replay its fault.
                        self.metrics.counter(
                            "soc.events.duplicates_suppressed").inc()
                        credited += 1
                        continue
                    fault = None
                    strikes = 0
                    if self.quarantine is not None:
                        strikes = self.quarantine.strikes(host_name, event)
                        if strikes >= self.quarantine.max_deliveries:
                            self._park(host_name, event,
                                       "delivery budget exhausted",
                                       strikes)
                            credited += 1
                            continue
                    if self.chaos is not None:
                        fault = self.chaos.worker_fault(
                            host_name, event, strikes)
                    if fault is not None \
                            and fault.value == "hang":
                        self.in_hang = True
                        try:
                            self.chaos.hang()
                        finally:
                            self.in_hang = False
                        self.metrics.counter("soc.worker.hangs").inc()
                        if self.deposed:
                            # Deposed mid-hang: this delivery is a strike
                            # (the event wedged the shard), then hand
                            # everything unfinished back.
                            parked = self._strike_or_park(
                                host_name, event, "hang while deposed")
                            credited += parked
                            retry = batch[position:]
                            if parked:
                                retry = retry[1:]
                            requeue = retry
                            break
                    if fault is not None and fault.value == "crash":
                        parked = self._strike_or_park(
                            host_name, event, "worker crash loop")
                        credited += parked
                        retry = batch[position:]
                        if parked:
                            retry = retry[1:]
                        requeue = retry
                        crashed = True
                        break
                    try:
                        if fault is not None \
                                and fault.value == "session-error":
                            from repro.chaos.controller import \
                                InjectedSessionError
                            raise InjectedSessionError(
                                f"{host_name}@{event.time}")
                        detections = session.observe(event)
                    except Exception:
                        self.metrics.counter("soc.session.errors").inc()
                        parked = self._strike_or_park(
                            host_name, event, "session error")
                        credited += parked
                        if not parked:
                            deferred.append((host_name, event))
                        blocked.add(host_name)
                        continue
                    for detection in detections:
                        # Lag: host events emitted between this event and
                        # the worker getting to it — the queue's price.
                        lag_histogram.observe(max(
                            0, session.host.events.clock - 1 - event.time))
                        self.pipeline.handle(
                            session.host, detection,
                            session.bindings.get(detection.req_id, []))
                    if self.quarantine is not None and strikes:
                        self.quarantine.clear(host_name, event)
                    credited += 1
            finally:
                # task_done only for terminally-handled events, so
                # join() stays a true drain barrier; everything else
                # goes back to the queue head in order — no event is
                # ever lost to a worker failure.  Deferred events came
                # earlier in the batch than any crash/deposal suffix,
                # so they requeue ahead of it (per-host order holds).
                if deferred or requeue:
                    self.queue.requeue_front(deferred + requeue)
                self.processed += credited + extra_patches
                if credited:
                    processed_counter.inc(credited + extra_patches)
                    self.queue.task_done_many(credited)
                depth_gauge.set(self.queue.depth)
            if crashed:
                self.crashed = True
                self.metrics.counter("soc.worker.crashes").inc()
                successor = None
                if self._on_death is not None:
                    successor = self._on_death(self)
                if successor is not None:
                    # Hand the shard over in-stack: this thread is dead
                    # as far as the roster is concerned, but it can
                    # still do the successor's work for free.
                    successor.carry()
                break

    def _strike_or_park(self, host_name: str, event, reason: str) -> int:
        """Strike the event; park it when the budget is gone.

        Returns 1 when the event was parked (terminally handled, must
        be credited) and 0 when it stays in flight for a retry.
        """
        if self.quarantine is None:
            return 0
        strikes = self.quarantine.strike(host_name, event)
        if strikes >= self.quarantine.max_deliveries:
            self._park(host_name, event, reason, strikes)
            return 1
        return 0

    def _park(self, host_name: str, event, reason: str,
              strikes: int) -> None:
        if self.dead_letters is not None:
            self.dead_letters.park(host_name, event, reason, strikes)
        if self.quarantine is not None:
            self.quarantine.clear(host_name, event)
        self.metrics.counter("soc.events.dead_lettered").inc()
