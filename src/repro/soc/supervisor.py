"""The worker supervisor: detect dead or hung shard workers, restart them.

First rung of the SOC's degradation ladder (supervisor → circuit
breaker → dead-letter queue → reconcile sweep).  The supervisor owns
worker *liveness*; it never touches events — a failed worker's
unprocessed batch suffix is already back at its queue's head (see
:class:`~repro.soc.workers.ShardWorker`), so a restart resumes the
shard with zero loss and preserved per-host order.

Two detection paths:

* **Dead workers** — a worker thread that exited with its ``crashed``
  flag set is replaced with a fresh worker (same queue, same sessions,
  bumped generation).  Checked by the background monitor thread *and*
  synchronously from :meth:`SocService.drain`'s barrier loop, so a
  crash discovered mid-drain restarts instead of deadlocking the
  flush.
* **Hung workers** — a worker stuck inside an injected hang longer
  than the fault plan's ``hang_timeout`` is *deposed*: flagged out of
  rotation and replaced immediately.  The deposed worker requeues its
  unfinished work when it wakes and exits.  Deposition trades strict
  per-host ordering for shard liveness, which is why it is opt-in
  (``hang_timeout`` unset = never depose; legitimate slow repairs are
  never deposed because only injected hangs set ``in_hang``).
"""

import threading
from typing import Optional


class WorkerSupervisor:
    """Watches a service's shard workers; restarts the dead, deposes
    the hung."""

    def __init__(self, service, interval: float = 0.02,
                 hang_timeout: Optional[float] = None):
        self.service = service
        self.interval = interval
        self.hang_timeout = hang_timeout
        self._stop = threading.Event()
        self._poke = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    #: Carried-restart chain length at which the handover falls back to
    #: a real thread spawn, unwinding the accumulated carry stack.
    MAX_CARRY_DEPTH = 32

    def note_death(self, worker):
        """A worker announcing its own crash on the way out.

        Replaces exactly *worker* synchronously from the dying thread
        (targeted — no full fleet scan — so concurrently dying workers
        on different shards don't serialize behind each other's
        restarts).  The monitor is woken only when this call *declines*
        to replace — a successful handover needs no second opinion, and
        waking the monitor 40+ times per crash storm just steals GIL
        slices from the workers doing the recovering.

        Usually returns the successor for the dying thread to *carry*:
        running the replacement's loop in the predecessor's stack makes
        a restart cost a method call instead of an OS thread spawn.
        Every :data:`MAX_CARRY_DEPTH` generations the successor is
        spawned as a real thread instead (returning ``None``), which
        unwinds the carry stack so an unbounded crash loop cannot
        overflow it.
        """
        index = worker.index             # roster position == shard index
        with self._lock:
            # Only the authorization handshake needs the lock: claim
            # the replacement before a concurrent monitor pass can.
            workers = self.service.workers
            if index >= len(workers) or workers[index] is not worker \
                    or not worker.needs_replacement \
                    or not self.service.accepts_restarts:
                self._poke.set()         # someone else's problem now
                return None
            worker.mark_replaced()
        successor = self.service._make_worker(
            index, generation=worker.generation + 1)
        carry_depth = worker.carry_depth + 1
        if carry_depth < self.MAX_CARRY_DEPTH:
            successor.mark_carried(carry_depth)
        # A plain list-slot store is atomic; the old worker is already
        # marked replaced, so a racing monitor pass skips this shard.
        self.service.workers[index] = successor
        self.service.metrics.counter("soc.worker.restarts").inc()
        if successor.carried:
            return successor
        successor.start()
        return None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "WorkerSupervisor":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._monitor, name="soc-supervisor", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._poke.set()            # wake a monitor mid-wait
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def _monitor(self) -> None:
        while True:
            self._poke.wait(self.interval)
            if self._stop.is_set():
                return
            self._poke.clear()
            self.ensure_alive()

    # -- detection + repair ---------------------------------------------------

    def ensure_alive(self) -> int:
        """One supervision pass; returns how many workers were replaced.

        Safe to call from any thread (the drain barrier calls it
        synchronously); the lock serializes passes so the monitor
        thread and a draining caller never double-replace a worker.
        """
        started = []
        with self._lock:
            workers = self.service.workers
            for index, worker in enumerate(list(workers)):
                successor = None
                if worker.needs_replacement:
                    successor = self._register(index, worker)
                elif (self.hang_timeout is not None
                        and worker.is_alive()
                        and worker.in_hang
                        and worker.beat_age > self.hang_timeout):
                    worker.deposed = True
                    self.service.metrics.counter(
                        "soc.worker.deposed").inc()
                    successor = self._register(index, worker)
                if successor is not None:
                    started.append(successor)
        # Thread spawn is the expensive half of a restart; do it after
        # releasing the lock so restarts on different shards overlap.
        for successor in started:
            successor.start()
        return len(started)

    def _register(self, index: int, worker, carry_depth=None):
        """Build and install a successor (lock held); caller runs it.

        Installing before starting is safe: an installed-but-unstarted
        successor just looks like a healthy worker to concurrent
        passes, and its run loop handles a queue closed in the gap.
        With *carry_depth* the successor is flagged to run on its
        predecessor's thread (flagged before installation, so its
        liveness is carried-aware from the first visible moment).
        """
        if not self.service.accepts_restarts:
            return None
        worker.mark_replaced()
        successor = self.service._make_worker(
            worker.index, generation=worker.generation + 1)
        if carry_depth is not None:
            successor.mark_carried(carry_depth)
        self.service.workers[index] = successor
        self.service.metrics.counter("soc.worker.restarts").inc()
        return successor
