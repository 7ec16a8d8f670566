"""Circuit breaker for repeatedly failing work (the scheduler's and
the SOC's shared failure budget).

A unit of work that keeps failing (a finding whose backend is broken,
a host that re-drifts faster than it can be repaired, a verification
backend that is down) must not consume its worker forever.  The
breaker follows the classic three-state protocol, with the cooldown
measured in *skipped requests* rather than wall-clock time so runs are
deterministic:

* ``CLOSED`` — requests flow; consecutive failures are counted.
* ``OPEN`` — after ``failure_threshold`` consecutive failures the
  breaker trips: requests are skipped (and counted) until ``cooldown``
  of them have been absorbed.
* ``HALF_OPEN`` — exactly one trial request is admitted (a probe
  already in flight makes concurrent :meth:`allow` calls skip, so two
  workers can never double-probe one backend); success closes the
  breaker, failure re-opens it for a fresh, full cooldown.

Grew up in the SOC; it moved here when the scheduler unified the
three executor stacks.  The SOC's incident pipeline imports it from
here.
"""

import enum
import threading


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Three-state breaker with request-count cooldown."""

    def __init__(self, failure_threshold: int = 3, cooldown: int = 2):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.trips = 0            # times the breaker opened (monotonic)
        self.skipped = 0          # requests absorbed while open (monotonic)
        self._cooldown_left = 0
        self._probe_in_flight = False
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """Should the next request run?  Skips are counted here."""
        # A closed breaker admits on one atomic read, without the lock:
        # only record_success moves a breaker back to CLOSED, so a
        # reader that sees CLOSED is ordered before any concurrent
        # transition away from it.
        if self.state is BreakerState.CLOSED:
            return True
        with self._lock:
            if self.state is BreakerState.CLOSED:
                return True
            if self.state is BreakerState.HALF_OPEN:
                # Exactly one probe: concurrent callers are absorbed
                # until the in-flight trial records its outcome.
                if self._probe_in_flight:
                    self.skipped += 1
                    return False
                self._probe_in_flight = True
                return True
            # OPEN: absorb this request; move to HALF_OPEN once cooled.
            self.skipped += 1
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = BreakerState.HALF_OPEN
            return False

    def record_success(self) -> None:
        # Nothing to reset: skip the lock.  consecutive_failures rises
        # before a breaker leaves CLOSED and is zeroed only after it
        # returns, so a zero count read after a CLOSED state is one a
        # locked write would leave as it is (a probe still in flight
        # is read last and takes the locked path).
        if (self.state is BreakerState.CLOSED
                and not self.consecutive_failures
                and not self._probe_in_flight):
            return
        with self._lock:
            self.state = BreakerState.CLOSED
            self.consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            self._probe_in_flight = False
            if (self.state is BreakerState.HALF_OPEN
                    or self.consecutive_failures >= self.failure_threshold):
                if self.state is not BreakerState.OPEN:
                    self.trips += 1
                self.state = BreakerState.OPEN
                self._cooldown_left = self.cooldown
