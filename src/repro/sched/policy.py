"""Per-task execution policy: one retry/backoff/breaker stack.

Before the scheduler existed, three executors each grew their own
failure handling: the pipeline's wave runner (fail the stage on first
error), the prevention gate's fan-out (propagate the first exception),
and the SOC incident pipeline (retry with exponential backoff and
jitter behind a per-finding circuit breaker).  This module is the
single stack they all run through now:

* :class:`RetryPolicy` — the backoff schedule (moved here from
  ``repro.soc.incidents``, which imports it from here).
* :class:`BreakerBank` — a keyed registry of circuit breakers, so a
  pipeline run and a SOC shard can share one failure budget per
  backend.
* :class:`PolicyRunner` — drives attempts against a breaker-gated
  budget and reports a :class:`PolicyOutcome`; callers keep their own
  metrics by observing the outcome and the callback hooks rather than
  by owning the loop.

The runner *contains* exceptions: an attempt that raises burns budget
and is recorded in ``PolicyOutcome.error`` instead of propagating, so
a broken backend can never kill the worker that happened to pick the
task up.  That is the SOC's exception-escalation contract, now shared.
"""

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

from repro.sched.breaker import CircuitBreaker

# Attempt callback: index -> (succeeded, value).
Attempt = Callable[[int], Tuple[bool, Any]]
# Pre-check callback: None to run attempts, or (succeeded, value) to
# short-circuit without burning any attempt budget.
Precheck = Callable[[], Optional[Tuple[bool, Any]]]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule for failing attempts."""

    max_attempts: int = 3
    backoff_base: float = 0.001     # seconds before the first retry
    backoff_factor: float = 2.0
    jitter: float = 0.5             # +-fraction of the computed delay

    def delay(self, retry_index: int, rng: random.Random) -> float:
        """Seconds to wait before retry *retry_index* (0-based)."""
        base = self.backoff_base * (self.backoff_factor ** retry_index)
        return base * (1.0 + self.jitter * rng.random())


# Single-shot default: no retries, no sleeps.  Tasks without an
# explicit policy still run through the same code path.
SINGLE_ATTEMPT = RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0)


class BreakerBank:
    """Keyed circuit breakers, created on demand, shared across workers."""

    def __init__(self, failure_threshold: int = 3, cooldown: int = 2):
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._breakers: Dict[Hashable, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> CircuitBreaker:
        # A hit is one GIL-atomic dict read (breakers are never
        # removed); a miss re-checks under the lock, so racing first
        # uses of a key all receive the one breaker that was stored.
        breaker = self._breakers.get(key)
        if breaker is None:
            with self._lock:
                breaker = self._breakers.get(key)
                if breaker is None:
                    breaker = self._breakers[key] = CircuitBreaker(
                        failure_threshold=self.failure_threshold,
                        cooldown=self.cooldown)
        return breaker

    def items(self) -> Iterator[Tuple[Hashable, CircuitBreaker]]:
        with self._lock:
            return iter(sorted(self._breakers.items()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._breakers)


@dataclass
class PolicyOutcome:
    """What one budgeted execution did.

    ``ran`` is False when the breaker absorbed the request outright;
    ``attempts`` is 0 when a precheck short-circuited.  ``error`` holds
    the exception raised by the *last* failing attempt, if any — the
    runner contains it rather than propagating.
    """

    success: bool
    value: Any = None
    ran: bool = True
    attempts: int = 0
    prechecked: bool = False
    error: Optional[BaseException] = None


@dataclass
class PolicyRunner:
    """Drives attempts for one unit of work under a retry+breaker budget."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    sleeper: Callable[[float], None] = time.sleep
    # Called after every failed attempt (including the last one).
    on_attempt_failed: Callable[[int], None] = lambda index: None
    # Called with a contained exception; may return a substitute value
    # for the attempt (the SOC maps exceptions to FAILURE actions).
    on_exception: Callable[[BaseException], Any] = lambda exc: None

    def run(self, attempt: Attempt,
            rng: Optional[random.Random] = None,
            breaker: Optional[CircuitBreaker] = None,
            precheck: Optional[Precheck] = None) -> PolicyOutcome:
        """Run *attempt* up to ``retry.max_attempts`` times.

        The breaker, when given, gates admission and absorbs the final
        verdict; *precheck*, when given, may settle the work without
        spending attempts (still recorded against the breaker).
        """
        if breaker is not None and not breaker.allow():
            return PolicyOutcome(success=False, ran=False)
        if precheck is not None:
            settled = precheck()
            if settled is not None:
                success, value = settled
                self._record(breaker, success)
                return PolicyOutcome(success, value, prechecked=True)
        rng = rng if rng is not None else random.Random(0)
        success = False
        value: Any = None
        error: Optional[BaseException] = None
        attempts = 0
        for index in range(self.retry.max_attempts):
            attempts = index + 1
            try:
                success, value = attempt(index)
                error = None
            except Exception as exc:  # contained, never propagated
                success = False
                error = exc
                value = self.on_exception(exc)
            if success:
                break
            self.on_attempt_failed(index)
            if index + 1 < self.retry.max_attempts:
                delay = self.retry.delay(index, rng)
                # A zero-base schedule means "retry immediately"; even
                # sleep(0) surrenders the GIL, so skip the call.
                if delay > 0:
                    self.sleeper(delay)
        self._record(breaker, success)
        return PolicyOutcome(success=success, value=value,
                             attempts=attempts, error=error)

    @staticmethod
    def _record(breaker: Optional[CircuitBreaker], success: bool) -> None:
        if breaker is None:
            return
        if success:
            breaker.record_success()
        else:
            breaker.record_failure()
