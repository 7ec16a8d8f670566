"""Unit tests for the per-finding circuit breaker."""

from repro.sched.breaker import BreakerState, CircuitBreaker


class TestClosedState:
    def test_allows_while_closed(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # streak broken


class TestTripping:
    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_open_skips_and_counts(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.skipped == 1


class TestRecovery:
    def _tripped(self, cooldown=2):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=cooldown)
        breaker.record_failure()
        return breaker

    def test_half_open_after_cooldown(self):
        breaker = self._tripped(cooldown=2)
        assert not breaker.allow()
        assert not breaker.allow()   # cooldown absorbed
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()       # the trial request

    def test_trial_success_closes(self):
        breaker = self._tripped(cooldown=1)
        breaker.allow()              # absorbs cooldown -> HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_trial_failure_reopens(self):
        breaker = self._tripped(cooldown=1)
        breaker.allow()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_validation(self):
        import pytest

        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)

    def test_trial_failure_restores_the_full_cooldown(self):
        # Regression: a failed half-open probe must re-open with a
        # fresh, complete backoff — not whatever cooldown remainder
        # the previous OPEN period left behind.
        breaker = CircuitBreaker(failure_threshold=1, cooldown=3)
        breaker.record_failure()                  # -> OPEN
        for _ in range(3):
            assert not breaker.allow()            # full cooldown
        assert breaker.allow()                    # the probe
        breaker.record_failure()                  # probe fails -> OPEN
        absorbed = 0
        while not breaker.allow():
            absorbed += 1
            assert absorbed <= 3
        assert absorbed == 3                      # full cooldown again

    def test_trial_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1)
        breaker.record_failure()
        breaker.record_failure()                  # -> OPEN (streak 2)
        breaker.allow()                           # absorb -> HALF_OPEN
        assert breaker.allow()
        breaker.record_success()                  # probe lands
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0
        # A single new failure must not re-trip: the streak restarted.
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()


class TestHalfOpenSingleProbe:
    def _half_open(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert not breaker.allow()               # absorb -> HALF_OPEN
        assert breaker.state is BreakerState.HALF_OPEN
        return breaker

    def test_second_caller_is_absorbed_while_probe_in_flight(self):
        breaker = self._half_open()
        assert breaker.allow()                   # the one probe
        assert not breaker.allow()               # concurrent caller
        assert not breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_slot_reopens_after_outcome(self):
        breaker = self._half_open()
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()                   # closed: flows again

    def test_concurrent_probes_admit_exactly_one_caller(self):
        # Regression for the double-probe race: two shard workers
        # hitting a half-open breaker at once must not both be let
        # through to hammer the same backend.
        import threading

        breaker = self._half_open()
        admitted = []
        barrier = threading.Barrier(8)

        def prober():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.current_thread().name)

        threads = [threading.Thread(target=prober) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(admitted) == 1
