"""Unit tests for the incident pipeline: retry, backoff, breakers."""

from repro.environment.events import Event
from repro.environment.host import SimulatedHost
from repro.rqcode.catalog import StigCatalog
from repro.rqcode.concepts import CheckStatus, EnforcementStatus
from repro.sched.breaker import BreakerState
from repro.soc.incidents import IncidentPipeline, RetryPolicy
from repro.soc.metrics import MetricsRegistry
from repro.soc.sessions import Detection


def make_requirement_class(name, succeed_after):
    """A finding whose enforcement succeeds only on call N (never, when
    *succeed_after* is None)."""
    calls = {"n": 0}

    class Requirement:
        def __init__(self, host):
            self.host = host

        def check(self):
            if succeed_after is not None and calls["n"] >= succeed_after:
                return CheckStatus.PASS
            return CheckStatus.FAIL

        def enforce(self):
            calls["n"] += 1
            if succeed_after is not None and calls["n"] >= succeed_after:
                return EnforcementStatus.SUCCESS
            return EnforcementStatus.FAILURE

    Requirement.__name__ = name
    Requirement.calls = calls
    return Requirement


def make_pipeline(catalog, *, retry=None, sleeper=None, seed=0,
                  breaker_threshold=3, breaker_cooldown=1):
    metrics = MetricsRegistry()
    pipeline = IncidentPipeline(
        catalog, metrics,
        retry=retry or RetryPolicy(max_attempts=3, backoff_base=0.0001),
        breaker_threshold=breaker_threshold,
        breaker_cooldown=breaker_cooldown,
        seed=seed,
        sleeper=sleeper if sleeper is not None else (lambda _s: None))
    return pipeline, metrics


def detection(time=5, kind="drift.package", req_id="R1"):
    return Detection(req_id=req_id, event=Event(time=time, kind=kind))


class TestRetry:
    def test_flaky_enforcement_retried_to_success(self):
        catalog = StigCatalog()
        catalog.register(make_requirement_class("V_FLAKY", 2), "ubuntu")
        host = SimulatedHost("h1", "ubuntu")
        pipeline, metrics = make_pipeline(catalog)
        incident = pipeline.handle(host, detection(), ["V-FLAKY"])
        repair, = incident.repairs
        assert repair.detail == "enforced; attempts=2; re-check PASS"
        assert incident.effective
        snap = metrics.snapshot()["counters"]
        assert snap["soc.enforce.success"] == 1
        assert snap["soc.enforce.retries"] == 1

    def test_backoff_delays_grow_and_are_seed_deterministic(self):
        def run(seed):
            catalog = StigCatalog()
            catalog.register(make_requirement_class("V_SLOW", None),
                             "ubuntu")
            delays = []
            pipeline, _ = make_pipeline(
                catalog, sleeper=delays.append, seed=seed,
                retry=RetryPolicy(max_attempts=4, backoff_base=0.01,
                                  backoff_factor=2.0, jitter=0.5))
            pipeline.handle(SimulatedHost("h1", "ubuntu"), detection(),
                            ["V-SLOW"])
            return delays

        first = run(seed=7)
        second = run(seed=7)
        other = run(seed=8)
        assert len(first) == 3          # max_attempts - 1 sleeps
        assert first == second          # same seed, same jitter
        assert first != other           # jitter is actually seeded
        # Exponential shape with bounded jitter: each delay lands in
        # [base*2^k, base*2^k*1.5] and therefore strictly grows.
        for index, delay in enumerate(first):
            assert 0.01 * 2 ** index <= delay <= 0.015 * 2 ** index

    def test_exhausted_retries_record_failure(self):
        catalog = StigCatalog()
        catalog.register(make_requirement_class("V_DEAD", None), "ubuntu")
        pipeline, metrics = make_pipeline(catalog)
        incident = pipeline.handle(SimulatedHost("h1", "ubuntu"),
                                   detection(), ["V-DEAD"])
        repair, = incident.repairs
        assert repair.status is EnforcementStatus.FAILURE
        assert repair.detail.endswith("re-check FAIL")
        assert not incident.effective
        assert metrics.snapshot()["counters"]["soc.enforce.failure"] == 1


class TestShortCircuits:
    def test_already_compliant_is_not_enforced(self):
        catalog = StigCatalog()
        catalog.register(make_requirement_class("V_OK", 0), "ubuntu")
        pipeline, _ = make_pipeline(catalog)
        incident = pipeline.handle(SimulatedHost("h1", "ubuntu"),
                                   detection(), ["V-OK"])
        repair, = incident.repairs
        assert repair.detail == "already compliant"
        assert repair.status is EnforcementStatus.SUCCESS

    def test_unknown_finding_fails_cleanly(self):
        pipeline, _ = make_pipeline(StigCatalog())
        incident = pipeline.handle(SimulatedHost("h1", "ubuntu"),
                                   detection(), ["V-MISSING"])
        repair, = incident.repairs
        assert repair.status is EnforcementStatus.FAILURE
        assert repair.detail == "finding not in catalogue"


class TestCircuitBreaker:
    def _failing_setup(self, threshold=2, cooldown=1):
        catalog = StigCatalog()
        catalog.register(make_requirement_class("V_DEAD", None), "ubuntu")
        pipeline, metrics = make_pipeline(
            catalog, breaker_threshold=threshold,
            breaker_cooldown=cooldown,
            retry=RetryPolicy(max_attempts=1))
        return pipeline, metrics, SimulatedHost("h1", "ubuntu")

    def test_repeated_failures_trip_the_breaker(self):
        pipeline, metrics, host = self._failing_setup(threshold=2)
        pipeline.handle(host, detection(), ["V-DEAD"])
        pipeline.handle(host, detection(), ["V-DEAD"])
        breaker = pipeline.breaker_for("h1", "V-DEAD")
        assert breaker.state is BreakerState.OPEN
        assert metrics.snapshot()["counters"]["soc.breaker.trips"] == 1

    def test_open_breaker_skips_enforcement(self):
        pipeline, metrics, host = self._failing_setup(threshold=1,
                                                      cooldown=5)
        pipeline.handle(host, detection(), ["V-DEAD"])   # trips
        incident = pipeline.handle(host, detection(), ["V-DEAD"])
        repair, = incident.repairs
        assert repair.status is EnforcementStatus.INCOMPLETE
        assert "circuit breaker open" in repair.detail
        counters = metrics.snapshot()["counters"]
        assert counters["soc.enforce.skipped_by_breaker"] == 1
        # The dead enforcement ran exactly once.
        assert counters["soc.enforce.failure"] == 1

    def test_half_open_trial_after_cooldown(self):
        pipeline, _, host = self._failing_setup(threshold=1, cooldown=1)
        pipeline.handle(host, detection(), ["V-DEAD"])   # trips
        pipeline.handle(host, detection(), ["V-DEAD"])   # absorbed
        breaker = pipeline.breaker_for("h1", "V-DEAD")
        assert breaker.state is BreakerState.HALF_OPEN
        pipeline.handle(host, detection(), ["V-DEAD"])   # trial fails
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_breakers_are_per_host_and_finding(self):
        pipeline, _, host = self._failing_setup(threshold=1)
        pipeline.handle(host, detection(), ["V-DEAD"])
        assert pipeline.breaker_for(
            "h1", "V-DEAD").state is BreakerState.OPEN
        assert pipeline.breaker_for(
            "h2", "V-DEAD").state is BreakerState.CLOSED
        assert pipeline.breaker_states()["h1/V-DEAD"] == "open"


class TestRepairEchoFlag:
    def test_in_repair_is_set_only_while_enforcing(self):
        catalog = StigCatalog()
        catalog.register(make_requirement_class("V_FLAKY", 2), "ubuntu")
        observed = []

        def sleeper(_delay):
            observed.append(pipeline.in_repair())

        pipeline, _ = make_pipeline(catalog, sleeper=sleeper)
        assert not pipeline.in_repair()
        pipeline.handle(SimulatedHost("h1", "ubuntu"), detection(),
                        ["V-FLAKY"])
        assert observed == [True]
        assert not pipeline.in_repair()


class TestIncidentStore:
    def test_incidents_ordered_by_time_then_host(self):
        catalog = StigCatalog()
        catalog.register(make_requirement_class("V_OK", 0), "ubuntu")
        pipeline, _ = make_pipeline(catalog)
        beta = SimulatedHost("beta", "ubuntu")
        alpha = SimulatedHost("alpha", "ubuntu")
        pipeline.handle(beta, detection(time=3), ["V-OK"])
        pipeline.handle(alpha, detection(time=3), ["V-OK"])
        pipeline.handle(beta, detection(time=1), ["V-OK"])
        ordered = pipeline.incidents()
        assert [(i.detected_at) for i in ordered] == [1, 3, 3]
        assert pipeline.incidents_for("alpha")[0].detected_at == 3
        assert pipeline.incidents_for("unknown") == []
