"""Unit tests for the incident pipeline: retry, backoff, breakers."""

from repro.environment.events import Event
from repro.environment.host import SimulatedHost
from repro.rqcode.catalog import StigCatalog
from repro.rqcode.concepts import CheckStatus, EnforcementStatus
from repro.sched.breaker import BreakerState
from repro.sched.policy import RetryPolicy
from repro.soc.incidents import IncidentPipeline
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


class _Boom:
    """A finding whose backend raises on every enforcement."""

    def __init__(self, host):
        self.host = host

    def check(self):
        return CheckStatus.FAIL

    def enforce(self):
        raise RuntimeError("backend down")


_Boom.__name__ = "V_BOOM"


class TestTranscript:
    """One pipeline through every outcome, pinned to literal values.

    The expected transcript was captured before the already-compliant
    path was made cheap, so it pins that the incidents (order, status,
    detail), the breaker transitions and the metrics stayed identical.
    """

    SCRIPT = [
        ("alpha", 1, "R-ok", ["V-OK"]),
        ("alpha", 2, "R-fix", ["V-OK", "V-FIX"]),
        ("beta", 2, "R-fix", ["V-FIX", "V-OK"]),
        ("alpha", 3, "R-miss", ["V-MISSING"]),
        ("beta", 4, "R-flaky", ["V-FLAKY", "V-OK"]),
        ("alpha", 5, "R-miss", ["V-MISSING", "V-OK"]),
        ("alpha", 6, "R-miss", ["V-MISSING"]),
        ("beta", 7, "R-dead", ["V-DEAD"]),
        ("beta", 8, "R-dead", ["V-DEAD", "V-BOOM"]),
        ("beta", 9, "R-dead", ["V-DEAD"]),
        ("beta", 10, "R-dead", ["V-DEAD", "V-OK"]),
        ("beta", 11, "R-dead", ["V-DEAD", "V-BOOM"]),
        ("alpha", 12, "R-miss", ["V-MISSING", "V-FIX"]),
        ("beta", 13, "R-boom", ["V-BOOM"]),
    ]

    OK = ["SUCCESS", "already compliant"]
    OPEN = ["INCOMPLETE", "circuit breaker open; enforcement skipped"]
    MISSING = ["FAILURE", "finding not in catalogue"]
    FAILED = ["FAILURE", "enforced; attempts=2; re-check FAIL"]

    INCIDENTS = [
        ["R-ok", 1, [["V-OK", *OK]]],
        ["R-fix", 2, [["V-OK", *OK],
                      ["V-FIX", "SUCCESS",
                       "enforced; attempts=1; re-check PASS"]]],
        ["R-fix", 2, [["V-FIX", *OK], ["V-OK", *OK]]],
        ["R-miss", 3, [["V-MISSING", *MISSING]]],
        ["R-flaky", 4, [["V-FLAKY", "SUCCESS",
                         "enforced; attempts=2; re-check PASS"],
                        ["V-OK", *OK]]],
        ["R-miss", 5, [["V-MISSING", *MISSING], ["V-OK", *OK]]],
        ["R-miss", 6, [["V-MISSING", *OPEN]]],
        ["R-dead", 7, [["V-DEAD", *FAILED]]],
        ["R-dead", 8, [["V-DEAD", *FAILED], ["V-BOOM", *FAILED]]],
        ["R-dead", 9, [["V-DEAD", *OPEN]]],
        ["R-dead", 10, [["V-DEAD", *OPEN], ["V-OK", *OK]]],
        ["R-dead", 11, [["V-DEAD", *FAILED], ["V-BOOM", *FAILED]]],
        ["R-miss", 12, [["V-MISSING", *OPEN], ["V-FIX", *OK]]],
        ["R-boom", 13, [["V-BOOM", *OPEN]]],
    ]

    BREAKERS = {
        "alpha/V-FIX": ("closed", 0, 0),
        "alpha/V-MISSING": ("half-open", 1, 2),
        "alpha/V-OK": ("closed", 0, 0),
        "beta/V-BOOM": ("open", 1, 1),
        "beta/V-DEAD": ("open", 2, 2),
        "beta/V-FIX": ("closed", 0, 0),
        "beta/V-FLAKY": ("closed", 0, 0),
        "beta/V-OK": ("closed", 0, 0),
    }

    COUNTERS = {
        "soc.breaker.trips": 4,
        "soc.enforce.exception": 4,
        "soc.enforce.failure": 7,
        "soc.enforce.retries": 11,
        "soc.enforce.skipped_by_breaker": 5,
        "soc.enforce.success": 10,
        "soc.incidents": 14,
    }

    def test_transcript_is_unchanged(self):
        catalog = StigCatalog()
        catalog.register(make_requirement_class("V_OK", 0), "ubuntu")
        catalog.register(make_requirement_class("V_FIX", 1), "ubuntu")
        catalog.register(make_requirement_class("V_FLAKY", 2), "ubuntu")
        catalog.register(make_requirement_class("V_DEAD", None), "ubuntu")
        catalog.register(_Boom, "ubuntu")
        delays = []
        metrics = MetricsRegistry()
        pipeline = IncidentPipeline(
            catalog, metrics,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
            breaker_threshold=2, breaker_cooldown=2, seed=3,
            sleeper=delays.append)
        hosts = {name: SimulatedHost(name, "ubuntu")
                 for name in ("alpha", "beta")}
        for host, time, req_id, finding_ids in self.SCRIPT:
            pipeline.handle(hosts[host],
                            detection(time=time, req_id=req_id),
                            finding_ids)
            assert not pipeline.in_repair()

        assert [[i.req_id, i.detected_at,
                 [[r.finding_id, r.status.value, r.detail]
                  for r in i.repairs]]
                for i in pipeline.incidents()] == self.INCIDENTS
        for incident in pipeline.incidents():
            assert incident.trigger_kind == "drift.package"
            assert incident.violation_time == incident.detected_at
        assert pipeline.breaker_states() == {
            key: state for key, (state, _, _) in self.BREAKERS.items()}
        assert {f"{host}/{finding}": (b.state.value, b.trips, b.skipped)
                for (host, finding), b in pipeline._breakers.items()
                } == self.BREAKERS
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == self.COUNTERS
        assert snapshot["gauges"] == {}
        attempts = snapshot["histograms"].pop("soc.repair_attempts")
        assert snapshot["histograms"] == {}
        assert (attempts["count"], attempts["sum"]) == (7, 13.0)
        assert attempts["buckets"] == {
            "le_0": 0, "le_1": 1, "le_2": 7, "le_5": 7, "le_10": 7,
            "le_20": 7, "le_50": 7, "le_100": 7, "le_250": 7, "le_inf": 7}
        assert len(delays) == 6

    def test_no_metric_exists_before_its_first_use(self):
        catalog = StigCatalog()
        catalog.register(make_requirement_class("V_OK", 0), "ubuntu")
        pipeline, metrics = make_pipeline(catalog)
        assert metrics.snapshot()["counters"] == {}
        pipeline.handle(SimulatedHost("h1", "ubuntu"), detection(),
                        ["V-OK"])
        assert metrics.snapshot() == {
            "counters": {"soc.enforce.success": 1, "soc.incidents": 1},
            "gauges": {}, "histograms": {}}


class TestRequirementReuse:
    """The pipeline keeps one requirement per (host, finding); it must
    still follow the catalogue and the host object it is handed."""

    def test_re_registered_finding_uses_the_new_class(self):
        catalog = StigCatalog()
        catalog.register(make_requirement_class("V_X", 0), "ubuntu")
        pipeline, _ = make_pipeline(catalog)
        host = SimulatedHost("h1", "ubuntu")
        first, = pipeline.handle(host, detection(), ["V-X"]).repairs
        assert first.detail == "already compliant"
        catalog.register(make_requirement_class("V_X", None), "ubuntu")
        second, = pipeline.handle(host, detection(), ["V-X"]).repairs
        assert second.detail == "enforced; attempts=3; re-check FAIL"

    def test_a_new_host_object_is_checked_itself(self):
        from repro.environment.profiles import hardened_ubuntu_host
        from repro.rqcode import default_catalog

        pipeline, _ = make_pipeline(default_catalog())
        clean = hardened_ubuntu_host("h1")
        first, = pipeline.handle(clean, detection(),
                                 ["V-219157"]).repairs
        assert first.detail == "already compliant"
        drifted = hardened_ubuntu_host("h1")     # same name, new host
        drifted.dpkg.install("nis")
        second, = pipeline.handle(drifted, detection(),
                                  ["V-219157"]).repairs
        assert second.detail == "enforced; attempts=1; re-check PASS"
        assert not drifted.dpkg.is_installed("nis")
