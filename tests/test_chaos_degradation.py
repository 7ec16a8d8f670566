"""Targeted degradation tests: each rung of the ladder in isolation.

The invariant suite (test_chaos_invariants) proves conservation under
randomized fault mixes; these tests pin down the *mechanism* of each
hardening path — supervisor restarts, hang deposition, poison
quarantine, dead-letter bounding, repair-exception escalation through
the breaker, and the slow-config seam — with fault rates of 1.0 so the
behaviour is fully deterministic.
"""

import pytest

from repro.chaos import (
    ChaosController,
    FaultPlan,
    build_chaos_fleet,
    run_chaos_scenario,
)
from repro.sched.breaker import BreakerState


def counters_of(result):
    return result.service.metrics_snapshot()["counters"]


class TestWorkerCrashes:
    def test_crash_loop_parks_everything_and_loses_nothing(self):
        # Every delivery crashes the worker; after max_deliveries
        # strikes the event is dead-lettered.  The supervisor keeps
        # restarting, the drain barrier completes, nothing is lost,
        # and the reconcile sweep still repairs the fleet.
        plan = FaultPlan(seed=3, worker_crash=1.0, max_deliveries=2,
                         dead_letter_capacity=256)
        result = run_chaos_scenario(plan, hosts=2, rounds=1)
        result.invariants.raise_if_violated()
        counters = counters_of(result)
        assert counters["soc.worker.crashes"] >= 1
        # Every crash is replaced, except possibly each shard's last
        # one (a worker whose dying act parked the final queued event
        # has nothing left to be replaced for).
        assert counters["soc.worker.restarts"] >= \
            counters["soc.worker.crashes"] - result.service.shards
        assert counters["soc.worker.restarts"] >= 1
        # Every scenario event burned its delivery budget.
        assert counters["soc.events.dead_lettered"] == \
            result.events_emitted
        assert len(result.service.incidents()) == 0
        # The event-driven path saw nothing, so coverage came entirely
        # from the ladder's last rung.
        assert result.reconcile_repairs > 0
        assert result.fully_repaired

    def test_partial_crash_rate_still_fully_repairs(self):
        plan = FaultPlan(seed=5, worker_crash=0.3)
        result = run_chaos_scenario(plan)
        result.invariants.raise_if_violated()
        assert result.fully_repaired
        counters = counters_of(result)
        assert counters["soc.worker.restarts"] >= \
            counters.get("soc.worker.crashes", 0) - result.service.shards


class TestHangDeposition:
    def test_hung_worker_is_deposed_and_replaced(self):
        # Injected hangs far longer than hang_timeout: the supervisor
        # deposes the stuck worker, a replacement resumes the queue,
        # and redeliveries strike the event into the dead-letter queue.
        plan = FaultPlan(seed=1, worker_hang=1.0, hang_seconds=0.15,
                         hang_timeout=0.02, max_deliveries=2)
        fleet = build_chaos_fleet(hosts=1)
        controller = ChaosController(plan)
        service = fleet.arm_soc(shards=1, chaos=controller,
                                supervisor_interval=0.005)
        try:
            fleet.hosts()[0].drift_install_package("nis")
            service.drain()
        finally:
            service.stop()
        counters = service.metrics_snapshot()["counters"]
        assert counters["soc.worker.hangs"] >= 1
        assert counters["soc.worker.deposed"] >= 1
        assert counters["soc.worker.restarts"] >= \
            counters["soc.worker.deposed"]
        # Both drift events exhausted their budget mid-hang.
        assert counters["soc.events.dead_lettered"] == 2
        assert service.reconcile() > 0
        assert fleet.audit().worst_ratio == 1.0

    def test_hangs_without_timeout_are_latency_not_loss(self):
        plan = FaultPlan(seed=2, worker_hang=0.5, hang_seconds=0.001)
        result = run_chaos_scenario(plan, hosts=2, rounds=1)
        result.invariants.raise_if_violated()
        counters = counters_of(result)
        assert counters["soc.worker.hangs"] >= 1
        assert counters.get("soc.worker.deposed", 0) == 0
        assert counters.get("soc.events.dead_lettered", 0) == 0
        assert result.fully_repaired


class TestPoisonQuarantine:
    def test_poison_event_parks_after_max_deliveries(self):
        plan = FaultPlan(seed=4, session_error=1.0, max_deliveries=3,
                         dead_letter_capacity=256)
        result = run_chaos_scenario(plan, hosts=2, rounds=1)
        result.invariants.raise_if_violated()
        counters = counters_of(result)
        # Worker thread survives session errors: no crashes.
        assert counters.get("soc.worker.crashes", 0) == 0
        assert counters["soc.session.errors"] == 3 * result.events_emitted
        assert counters["soc.events.dead_lettered"] == \
            result.events_emitted
        for letter in result.service.dead_letters.letters():
            assert letter.strikes == 3
            assert letter.reason == "session error"
        assert result.fully_repaired       # reconcile covered the loss

    def test_dead_letter_queue_is_bounded_and_counts_eviction(self):
        plan = FaultPlan(seed=6, session_error=1.0, max_deliveries=1,
                         dead_letter_capacity=2)
        result = run_chaos_scenario(plan, hosts=2, rounds=2)
        result.invariants.raise_if_violated()
        dlq = result.service.dead_letters
        assert dlq.parked_total == result.events_emitted
        assert len(dlq) == 2                       # capacity bound held
        assert dlq.evicted == dlq.parked_total - 2


class TestRepairFaults:
    def test_raising_repairs_escalate_through_the_breaker(self):
        # Every enforcement attempt raises, forever: event-path repairs
        # and all 25 reconcile sweeps fail, so the per-finding breakers
        # trip and keep absorbing — and the worker threads never die.
        plan = FaultPlan(seed=7, repair_raise=1.0)
        result = run_chaos_scenario(plan, hosts=2, rounds=1)
        result.invariants.raise_if_violated()
        counters = counters_of(result)
        assert counters["soc.enforce.exception"] >= 1
        assert counters.get("soc.worker.crashes", 0) == 0
        assert counters["soc.breaker.trips"] >= 1
        assert not result.fully_repaired   # at rate 1.0 nothing can land
        assert result.reconcile_repairs == 0
        states = result.service.pipeline.breaker_states()
        assert any(state != BreakerState.CLOSED.value
                   for state in states.values())

    def test_noop_repairs_fail_the_recheck_and_burn_retries(self):
        plan = FaultPlan(seed=8, repair_noop=1.0)
        result = run_chaos_scenario(plan, hosts=2, rounds=1,
                                    reconcile=False)
        result.invariants.raise_if_violated()
        counters = counters_of(result)
        assert counters.get("soc.enforce.exception", 0) == 0
        assert counters["soc.enforce.failure"] >= 1
        assert not result.fully_repaired
        # No repair ever took effect, so no incident may claim one.
        assert result.service.effective_repairs() == 0

    def test_intermittent_repair_faults_converge(self):
        plan = FaultPlan(seed=9, repair_raise=0.3, repair_noop=0.3)
        result = run_chaos_scenario(plan)
        result.invariants.raise_if_violated()
        assert result.fully_repaired


class TestConfigSlow:
    def test_slow_read_hook_installed_and_removed(self):
        plan = FaultPlan(seed=10, config_slow=1.0,
                         config_delay_seconds=0.0)
        fleet = build_chaos_fleet(hosts=1)
        controller = ChaosController(plan)
        service = fleet.arm_soc(shards=1, chaos=controller)
        host = fleet.hosts()[0]
        try:
            host.config.get("/etc/ssh/sshd_config", "PermitRootLogin")
            counters = service.metrics_snapshot()["counters"]
            assert counters["chaos.config.slow"] == 1
        finally:
            service.stop()
        # stop() removes the hook: further reads draw no decisions.
        host.config.get("/etc/ssh/sshd_config", "PermitRootLogin")
        counters = service.metrics_snapshot()["counters"]
        assert counters["chaos.config.slow"] == 1


class TestIdempotentDelivery:
    def test_duplicates_suppressed_exactly_once(self):
        # 100% duplication: every scenario event enters the queue
        # twice, but the session seen-set suppresses every second copy
        # before it reaches the monitors (or draws a worker fault).
        plan = FaultPlan(seed=15, event_duplicate=1.0)
        result = run_chaos_scenario(plan, hosts=2, rounds=2)
        result.invariants.raise_if_violated()
        counters = counters_of(result)
        assert counters["chaos.ingress.duplicate"] == \
            result.events_emitted
        assert counters["soc.events.duplicates_suppressed"] == \
            result.events_emitted
        assert result.fully_repaired

    def test_suppression_preserves_incident_stream(self):
        # At-least-once ingress must be invisible downstream: the
        # incident stream under full duplication matches the fault-free
        # stream of the same scenario exactly.
        noisy = run_chaos_scenario(
            FaultPlan(seed=16, event_duplicate=1.0), hosts=2, rounds=2)
        clean = run_chaos_scenario(FaultPlan(seed=16), hosts=2, rounds=2)
        noisy.invariants.raise_if_violated()
        assert noisy.signature() == clean.signature()


class TestChaosAccounting:
    def test_injections_land_in_metrics_registry(self):
        plan = FaultPlan(seed=11, session_error=1.0, max_deliveries=1)
        result = run_chaos_scenario(plan, hosts=1, rounds=1)
        counters = counters_of(result)
        assert counters["chaos.session.error"] == \
            result.service.chaos.injection_count()
        assert result.injections == counters["chaos.session.error"]

    def test_quiet_plan_records_no_chaos_counters(self):
        result = run_chaos_scenario(FaultPlan(seed=12))
        assert not any(name.startswith("chaos.")
                       for name in counters_of(result))


class TestReportIncludesDegradation:
    def test_text_report_gains_degradation_section(self):
        from repro.soc import render_report

        plan = FaultPlan(seed=13, session_error=1.0, max_deliveries=1)
        result = run_chaos_scenario(plan, hosts=1, rounds=1)
        report = render_report(result.service, title="chaos run")
        assert "-- degradation --" in report
        assert "-- dead letters --" in report
        assert "-- chaos injections --" in report
        assert "chaos.session.error" in report

    def test_clean_run_report_omits_degradation(self):
        from repro.soc import render_report

        result = run_chaos_scenario(FaultPlan(seed=14), reconcile=False)
        report = render_report(result.service)
        assert "-- degradation --" not in report
        assert "-- chaos injections --" not in report
