"""Integration tests crossing subsystem boundaries.

These exercise the seams the unit tests cannot: RESA text through
formalization into runtime monitors; vulnerability records through the
pipeline; observers verified against systems derived from requirements;
TEARS judging logs produced by a simulated host.
"""

import pytest

from repro.core import VeriDevOpsOrchestrator
from repro.environment import default_ubuntu_host, hardened_windows_host
from repro.ltl import LtlMonitor, Verdict, evaluate_ltlf, parse_ltl
from repro.resa import match_boilerplate, to_pattern
from repro.specpatterns import Globally, build_observer, to_ltl
from repro.ta import Edge, Location, Network, TimedAutomaton, \
    ZoneGraphChecker, parse_guard, parse_query
from repro.tears import GaVerdict, GuardedAssertion, TimedTrace, parse_expr
from repro.vulndb import SoftwareInventory, bundled_database


class TestResaToMonitor:
    def test_boilerplate_to_runtime_monitor(self):
        """Constrained NL -> pattern -> LTL -> armed monitor -> verdicts."""
        structured = match_boilerplate(
            "R", "When intrusion is detected, the gateway shall alert "
                 "the operator.")
        pattern, scope = to_pattern(structured)
        formula = to_ltl(pattern, scope)
        monitor = LtlMonitor(formula)

        # An intrusion without an alert leaves the obligation open; the
        # exact LTLf judgment on the completed trace is the verdict.
        trace = [{"intrusion_is_detected"}, set(), {"alert_the_operator"}]
        assert monitor.observe_trace(trace) is Verdict.INCONCLUSIVE
        assert evaluate_ltlf(formula, trace)
        assert not evaluate_ltlf(formula, trace[:2])

    def test_timed_boilerplate_to_observer_verification(self):
        """Timed NL requirement -> TimedResponse observer -> model check."""
        structured = match_boilerplate(
            "R", "When intrusion is detected, the gateway shall alert "
                 "the operator within 5 seconds.")
        pattern, _ = to_pattern(structured)
        observer = build_observer(pattern)

        fast_gateway = TimedAutomaton(
            name="GW", clocks=["x"],
            locations=[
                Location("idle"),
                Location("alerting", invariant=parse_guard("x <= 3")),
            ],
            edges=[
                Edge("idle", "alerting", sync=f"{pattern.p}!",
                     resets=("x",), action="intrusion"),
                Edge("alerting", "idle", sync=f"{pattern.s}!",
                     action="alert"),
            ],
        )
        network = Network([fast_gateway, observer.automaton])
        result = ZoneGraphChecker(network).check(parse_query(observer.query))
        assert result.satisfied


class TestVulnDrivenPipeline:
    def test_vulnerable_inventory_flows_through_pipeline(self):
        host = default_ubuntu_host()
        orchestrator = VeriDevOpsOrchestrator()
        inventory = SoftwareInventory.of(host.name, "ubuntu", {
            "openssh-server": "7.6", "bash": "4.3",
        })
        orchestrator.ingest_vulnerabilities(bundled_database(), inventory)
        run = orchestrator.run_prevention([host])
        assert run.passed, run.gate_rows()
        formalized = orchestrator.repository.formalized()
        assert formalized
        assert all(record.ir.formalization.tctl for record in formalized)


class TestHostEventsToTears:
    def test_ga_judges_host_event_log(self):
        """A TEARS G/A evaluates a signal trace derived from host
        events: compliance ratio must recover after hardening."""
        host = hardened_windows_host()
        trace = TimedTrace()
        # Sample the 'audit_ok' signal around a drift/repair episode.
        def sample(time):
            setting = host.audit_store.get("Logon").render()
            trace.record(time, audit_ok=1 if "Success" in setting else 0,
                         drifted=0 if "Success" in setting else 1)

        sample(0)
        host.drift_audit_policy("Logon")
        sample(1)
        host.audit_store.set("Logon", success=True, failure=True)  # repair
        sample(2)

        ga = GuardedAssertion(
            name="audit_recovers",
            guard=parse_expr("drifted == 1"),
            assertion=parse_expr("audit_ok == 1"),
            within=2,
        )
        result = ga.evaluate(trace)
        assert result.verdict is GaVerdict.PASSED
        assert result.activations == 1

    def test_ga_fails_without_repair(self):
        host = hardened_windows_host()
        trace = TimedTrace()
        host.drift_audit_policy("Logon")
        trace.record(0, drifted=1, audit_ok=0)
        trace.record(5, drifted=1, audit_ok=0)
        ga = GuardedAssertion(
            name="audit_recovers",
            guard=parse_expr("drifted == 1"),
            assertion=parse_expr("audit_ok == 1"),
            within=2,
        )
        assert ga.evaluate(trace).verdict is GaVerdict.FAILED


class TestStandardsRoundTrip:
    def test_windows_standards_pipeline_and_protection(self):
        host = hardened_windows_host()
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_standards("windows")
        run = orchestrator.run_prevention([host])
        assert run.passed
        loop = orchestrator.start_protection(host, run)
        host.drift_audit_policy("Logon")
        effective = [i for i in loop.incidents if i.effective]
        assert effective
        assert host.audit_store.get("Logon").render() == \
            "Success and Failure"
