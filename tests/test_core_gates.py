"""Unit tests for the five security gates."""

import dataclasses
import sys
import threading
import time

import pytest

from repro.core.gates import (
    ComplianceGate,
    FormalizationGate,
    MonitoringGate,
    RequirementsQualityGate,
    VerificationGate,
)
from repro.core.pipeline import PipelineContext
from repro.core.repository import RequirementRepository, RequirementStatus
from repro.prevention.tasks import _token_ring
from repro.reqs.ir import Formalization, Requirement
from repro.rqcode import default_catalog
from repro.sched import Scheduler, SchedulerCrash
from repro.sched.journal import Journal
from repro.specpatterns import Absence, Globally, Response
from repro.ta import Edge, Location, Network, TimedAutomaton
from repro.ta.checker import ZoneGraphChecker


def repository_with(*texts, pattern=None):
    formalization = (Formalization.from_objects(pattern, Globally())
                     if pattern else None)
    return RequirementRepository.from_irs(
        Requirement(rid=f"R-{index}", title="", text=text,
                    source="resa", formalization=formalization)
        for index, text in enumerate(texts, start=1))


class TestRequirementsQualityGate:
    def test_passes_clean_requirements(self):
        context = PipelineContext(repository=repository_with(
            "The system shall lock the account after 3 attempts.",
            "The system shall record every privileged operation.",
        ))
        result = RequirementsQualityGate(max_smelly_ratio=0.2).evaluate(
            context)
        assert result.passed
        assert context.get("nalabs_report").total == 2

    def test_fails_smelly_requirements(self):
        context = PipelineContext(repository=repository_with(
            "The system may be adequate where possible.",
            "The system could possibly react in a timely manner.",
        ))
        result = RequirementsQualityGate(max_smelly_ratio=0.2).evaluate(
            context)
        assert not result.passed
        assert result.metrics["smelly_ratio"] == 1.0

    def test_attaches_flags_and_advances_status(self):
        repository = repository_with("The system may be adequate.")
        context = PipelineContext(repository=repository)
        RequirementsQualityGate(max_smelly_ratio=1.0).evaluate(context)
        record = repository.get("R-1")
        assert "vagueness" in record.quality_flags
        assert record.status is RequirementStatus.ANALYZED

    def test_empty_repository_passes(self):
        context = PipelineContext(repository=RequirementRepository())
        assert RequirementsQualityGate().evaluate(context).passed

    def test_duplicate_accounting_in_metrics(self):
        context = PipelineContext(repository=repository_with(
            "The system shall log every privileged operation.",
            "The system shall log every privileged operation.",
            "The system shall lock the account after 3 attempts.",
        ))
        result = RequirementsQualityGate(max_smelly_ratio=1.0).evaluate(
            context)
        assert result.metrics["duplicate_groups"] == 1.0
        assert result.metrics["duplicate_requirements"] == 2.0


class TestFormalizationGate:
    def test_renders_ltl_and_tctl(self):
        repository = repository_with(
            "No exploit shall occur.", pattern=Absence(p="exploit"))
        context = PipelineContext(repository=repository)
        result = FormalizationGate(min_formalized_ratio=1.0).evaluate(
            context)
        assert result.passed
        record = repository.get("R-1")
        assert record.ir.formalization.ltl == "G (!(exploit))"
        assert record.ir.formalization.tctl == "A[] not exploit"
        assert record.status is RequirementStatus.FORMALIZED

    def test_fails_below_threshold(self):
        repository = repository_with("Free prose without a pattern.")
        context = PipelineContext(repository=repository)
        result = FormalizationGate(min_formalized_ratio=0.5).evaluate(
            context)
        assert not result.passed


class TestVerificationGate:
    def _network(self, safe):
        target = "safe" if safe else "err"
        automaton = TimedAutomaton(
            "M", [], [Location("start"), Location("safe"),
                      Location("err")],
            [Edge("start", target, action="go")],
        )
        return Network([automaton])

    def test_all_tasks_hold(self):
        context = PipelineContext(verification_tasks=[
            ("safety", self._network(safe=True), "A[] not M.err"),
        ])
        result = VerificationGate().evaluate(context)
        assert result.passed
        assert context.get("verification_results")[0][1].satisfied

    def test_failing_task_reports_label(self):
        context = PipelineContext(verification_tasks=[
            ("safety", self._network(safe=False), "A[] not M.err"),
        ])
        result = VerificationGate().evaluate(context)
        assert not result.passed
        assert "safety" in result.detail

    def test_no_tasks_is_vacuous_pass(self):
        assert VerificationGate().evaluate(PipelineContext()).passed

    def test_advances_formalized_records(self):
        repository = repository_with("x", pattern=Absence(p="e"))
        FormalizationGate().evaluate(PipelineContext(repository=repository))
        context = PipelineContext(repository=repository,
                                  verification_tasks=[])
        VerificationGate().evaluate(context)
        assert repository.get("R-1").status is RequirementStatus.VERIFIED

    def test_cache_stats_carry_dedup_accounting(self, tmp_path):
        from tests.verdict_store import open_store

        repository = repository_with(
            "The system shall log every privileged operation.",
            "The system shall log every privileged operation.",
        )
        context = PipelineContext(
            repository=repository,
            verification_tasks=[
                ("safety", self._network(safe=True), "A[] not M.err"),
            ])
        result = VerificationGate(
            cache=open_store(tmp_path / "cache")).evaluate(context)
        stats = context.get("verification_cache_stats")
        assert stats["dedup_groups"] == 1
        assert stats["dedup_requirements"] == 2
        assert result.metrics["cache_dedup_groups"] == 1.0
        assert result.metrics["cache_dedup_requirements"] == 2.0


def ring_tasks():
    """Two queries on each of four token rings."""
    tasks = []
    for size in (3, 4, 5, 6):
        ring = _token_ring(size)
        tasks.append((f"ring{size}-mutex", ring,
                      "A[] not (S0.busy and S1.busy)"))
        tasks.append((f"ring{size}-progress", ring,
                      f"E<> S{size - 1}.busy"))
    return tasks


def verdicts(context):
    return [(label, result.satisfied, result.states_explored,
             result.witness)
            for label, result in context.require("verification_results")]


class CheckProbe:
    """Wraps ``ZoneGraphChecker.check``: counts calls, records which
    checker answered for which network, and tracks how many checks
    run at once, overall and per network."""

    def __init__(self, monkeypatch, delay=0.0):
        self.delay = delay
        self.calls = 0
        self.checkers = {}
        self.peak_networks = 0
        self.same_network_overlaps = 0
        self._active = {}
        self._lock = threading.Lock()
        self._original = ZoneGraphChecker.check
        monkeypatch.setattr(
            ZoneGraphChecker, "check",
            lambda checker, query: self._check(checker, query))

    def _check(self, checker, query):
        key = id(checker.network)
        with self._lock:
            self.calls += 1
            self.checkers.setdefault(key, []).append(checker)
            if self._active.get(key):
                self.same_network_overlaps += 1
            self._active[key] = self._active.get(key, 0) + 1
            self.peak_networks = max(
                self.peak_networks,
                sum(1 for count in self._active.values() if count))
        try:
            time.sleep(self.delay)
            return self._original(checker, query)
        finally:
            with self._lock:
                self._active[key] -= 1


class TestVerificationGateFanOut:
    def test_one_checker_per_network(self, monkeypatch):
        tasks = ring_tasks()
        probe = CheckProbe(monkeypatch)
        context = PipelineContext(verification_tasks=tasks)
        assert VerificationGate().evaluate(context).passed
        assert probe.calls == len(tasks)
        assert len(probe.checkers) == 4
        for checkers in probe.checkers.values():
            assert len(checkers) == 2
            assert checkers[0] is checkers[1]

    def test_networks_overlap_and_one_network_stays_serial(
            self, monkeypatch):
        tasks = ring_tasks()
        serial = PipelineContext(verification_tasks=tasks)
        VerificationGate().evaluate(serial)
        probe = CheckProbe(monkeypatch, delay=0.05)
        context = PipelineContext(verification_tasks=tasks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = VerificationGate(max_workers=4).evaluate(context)
        finally:
            sys.setswitchinterval(interval)
        assert result.passed
        assert probe.calls == len(tasks)
        assert probe.peak_networks >= 2
        assert probe.same_network_overlaps == 0
        assert verdicts(context) == verdicts(serial)

    def test_journaled_resume_adopts_verified_tasks(self, tmp_path,
                                                    monkeypatch):
        tasks = ring_tasks()
        reference = PipelineContext(verification_tasks=tasks)
        VerificationGate().evaluate(reference)
        path = str(tmp_path / "run.jsonl")
        crashed = PipelineContext(verification_tasks=tasks)
        crashed.scheduler = Scheduler(journal=Journal(path), crash_after=3)
        with pytest.raises(SchedulerCrash):
            VerificationGate().evaluate(crashed)

        journal = Journal(path)
        assert sorted(journal.completions()) == sorted(
            f"verify:{label}" for label, _network, _text in tasks[:3])
        probe = CheckProbe(monkeypatch)
        resumed = PipelineContext(verification_tasks=tasks)
        resumed.scheduler = Scheduler(workers=2, journal=journal,
                                      generation=1)
        assert VerificationGate().evaluate(resumed).passed
        assert probe.calls == len(tasks) - 3
        assert verdicts(resumed) == verdicts(reference)


class TestComplianceGate:
    def test_auto_remediates_adversarial_host(self, ubuntu_adversarial):
        gate = ComplianceGate(default_catalog(), auto_remediate=True)
        context = PipelineContext(hosts=[ubuntu_adversarial])
        result = gate.evaluate(context)
        assert result.passed
        assert context.get("compliance_reports")[0].compliance_ratio == 1.0

    def test_check_only_fails_on_drifted_host(self, ubuntu_adversarial):
        gate = ComplianceGate(default_catalog(), auto_remediate=False)
        context = PipelineContext(hosts=[ubuntu_adversarial])
        result = gate.evaluate(context)
        assert not result.passed
        assert result.metrics["worst_compliance"] < 1.0

    def test_no_hosts_passes(self):
        gate = ComplianceGate(default_catalog())
        assert gate.evaluate(PipelineContext()).passed

    def test_multiple_hosts_worst_case(self, ubuntu_hardened,
                                       ubuntu_adversarial):
        gate = ComplianceGate(default_catalog(), auto_remediate=False,
                              min_compliance=0.9)
        context = PipelineContext(
            hosts=[ubuntu_hardened, ubuntu_adversarial])
        result = gate.evaluate(context)
        assert not result.passed  # the adversarial host drags it down


class TestMonitoringGate:
    def test_arms_monitors_for_ltl_records(self):
        repository = repository_with(
            "responses", pattern=Response(p="req", s="ack"))
        FormalizationGate().evaluate(PipelineContext(repository=repository))
        context = PipelineContext(repository=repository)
        result = MonitoringGate().evaluate(context)
        assert result.passed
        monitors = context.get("monitors")
        assert "R-1" in monitors

    def test_unparseable_ltl_fails_gate(self):
        repository = repository_with("x", pattern=Absence(p="e"))
        FormalizationGate().evaluate(PipelineContext(repository=repository))
        record = repository.get("R-1")
        record.ir = dataclasses.replace(  # corrupt the artifact
            record.ir, formalization=dataclasses.replace(
                record.ir.formalization, ltl="G (("))
        context = PipelineContext(repository=repository)
        result = MonitoringGate().evaluate(context)
        assert not result.passed
        assert "R-1" in result.detail
