"""Unit tests for the VeriDevOps orchestrator (WP2 -> WP4 -> WP3)."""

import pytest

from repro.core import VeriDevOpsOrchestrator
from repro.core.repository import (
    RequirementSource,
    RequirementStatus,
    requirement_source,
)
from repro.vulndb import SoftwareInventory, bundled_database

CLEAN_NL = [
    "The authentication service shall lock the account.",
    "When 3 consecutive failures occur, the session manager shall "
    "alert the operator within 5 seconds.",
    "The audit subsystem shall not transmit passwords.",
]


class TestIngestion:
    def test_natural_language_with_boilerplates(self):
        orchestrator = VeriDevOpsOrchestrator()
        records = orchestrator.ingest_natural_language(CLEAN_NL)
        assert len(records) == 3
        assert all(r.ir.formalization.pattern_kind for r in records)
        assert requirement_source(records[0].ir) \
            is RequirementSource.NATURAL_LANGUAGE

    def test_free_form_text_recorded_without_pattern(self):
        orchestrator = VeriDevOpsOrchestrator()
        records = orchestrator.ingest_natural_language(
            ["Logging is generally considered good practice"])
        assert records[0].ir.formalization is None
        assert "no boilerplate" in records[0].ir.provenance[0].detail

    def test_standards_bind_rqcode_findings(self):
        orchestrator = VeriDevOpsOrchestrator()
        records = orchestrator.ingest_standards("ubuntu")
        assert len(records) == 14
        assert all(r.ir.bindings for r in records)
        assert all(requirement_source(r.ir) is RequirementSource.STANDARD
                   for r in records)

    def test_vulnerabilities_produce_patterned_records(self):
        orchestrator = VeriDevOpsOrchestrator()
        inventory = SoftwareInventory.of("h", "ubuntu", {"bash": "4.3"})
        records = orchestrator.ingest_vulnerabilities(
            bundled_database(), inventory)
        assert records
        assert all(r.ir.formalization.pattern_kind for r in records)
        assert all(r.ir.provenance[0].ref.startswith("CVE-")
                   for r in records)


class TestPrevention:
    def test_full_pipeline_passes_and_hardens(self, ubuntu_adversarial):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_natural_language(CLEAN_NL)
        orchestrator.ingest_standards("ubuntu")
        run = orchestrator.run_prevention([ubuntu_adversarial])
        assert run.passed, run.gate_rows()
        # The host came out hardened.
        report = run.context.get("compliance_reports")[0]
        assert report.compliance_ratio == 1.0
        # Standard requirements went all the way to MONITORED.
        standards = [r for r in orchestrator.repository
                     if requirement_source(r.ir) is RequirementSource.STANDARD]
        assert standards
        assert all(r.status is RequirementStatus.MONITORED
                   for r in standards)

    def test_smelly_requirements_block_the_pipeline(self, ubuntu_default):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_natural_language([
            "The system may be adequate where possible.",
            "The system could possibly react in a timely manner.",
        ])
        run = orchestrator.run_prevention(
            [ubuntu_default], max_smelly_ratio=0.1)
        assert not run.passed
        assert run.failed_stage == "requirements"

    def test_gate_rows_cover_all_gates(self, ubuntu_default):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_standards("ubuntu")
        run = orchestrator.run_prevention([ubuntu_default])
        gates = [row["gate"] for row in run.gate_rows()]
        assert gates == ["requirements-quality", "formalization",
                         "verification", "stig-compliance",
                         "monitoring-deployment"]


class TestProtection:
    def test_end_to_end_drift_repair(self, ubuntu_default):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_standards("ubuntu")
        run = orchestrator.run_prevention([ubuntu_default])
        loop = orchestrator.start_protection(ubuntu_default, run)

        ubuntu_default.drift_install_package("rsh-server")
        assert not ubuntu_default.dpkg.is_installed("rsh-server")
        effective = [i for i in loop.incidents if i.effective]
        assert len(effective) == 1
        assert effective[0].repairs[0].finding_id == "V-219158"

    def test_protection_without_pipeline_run(self, ubuntu_hardened):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_standards("ubuntu")
        loop = orchestrator.start_protection(ubuntu_hardened)
        ubuntu_hardened.drift_install_package("nis")
        assert any(i.effective for i in loop.incidents)

    def test_state_style_monitors_filtered_from_event_loop(self,
                                                           ubuntu_default):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_standards("ubuntu")
        run = orchestrator.run_prevention([ubuntu_default])
        loop = orchestrator.start_protection(ubuntu_default, run)
        # Only drift detectors should be armed: the G compliant_X
        # universality monitors cannot observe event streams.
        assert all(req_id.endswith("/drift") for req_id in loop.monitors)


class TestIec62443Ingestion:
    def test_srs_ingested_with_bindings(self):
        from repro.standards import SecurityLevel

        orchestrator = VeriDevOpsOrchestrator()
        records = orchestrator.ingest_iec62443("ubuntu",
                                               SecurityLevel.SL2)
        assert len(records) == 24
        bound = [r for r in records if r.ir.bindings]
        unbound = [r for r in records if not r.ir.bindings]
        assert bound and unbound  # gaps stay visible
        assert all(r.ir.provenance[0].detail.startswith("IEC 62443-3-3")
                   for r in records)

    def test_srs_flow_through_pipeline_and_protection(self,
                                                      ubuntu_default):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_iec62443("ubuntu")
        run = orchestrator.run_prevention([ubuntu_default])
        assert run.passed
        loop = orchestrator.start_protection(ubuntu_default, run)
        ubuntu_default.drift_install_package("nis")
        assert any(i.effective for i in loop.incidents)
        assert not ubuntu_default.dpkg.is_installed("nis")
