"""Unit tests for the Markdown security report."""

import pytest

from repro.core import VeriDevOpsOrchestrator
from repro.core.reporting import SecurityReport, report_for_cycle
from repro.core.repository import RequirementRepository
from repro.environment import hardened_ubuntu_host


@pytest.fixture
def cycle(ubuntu_default):
    orchestrator = VeriDevOpsOrchestrator()
    orchestrator.ingest_natural_language([
        "The audit subsystem shall not transmit passwords.",
    ])
    orchestrator.ingest_standards("ubuntu")
    run = orchestrator.run_prevention([ubuntu_default])
    loop = orchestrator.start_protection(ubuntu_default, run)
    ubuntu_default.drift_install_package("nis")
    return orchestrator, run, loop


class TestSecurityReport:
    def test_full_report_sections(self, cycle):
        orchestrator, run, loop = cycle
        report = report_for_cycle(orchestrator, run, loop)
        text = report.render()
        assert text.startswith("# VeriDevOps security report")
        assert "## Pipeline: PASSED" in text
        assert "## Requirements" in text
        assert "## Host compliance" in text
        assert "## Operations incidents" in text

    def test_traceability_table_rows(self, cycle):
        orchestrator, run, loop = cycle
        text = report_for_cycle(orchestrator, run, loop).render()
        assert "| NL-001 |" in text
        assert "V-219157" in text

    def test_incident_rows_mark_effectiveness(self, cycle):
        orchestrator, run, loop = cycle
        text = report_for_cycle(orchestrator, run, loop).render()
        assert "effective repairs" in text
        assert "| yes |" in text       # the nis repair
        # Only the nis detector watches the drifted package: no sibling
        # package finding is re-checked.
        assert "1 detections, 1 effective repairs." in text
        assert "re-check" not in text

    def test_failed_pipeline_reported(self, ubuntu_default):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_natural_language([
            "The system may be adequate where possible.",
        ])
        run = orchestrator.run_prevention([ubuntu_default],
                                          max_smelly_ratio=0.0)
        text = report_for_cycle(orchestrator, run).render()
        assert "FAILED at stage `requirements`" in text

    def test_sections_omitted_when_artifacts_missing(self):
        text = SecurityReport().render()
        assert "## Pipeline" not in text
        assert "## Requirements" not in text

    def test_empty_repository_renders(self):
        text = SecurityReport(
            repository=RequirementRepository()).render()
        assert "0 requirements under management" in text
        assert "_(none)_" in text

    def test_compliance_section_per_host(self, catalog):
        host = hardened_ubuntu_host()
        report = SecurityReport(
            compliance_reports=[catalog.check_host(host)])
        text = report.render()
        assert "ubuntu-hardened (ubuntu) — 100%" in text

    def test_markdown_tables_well_formed(self, cycle):
        orchestrator, run, loop = cycle
        text = report_for_cycle(orchestrator, run, loop).render()
        for line in text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|"), line
