"""Tests for repository persistence and enforcement fault injection."""

import json

import pytest

from repro.core import VeriDevOpsOrchestrator
from repro.core.persistence import (
    record_from_dict,
    record_to_dict,
    repository_from_json,
    repository_to_json,
)
from repro.core.repository import RequirementRepository, RequirementStatus
from repro.rqcode import default_catalog
from repro.rqcode.concepts import CheckStatus, EnforcementStatus
from repro.vulndb import SoftwareInventory, bundled_database


def populated_repository():
    orchestrator = VeriDevOpsOrchestrator()
    orchestrator.ingest_natural_language([
        "The audit subsystem shall not transmit passwords.",
        "When 3 consecutive failures occur, the session manager shall "
        "alert the operator within 5 seconds.",
    ])
    orchestrator.ingest_standards("ubuntu")
    orchestrator.ingest_vulnerabilities(
        bundled_database(),
        SoftwareInventory.of("h", "ubuntu", {"bash": "4.3"}))
    return orchestrator.repository


class TestPersistence:
    def test_round_trip_preserves_everything(self):
        repository = populated_repository()
        repository.all()[0].quality_flags.append("vagueness")
        restored = repository_from_json(repository_to_json(repository))
        assert len(restored) == len(repository)
        for original in repository.all():
            copy = restored.get(original.ir.rid)
            assert copy.ir == original.ir
            assert copy.ir.fingerprint() == original.ir.fingerprint()
            assert copy.status is original.status
            assert copy.quality_flags == original.quality_flags

    def test_round_trip_after_pipeline(self, ubuntu_default):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_standards("ubuntu")
        run = orchestrator.run_prevention([ubuntu_default])
        assert run.passed
        restored = repository_from_json(
            repository_to_json(orchestrator.repository))
        statuses = {r.status for r in restored.all()}
        assert statuses == {RequirementStatus.MONITORED}
        # Formal artifacts survive too.
        assert all(r.ir.formalization.ltl for r in restored.all())
        assert restored.irs() == orchestrator.repository.irs()

    def test_unknown_pattern_kind_rejected(self):
        payload = record_to_dict(populated_repository().formalized()[0])
        payload["ir"]["formalization"]["pattern"]["kind"] = "Nonexistent"
        with pytest.raises(ValueError):
            RequirementRepository().add(record_from_dict(payload))

    def test_version_checked(self):
        # Version 1 (the flat record shape) is refused like any other.
        for version in (1, 99, None):
            with pytest.raises(ValueError):
                repository_from_json(json.dumps(
                    {"version": version, "records": []}))

    def test_pattern_less_records_round_trip(self):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_natural_language(["free prose, no pattern"])
        restored = repository_from_json(
            repository_to_json(orchestrator.repository))
        assert restored.all()[0].ir.formalization is None


def _corrupted(edit):
    """The populated repository's JSON with one formalized record's IR
    passed through *edit*."""
    payload = json.loads(repository_to_json(populated_repository()))
    record = next(entry for entry in payload["records"]
                  if entry["ir"]["formalization"] is not None)
    edit(record["ir"])
    return json.dumps(payload)


class TestLoadValidatesEveryRecord:
    """A record the IR refuses is refused when the file loads, not
    later by the first query that raises its IR."""

    @pytest.mark.parametrize("edit", [
        lambda ir: ir.update(severity="bogus"),
        lambda ir: ir.update(target_kind="spaceship"),
        lambda ir: ir["formalization"]["pattern"].update(kind="Bogus"),
        lambda ir: ir["formalization"]["scope"].update(kind="Bogus"),
        lambda ir: ir.pop("text"),
    ], ids=["severity", "target-kind", "pattern-kind", "scope-kind",
            "missing-text"])
    def test_bad_record_fails_the_load(self, edit):
        with pytest.raises(ValueError):
            repository_from_json(_corrupted(edit))

    def test_untouched_file_loads(self):
        restored = repository_from_json(_corrupted(lambda ir: None))
        assert restored.irs() == populated_repository().irs()


class TestEnforcementFaultInjection:
    def test_broken_dpkg_surfaces_enforcement_failure(self, ubuntu_default):
        from repro.rqcode.ubuntu import V_219157

        ubuntu_default.dpkg.break_tool()
        finding = V_219157(ubuntu_default)  # nis installed on default
        assert finding.check() is CheckStatus.FAIL
        assert finding.enforce() is EnforcementStatus.FAILURE
        # And the host is untouched.
        assert ubuntu_default.dpkg.is_installed("nis")

    def test_harden_reports_partial_compliance(self, catalog,
                                               ubuntu_adversarial):
        ubuntu_adversarial.dpkg.break_tool()
        report = catalog.harden_host(ubuntu_adversarial)
        assert report.compliance_ratio < 1.0
        failures = [r for r in report.results
                    if r.enforcement is EnforcementStatus.FAILURE]
        assert failures  # package findings could not be repaired
        # Config findings are unaffected by the broken package tool.
        config_rows = [r for r in report.results
                       if r.finding_id == "V-219177"]
        assert config_rows[0].after is CheckStatus.PASS

    def test_recovery_after_repair_tool(self, catalog, ubuntu_adversarial):
        ubuntu_adversarial.dpkg.break_tool()
        catalog.harden_host(ubuntu_adversarial)
        ubuntu_adversarial.dpkg.repair_tool()
        report = catalog.harden_host(ubuntu_adversarial)
        assert report.compliance_ratio == 1.0

    def test_protection_loop_reports_failed_repair(self, ubuntu_hardened):
        from repro.core.protection import ProtectionLoop
        from repro.ltl import LtlMonitor, parse_ltl

        loop = ProtectionLoop(
            ubuntu_hardened, default_catalog(),
            {"R": LtlMonitor(parse_ltl("G !drift.package"))},
            {"R": ["V-219157"]},
        ).start()
        ubuntu_hardened.drift_install_package("nis")
        # Re-introduce the drift with a wedged package manager: the
        # re-armed monitor detects it but the repair must fail.
        ubuntu_hardened.dpkg.seed_installed(["nis"])
        ubuntu_hardened.dpkg.break_tool()
        ubuntu_hardened.events.emit("drift.package", name="nis")
        failed = [r for incident in loop.incidents
                  for r in incident.repairs
                  if r.status is EnforcementStatus.FAILURE]
        assert failed
        assert loop.repaired_count() < loop.incident_count()

    def test_compliance_gate_fails_on_broken_host(self, ubuntu_adversarial):
        from repro.core.gates import ComplianceGate
        from repro.core.pipeline import PipelineContext

        ubuntu_adversarial.dpkg.break_tool()
        gate = ComplianceGate(default_catalog(), auto_remediate=True)
        result = gate.evaluate(PipelineContext(hosts=[ubuntu_adversarial]))
        assert not result.passed
