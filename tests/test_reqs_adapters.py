"""Front-end adapters, the registry, and the IR-native consumers.

The acceptance bar this file holds: all seven bundled front-ends lower
through the registry with intact provenance, prevention-cache
fingerprints agree between the native ingestion API and the explicit
IR path, and repository/persistence round-trip the IR content.
"""

import pytest

from repro.core import (
    PipelineContext,
    RequirementRepository,
    RequirementSource,
    VeriDevOpsOrchestrator,
    gate_repository,
    repository_from_json,
    repository_to_json,
)
from repro.core.repository import requirement_source
from repro.environment import default_ubuntu_host, default_windows_host
from repro.reqs import default_registry
from repro.reqs.ir import _digest
from repro.reqs.adapters import ResaAdapter, RqcodeAdapter
from repro.rqcode.catalog import default_catalog


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def corpora(registry):
    return registry.lower_all_bundled()


class TestRegistry:
    def test_seven_bundled_frontends(self, registry):
        assert registry.names() == [
            "capec", "cwe", "nalabs", "resa", "rqcode",
            "standards", "vulndb"]

    def test_unknown_frontend_raises(self, registry):
        with pytest.raises(KeyError, match="registered"):
            registry.get("attck")

    def test_every_bundled_corpus_lowers_with_provenance(self, corpora):
        for name, irs in corpora.items():
            assert irs, f"{name} lowered nothing"
            for record in irs:
                assert record.source == name
                assert record.provenance
                assert all(link.kind and link.ref
                           for link in record.provenance)

    def test_rids_are_source_derived_and_stable(self, corpora):
        again = default_registry().lower_all_bundled()
        for name, irs in corpora.items():
            assert [r.rid for r in irs] == [r.rid for r in again[name]]
            assert [r.fingerprint() for r in irs] \
                == [r.fingerprint() for r in again[name]]


class TestResaAdapter:
    def test_statement_match_attaches_formalization(self):
        irs = ResaAdapter().lower(
            ["The authentication service shall lock the account "
             "after 3 consecutive failures."])
        (record,) = irs
        assert record.formalization is not None
        assert record.target_kind == "monitor"
        assert record.provenance[0].kind == "resa"
        assert "boilerplate" in record.provenance[0].detail

    def test_freeform_statement_still_lowers(self):
        (record,) = ResaAdapter().lower(["Entirely freeform prose."])
        assert record.formalization is None
        assert record.target_kind == "document"
        assert record.provenance[0].detail \
            == "free-form (no boilerplate match)"


class TestRqcodeAdapter:
    def test_raise_artifacts_round_trip(self):
        adapter = RqcodeAdapter()
        host = default_ubuntu_host()
        ubuntu_entries = [entry for entry in adapter.discover()
                          if entry.platform == "ubuntu"]
        (record,) = adapter.lower(ubuntu_entries[:1])
        artifacts = adapter.raise_artifacts(record, host)
        assert len(artifacts) == 1
        assert artifacts[0].check() is not None

    def test_raise_artifacts_filters_platform(self):
        adapter = RqcodeAdapter()
        windows_entries = [entry for entry in adapter.discover()
                           if entry.platform == "windows"]
        (record,) = adapter.lower(windows_entries[:1])
        assert adapter.raise_artifacts(record, default_ubuntu_host()) == []
        assert adapter.raise_artifacts(record, default_windows_host())


class TestFingerprintParity:
    """A requirement fingerprints identically however it entered."""

    def test_native_standards_vs_registry_path(self, registry):
        native = VeriDevOpsOrchestrator()
        native.ingest_standards("ubuntu")

        explicit = VeriDevOpsOrchestrator()
        irs = registry.lower("rqcode",
                             explicit.catalog.entries_for("ubuntu"),
                             ids=explicit._ids("STD"))
        explicit.ingest_ir(irs)

        native_records = native.repository.all()
        explicit_records = explicit.repository.all()
        assert len(native_records) == len(explicit_records)
        for ours, theirs in zip(native_records, explicit_records):
            assert ours.ir.fingerprint() == theirs.ir.fingerprint()
            assert ours.ir == theirs.ir

    def test_native_nl_vs_registry_path(self, registry):
        statements = [
            "When intrusion is detected, the gateway shall alert "
            "the operator within 5 seconds.",
            "Entirely freeform prose.",
        ]
        native = VeriDevOpsOrchestrator()
        native.ingest_natural_language(statements)

        explicit = VeriDevOpsOrchestrator()
        explicit.ingest_ir(registry.lower("resa", statements,
                                          ids=explicit._ids("NL")))
        for ours, theirs in zip(native.repository.all(),
                                explicit.repository.all()):
            assert ours.ir.fingerprint() == theirs.ir.fingerprint()

    def test_record_and_ir_share_the_digest(self, registry):
        # The repository stores the ingested IR itself, not a copy.
        ir = registry.lower_bundled("rqcode")[0]
        record = RequirementRepository().add_ir(ir)
        assert record.ir is ir
        assert record.ir.fingerprint() == _digest(ir.canonical_json())


class TestOrchestratorFrontends:
    def test_ingest_frontend_bundled(self):
        orchestrator = VeriDevOpsOrchestrator()
        records = orchestrator.ingest_frontend("standards")
        assert records
        assert all(requirement_source(r.ir) is RequirementSource.STANDARD
                   for r in records)
        assert all(r.ir.source == "standards" for r in records)

    def test_ingest_frontend_unknown_raises(self):
        with pytest.raises(KeyError):
            VeriDevOpsOrchestrator().ingest_frontend("attck")


class TestRepositoryIr:
    def test_add_ir_get_ir_round_trip(self, registry):
        irs = registry.lower_bundled("vulndb")
        repository = RequirementRepository.from_irs(irs)
        assert len(repository) == len(irs)
        for ir in irs:
            assert repository.get(ir.rid).ir is ir
        assert repository.irs() == sorted(irs, key=lambda r: r.rid)

    def test_duplicate_groups_cross_source(self, registry):
        (record,) = registry.lower_bundled("vulndb")[:1]
        payload = record.to_dict()
        payload["rid"] = "TWIN-001"
        payload["provenance"] = [
            {"kind": "stig", "ref": "V-0", "detail": "same obligation"}]
        from repro.reqs.ir import Requirement

        twin = Requirement.from_dict(payload)
        repository = RequirementRepository.from_irs([record, twin])
        groups = repository.duplicate_groups()
        assert list(groups.values()) == [sorted([record.rid, "TWIN-001"])]

    def test_persistence_keeps_ir_content(self, registry):
        repository = RequirementRepository.from_irs(
            registry.lower_bundled("standards"))
        restored = repository_from_json(repository_to_json(repository))
        for before, after in zip(repository.all(), restored.all()):
            assert after.ir == before.ir
            assert after.ir.fingerprint() == before.ir.fingerprint()


class TestGateIrEntry:
    def test_requirements_ir_materializes_repository(self, registry):
        context = PipelineContext()
        context.put("requirements_ir", registry.lower_bundled("rqcode"))
        repository = gate_repository(context)
        assert len(repository) == 26
        assert context.get("repository") is repository
        assert gate_repository(context) is repository

    def test_missing_both_raises(self):
        with pytest.raises(KeyError):
            gate_repository(PipelineContext())
        assert gate_repository(PipelineContext(), required=False) is None

    def test_pipeline_runs_from_ir_collection(self, registry):
        from repro.core import (
            FormalizationGate,
            MonitoringGate,
            Pipeline,
            Stage,
        )

        context = PipelineContext()
        context.put("requirements_ir",
                    registry.lower_bundled("rqcode"))
        pipeline = Pipeline([
            Stage("formalize", gates=[FormalizationGate()]),
            Stage("monitor", gates=[MonitoringGate()]),
        ])
        run = pipeline.run(context)
        assert run.passed
        assert context.get("monitors")


class TestSocRouting:
    def test_for_fleet_frontends_param(self):
        from repro.core.fleet import Fleet
        from repro.environment import hardened_ubuntu_host
        from repro.soc import SocService

        fleet = Fleet("reqs-soc", default_catalog())
        fleet.add(hardened_ubuntu_host("host-00"))
        service = SocService.for_fleet(fleet, frontends=["standards"])
        try:
            (plan,) = [service.sessions["host-00"]]
            assert plan.bindings
        finally:
            service.stop()
