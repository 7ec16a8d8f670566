"""Unit tests for the STIG catalogue and compliance reports."""

import hashlib

import pytest

from repro.environment.host import SimulatedHost
from repro.rqcode.catalog import StigCatalog, default_catalog
from repro.rqcode.concepts import CheckStatus
from repro.rqcode.ubuntu import V_219157
from repro.rqcode.win10 import V_63447


class TestRegistry:
    def test_default_catalog_contents(self, catalog):
        assert len(catalog) == 26
        assert "V-63447" in catalog
        assert "V-219157" in catalog
        assert "V-99999" not in catalog

    def test_finding_ids_by_platform(self, catalog):
        windows = catalog.finding_ids("windows")
        ubuntu = catalog.finding_ids("ubuntu")
        assert len(windows) == 12
        assert len(ubuntu) == 14
        assert set(windows).isdisjoint(ubuntu)

    def test_get_unknown_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("V-00000")

    def test_register_derives_finding_id(self):
        catalog = StigCatalog()
        entry = catalog.register(V_63447, platform="windows")
        assert entry.finding_id == "V-63447"

    def test_instantiate_for_routes_by_platform(self, catalog,
                                                ubuntu_default):
        requirements = catalog.instantiate_for(ubuntu_default)
        assert len(requirements) == 14
        assert all(r.finding_id().startswith("V-219")
                   for r in requirements)


class TestCheckCampaign:
    def test_check_does_not_mutate(self, catalog, ubuntu_default):
        before_nis = ubuntu_default.dpkg.is_installed("nis")
        report = catalog.check_host(ubuntu_default)
        assert ubuntu_default.dpkg.is_installed("nis") == before_nis
        assert report.total == 14
        assert all(r.enforcement is None for r in report.results)

    def test_hardened_host_fully_compliant(self, catalog, ubuntu_hardened):
        report = catalog.check_host(ubuntu_hardened)
        assert report.compliance_ratio == 1.0
        assert report.failing == 0

    def test_adversarial_host_mostly_failing(self, catalog,
                                             ubuntu_adversarial):
        report = catalog.check_host(ubuntu_adversarial)
        assert report.compliance_ratio < 0.3

    def test_severity_from_instance_metadata(self, catalog, ubuntu_default):
        report = catalog.check_host(ubuntu_default)
        severities = {r.finding_id: r.severity for r in report.results}
        assert severities["V-219158"] == "high"
        assert severities["V-219157"] == "medium"


class TestHardenCampaign:
    def test_harden_reaches_full_compliance(self, catalog,
                                            ubuntu_adversarial):
        report = catalog.harden_host(ubuntu_adversarial)
        assert report.compliance_ratio == 1.0
        assert report.remediated > 0

    def test_harden_windows_adversarial(self, catalog, win_adversarial):
        report = catalog.harden_host(win_adversarial)
        assert report.compliance_ratio == 1.0
        assert report.remediated == 12

    def test_harden_is_idempotent(self, catalog, ubuntu_adversarial):
        catalog.harden_host(ubuntu_adversarial)
        second = catalog.harden_host(ubuntu_adversarial)
        assert second.remediated == 0
        assert second.compliance_ratio == 1.0

    def test_rows_shape(self, catalog, ubuntu_default):
        report = catalog.harden_host(ubuntu_default)
        rows = report.rows()
        assert len(rows) == report.total
        assert set(rows[0]) == {"finding", "severity", "before",
                                "enforce", "after"}

    def test_summary_mentions_host(self, catalog, ubuntu_default):
        report = catalog.check_host(ubuntu_default)
        assert "ubuntu-default" in report.summary()


class TestEmptyCatalog:
    def test_empty_catalog_reports_vacuous_compliance(self, ubuntu_default):
        report = StigCatalog().check_host(ubuntu_default)
        assert report.total == 0
        assert report.compliance_ratio == 1.0


class TestFindingDocuments:
    #: blake2b-16 over every catalogue finding's ``to_document()``, in
    #: finding-id order, captured before finding metadata was shared
    #: between instances.
    GOLDEN = "51443952eb90139836099a584a2eec78"

    def test_every_document_is_unchanged(self):
        catalog = default_catalog()
        digest = hashlib.blake2b(digest_size=16)
        for finding_id in catalog.finding_ids():
            entry = catalog.get(finding_id)
            host = SimulatedHost("h", entry.platform)
            document = entry.instantiate(host).to_document()
            digest.update(f"{finding_id}\n{document}\n\n".encode())
        assert digest.hexdigest() == self.GOLDEN
