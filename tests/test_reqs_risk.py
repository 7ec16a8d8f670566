"""The risk-calculation plane: scoring, the index, and its consumers."""

from repro.reqs.ir import Provenance, Requirement
from repro.reqs.risk import (
    INCIDENT_SATURATION,
    RiskIndex,
    RiskScorer,
    SEVERITY_BASE,
    WEIGHT_EXPOSURE,
    WEIGHT_INCIDENTS,
    WEIGHT_SEVERITY,
)
from repro.vulndb.database import bundled_database


def rec(rid, severity="medium", provenance=None):
    return Requirement(
        rid=rid, title=rid, text=f"requirement {rid}", source="rqcode",
        severity=severity,
        provenance=tuple(provenance or
                         (Provenance("test", rid, "test record"),)))


class TestRiskScorer:
    def test_severity_bands_order(self):
        scorer = RiskScorer()
        scores = [scorer.score(rec(f"R-{band}", severity=band)).score
                  for band in ("low", "medium", "high", "critical")]
        assert scores == sorted(scores)

    def test_cvss_sharpen_within_band(self):
        vulndb = bundled_database()
        scorer = RiskScorer(vulndb=vulndb)
        # Log4Shell (10.0) vs Shellshock (9.8): same band, the exact
        # CVSS blend must order them.
        log4shell = rec("R-a", severity="critical",
                        provenance=[Provenance("cve", "CVE-2021-44228",
                                               "log4shell")])
        shellshock = rec("R-b", severity="critical",
                         provenance=[Provenance("cve", "CVE-2014-6271",
                                                "shellshock")])
        assert scorer.severity_component(log4shell) \
            > scorer.severity_component(shellshock)

    def test_unknown_cve_falls_back_to_band(self):
        scorer = RiskScorer(vulndb=bundled_database())
        record = rec("R-x", severity="high",
                     provenance=[Provenance("cve", "CVE-1900-0000",
                                            "not in the db")])
        assert scorer.severity_component(record) == SEVERITY_BASE["high"]

    def test_exposure_scales_with_fleet(self):
        scorer = RiskScorer(fleet_size=8)
        assert scorer.exposure_component(0) == 0.0
        assert scorer.exposure_component(4) == 0.5
        assert scorer.exposure_component(8) == 1.0
        assert scorer.exposure_component(99) == 1.0

    def test_incident_history_saturates(self):
        scorer = RiskScorer()
        scorer.note_incident("R-1", count=INCIDENT_SATURATION * 3)
        assert scorer.incident_component("R-1") == 1.0
        assert scorer.incident_component("R-quiet") == 0.0

    def test_weights_compose(self):
        scorer = RiskScorer(fleet_size=2)
        scorer.note_incident("R-1", count=INCIDENT_SATURATION)
        score = scorer.score(rec("R-1", severity="critical"),
                             hosts_routed=2)
        expected = (WEIGHT_SEVERITY * SEVERITY_BASE["critical"]
                    + WEIGHT_EXPOSURE * 1.0 + WEIGHT_INCIDENTS * 1.0)
        assert abs(score.score - expected) < 1e-9
        assert 0.0 <= score.score <= 1.0
        assert set(score.to_dict()) == {"rid", "score", "severity",
                                        "exposure", "incidents"}


class TestRiskIndex:
    def test_order_is_risk_descending_and_deterministic(self):
        index = RiskIndex()
        index.put("R-low", 0.2)
        index.put("R-hot", 0.9)
        index.put("R-mid", 0.5)
        index.put("R-tie", 0.5)
        assert index.order(["R-low", "R-tie", "R-hot", "R-mid"]) \
            == ("R-hot", "R-mid", "R-tie", "R-low")

    def test_drift_monitor_resolves_to_base_record(self):
        index = RiskIndex()
        index.put("R-1", 0.7)
        assert index.score_for("R-1/drift") == 0.7
        assert index.score_for("R-unknown/drift", default=0.1) == 0.1

    def test_note_incident_bumps_without_scorer(self):
        index = RiskIndex()
        index.put("R-1", 0.5)
        index.note_incident("R-1/drift")
        assert index.score_for("R-1") \
            == 0.5 + WEIGHT_INCIDENTS / INCIDENT_SATURATION

    def test_note_incident_rescores_with_scorer_and_record(self):
        scorer = RiskScorer(fleet_size=4)
        index = RiskIndex(scorer)
        record = rec("R-1", severity="high")
        index.put("R-1", scorer.score(record, hosts_routed=4).score)
        before = index.score_for("R-1")
        index.note_incident("R-1/drift", record=record, hosts_routed=4)
        assert index.score_for("R-1") > before
        assert scorer.incident_count("R-1") == 1

    def test_discard_and_snapshot(self):
        index = RiskIndex()
        index.put("R-1", 0.3)
        index.put("R-2", 0.6)
        index.discard("R-1")
        assert index.snapshot() == {"R-2": 0.6}


class TestSocIntegration:
    def test_incident_pipeline_feeds_history_back(self):
        """A firing requirement climbs the index via the SOC pipeline."""
        from repro.environment import hardened_ubuntu_host
        from repro.reqs.risk import RiskIndex, RiskScorer
        from repro.rqcode import default_catalog
        from repro.soc.service import SocService
        from repro.soc.rearm import plan_for_records

        catalog = default_catalog()
        fids = [f for f in catalog.finding_ids()
                if catalog.get(f).platform == "ubuntu"]
        record = rec("R-1", severity="high")
        record = Requirement(
            rid="R-1", title="R-1", text="req R-1", source="rqcode",
            severity="high", bindings=tuple(fids[:2]),
            provenance=(Provenance("test", "R-1", "test"),))
        hosts = [hardened_ubuntu_host("web-00")]
        scorer = RiskScorer(fleet_size=1)
        index = RiskIndex(scorer)
        index.put("R-1", scorer.score(record, hosts_routed=1).score)
        before = index.score_for("R-1")
        plans = {h.name: plan_for_records([record], h, catalog)
                 for h in hosts}
        service = SocService(hosts, catalog, plans, shards=1,
                             risk=index).start()
        try:
            # R-1 watches auditd and rsyslog.
            hosts[0].drift_remove_package("auditd")
            service.drain()
        finally:
            service.stop()
        assert scorer.incident_count("R-1") >= 1
        assert index.score_for("R-1") >= before
