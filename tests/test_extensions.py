"""Tests for the extension features: UPPAAL export, host telemetry,
RESA document ingestion."""

import xml.etree.ElementTree as ET

import pytest

from repro.core import VeriDevOpsOrchestrator
from repro.environment import hardened_ubuntu_host
from repro.environment.telemetry import HostSampler, signal_name
from repro.rqcode import default_catalog
from repro.specpatterns import TimedResponse, build_observer
from repro.ta import Edge, Location, Network, TimedAutomaton, parse_guard
from repro.ta.uppaal_export import to_uppaal_queries, to_uppaal_xml
from repro.tears import GaVerdict, GuardedAssertion, parse_expr


def sample_network():
    system = TimedAutomaton(
        name="Sys", clocks=["x"],
        locations=[
            Location("run"),
            Location("resp", invariant=parse_guard("x <= 5"),
                     urgent=False),
        ],
        edges=[
            Edge("run", "resp", sync="violation!", resets=("x",),
                 action="violate"),
            Edge("resp", "run", guard=parse_guard("x >= 1"),
                 sync="alert!", action="alert"),
        ],
    )
    observer = build_observer(TimedResponse(p="violation", s="alert",
                                            bound=10))
    return Network([system, observer.automaton]), observer


class TestUppaalExport:
    def test_document_is_well_formed_xml(self):
        network, _ = sample_network()
        xml_text = to_uppaal_xml(network)
        root = ET.fromstring(xml_text)
        assert root.tag == "nta"

    def test_templates_and_system_block(self):
        network, _ = sample_network()
        root = ET.fromstring(to_uppaal_xml(network))
        names = [t.findtext("name") for t in root.findall("template")]
        assert names == ["Sys", "Obs"]
        system = root.findtext("system")
        assert "P_Sys = Sys();" in system
        assert "system P_Sys, P_Obs;" in system

    def test_channels_declared_globally(self):
        network, _ = sample_network()
        root = ET.fromstring(to_uppaal_xml(network))
        declaration = root.findtext("declaration")
        assert "chan alert, violation;" == declaration

    def test_clock_declarations_per_template(self):
        network, _ = sample_network()
        root = ET.fromstring(to_uppaal_xml(network))
        sys_template = root.findall("template")[0]
        assert sys_template.findtext("declaration") == "clock x;"

    def test_labels_present(self):
        network, _ = sample_network()
        xml_text = to_uppaal_xml(network)
        assert 'kind="invariant">x &lt;= 5' in xml_text
        assert 'kind="synchronisation">violation!' in xml_text
        assert 'kind="assignment">x = 0' in xml_text
        assert 'kind="guard">x &gt;= 1' in xml_text

    def test_urgent_locations_marked(self):
        auto = TimedAutomaton(
            "U", [], [Location("go", urgent=True)], [])
        xml_text = to_uppaal_xml(Network([auto]))
        assert "<urgent/>" in xml_text

    def test_initial_location_referenced(self):
        network, _ = sample_network()
        root = ET.fromstring(to_uppaal_xml(network))
        template = root.findall("template")[0]
        init_ref = template.find("init").attrib["ref"]
        location_ids = [loc.attrib["id"]
                        for loc in template.findall("location")]
        assert init_ref in location_ids

    def test_query_rewriting(self):
        network, observer = sample_network()
        queries = to_uppaal_queries([observer.query], network)
        assert "P_Obs.err" in queries
        assert "Obs.err" not in queries.replace("P_Obs.err", "")


class TestHostTelemetry:
    def test_sampler_tracks_drift_and_repair(self):
        host = hardened_ubuntu_host()
        catalog = default_catalog()
        sampler = HostSampler(host, catalog)

        sampler.sample(0)
        host.drift_install_package("nis")
        sampler.sample(1)
        catalog.harden_host(host)
        sampler.sample(2)

        trace = sampler.trace
        nis_signal = signal_name("V-219157")
        assert [s.values[nis_signal] for s in trace] == [1.0, 0.0, 1.0]
        assert trace[0].values["compliance"] == 1.0
        assert trace[1].values["compliance"] < 1.0
        assert trace[2].values["compliance"] == 1.0

    def test_tears_judges_recovery_from_telemetry(self):
        host = hardened_ubuntu_host()
        catalog = default_catalog()
        sampler = HostSampler(host, catalog)
        sampler.sample(0)
        host.drift_install_package("nis")
        sampler.sample(1)
        catalog.harden_host(host)
        sampler.sample(2)

        ga = GuardedAssertion(
            name="compliance_recovers",
            guard=parse_expr("compliance < 1"),
            assertion=parse_expr("compliance == 1"),
            within=5,
        )
        result = ga.evaluate(sampler.trace)
        assert result.verdict is GaVerdict.PASSED

    def test_monotone_timestamps_without_clock_motion(self):
        host = hardened_ubuntu_host()
        sampler = HostSampler(host, default_catalog())
        sampler.sample()
        sampler.sample()  # logical clock unchanged; must not raise
        assert len(sampler.trace) == 2
        assert sampler.trace[1].time > sampler.trace[0].time


class TestResaIngestion:
    DOCUMENT = """
REQ-1: The authentication service shall lock the account.
REQ-2: When 3 consecutive failures occur, the session manager
       shall alert the operator within 5 seconds.
REQ-3: unstructured prose that matches nothing
"""

    def test_matched_statements_ingested_with_patterns(self):
        orchestrator = VeriDevOpsOrchestrator()
        records = orchestrator.ingest_resa_document(self.DOCUMENT)
        assert len(records) == 2
        assert all(r.ir.formalization.pattern_kind for r in records)
        origin = records[0].ir.provenance[0]
        assert origin.detail.startswith("REQ-1")
        assert "boilerplate B1" in origin.detail

    def test_ingested_records_flow_through_pipeline(self, ubuntu_default):
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_resa_document(self.DOCUMENT)
        run = orchestrator.run_prevention([ubuntu_default])
        assert run.passed
        formalized = orchestrator.repository.formalized()
        assert len(formalized) == 2
