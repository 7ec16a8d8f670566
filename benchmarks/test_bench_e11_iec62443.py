"""E11 — IEC 62443 gap analysis (extension experiment).

The paper names IEC 62443 as a requirements source; this bench
regenerates the standard-coverage tables: per-profile SR status counts
and coverage, the FR breakdown on the default host, and the
hardening delta (gap report before vs after enforcement).

Expected shape: hardened profiles satisfy every evidenced SR;
hardening lifts an adversarial host to full evidenced coverage;
unmapped SRs (no machine-checkable evidence in this framework) are
reported, not hidden.
"""

from repro.environment import (
    adversarial_ubuntu_host,
    default_ubuntu_host,
    hardened_ubuntu_host,
    hardened_windows_host,
)
from repro.rqcode import default_catalog
from repro.standards import GapAnalysis, SecurityLevel, SrStatus

from conftest import print_table


def test_bench_e11_coverage_by_profile():
    catalog = default_catalog()
    analysis = GapAnalysis(catalog)
    rows = []
    for factory in (default_ubuntu_host, hardened_ubuntu_host,
                    adversarial_ubuntu_host, hardened_windows_host):
        host = factory()
        report = analysis.analyze(host, SecurityLevel.SL2)
        rows.append({
            "profile": host.name,
            "srs": len(report.results),
            "satisfied": report.count(SrStatus.SATISFIED),
            "partial": report.count(SrStatus.PARTIAL),
            "unsatisfied": report.count(SrStatus.UNSATISFIED),
            "unmapped": report.count(SrStatus.UNMAPPED),
            "coverage": f"{report.coverage:.0%}",
        })
    print_table("E11 IEC 62443-3-3 gap analysis (SL2)", rows)
    by_profile = {row["profile"]: row for row in rows}
    assert by_profile["ubuntu-hardened"]["coverage"] == "100%"
    assert by_profile["win10-hardened"]["coverage"] == "100%"
    assert by_profile["ubuntu-adversarial"]["unsatisfied"] > 0


def test_bench_e11_fr_breakdown():
    catalog = default_catalog()
    report = GapAnalysis(catalog).analyze(default_ubuntu_host(),
                                          SecurityLevel.SL2)
    rows = [
        {"fr": fr, **histogram}
        for fr, histogram in sorted(report.by_fr().items())
    ]
    print_table("E11 FR breakdown (ubuntu-default, SL2)", rows)
    assert len(rows) == 7


def test_bench_e11_hardening_delta():
    catalog = default_catalog()
    analysis = GapAnalysis(catalog)
    host = adversarial_ubuntu_host()
    before = analysis.analyze(host)
    catalog.harden_host(host)
    after = analysis.analyze(host)
    print_table("E11 hardening delta (ubuntu-adversarial)", [
        {"when": "before", "satisfied": before.count(SrStatus.SATISFIED),
         "unsatisfied": before.count(SrStatus.UNSATISFIED),
         "coverage": f"{before.coverage:.0%}"},
        {"when": "after", "satisfied": after.count(SrStatus.SATISFIED),
         "unsatisfied": after.count(SrStatus.UNSATISFIED),
         "coverage": f"{after.coverage:.0%}"},
    ])
    assert after.coverage == 1.0
    assert before.coverage < after.coverage


def test_bench_e11_orchestrator_ingestion(benchmark):
    from repro.core import VeriDevOpsOrchestrator

    def ingest_and_run():
        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_iec62443("ubuntu", SecurityLevel.SL2)
        host = default_ubuntu_host()
        return orchestrator, orchestrator.run_prevention([host])

    orchestrator, run = benchmark(ingest_and_run)
    assert run.passed
    bound = [r.ir for r in orchestrator.repository if r.ir.bindings]
    print_table("E11 ingested SRs with bindings (first 8)", [
        {"req": ir.rid, "provenance": ir.provenance[0].render(),
         "bindings": ",".join(ir.bindings)}
        for ir in bound[:8]
    ])
    assert bound
    benchmark.extra_info["srs"] = len(orchestrator.repository)
