"""Live delta re-arming: equivalence with cold re-arm, state
preservation, zero detection gaps, and the REARM wire protocol.

The E18 property at the heart of the streaming fast path: a service
re-armed *live* from a sequence of deltas must end with exactly the
same final verdicts as a cold service armed from the resulting IR set
— on both backends, with and without chaos.
"""

import pytest

from repro.chaos import ChaosController, FaultPlan, check_invariants
from repro.environment import hardened_ubuntu_host, hardened_windows_host
from repro.ltl.parser import parse_ltl
from repro.reqs.ir import Formalization, Provenance, Requirement
from repro.reqs.risk import RiskIndex, RiskScorer
from repro.reqs.stream import ReqStream
from repro.rqcode import default_catalog
from repro.soc.rearm import (
    Rearmer,
    drift_atom,
    monitor_entries,
    plan_for_records,
)
from repro.soc.service import SocService

CATALOG = default_catalog()
UBUNTU_FINDINGS = [f for f in CATALOG.finding_ids()
                   if CATALOG.get(f).platform == "ubuntu"]
WINDOWS_FINDINGS = [f for f in CATALOG.finding_ids()
                    if CATALOG.get(f).platform == "windows"]


def rec(rid, fids=(), severity="high"):
    return Requirement(
        rid=rid, title=rid, text=f"requirement {rid}", source="rqcode",
        severity=severity, bindings=tuple(fids),
        provenance=(Provenance("test", rid, "test record"),))


def ltl_rec(rid, ltl):
    return Requirement(
        rid=rid, title=rid, text=f"requirement {rid}", source="resa",
        severity="high", formalization=Formalization(ltl=ltl),
        provenance=(Provenance("test", rid, "test record"),))


def build_hosts(ubuntu=3, windows=0):
    hosts = [hardened_ubuntu_host(f"web-{i:02d}") for i in range(ubuntu)]
    hosts += [hardened_windows_host(f"console-{i:02d}")
              for i in range(windows)]
    return hosts


def arm(records, hosts, backend="thread", shards=2, chaos_plan=None,
        **kwargs):
    plans = {h.name: plan_for_records(records, h, CATALOG) for h in hosts}
    chaos = ChaosController(chaos_plan) if chaos_plan else None
    return SocService(hosts, CATALOG, plans, shards=shards, seed=3,
                      backend=backend, chaos=chaos, **kwargs).start()


# -- planning: one rule, two consumers ----------------------------------------


class TestPlanning:
    def test_drift_atom_matches_orchestrator_rule(self):
        from repro.core.orchestrator import VeriDevOpsOrchestrator

        orchestrator = VeriDevOpsOrchestrator(catalog=CATALOG)
        for fids in ([UBUNTU_FINDINGS[0]], UBUNTU_FINDINGS[:4],
                     [WINDOWS_FINDINGS[0]],
                     [UBUNTU_FINDINGS[0], WINDOWS_FINDINGS[0]]):
            assert orchestrator._drift_atom(fids) \
                == drift_atom(CATALOG, fids)

    def test_standard_record_arms_platform_filtered_drift(self):
        record = rec("R-1", UBUNTU_FINDINGS[:2] + WINDOWS_FINDINGS[:1])
        host = hardened_ubuntu_host("u-host")
        entries = monitor_entries(record, host, CATALOG)
        assert len(entries) == 1
        req_id, monitor, bindings = entries[0]
        assert req_id == "R-1/drift"
        assert set(bindings) == set(UBUNTU_FINDINGS[:2])
        assert monitor.formula is parse_ltl(
            f"G !{drift_atom(CATALOG, UBUNTU_FINDINGS[:2])}")

    def test_record_with_no_applicable_findings_arms_nothing(self):
        record = rec("R-1", WINDOWS_FINDINGS[:2])
        host = hardened_ubuntu_host("u-host")
        assert monitor_entries(record, host, CATALOG) == []

    def test_event_compatible_ltl_arms_under_own_rid(self):
        record = ltl_rec("R-L", "G !custom.bad")
        host = hardened_ubuntu_host("u-host")
        entries = monitor_entries(record, host, CATALOG)
        assert [(e[0], e[2]) for e in entries] == [("R-L", ())]

    def test_state_style_universality_is_filtered(self):
        # ``G p`` demands p on every step; event streams cannot satisfy
        # it and the cold planner drops it — the live planner must too.
        record = ltl_rec("R-G", "G custom.flag")
        host = hardened_ubuntu_host("u-host")
        assert monitor_entries(record, host, CATALOG) == []

    def test_plan_for_records_collects_per_host(self):
        records = [rec("R-1", UBUNTU_FINDINGS[:2]),
                   ltl_rec("R-L", "G !custom.bad")]
        host = hardened_ubuntu_host("u-host")
        monitors, bindings = plan_for_records(records, host, CATALOG)
        assert set(monitors) == {"R-1/drift", "R-L"}
        assert set(bindings) == {"R-1/drift"}


# -- the E18 equivalence property ---------------------------------------------


def run_live(backend, chaos_plan=None):
    """Arm 2 records, drift, apply an add+change+remove delta mid-
    stream, drift again; return final verdicts."""
    records = [rec("R-1", UBUNTU_FINDINGS[:2]),
               rec("R-2", UBUNTU_FINDINGS[2:4])]
    hosts = build_hosts(ubuntu=4)
    soc = arm(records, hosts, backend=backend, chaos_plan=chaos_plan)
    stream = ReqStream()
    stream.commit(stream.diff(records))
    hosts[0].drift_install_package("telnetd")
    soc.drain()
    delta = stream.diff([rec("R-2", UBUNTU_FINDINGS[4:6]),
                         rec("R-3", UBUNTU_FINDINGS[6:8])],
                        remove_rids=["R-1"])
    report = Rearmer(soc).apply(delta)
    stream.commit(delta)
    hosts[1].drift_install_package("nis")
    soc.drain()
    soc.stop()
    final_records = sorted(stream.armed(), key=lambda r: r.rid)
    return soc.final_verdicts(), final_records, report


def run_cold(backend, final_records, chaos_plan=None):
    """The reference: a cold service armed from the final IR set, fed
    the same drift scenario."""
    hosts = build_hosts(ubuntu=4)
    soc = arm(final_records, hosts, backend=backend,
              chaos_plan=chaos_plan)
    hosts[0].drift_install_package("telnetd")
    soc.drain()
    hosts[1].drift_install_package("nis")
    soc.drain()
    soc.stop()
    return soc.final_verdicts()


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_delta_rearm_matches_cold_rearm(self, backend):
        live, final_records, report = run_live(backend)
        assert sorted(r.rid for r in final_records) == ["R-2", "R-3"]
        assert report.summary()["added"] > 0
        assert run_cold(backend, final_records) == live

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_delta_rearm_matches_cold_rearm_under_chaos(self, backend):
        plan = FaultPlan(seed=5, session_error=0.3, event_duplicate=0.2,
                         max_deliveries=3)
        live, final_records, _ = run_live(backend, chaos_plan=plan)
        assert run_cold(backend, final_records, chaos_plan=plan) == live

    def test_rearm_survives_worker_crashes(self):
        # Process backend: the REARM delta must land exactly once even
        # when workers crash and are restarted mid-protocol.
        plan = FaultPlan(seed=21, worker_crash=0.4, max_deliveries=4)
        live, final_records, _ = run_live("process", chaos_plan=plan)
        assert {key[1] for key in live} == {"R-2/drift", "R-3/drift"}

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_new_atom_vocabulary_grows_in_place(self, backend):
        # A delta can introduce formulas over atoms unseen at arm time;
        # the process backend must extend the wire vocabulary without
        # a restart (and the thread backend just reindexes).
        records = [rec("R-1", UBUNTU_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=3)
        soc = arm(records, hosts, backend=backend)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        delta = stream.diff([ltl_rec("R-L", "G !custom.probe")])
        Rearmer(soc).apply(delta)
        stream.commit(delta)
        hosts[0].events.emit("custom.probe")
        soc.drain()
        soc.stop()
        verdicts = soc.final_verdicts()
        by_req = {k[1] for k in verdicts}
        assert "R-L" in by_req
        # Identical across hosts (the violating host's monitor reset
        # to the same G-state after its detection).
        values = {v for k, v in verdicts.items() if k[1] == "R-L"}
        assert len(values) == 1


# -- obligation-state preservation --------------------------------------------


class TestStatePreservation:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_unrelated_rearm_keeps_progressed_state(self, backend):
        # web-00's Existence monitor goes TRUE before the re-arm; a
        # fresh monitor would be INCONCLUSIVE again, so TRUE after the
        # re-arm proves the obligation survived it.
        records = [ltl_rec("R-F", "F custom.done"),
                   rec("R-1", UBUNTU_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=2)
        soc = arm(records, hosts, backend=backend)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        hosts[0].events.emit("custom.done")
        soc.drain()
        delta = stream.diff([rec("R-1", UBUNTU_FINDINGS[2:4])])
        report = Rearmer(soc).apply(delta)
        stream.commit(delta)
        assert report.summary()["rebound"] + report.summary()["added"] > 0
        soc.drain()
        soc.stop()
        verdicts = soc.final_verdicts()
        assert verdicts[("web-00", "R-F")][0] == "TRUE"
        assert verdicts[("web-01", "R-F")][0] == "INCONCLUSIVE"

    def test_rebind_keeps_monitor_object_thread_backend(self):
        packages = [f for f in UBUNTU_FINDINGS
                    if drift_atom(CATALOG, [f]) == "drift.package"]
        records = [rec("R-1", packages[:2])]
        hosts = build_hosts(ubuntu=1)
        soc = arm(records, hosts, shards=1)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        session = soc.sessions["web-00"]
        before = session.monitors["R-1/drift"]
        # Same drift atom (both package findings) -> same interned
        # formula -> rebind, not replace.
        delta = stream.diff([rec("R-1", packages[:1])])
        report = Rearmer(soc).apply(delta)
        stream.commit(delta)
        soc.stop()
        assert report.summary()["rebound"] == 1
        assert report.summary()["added"] == 0
        assert session.monitors["R-1/drift"] is before
        assert session.bindings["R-1/drift"] == [packages[0]]

    def test_changed_formula_rearms_fresh(self):
        records = [ltl_rec("R-L", "G !custom.one")]
        hosts = build_hosts(ubuntu=1)
        soc = arm(records, hosts, shards=1)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        before = soc.sessions["web-00"].monitors["R-L"]
        delta = stream.diff([ltl_rec("R-L", "G !custom.two")])
        report = Rearmer(soc).apply(delta)
        stream.commit(delta)
        soc.stop()
        assert report.summary()["added"] == 1
        after = soc.sessions["web-00"].monitors["R-L"]
        assert after is not before
        assert after.formula is parse_ltl("G !custom.two")


# -- zero detection gaps ------------------------------------------------------


class TestZeroGap:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_no_gap_across_a_rearm(self, backend):
        # Drift injected *before* the re-arm (still queued) and *after*
        # it must both be detected and repaired: the patch rides the
        # event stream, so no window exists in which either bank is
        # down.
        records = [rec("R-1", UBUNTU_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=3)
        soc = arm(records, hosts, backend=backend)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        for host in hosts:
            host.drift_install_package("telnetd")   # in flight...
        delta = stream.diff([rec("R-2", UBUNTU_FINDINGS[2:4])])
        Rearmer(soc).apply(delta)                   # ...while patching
        stream.commit(delta)
        for host in hosts:
            host.drift_install_package("nis")       # after the patch
        soc.drain()
        soc.stop()
        incidents = soc.incidents()
        assert len(incidents) >= 2 * len(hosts)
        for host in hosts:
            assert not host.dpkg.is_installed("telnetd")
            assert not host.dpkg.is_installed("nis")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_removed_requirement_stops_detecting(self, backend):
        records = [rec("R-1", UBUNTU_FINDINGS[:2]),
                   rec("R-2", UBUNTU_FINDINGS[2:4])]
        hosts = build_hosts(ubuntu=2)
        soc = arm(records, hosts, backend=backend)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        delta = stream.diff([], remove_rids=["R-1"])
        Rearmer(soc).apply(delta)
        stream.commit(delta)
        hosts[0].drift_install_package("telnetd")
        soc.drain()
        soc.stop()
        assert all(incident.req_id != "R-1/drift"
                   for incident in soc.incidents())
        assert ("web-00", "R-1/drift") not in soc.final_verdicts()


class TestInvariantsAcrossRearm:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_live_rearm_reports_no_violation(self, backend):
        # Thread-backend workers credit dequeued re-arm patches as
        # processed queue items; the disposition law must not read
        # them as events.  The process backend's REARM records never
        # reach the processed count.
        records = [rec("R-1", UBUNTU_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=3)
        soc = arm(records, hosts, backend=backend)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        hosts[0].drift_install_package("telnetd")
        delta = stream.diff(records + [rec("R-2", UBUNTU_FINDINGS[2:4])])
        Rearmer(soc).apply(delta, wait=True)
        stream.commit(delta)
        hosts[1].drift_install_package("nis")
        soc.drain()
        soc.stop()
        report = check_invariants(soc)
        assert report.violations == []
        facts = report.facts
        assert facts["processed"] == facts["ingested"] > 0
        counters = soc.metrics_snapshot()["counters"]
        patches = counters.get("soc.rearm.patches_applied", 0)
        assert facts["rearm_patches"] == patches
        assert patches == (len(hosts) if backend == "thread" else 0)


# -- the Rearmer itself -------------------------------------------------------


class TestRearmer:
    def test_empty_delta_is_a_noop(self):
        records = [rec("R-1", UBUNTU_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=1)
        soc = arm(records, hosts, shards=1)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        report = Rearmer(soc).apply(stream.diff([rec("R-1",
                                                     UBUNTU_FINDINGS[:2])]))
        soc.stop()
        assert report.hosts_patched == 0
        assert report.summary()["added"] == 0

    def test_plans_stay_authoritative(self):
        records = [rec("R-1", UBUNTU_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=2)
        soc = arm(records, hosts)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        delta = stream.diff([rec("R-2", UBUNTU_FINDINGS[2:4])],
                            remove_rids=["R-1"])
        Rearmer(soc).apply(delta)
        stream.commit(delta)
        soc.stop()
        for host in hosts:
            monitors, bindings = soc.plans[host.name]
            assert set(monitors) == {"R-2/drift"}
            assert set(bindings) == {"R-2/drift"}

    def test_risk_index_refreshed_by_delta(self):
        records = [rec("R-1", UBUNTU_FINDINGS[:2], severity="low")]
        hosts = build_hosts(ubuntu=2)
        soc = arm(records, hosts)
        scorer = RiskScorer(fleet_size=len(hosts))
        index = RiskIndex(scorer)
        rearmer = Rearmer(soc, risk=index)
        stream = ReqStream()
        delta = stream.diff(records
                            + [rec("R-2", UBUNTU_FINDINGS[2:4],
                                   severity="critical")])
        rearmer.apply(delta)
        stream.commit(delta)
        delta2 = stream.diff([], remove_rids=["R-1"])
        rearmer.apply(delta2)
        stream.commit(delta2)
        soc.stop()
        snapshot = index.snapshot()
        assert "R-1" not in snapshot
        assert snapshot["R-2"] > 0.0

    def test_patch_tokens_are_unique_across_applies(self):
        records = [rec("R-1", UBUNTU_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=2)
        soc = arm(records, hosts)
        rearmer = Rearmer(soc)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        tokens = []
        for step, fids in enumerate((UBUNTU_FINDINGS[2:4],
                                     UBUNTU_FINDINGS[4:6])):
            delta = stream.diff([rec(f"R-{step + 2}", fids)])
            tokens.extend(Rearmer.apply(rearmer, delta).tokens)
            stream.commit(delta)
        soc.stop()
        assert len(tokens) == len(set(tokens)) == 4
