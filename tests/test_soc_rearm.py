"""Live delta re-arming: equivalence with cold re-arm, state
preservation, zero detection gaps, and the REARM wire protocol.

The E18 property at the heart of the streaming fast path: a service
re-armed *live* from a sequence of deltas must end with exactly the
same final verdicts as a cold service armed from the resulting IR set
— on both backends, with and without chaos.
"""

import contextlib
import dataclasses
import json
import time
from pathlib import Path

import pytest

from repro.chaos import ChaosController, FaultPlan, check_invariants
from repro.core.drift import finding_atom
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
from repro.soc.sessions import MonitorSession

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
    @pytest.mark.parametrize("platform", ["ubuntu", "windows"])
    @pytest.mark.parametrize("frontend,sizes", [
        (None, {"ubuntu": 14, "windows": 12}),
        ("standards", {"ubuntu": 29, "windows": 19}),
        ("rqcode", {"ubuntu": 28, "windows": 24}),
    ], ids=["native", "plus-standards", "plus-rqcode"])
    def test_cold_plan_matches_orchestrator_protection_plan(
            self, frontend, sizes, platform):
        """The orchestrator's cold plan and the re-arm planner over the
        repository's IR arm the same ids, the same interned formulas
        and the same bindings: native standards ingest for both
        platforms, alone or with one standards front-end's corpus."""
        from repro.core.orchestrator import VeriDevOpsOrchestrator

        orchestrator = VeriDevOpsOrchestrator(catalog=CATALOG)
        orchestrator.ingest_standards("ubuntu")
        orchestrator.ingest_standards("windows")
        if frontend is not None:
            orchestrator.ingest_frontend(frontend)
        host = (hardened_ubuntu_host("u-host") if platform == "ubuntu"
                else hardened_windows_host("w-host"))
        monitors, bindings = orchestrator.protection_plan(host)
        cold_monitors, cold_bindings = plan_for_records(
            orchestrator.repository.irs(), host, CATALOG)
        assert len(monitors) == sizes[platform]
        assert sorted(monitors) == sorted(cold_monitors)
        for req_id, monitor in monitors.items():
            assert monitor.formula is cold_monitors[req_id].formula
        assert bindings == cold_bindings

    def test_standard_record_arms_platform_filtered_drift(self):
        record = rec("R-1", UBUNTU_FINDINGS[:2] + WINDOWS_FINDINGS[:1])
        host = hardened_ubuntu_host("u-host")
        entries = monitor_entries(record, host, CATALOG)
        assert len(entries) == 1
        req_id, monitor, bindings = entries[0]
        assert req_id == "R-1/drift"
        assert set(bindings) == set(UBUNTU_FINDINGS[:2])
        # A package and a service finding: each watches its own object.
        assert drift_atom(CATALOG, UBUNTU_FINDINGS[:2]) == "drift"
        assert monitor.formula is parse_ltl(
            "G !(drift.package.auditd | drift.service.rsyslog)")

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
        # A Windows audit success/failure pair on one subcategory: both
        # findings watch the same object.
        logon = [f for f in WINDOWS_FINDINGS
                 if finding_atom(CATALOG, f) == "drift.audit.Logon"]
        assert len(logon) == 2
        records = [rec("R-1", logon)]
        hosts = build_hosts(ubuntu=0, windows=1)
        soc = arm(records, hosts, shards=1)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        session = soc.sessions["console-00"]
        before = session.monitors["R-1/drift"]
        # Same watched object -> same interned formula -> rebind, not
        # replace.
        delta = stream.diff([rec("R-1", logon[:1])])
        report = Rearmer(soc).apply(delta)
        stream.commit(delta)
        soc.stop()
        assert report.summary()["rebound"] == 1
        assert report.summary()["added"] == 0
        assert session.monitors["R-1/drift"] is before
        assert session.bindings["R-1/drift"] == [logon[0]]

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
        # down.  Each drift trips exactly the detector watching its
        # package: R-1 (auditd, rsyslog) before, R-2 (telnetd, nis)
        # after.
        records = [rec("R-1", UBUNTU_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=3)
        soc = arm(records, hosts, backend=backend)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        for host in hosts:
            host.drift_remove_package("auditd")     # in flight...
        delta = stream.diff([rec("R-2", UBUNTU_FINDINGS[2:4])])
        Rearmer(soc).apply(delta)                   # ...while patching
        stream.commit(delta)
        for host in hosts:
            host.drift_install_package("nis")       # after the patch
        soc.drain()
        soc.stop()
        by_host = soc.incidents_by_host()
        for host in hosts:
            assert sorted(incident.req_id for incident
                          in by_host[host.name]) == ["R-1/drift",
                                                     "R-2/drift"]
            assert host.dpkg.is_installed("auditd")
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

    def test_report_times_the_four_stages(self):
        records = [rec("R-1", UBUNTU_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=2)
        soc = arm(records, hosts)
        rearmer = Rearmer(soc)
        stream = ReqStream(records)
        assert rearmer.apply(stream.diff(records)).timings == {}
        for wait, fids in ((True, UBUNTU_FINDINGS[2:4]),
                           (False, UBUNTU_FINDINGS[4:6])):
            delta = stream.diff([rec("R-1", fids)])
            began = time.perf_counter()
            report = rearmer.apply(delta, wait=wait)
            elapsed = time.perf_counter() - began
            stream.commit(delta)
            timings = report.timings
            assert sorted(timings) == ["build", "deliver", "plan", "wait"]
            assert all(seconds >= 0.0 for seconds in timings.values())
            assert sum(timings.values()) <= elapsed
            assert (timings["wait"] > 0.0) == wait
            assert list(report.summary()) == [
                "generation", "hosts_patched", "added", "removed",
                "rebound", "kept"]
        soc.stop()


# -- planning once per platform -----------------------------------------------


class TestPerPlatformPlanning:
    def test_mixed_fleet_delta_matches_cold_plan_per_host(self):
        # R-1 binds findings of both platforms, so each platform plans
        # it differently; R-L arms the same LTL monitor everywhere.
        records = [rec("R-1", UBUNTU_FINDINGS[:2] + WINDOWS_FINDINGS[:2]),
                   ltl_rec("R-L", "G !custom.one"),
                   rec("R-X", UBUNTU_FINDINGS[6:8] + WINDOWS_FINDINGS[6:7])]
        hosts = build_hosts(ubuntu=3, windows=2)
        soc = arm(records, hosts)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        delta = stream.diff(
            [rec("R-1", UBUNTU_FINDINGS[2:4] + WINDOWS_FINDINGS[2:4]),
             ltl_rec("R-L", "G !custom.two"),
             rec("R-2", UBUNTU_FINDINGS[4:6] + WINDOWS_FINDINGS[4:6])],
            remove_rids=["R-X"])
        assert (len(delta.added), len(delta.changed),
                len(delta.removed)) == (1, 2, 1)
        report = Rearmer(soc).apply(delta)
        stream.commit(delta)
        soc.drain()
        soc.stop()
        assert report.hosts_patched == len(hosts)
        final = sorted(stream.armed(), key=lambda r: r.rid)
        armed = []
        for host in hosts:
            cold_monitors, cold_bindings = plan_for_records(final, host,
                                                            CATALOG)
            session = soc.sessions[host.name]
            assert set(session.monitors) == set(cold_monitors)
            for req_id, monitor in session.monitors.items():
                assert monitor.formula is cold_monitors[req_id].formula
            assert {req_id: fids for req_id, fids
                    in session.bindings.items() if fids} == cold_bindings
            monitors, bindings = soc.plans[host.name]
            assert {req_id: m.formula for req_id, m in monitors.items()} \
                == {req_id: m.formula
                    for req_id, m in cold_monitors.items()}
            assert bindings == cold_bindings
            armed.extend(session.monitors.values())
        assert len({id(monitor) for monitor in armed}) == len(armed)
        # The two platforms really did plan R-1 differently.
        drift = {soc.sessions[h.name].monitors["R-1/drift"].formula
                 for h in hosts}
        assert len(drift) == 2

    def test_delta_plans_each_record_once_per_platform(self, monkeypatch):
        from repro.soc import rearm

        records = [rec("R-1", UBUNTU_FINDINGS[:2]),
                   rec("R-2", UBUNTU_FINDINGS[2:4])]
        hosts = build_hosts(ubuntu=4)
        soc = arm(records, hosts)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        calls = []
        original = rearm.monitor_entries

        def counting(record, host, catalog):
            calls.append((id(record), host.os_family))
            return original(record, host, catalog)

        monkeypatch.setattr(rearm, "monitor_entries", counting)
        delta = stream.diff([rec("R-1", UBUNTU_FINDINGS[4:6])])
        index = RiskIndex(RiskScorer(fleet_size=len(hosts)))
        report = Rearmer(soc, risk=index).apply(delta)
        soc.stop()
        # One call for the old and one for the new version of R-1 on
        # the one platform, shared by planning and the risk refresh.
        assert len(calls) == len(set(calls)) == 2
        assert report.hosts_patched == len(hosts)
        assert index.snapshot()["R-1"] > 0.0


# -- thread delivery: in place on idle shards, queued on busy ones ------------


PACKAGE_FINDINGS = [f for f in UBUNTU_FINDINGS
                    if drift_atom(CATALOG, [f]) == "drift.package"]
CONFIG_FINDINGS = [f for f in UBUNTU_FINDINGS
                   if drift_atom(CATALOG, [f]) == "drift.config"]
#: The detector of a record bound to ``CONFIG_FINDINGS[0]`` alone.
CONFIG_DETECTOR = parse_ltl(
    f"G !{finding_atom(CATALOG, CONFIG_FINDINGS[0])}")


def unstarted(records, hosts, shards=1):
    plans = {h.name: plan_for_records(records, h, CATALOG) for h in hosts}
    return SocService(hosts, CATALOG, plans, shards=shards, seed=3,
                      backend="thread")


def package_drift(host):
    """A real drift.package event of *host*, not yet delivered (the
    service's ingress is attached only by ``start``)."""
    host.drift_install_package("telnetd")
    return host.events.last("drift.package")


class TestThreadDelivery:
    def test_idle_shards_are_patched_in_place(self):
        records = [rec("R-1", PACKAGE_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=4)
        soc = arm(records, hosts, shards=2)
        soc.drain()
        stream = ReqStream()
        stream.commit(stream.diff(records))
        delta = stream.diff([rec("R-1", CONFIG_FINDINGS[:1])])
        report = Rearmer(soc).apply(delta, wait=False)
        # Applied before apply() returned, without a queue item.
        assert all(queue.unfinished == 0 for queue in soc.queues)
        applied = set()
        for host in hosts:
            session = soc.sessions[host.name]
            assert len(session._patched) == 1
            applied |= session._patched
            assert session.monitors["R-1/drift"].formula \
                is CONFIG_DETECTOR
        assert applied == set(report.tokens)
        soc.stop()
        counters = soc.metrics_snapshot()["counters"]
        assert counters["soc.rearm.patches_sent"] == len(hosts)
        assert counters["soc.rearm.patches_applied"] == len(hosts)
        assert check_invariants(soc).violations == []

    def test_busy_shard_queues_the_patch_behind_its_backlog(self):
        records = [rec("R-1", PACKAGE_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=2)
        soc = unstarted(records, hosts)
        soc.queues[0].put(("web-00", package_drift(hosts[0])))
        stream = ReqStream()
        stream.commit(stream.diff(records))
        delta = stream.diff([rec("R-1", CONFIG_FINDINGS[:1])])
        Rearmer(soc).apply(delta, wait=False)
        assert soc.queues[0].depth == 2
        assert soc.sessions["web-00"]._patched == set()
        soc.start()
        soc.drain()
        soc.stop()
        # The drift queued first met the old package monitor.
        assert [incident.req_id for incident
                in soc.incidents_by_host()["web-00"]] == ["R-1/drift"]
        for host in hosts:
            assert soc.sessions[host.name].monitors["R-1/drift"].formula \
                is CONFIG_DETECTOR

    def test_patch_waits_behind_a_failed_hosts_deferred_events(self):
        # web-00's drift fails once and is deferred; the shard item
        # carrying both hosts' patches must wait behind it, and
        # web-01's drift, queued after the item, behind the item.
        records = [rec("R-1", PACKAGE_FINDINGS[:2])]
        hosts = build_hosts(ubuntu=2)
        soc = unstarted(records, hosts)
        session = soc.sessions["web-00"]
        observe = session.observe
        failures = []

        def fail_once(event):
            if not failures:
                failures.append(event)
                raise RuntimeError("session fault")
            return observe(event)

        session.observe = fail_once
        soc.queues[0].put(("web-00", package_drift(hosts[0])))
        stream = ReqStream()
        stream.commit(stream.diff(records))
        delta = stream.diff([rec("R-1", CONFIG_FINDINGS[:1])])
        Rearmer(soc).apply(delta, wait=False)
        soc.queues[0].put(("web-01", package_drift(hosts[1])))
        soc.start()
        soc.drain()
        soc.stop()
        assert len(failures) == 1
        by_host = soc.incidents_by_host()
        assert [incident.req_id for incident
                in by_host["web-00"]] == ["R-1/drift"]
        # Observed after its patch: the package drift no longer trips R-1.
        assert by_host.get("web-01", []) == []
        counters = soc.metrics_snapshot()["counters"]
        assert counters["soc.rearm.patches_applied"] == len(hosts)

    def test_rearms_racing_ingress_keep_every_session_whole(self):
        # More shards than cores, producers racing the re-arming thread
        # and a short switch interval: whether a shard's patches were
        # applied in place or queued, no session may lose a patch or
        # end with a routing index that disagrees with its monitors.
        import sys
        import threading

        from repro.ltl.compile import empty_step_stable

        hosts = build_hosts(ubuntu=6)
        records = [rec("R-1", PACKAGE_FINDINGS[:2]),
                   ltl_rec("R-L", "G (custom.req -> X custom.ack)")]
        soc = arm(records, hosts, shards=4)
        stream = ReqStream()
        stream.commit(stream.diff(records))
        rearmer = Rearmer(soc)
        tokens = []
        stop = threading.Event()

        def produce(group):
            while not stop.is_set():
                for host in group:
                    host.events.emit("custom.req")
                    host.events.emit("custom.ack")

        producers = [threading.Thread(target=produce, args=(hosts[i::3],),
                                      daemon=True) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for producer in producers:
                producer.start()
            for round_ in range(30):
                findings = (CONFIG_FINDINGS[:1] if round_ % 2
                            else PACKAGE_FINDINGS[:2])
                ltl = ("G !custom.probe" if round_ % 3 == 0
                       else "G (custom.req -> X custom.ack)")
                delta = stream.diff([rec("R-1", findings),
                                     ltl_rec("R-L", ltl)])
                report = rearmer.apply(delta, wait=round_ % 2 == 0)
                stream.commit(delta)
                tokens.extend(report.tokens)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for producer in producers:
                producer.join(5.0)
        assert not any(producer.is_alive() for producer in producers)
        soc.drain()
        soc.stop()
        assert set().union(*(soc.sessions[h.name]._patched
                             for h in hosts)) == set(tokens)
        final = sorted(stream.armed(), key=lambda r: r.rid)
        for host in hosts:
            cold_monitors, cold_bindings = plan_for_records(final, host,
                                                            CATALOG)
            session = soc.sessions[host.name]
            assert {req_id: m.formula for req_id, m
                    in session.monitors.items()} \
                == {req_id: m.formula for req_id, m
                    in cold_monitors.items()}
            assert {req_id: fids for req_id, fids
                    in session.bindings.items() if fids} == cold_bindings
            watch, always = {}, set()
            for req_id, monitor in session.monitors.items():
                if empty_step_stable(monitor.obligation):
                    for atom in monitor.obligation.atoms():
                        watch.setdefault(atom, set()).add(req_id)
                else:
                    always.add(req_id)
            assert {atom: ids for atom, ids in session._watch.items()
                    if ids} == watch
            assert session._always == always
        assert check_invariants(soc).violations == []


# -- the re-arm transcript ----------------------------------------------------
#
# Every patch each host receives, every RearmReport count and every
# ``soc.plans`` entry over a fixed sequence of deltas on a mixed fleet,
# against a golden.  Regenerate it only for an intended change to what
# re-arming does:
#
#     PYTHONPATH=src python -m tests.test_soc_rearm > tests/data/rearm_transcript.json

TRANSCRIPT = Path(__file__).parent / "data" / "rearm_transcript.json"


def nl_rec(slot, pool_index):
    """NL statement *pool_index* RESA-lowered under the rid ``NL-<slot>``."""
    from repro.reqs import default_registry
    from repro.scenarios.library import NL_TEMPLATE_POOL

    [record] = default_registry().lower_iter(
        "resa", [NL_TEMPLATE_POOL[pool_index]], ids=lambda: f"NL-{slot}")
    return record


def transcript_records():
    """The armed set, the deltas, and a record the SOC arms but the
    stream does not know (``K-1``: its later "add" collides)."""
    base = {
        "S-1": rec("S-1", UBUNTU_FINDINGS[:2] + WINDOWS_FINDINGS[:2]),
        "X-1": rec("X-1", PACKAGE_FINDINGS[:1]),
        "Y-1": rec("Y-1", PACKAGE_FINDINGS[1:2]),
        "W-1": rec("W-1", WINDOWS_FINDINGS[3:5]),
        "P-1": ltl_rec("P-1", "G (custom.req -> X custom.ack)"),
        "NL-0": nl_rec(0, 0),
        "NL-1": nl_rec(1, 1),
    }
    hidden = rec("K-1", UBUNTU_FINDINGS[5:6])
    steps = [
        # NL slot change, drift-class flip, unchanged re-announcements.
        ("nl-flip", [nl_rec(0, 2), rec("X-1", CONFIG_FINDINGS[:1]),
                     base["S-1"], base["P-1"]], []),
        # A rebind (state kept); an NL slot that lowers to no monitor;
        # an equal record re-sent as a fresh object.
        ("rebind", [rec("Y-1", PACKAGE_FINDINGS[1:3]), nl_rec(1, 6),
                    rec("W-1", WINDOWS_FINDINGS[3:5])], []),
        # Only the text moves: every entry kept, yet every host of both
        # platforms gets an (empty) patch and a token.
        ("all-kept", [dataclasses.replace(base["S-1"],
                                          text="requirement S-1, v2")],
         []),
        ("remove", [], ["P-1", "W-1", "NOT-ARMED"]),
        # K-1 is armed but unknown to the stream: an added record that
        # collides with an armed req_id, replaced fresh.
        ("collide", [hidden, rec("W-2", WINDOWS_FINDINGS[5:7]),
                     nl_rec(0, 0)], []),
    ]
    return list(base.values()), hidden, steps


@contextlib.contextmanager
def recorded_patches():
    """Every :class:`SessionPatch` a session applies, by host name."""
    seen = {}
    original = MonitorSession.apply_patch

    def recording(session, patch):
        seen.setdefault(patch.host_name, []).append(patch)
        return original(session, patch)

    MonitorSession.apply_patch = recording
    try:
        yield seen
    finally:
        MonitorSession.apply_patch = original


def _plans(soc):
    return {host: {req_id: [str(monitor.formula), bindings.get(req_id)]
                   for req_id, monitor in sorted(monitors.items())}
            for host, (monitors, bindings) in sorted(soc.plans.items())}


def rearm_transcript(backend="thread", calls=None):
    """Run the transcript's deltas on a fresh mixed fleet.

    On the thread backend the patches come from the sessions; on the
    process backend *calls* collects each ``rearm`` call's arguments.
    """
    armed, hidden, steps = transcript_records()
    hosts = build_hosts(ubuntu=2, windows=2)
    soc = arm(armed + [hidden], hosts, backend=backend)
    if calls is not None:
        ship = soc._proc.rearm

        def recording(adds=(), removes=(), rebinds=(), timeout=30.0):
            calls.append((list(adds), list(removes), list(rebinds)))
            return ship(adds=adds, removes=removes, rebinds=rebinds,
                        timeout=timeout)

        soc._proc.rearm = recording
    stream = ReqStream(armed)
    rearmer = Rearmer(soc)
    out = []
    try:
        for name, items, removals in steps:
            delta = stream.diff(items, remove_rids=removals)
            with recorded_patches() as seen:
                report = rearmer.apply(delta)
            stream.commit(delta)
            patches = {}
            for host, [patch] in sorted(seen.items()):
                monitors = [monitor for _, monitor, _ in patch.add]
                assert len({id(m) for m in monitors}) == len(monitors)
                patches[host] = {
                    "token": patch.token,
                    "add": [[req_id, str(monitor.formula), list(fids)]
                            for req_id, monitor, fids in patch.add],
                    "remove": list(patch.remove),
                    "rebind": [[req_id, list(fids)]
                               for req_id, fids in patch.rebind]}
            out.append({"step": name, "delta": delta.summary(),
                        "report": {**report.summary(),
                                   "tokens": report.tokens},
                        "patches": patches, "plans": _plans(soc)})
        soc.drain()
    finally:
        soc.stop()
    # No monitor object is shared between two hosts.
    armed_monitors = [monitor for session in soc.sessions.values()
                      for monitor in session.monitors.values()]
    assert len({id(m) for m in armed_monitors}) == len(armed_monitors)
    return out


class TestRearmTranscript:
    def test_thread_transcript_matches_golden(self):
        assert rearm_transcript() == json.loads(TRANSCRIPT.read_text())

    def test_process_transcript_matches_golden(self):
        calls = []
        steps = rearm_transcript("process", calls)
        golden = json.loads(TRANSCRIPT.read_text())
        assert len(calls) == len(golden)
        for step, want, (adds, removes, rebinds) in zip(steps, golden,
                                                        calls):
            assert step["report"] == {**want["report"], "tokens": []}
            assert step["plans"] == want["plans"]
            assert step["patches"] == {}
            # The same patches, flattened host by host.
            patches = sorted(want["patches"].items())
            assert [[h, r, str(m.formula), list(b)]
                    for h, r, m, b in adds] == [
                [h, *entry] for h, p in patches for entry in p["add"]]
            assert [list(pair) for pair in removes] == [
                [h, r] for h, p in patches for r in p["remove"]]
            assert [[h, r, list(b)] for h, r, b in rebinds] == [
                [h, *entry] for h, p in patches for entry in p["rebind"]]


def _golden_text(steps):
    """One host's patch or plan per line, so a change reads as a small
    diff."""
    def section(key, value):
        if key not in ("patches", "plans"):
            return f"{json.dumps(key)}: {json.dumps(value)}"
        return (f"{json.dumps(key)}: {{\n   " + ",\n   ".join(
            f"{json.dumps(host)}: {json.dumps(entry)}"
            for host, entry in value.items()) + "}")

    return "[\n" + ",\n".join(
        " {" + ",\n  ".join(section(key, value)
                             for key, value in step.items()) + "}"
        for step in steps) + "\n]"


if __name__ == "__main__":
    print(_golden_text(rearm_transcript()))
