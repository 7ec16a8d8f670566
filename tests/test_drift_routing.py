"""Drift routing: one drift of one catalogue finding, one incident.

Every Ubuntu and Windows finding of the default catalogue gets its own
hardened host, armed with the standards ingest (one drift detector per
finding).  Each host suffers the one drift that breaks its finding, and
the serial :class:`~repro.core.protection.ProtectionLoop`, the thread
:class:`~repro.soc.service.SocService` and the process one must each
repair exactly that finding, leaving the fleet fully compliant, and
raise exactly one incident per detector bound to the drifted object.

The rest pins the drift vocabulary: object atoms are an injective
mangling into the LTL parser's identifiers, the step and bit memos stay
bounded however many objects drift, and the catalogues' atoms fit in
the process codec's re-arm headroom.
"""

import re

import pytest
from hypothesis import given, strategies as st

from repro.core import protection
from repro.core.drift import event_atom, finding_atom, mangle
from repro.core.fleet import Fleet
from repro.core.orchestrator import VeriDevOpsOrchestrator
from repro.environment import hardened_ubuntu_host, hardened_windows_host
from repro.ltl.formulas import Atom
from repro.ltl.parser import parse_ltl
from repro.rqcode import default_catalog
from repro.rqcode.concepts import CheckStatus
from repro.rqcode.ubuntu import (
    UbuntuConfigPattern,
    UbuntuPackagePattern,
    UbuntuServicePattern,
)
from repro.rqcode.win10 import AuditPolicyRequirement
from repro.rqcode.win10_accounts import (
    V_63405,
    V_63409,
    AccountPolicyRequirement,
)
from repro.rqcode.win10_registry import RegistryValueRequirement
from repro.scenarios import get_scenario, scenario_names
from repro.soc.procplane import codec
from repro.soc.procplane.backend import ATOM_HEADROOM
from repro.soc.service import SocService

CATALOG = default_catalog()
FINDINGS = CATALOG.finding_ids()


def apply_drift(host, finding_id):
    """The host drift helper that breaks *finding_id* and nothing else."""
    finding = CATALOG.get(finding_id).instantiate(host)
    if isinstance(finding, UbuntuPackagePattern):
        if finding.must_be_installed:
            host.drift_remove_package(finding.package_name)
        else:
            host.drift_install_package(finding.package_name)
    elif isinstance(finding, UbuntuConfigPattern):
        host.drift_config_value(finding.path, finding.key, "drifted")
    elif isinstance(finding, UbuntuServicePattern):
        host.drift_stop_service(finding.service_name)
    elif isinstance(finding, AuditPolicyRequirement):
        # Clear only the flag this finding requires: its sibling on the
        # same subcategory stays compliant.
        host.drift_audit_policy(
            finding.get_subcategory(),
            clear_success=finding.get_success() == "enable",
            clear_failure=finding.get_failure() == "enable")
    elif isinstance(finding, RegistryValueRequirement):
        host.drift_registry_value(finding.get_value_name(), "0")
    elif isinstance(finding, V_63409):
        policy = host.accounts.policy
        host.drift_account_policy(threshold=0,
                                  duration_minutes=policy.duration_minutes)
    elif isinstance(finding, V_63405):
        policy = host.accounts.policy
        host.drift_account_policy(threshold=policy.threshold,
                                  duration_minutes=0)
    else:
        raise AssertionError(f"no drift helper for {finding_id}")


def drifted_object(finding_id):
    """What the finding's drift changes, spelled out independently of
    the routing code."""
    finding = CATALOG.get(finding_id).instantiate(None)
    if isinstance(finding, UbuntuPackagePattern):
        return ("package", finding.package_name)
    if isinstance(finding, UbuntuConfigPattern):
        return ("config", finding.path, finding.key)
    if isinstance(finding, UbuntuServicePattern):
        return ("service", finding.service_name)
    if isinstance(finding, AuditPolicyRequirement):
        return ("audit", finding.get_subcategory())
    if isinstance(finding, RegistryValueRequirement):
        return ("registry", finding.get_value_name())
    assert isinstance(finding, AccountPolicyRequirement)
    return ("account",)


def host_name(finding_id):
    return f"h-{finding_id}"


def build_fleet():
    """One hardened host per catalogue finding, named after it."""
    fleet = Fleet("drift-routing", CATALOG)
    for finding_id in FINDINGS:
        make = (hardened_ubuntu_host
                if CATALOG.get(finding_id).platform == "ubuntu"
                else hardened_windows_host)
        fleet.add(make(host_name(finding_id)))
    return fleet


def orchestrator():
    result = VeriDevOpsOrchestrator(catalog=CATALOG)
    result.ingest_standards("ubuntu")
    result.ingest_standards("windows")
    return result


def effective_findings(incidents):
    return sorted(repair.finding_id for incident in incidents
                  for repair in incident.repairs
                  if repair.detail.startswith("enforced")
                  and repair.detail.endswith("PASS"))


def bound_detectors(finding_id):
    """The drift detectors whose binding shares the drifted object."""
    platform = CATALOG.get(finding_id).platform
    host = (hardened_ubuntu_host("probe") if platform == "ubuntu"
            else hardened_windows_host("probe"))
    _, bindings = orchestrator().protection_plan(host)
    return sorted(req_id for req_id, finding_ids in bindings.items()
                  if any(drifted_object(f) == drifted_object(finding_id)
                         for f in finding_ids))


def run_serial():
    """host -> incidents, fleet posture, with one serial loop per host."""
    fleet = build_fleet()
    plans = orchestrator()
    loops = {host.name: plans.start_protection(host)
             for host in fleet.hosts()}
    for finding_id in FINDINGS:
        apply_drift(fleet.host(host_name(finding_id)), finding_id)
    for loop in loops.values():
        loop.stop()
    return ({name: loop.incidents for name, loop in loops.items()},
            fleet.audit().worst_ratio)


def run_service(backend):
    """host -> incidents, fleet posture, on one SOC backend."""
    fleet = build_fleet()
    service = fleet.arm_soc(orchestrator(), shards=2, seed=3,
                            backend=backend)
    try:
        for finding_id in FINDINGS:
            apply_drift(fleet.host(host_name(finding_id)), finding_id)
        service.drain()
    finally:
        service.stop()
    return service.incidents_by_host(), fleet.audit().worst_ratio


RUNS = {"serial": run_serial,
        "thread": lambda: run_service("thread"),
        "process": lambda: run_service("process")}


@pytest.fixture(scope="module", params=sorted(RUNS))
def routed(request):
    return RUNS[request.param]()


def test_every_finding_has_a_drift_helper():
    assert {CATALOG.get(f).platform for f in FINDINGS} \
        == {"ubuntu", "windows"}
    for finding_id in FINDINGS:
        host = build_fleet().host(host_name(finding_id))
        apply_drift(host, finding_id)
        failing = [f for f in CATALOG.finding_ids(host.os_family)
                   if CATALOG.get(f).instantiate(host).check()
                   is not CheckStatus.PASS]
        assert failing == [finding_id]


def test_each_drift_is_repaired_exactly_once(routed):
    incidents, posture = routed
    for finding_id in FINDINGS:
        assert effective_findings(
            incidents.get(host_name(finding_id), [])) == [finding_id]
    assert posture == 1.0


def test_each_drift_trips_only_the_detectors_of_its_object(routed):
    incidents, _ = routed
    for finding_id in FINDINGS:
        tripped = sorted(incident.req_id for incident
                         in incidents.get(host_name(finding_id), []))
        assert tripped == bound_detectors(finding_id)
        if CATALOG.get(finding_id).platform == "ubuntu":
            # seed-legacy's 14 bound findings: one object each.
            assert len(tripped) == 1


def test_detectors_watch_the_atom_the_drift_event_carries():
    for finding_id in FINDINGS:
        host = build_fleet().host(host_name(finding_id))
        apply_drift(host, finding_id)
        event = host.events.last("drift")
        atom = finding_atom(CATALOG, finding_id)
        assert atom in protection.event_step(event)
        assert event_atom(event.kind, event.payload) in (atom, None)


# -- the vocabulary ----------------------------------------------------------


def test_object_atoms_are_distinct_and_parse():
    assert mangle("rsh-server") != mangle("rsh_server")
    atom = event_atom("drift.config",
                      {"path": "/etc/ssh/sshd_config", "key": "Port"})
    assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", atom)
    assert parse_ltl(f"G !{atom}") == parse_ltl(f"G !{atom}")
    assert parse_ltl(f"G !{atom}").operand.operand == Atom(atom)
    # A path/key split is part of the object.
    assert atom != event_atom("drift.config",
                              {"path": "/etc/ssh", "key": "sshd_config/Port"})
    assert event_atom("drift.account", {"before": 3}) is None
    assert event_atom("drift.package", {}) is None


@given(st.text(), st.text())
def test_mangle_is_injective_into_identifier_characters(a, b):
    assert re.fullmatch(r"[A-Za-z0-9_]*", mangle(a))
    assert (mangle(a) == mangle(b)) == (a == b)


def test_disjunction_order_is_sorted():
    from repro.reqs.ir import Provenance, Requirement
    from repro.soc.rearm import drift_entry

    ubuntu = [f for f in FINDINGS if CATALOG.get(f).platform == "ubuntu"]
    host = hardened_ubuntu_host("u")
    atoms = sorted({finding_atom(CATALOG, f) for f in ubuntu})
    expected = parse_ltl("G !(" + " | ".join(atoms) + ")")
    for order in (ubuntu, ubuntu[::-1]):
        record = Requirement(
            rid="R", title="R", text="r", source="rqcode",
            bindings=tuple(order),
            provenance=(Provenance("test", "R", "test"),))
        assert drift_entry(record, host, CATALOG)[1].formula is expected


def test_catalogue_drift_atoms_fit_the_codec_headroom():
    catalogues = [CATALOG] + [get_scenario(name).build_fleet().catalog
                              for name in scenario_names()]
    atoms = {finding_atom(catalogue, finding_id)
             for catalogue in catalogues
             for finding_id in catalogue.finding_ids()}
    assert len(atoms) == 22
    assert len(atoms) <= ATOM_HEADROOM


def test_step_and_bit_memos_stay_bounded():
    """10,000 distinct drifted packages through the process backend's
    ingress: neither the (kind, object) step memo nor the step -> bits
    memo outgrows its cap."""
    host = hardened_ubuntu_host("memo")
    plans = {host.name: orchestrator().protection_plan(host)}
    service = SocService([host], CATALOG, plans, shards=1,
                         backend="process").start()
    try:
        for index in range(10_000):
            host.events.emit("drift.package", name=f"pkg-{index}")
            assert len(protection._OBJECT_STEPS) \
                <= protection.STEP_MEMO_LIMIT
        service.drain()
        assert len(service._proc.codec._bits_memo) <= codec.BITS_MEMO_LIMIT
    finally:
        service.stop()
    assert service.incidents() == []
    assert len(protection._OBJECT_STEPS) <= protection.STEP_MEMO_LIMIT
