"""The chaos harness: one reusable seeded scenario runner.

Tests, the E14 benchmark, and the CLI all need the same thing — "drive
a fleet drift storm through the SOC runtime with this fault plan, then
tell me what happened" — so the harness owns that shape once:

1. build a fleet of hardened hosts,
2. arm the SOC with a :class:`ChaosController` drawing from *plan*,
3. inject a deterministic noise-wrapped drift storm (drained between
   rounds so a host is never re-drifted mid-repair),
4. stop, run the reconcile sweep (the degradation ladder's last rung),
5. audit posture and check the conservation invariants.

Everything observable about the run comes back in a
:class:`ChaosRunResult`: the decision ledger digest (the replay
fingerprint), throughput figures, reconcile repairs, the invariant
report, and the final fleet posture.  Two calls with an identical plan
and scenario must agree on the digest byte-for-byte — that property is
itself under test.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.chaos.controller import CampaignController, ChaosController
from repro.chaos.invariants import (
    CampaignInvariantChecker,
    InvariantChecker,
    InvariantReport,
    StageWindow,
)
from repro.chaos.plan import Campaign, FaultPlan
from repro.core.fleet import Fleet
from repro.environment import hardened_ubuntu_host
from repro.rqcode import default_catalog
from repro.soc.service import SocService

#: Packages cycled through the drift storm (all STIG-prohibited).
DRIFT_PACKAGES = ("nis", "rsh-server", "telnetd")


@dataclass
class ChaosRunResult:
    """Everything observable about one chaos scenario run."""

    plan: FaultPlan
    service: SocService
    fleet: Fleet
    drifts: int                       # drift injections performed
    events_emitted: int               # scenario events (noise + drift)
    storm_seconds: float              # emission through drain barrier
    reconcile_repairs: int
    injections: int                   # faults that actually fired
    decisions: Dict[str, str] = field(default_factory=dict)
    digest: str = ""
    invariants: Optional[InvariantReport] = None
    posture_ratio: float = 0.0        # worst-host compliance after run

    @property
    def fully_repaired(self) -> bool:
        """100% eventual repair coverage: every host fully compliant."""
        return self.posture_ratio >= 1.0

    def signature(self) -> List[tuple]:
        """Order-stable incident fingerprint for replay comparison."""
        return sorted(
            (incident.req_id, incident.detected_at,
             incident.trigger_kind,
             tuple((r.finding_id, r.status.value, r.detail)
                   for r in incident.repairs))
            for incident in self.service.incidents())


def build_chaos_fleet(hosts: int = 4, name: str = "chaos") -> Fleet:
    """A fleet of hardened Ubuntu hosts for chaos scenarios."""
    fleet = Fleet(name, default_catalog())
    for index in range(hosts):
        fleet.add(hardened_ubuntu_host(f"{name}-{index:02d}"))
    return fleet


def inject_storm(fleet: Fleet, service: SocService,
                 rounds: int = 2, noise_per_drift: int = 3) -> int:
    """Noise-wrapped drift on every host, drained between rounds.

    The per-round drain pins every event timestamp to the scenario (a
    host is never re-drifted while its own repair is in flight), which
    is what lets content-keyed chaos decisions replay exactly.
    """
    drifts = 0
    for round_index in range(rounds):
        for host_index, host in enumerate(fleet.hosts()):
            for _ in range(noise_per_drift):
                host.events.emit("app.heartbeat")
            host.drift_install_package(
                DRIFT_PACKAGES[(round_index + host_index)
                               % len(DRIFT_PACKAGES)])
            drifts += 1
        service.drain()
    return drifts


def run_chaos_scenario(plan: FaultPlan,
                       hosts: int = 4,
                       rounds: int = 2,
                       noise_per_drift: int = 3,
                       shards: int = 4,
                       seed: int = 0,
                       queue_capacity: int = 1024,
                       reconcile: bool = True,
                       check_invariants: bool = True,
                       **soc_kwargs) -> ChaosRunResult:
    """Run one seeded chaos scenario end to end (see module docstring).

    The *plan*'s own ``queue_capacity`` (when set) overrides the
    default passed here; all faults derive from the plan's seed, the
    scenario itself from the arguments — same arguments + same plan =
    same run, byte for byte.  Extra keyword arguments pass through to
    :class:`~repro.soc.service.SocService` (retry schedule, supervisor
    interval, ...); none of them may change fault decisions, only how
    fast the runtime digests them.
    """
    fleet = build_chaos_fleet(hosts=hosts)
    controller = ChaosController(plan)
    service = fleet.arm_soc(shards=shards, seed=seed, chaos=controller,
                            queue_capacity=queue_capacity, **soc_kwargs)
    try:
        started = time.perf_counter()
        drifts = inject_storm(fleet, service, rounds=rounds,
                              noise_per_drift=noise_per_drift)
        storm_seconds = time.perf_counter() - started
    finally:
        service.stop()
    repaired = service.reconcile() if reconcile else 0
    posture = fleet.audit()
    result = ChaosRunResult(
        plan=plan,
        service=service,
        fleet=fleet,
        drifts=drifts,
        # Per drift: noise heartbeats + package.installed + drift marker.
        events_emitted=drifts * (noise_per_drift + 2),
        storm_seconds=storm_seconds,
        reconcile_repairs=repaired,
        injections=controller.injection_count(),
        decisions=controller.decisions(),
        digest=controller.decisions_digest(),
        posture_ratio=posture.worst_ratio,
    )
    if check_invariants:
        result.invariants = InvariantChecker().check(service)
    return result


@dataclass
class CampaignRunResult:
    """Everything observable about one campaign run."""

    campaign: Campaign
    service: SocService
    fleet: Fleet
    drifts: int
    events_emitted: int
    storm_seconds: float
    reconcile_repairs: int
    injections: int
    stage_windows: List[StageWindow] = field(default_factory=list)
    decisions: Dict[str, str] = field(default_factory=dict)
    digest: str = ""
    invariants: Optional[InvariantReport] = None
    #: The per-stage detection/repair sweep (CampaignInvariantChecker).
    stage_invariants: Optional[InvariantReport] = None
    posture_ratio: float = 0.0

    @property
    def rounds_run(self) -> int:
        return sum(window.rounds for window in self.stage_windows)

    @property
    def fully_repaired(self) -> bool:
        return self.posture_ratio >= 1.0

    def stage_summary(self) -> List[Dict[str, object]]:
        """Plain-data per-stage rows (CLI tables, bench JSON)."""
        return [{"stage": window.stage,
                 "rounds": window.rounds,
                 "targets": len(window.targets),
                 "injections": len(window.decisions)}
                for window in self.stage_windows]

    def signature(self) -> List[tuple]:
        """Order-stable incident fingerprint for replay comparison."""
        return sorted(
            (incident.req_id, incident.detected_at,
             incident.trigger_kind,
             tuple((r.finding_id, r.status.value, r.detail)
                   for r in incident.repairs))
            for incident in self.service.incidents())


def default_drift(host, round_index: int, host_index: int) -> None:
    """The harness's stock drift: rotate the prohibited packages."""
    host.drift_install_package(
        DRIFT_PACKAGES[(round_index + host_index) % len(DRIFT_PACKAGES)])


def run_campaign(campaign: Campaign,
                 fleet: Optional[Fleet] = None,
                 hosts: int = 4,
                 noise_per_drift: int = 3,
                 shards: int = 4,
                 seed: int = 0,
                 queue_capacity: int = 1024,
                 reconcile: bool = True,
                 check_invariants: bool = True,
                 drift: Optional[Callable] = None,
                 **soc_kwargs) -> CampaignRunResult:
    """Run one compiled campaign end to end, stage by stage.

    Each stage drives drift rounds against its target hosts (noise
    heartbeats keep flowing fleet-wide — background traffic does not
    pause for an attack), drained between rounds exactly like
    :func:`run_chaos_scenario`, so every fault decision stays a pure
    function of the campaign seed and event content.  Stage lengths
    beyond the mandatory rounds are seeded extension draws
    (:meth:`~repro.chaos.controller.CampaignController.
    stage_should_extend`); stage boundaries snapshot host clocks into
    :class:`~repro.chaos.invariants.StageWindow` records so the
    per-stage detection/repair sweep can attribute every event.

    *drift* overrides how a target host is drifted — it receives
    ``(host, round_index_in_stage, host_index)`` and must inject one
    drift appropriate to the host (mixed-platform topology fleets pass
    a platform-aware injector); the default rotates the prohibited
    packages exactly like :func:`inject_storm`.

    Same campaign + same fleet/arguments = byte-identical decision
    digest — the replay property the campaign determinism tests pin.
    """
    fleet = fleet if fleet is not None else build_chaos_fleet(hosts=hosts)
    drift = drift if drift is not None else default_drift
    controller = CampaignController(campaign)
    service = fleet.arm_soc(shards=shards, seed=seed, chaos=controller,
                            queue_capacity=queue_capacity, **soc_kwargs)
    windows: List[StageWindow] = []
    drifts_total = 0
    try:
        started = time.perf_counter()
        while True:
            stage = controller.stage
            all_hosts = fleet.hosts()
            targets = [host for host in all_hosts
                       if not stage.target_hosts
                       or host.name in stage.target_hosts]
            start_clocks = {host.name: host.events.clock
                            for host in all_hosts}
            rounds_in_stage = 0
            while True:
                for host in all_hosts:
                    for _ in range(noise_per_drift):
                        host.events.emit("app.heartbeat")
                for host_index, host in enumerate(targets):
                    drift(host, rounds_in_stage, host_index)
                    drifts_total += 1
                service.drain()
                rounds_in_stage += 1
                if not controller.stage_should_extend(rounds_in_stage):
                    break
            windows.append(StageWindow(
                stage=stage.name,
                index=controller.stage_index,
                targets=tuple(host.name for host in targets),
                rounds=rounds_in_stage,
                clocks={host.name: (start_clocks[host.name],
                                    host.events.clock)
                        for host in all_hosts},
            ))
            if not controller.advance_stage():
                break
        storm_seconds = time.perf_counter() - started
    finally:
        service.stop()
    repaired = service.reconcile() if reconcile else 0
    for window, ledger in zip(windows, controller.stage_decisions()):
        window.decisions = ledger
    posture = fleet.audit()
    rounds_run = sum(window.rounds for window in windows)
    result = CampaignRunResult(
        campaign=campaign,
        service=service,
        fleet=fleet,
        drifts=drifts_total,
        # Per round: fleet-wide noise; per drift: install + marker.
        events_emitted=(rounds_run * len(fleet.hosts()) * noise_per_drift
                        + drifts_total * 2),
        storm_seconds=storm_seconds,
        reconcile_repairs=repaired,
        injections=controller.injection_count(),
        stage_windows=windows,
        decisions=controller.decisions(),
        digest=controller.decisions_digest(),
        posture_ratio=posture.worst_ratio,
    )
    if check_invariants:
        result.invariants = InvariantChecker().check(service)
        result.stage_invariants = CampaignInvariantChecker().check(
            service, windows)
    return result
