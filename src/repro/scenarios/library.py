"""Named, seeded scenarios: one spec behind every bench.

A :class:`Scenario` bundles everything a benchmark used to hardcode as
module-level fixtures — the fleet (flat legacy node farm or a generated
zones-and-conduits estate), the natural-language requirement feed, the
software inventory the vulndb scan runs against, the drift rotation a
storm cycles through, and the compiled attack :class:`~repro.chaos.
plan.Campaign` — keyed by one name and one seed.  Benches that used to
say "32 hardened nodes, these 4 drifts" now say
``get_scenario("seed-legacy")``; runs against other named scenarios are
one string away, and every derived artifact is a pure function of the
scenario seed.

The pinned ``seed-legacy`` scenario reproduces the fixtures the benches
shipped with byte-for-byte (same host names, same drift rotation, same
NL statements, same inventory), so the checked-in BENCH_* figures stay
comparable across the refactor.  It is the library's reference
oracle: the fidelity suite pins it to those fixtures, and it is kept
for that role, not as one more scenario.  The generated scenarios draw a zoned
IEC 62443 estate from :func:`~repro.scenarios.topology.
generate_topology` and compile a recon → exploit → persist campaign
whose stage targets follow the zone structure.
"""

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.plan import Campaign, CampaignStage, FaultPlan
from repro.core.fleet import Fleet
from repro.environment.profiles import hardened_ubuntu_host
from repro.scenarios.catalogues import patterns_for_stage
from repro.scenarios.topology import FleetTopology, generate_topology

#: The drift rotation the legacy benches cycled (E12's exact tuple:
#: three prohibited installs plus one mandated-package removal).
LEGACY_DRIFTS: Tuple[Tuple[str, str], ...] = (
    ("install", "nis"),
    ("install", "rsh-server"),
    ("install", "telnetd"),
    ("remove", "aide"),
)

#: Windows hosts drift by audit-policy tampering, not package installs.
#: Every subcategory here is one the armed STIG findings actually check
#: (Logon, User Account Management, Sensitive Privilege Use) — a drift
#: outside that set would be detected but its repair would find nothing
#: to enforce, leaving the tampering in place.
WINDOWS_DRIFT_SUBCATEGORIES: Tuple[str, ...] = (
    "Logon", "User Account Management", "Sensitive Privilege Use",
)

#: E1's exact NL feed (the DATE paper's elicitation examples).
LEGACY_NL_REQUIREMENTS: Tuple[str, ...] = (
    "The authentication service shall lock the account.",
    "When 3 consecutive failures occur, the session manager shall "
    "alert the operator within 5 seconds.",
    "The audit subsystem shall not transmit passwords.",
)

#: E1's exact reference inventory (known-vulnerable pins).
LEGACY_INVENTORY: Tuple[Tuple[str, str], ...] = (
    ("openssh-server", "7.6"),
    ("bash", "4.3"),
    ("openssl", "1.0.1f"),
)

#: RESA-matchable statements generated scenarios draw their NL feed
#: from (every template lowers through the resa boilerplates).
NL_TEMPLATE_POOL: Tuple[str, ...] = LEGACY_NL_REQUIREMENTS + (
    "The system shall log every authentication failure.",
    "While in maintenance mode, the system shall disable remote logins.",
    "The system shall encrypt all stored credentials.",
    "If an intrusion is detected, the system shall alert the operator.",
)

#: Product pins generated scenarios draw inventories from.  The first
#: three match bundled CVEs; the rest are clean pins (a realistic scan
#: mixes vulnerable and healthy software).
INVENTORY_POOL: Tuple[Tuple[str, str], ...] = LEGACY_INVENTORY + (
    ("curl", "8.5.0"),
    ("nginx", "1.24.0"),
)


class ScenarioError(KeyError):
    """An unknown scenario name was requested."""


@dataclass(frozen=True)
class Scenario:
    """One named, seeded bench scenario (see module docstring).

    ``zones is None`` marks the legacy shape: a flat fleet of hardened
    Ubuntu nodes named ``{prefix}-{index:02d}``, exactly what the
    benches built by hand.  With ``zones`` set, the fleet (and the
    campaign's stage targets) come from the seeded zones-and-conduits
    generator instead.
    """

    name: str
    seed: int
    summary: str
    hosts: int = 4
    zones: Optional[int] = None
    drifts: Tuple[Tuple[str, str], ...] = LEGACY_DRIFTS
    nl_requirements: Tuple[str, ...] = LEGACY_NL_REQUIREMENTS
    inventory: Tuple[Tuple[str, str], ...] = LEGACY_INVENTORY

    @property
    def generated(self) -> bool:
        return self.zones is not None

    @property
    def kind(self) -> str:
        return "generated" if self.generated else "legacy"

    # -- fleet ----------------------------------------------------------------

    def topology(self, hosts: Optional[int] = None) -> FleetTopology:
        """The scenario's zoned estate (generated scenarios only)."""
        if not self.generated:
            raise ValueError(
                f"scenario {self.name!r} is a legacy flat fleet; "
                f"it has no zones-and-conduits topology")
        return generate_topology(self.seed,
                                 hosts=hosts or self.hosts,
                                 zones=self.zones,
                                 name=self.name)

    def build_fleet(self, hosts: Optional[int] = None,
                    prefix: str = "node",
                    name: Optional[str] = None,
                    catalog=None) -> Fleet:
        """The scenario's fleet.

        Legacy: ``hosts`` hardened Ubuntu nodes named
        ``{prefix}-{index:02d}`` — byte-identical to the fixture fleets
        the benches used to build inline.  Generated: the topology's
        mixed-platform zoned fleet (*prefix* does not apply there; zone
        membership names the hosts).
        """
        if self.generated:
            return self.topology(hosts=hosts).fleet
        from repro.rqcode.catalog import default_catalog

        fleet = Fleet(name or self.name,
                      catalog if catalog is not None else default_catalog())
        for index in range(hosts or self.hosts):
            fleet.add(hardened_ubuntu_host(f"{prefix}-{index:02d}"))
        return fleet

    def build_hosts(self, hosts: Optional[int] = None,
                    prefix: str = "node") -> List:
        """The scenario's hosts as a bare list (no fleet wrapper) —
        what benches that drive :class:`~repro.soc.service.SocService`
        directly consume.  Same naming contract as
        :meth:`build_fleet`."""
        if self.generated:
            return self.topology(hosts=hosts).fleet.hosts()
        return [hardened_ubuntu_host(f"{prefix}-{index:02d}")
                for index in range(hosts or self.hosts)]

    def shard_hints(self, shards: int) -> Optional[Dict[str, int]]:
        """Conduit-aware SOC placement (None for legacy fleets, which
        keep the hash ring's default spread)."""
        if not self.generated:
            return None
        return self.topology().shard_hints(shards)

    # -- drift schedule -------------------------------------------------------

    def drift_for(self, round_index: int,
                  host_index: int) -> Tuple[str, str]:
        """The (action, argument) this storm slot injects."""
        return self.drifts[(round_index + host_index) % len(self.drifts)]

    def apply_drift(self, host, round_index: int, host_index: int) -> None:
        """Inject one platform-appropriate drift on *host*.

        Ubuntu hosts follow the scenario's package rotation; Windows
        hosts (generated estates mix platforms) tamper with audit
        policy, the drift class their catalogue findings watch.  Only
        the Success flag is cleared: each rotation subcategory pairs a
        success-only with a failure-only finding, and a full clear
        would make both repairs effective — two effective repairs for
        one drift event, which the chaos conservation invariants
        rightly reject.
        """
        if host.os_family == "windows":
            host.drift_audit_policy(
                WINDOWS_DRIFT_SUBCATEGORIES[
                    (round_index + host_index)
                    % len(WINDOWS_DRIFT_SUBCATEGORIES)],
                clear_failure=False)
            return
        action, package = self.drift_for(round_index, host_index)
        if action == "install":
            host.drift_install_package(package)
        else:
            host.drift_remove_package(package)

    # -- fault plans and campaigns -------------------------------------------

    def fault_plan(self, rate: float = 0.0, **overrides) -> FaultPlan:
        """Every fault site at *rate*, seeded by the scenario.

        Stall knobs are pinned to zero (the E14 convention: measure
        the runtime's degradation machinery, not configured sleeps);
        *overrides* adjust individual fields on top.
        """
        settings = dict(
            seed=self.seed,
            worker_crash=rate,
            worker_hang=rate,
            session_error=rate,
            repair_raise=rate,
            repair_noop=rate,
            event_duplicate=rate,
            event_reorder=rate,
            event_delay=rate,
            config_slow=rate,
            hang_seconds=0.0,
            delay_seconds=0.0,
            config_delay_seconds=0.0,
        )
        settings.update(overrides)
        return FaultPlan(**settings)

    def compile_campaign(self) -> Campaign:
        """Compile the scenario's attack campaign.

        Legacy: one untargeted fault-free "storm" stage — the flat
        drift storm the old benches ran, expressed in campaign form.
        Generated: a recon → exploit → persist schedule whose stage
        targets walk the zone structure outward-in (recon touches the
        outermost zone, exploit the middle, persistence the deepest),
        each stage annotated with CAPEC patterns from the bundled
        catalogue and running a seeded low-rate fault mix.  Pure
        function of the scenario — compiling twice yields equal
        campaigns, which is what the replay tests lean on.
        """
        if not self.generated:
            return Campaign(
                name=f"{self.name}-storm",
                seed=self.seed,
                stages=(CampaignStage(name="storm",
                                      plan=self.fault_plan(0.0)),),
            )
        topology = self.topology()
        zone_targets = [zone.hosts for zone in topology.zones]
        # Outermost, middle, and deepest zones take the three phases.
        picks = (zone_targets[0],
                 zone_targets[len(zone_targets) // 2],
                 zone_targets[-1])
        rng = random.Random(f"scenario:{self.seed}:campaign")
        stages = []
        for stage_name, targets in zip(("recon", "exploit", "persist"),
                                       picks):
            patterns = patterns_for_stage(stage_name)
            chosen = rng.sample([p.capec_id for p in patterns],
                                k=min(2, len(patterns)))
            rate = round(rng.uniform(0.01, 0.05), 3)
            stages.append(CampaignStage(
                name=stage_name,
                plan=self.fault_plan(rate),
                capec_ids=tuple(sorted(chosen)),
                target_hosts=tuple(targets),
                rounds=rng.randint(1, 2),
                extend_rate=round(rng.uniform(0.0, 0.5), 3),
                max_extra_rounds=1,
            ))
        return Campaign(name=f"{self.name}-campaign", seed=self.seed,
                        stages=tuple(stages))

    # -- pipeline inputs ------------------------------------------------------

    def inventory_for(self, host_name: str, platform: str):
        """The scenario's software inventory as a scan input."""
        from repro.vulndb import SoftwareInventory

        return SoftwareInventory.of(host_name, platform,
                                    dict(self.inventory))

    # -- presentation ---------------------------------------------------------

    def describe(self) -> str:
        shape = (f"{self.zones} zones" if self.generated
                 else "flat legacy fleet")
        return (f"scenario {self.name!r} seed {self.seed}: "
                f"{self.hosts} hosts, {shape}; "
                f"{len(self.drifts)} drift rotation(s), "
                f"{len(self.nl_requirements)} NL statement(s)")

    def to_dict(self) -> Dict[str, object]:
        """The full machine-readable scenario (``repro scenarios
        emit``): parameters, compiled campaign, and — for generated
        scenarios — the zone/conduit structure and shard hints."""
        document: Dict[str, object] = {
            "name": self.name,
            "seed": self.seed,
            "kind": self.kind,
            "summary": self.summary,
            "hosts": self.hosts,
            "zones": self.zones,
            "drifts": [list(pair) for pair in self.drifts],
            "nl_requirements": list(self.nl_requirements),
            "inventory": {name: version
                          for name, version in self.inventory},
            "campaign": self.compile_campaign().to_dict(),
        }
        if self.generated:
            topology = self.topology()
            document["topology"] = {
                "zones": [{"name": zone.name,
                           "level": int(zone.level),
                           "hosts": list(zone.hosts)}
                          for zone in topology.zones],
                "conduits": [{"source": c.source, "dest": c.dest,
                              "boundary_srs": list(c.boundary_srs)}
                             for c in topology.conduits],
                "shard_hints": topology.shard_hints(4),
            }
        return document


#: The scenario registry.  ``seed-legacy`` pins the pre-refactor bench
#: fixtures; the generated trio spans small/medium/deep estates.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario(
            name="seed-legacy",
            seed=14,
            summary="the pre-scenario bench fixtures, pinned: flat "
                    "hardened-Ubuntu node farm, E12's drift rotation, "
                    "E1's NL statements and reference inventory",
            hosts=32,
        ),
        Scenario(
            name="zoned-perimeter",
            seed=11,
            summary="small 3-zone estate (enterprise/dmz/operations); "
                    "campaign works the perimeter zones",
            hosts=9,
            zones=3,
        ),
        Scenario(
            name="zoned-depth",
            seed=23,
            summary="4-zone estate reaching the control zone; "
                    "persistence stage lands past the SL3 boundary",
            hosts=12,
            zones=4,
            nl_requirements=(NL_TEMPLATE_POOL[3], NL_TEMPLATE_POOL[4],
                             NL_TEMPLATE_POOL[0]),
            inventory=(INVENTORY_POOL[0], INVENTORY_POOL[2],
                       INVENTORY_POOL[3]),
        ),
        Scenario(
            name="zoned-estate",
            seed=47,
            summary="full 5-zone estate down to safety systems; the "
                    "widest fleet the generated scenarios produce",
            hosts=15,
            zones=5,
            drifts=(("install", "telnetd"), ("remove", "aide"),
                    ("install", "nis")),
            nl_requirements=(NL_TEMPLATE_POOL[5], NL_TEMPLATE_POOL[6],
                             NL_TEMPLATE_POOL[1]),
            inventory=(INVENTORY_POOL[1], INVENTORY_POOL[2],
                       INVENTORY_POOL[4]),
        ),
    )
}


def scenario_names() -> List[str]:
    """Registered scenario names, ``seed-legacy`` first."""
    names = sorted(SCENARIOS)
    names.remove("seed-legacy")
    return ["seed-legacy"] + names


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"no scenario {name!r}; registered: "
            f"{', '.join(scenario_names())}")


def generated_scenarios() -> List[Scenario]:
    """The generated (non-legacy) scenarios, name-ordered."""
    return [SCENARIOS[name] for name in scenario_names()
            if SCENARIOS[name].generated]
