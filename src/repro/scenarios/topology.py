"""Zones-and-conduits topology generator (IEC 62443-3-2 shape).

IEC 62443 partitions a system under consideration into *zones* —
groupings of assets sharing a security level — connected by
*conduits*, the communication channels whose boundary protections SR
5.1/SR 5.2 mandate.  This module maps that structure onto the
simulated estate: a seeded generator draws a zone graph from realistic
templates (enterprise IT down to control systems), populates each
zone with mixed Win10/Ubuntu hosts built from the environment
profiles, and derives **conduit-aware routing hints** — a host→shard
placement that keeps a zone's event traffic on as few SOC shards as
possible, so cross-zone interleaving inside one shard (the expensive
kind to reason about in an investigation) is minimized.

Everything is a pure function of the seed: the same seed always
yields the same zones, hosts, conduits, and hints.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.fleet import Fleet
from repro.environment.profiles import (
    default_ubuntu_host,
    default_windows_host,
    hardened_ubuntu_host,
    hardened_windows_host,
)
from repro.standards.iec62443 import SecurityLevel

#: Zone templates in conduit (depth) order: enterprise IT at the top,
#: safety systems at the bottom.  ``windows_ratio`` is the typical
#: Win10 share of the zone; hosts/ratio get seeded jitter around it.
ZONE_TEMPLATES: Tuple[Tuple[str, SecurityLevel, float], ...] = (
    ("enterprise", SecurityLevel.SL1, 0.75),
    ("dmz", SecurityLevel.SL2, 0.50),
    ("operations", SecurityLevel.SL2, 0.25),
    ("control", SecurityLevel.SL3, 0.00),
    ("safety", SecurityLevel.SL4, 0.00),
)


@dataclass(frozen=True)
class Zone:
    """One IEC 62443 zone: a named SL boundary around hosts."""

    name: str
    level: SecurityLevel
    hosts: Tuple[str, ...]

    @property
    def host_count(self) -> int:
        return len(self.hosts)


@dataclass(frozen=True)
class Conduit:
    """A sanctioned communication channel between two zones.

    ``boundary_srs`` names the IEC 62443-3-3 requirements the conduit
    realizes (network segmentation / zone boundary protection).
    """

    source: str
    dest: str
    boundary_srs: Tuple[str, ...] = ("SR 5.1", "SR 5.2")


@dataclass
class FleetTopology:
    """A generated zones-and-conduits estate plus its fleet."""

    name: str
    seed: int
    fleet: Fleet
    zones: Tuple[Zone, ...]
    conduits: Tuple[Conduit, ...]
    zone_of: Dict[str, str] = field(default_factory=dict)

    @property
    def host_count(self) -> int:
        return sum(zone.host_count for zone in self.zones)

    def zone(self, name: str) -> Zone:
        for zone in self.zones:
            if zone.name == name:
                return zone
        raise KeyError(f"no zone {name!r}; zones: "
                       f"{[z.name for z in self.zones]}")

    def shard_hints(self, shards: int) -> Dict[str, int]:
        """Conduit-aware host→shard placement for the SOC.

        Zones are walked in conduit (depth) order and their hosts
        assigned to shards chunk-wise, so a zone's hosts land on one
        shard (or adjacent shards when the zone overflows the ideal
        per-shard load).  Cross-zone mixing inside a shard only
        happens where two zones share a conduit boundary — the hint
        the SOC sharder can exploit to keep correlated traffic local.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        total = self.host_count
        ideal = max(1, -(-total // shards))     # ceil division
        hints: Dict[str, int] = {}
        shard = 0
        load = 0
        for zone in self.zones:
            for host_name in zone.hosts:
                if load >= ideal and shard < shards - 1:
                    shard += 1
                    load = 0
                hints[host_name] = shard
                load += 1
        return hints

    def shard_census(self, shards: int) -> Dict[int, Dict[str, int]]:
        """shard -> {zone: host count} under :meth:`shard_hints`."""
        census: Dict[int, Dict[str, int]] = {}
        for host_name, shard in self.shard_hints(shards).items():
            zone = self.zone_of[host_name]
            census.setdefault(shard, {})
            census[shard][zone] = census[shard].get(zone, 0) + 1
        return census

    def validate(self) -> List[str]:
        """Structural problems (empty list = a valid topology)."""
        problems: List[str] = []
        if not self.zones:
            problems.append("topology has no zones")
        fleet_hosts = {host.name for host in self.fleet.hosts()}
        zoned_hosts = [h for zone in self.zones for h in zone.hosts]
        if len(zoned_hosts) != len(set(zoned_hosts)):
            problems.append("a host appears in more than one zone")
        if set(zoned_hosts) != fleet_hosts:
            problems.append(
                f"zone membership and fleet disagree: "
                f"{sorted(set(zoned_hosts) ^ fleet_hosts)}")
        zone_names = {zone.name for zone in self.zones}
        for conduit in self.conduits:
            for end in (conduit.source, conduit.dest):
                if end not in zone_names:
                    problems.append(
                        f"conduit {conduit.source}->{conduit.dest} "
                        f"references unknown zone {end!r}")
        for zone in self.zones:
            if not zone.hosts:
                problems.append(f"zone {zone.name!r} has no hosts")
        reachable = set()
        if self.zones:
            frontier = [self.zones[0].name]
            edges = {(c.source, c.dest) for c in self.conduits}
            edges |= {(d, s) for s, d in edges}
            while frontier:
                current = frontier.pop()
                if current in reachable:
                    continue
                reachable.add(current)
                frontier.extend(d for s, d in edges if s == current)
        isolated = zone_names - reachable
        if isolated:
            problems.append(f"zone(s) unreachable through conduits: "
                            f"{sorted(isolated)}")
        return problems

    def describe(self) -> str:
        zones = ", ".join(
            f"{zone.name}(SL{zone.level.value}, {zone.host_count} hosts)"
            for zone in self.zones)
        return (f"topology {self.name!r} seed {self.seed}: {zones}; "
                f"{len(self.conduits)} conduit(s)")


def _host_factory(level: SecurityLevel, platform: str):
    """Profile choice per zone SL: low-SL zones run stock images,
    SL3+ zones start from the hardened profiles."""
    if platform == "windows":
        return (hardened_windows_host if level >= SecurityLevel.SL3
                else default_windows_host)
    return (hardened_ubuntu_host if level >= SecurityLevel.SL3
            else default_ubuntu_host)


def generate_topology(seed: int,
                      hosts: int = 8,
                      zones: Optional[int] = None,
                      name: Optional[str] = None,
                      catalog=None,
                      harden: bool = True) -> FleetTopology:
    """Generate one seeded zones-and-conduits estate.

    Draws a zone count (3–5 unless pinned), distributes the *hosts*
    budget across the selected :data:`ZONE_TEMPLATES` (every zone gets
    at least one host), jitters each zone's Win10 share around its
    template ratio, and strings conduits down the zone chain plus —
    on some seeds — one lateral maintenance conduit.  With *harden*
    (the default) the fleet is brought to full compliance after
    construction, so generated estates are valid starting points for
    drift-storm scenarios regardless of the zone's stock image.
    """
    from repro.rqcode.catalog import default_catalog

    rng = random.Random(f"topology:{seed}")
    zone_count = zones if zones is not None else rng.randint(3, 5)
    zone_count = max(1, min(zone_count, len(ZONE_TEMPLATES)))
    templates = ZONE_TEMPLATES[:zone_count]
    if hosts < zone_count:
        raise ValueError(f"need at least {zone_count} hosts for "
                         f"{zone_count} zones, got {hosts}")

    # Host budget: one guaranteed per zone, remainder seeded.
    counts = [1] * zone_count
    for _ in range(hosts - zone_count):
        counts[rng.randrange(zone_count)] += 1

    topology_name = name or f"zoned-{seed}"
    fleet = Fleet(topology_name,
                  catalog if catalog is not None else default_catalog())
    built_zones: List[Zone] = []
    zone_of: Dict[str, str] = {}
    for index, ((zone_name, level, ratio), count) in enumerate(
            zip(templates, counts)):
        jitter = rng.uniform(-0.15, 0.15)
        share = min(1.0, max(0.0, ratio + jitter))
        windows_count = round(count * share)
        members: List[str] = []
        for host_index in range(count):
            platform = ("windows" if host_index < windows_count
                        else "ubuntu")
            factory = _host_factory(level, platform)
            short = "win" if platform == "windows" else "ubu"
            host_name = (f"z{index}-{zone_name}-{short}"
                         f"-{host_index:02d}")
            fleet.add(factory(host_name))
            members.append(host_name)
            zone_of[host_name] = zone_name
        built_zones.append(Zone(zone_name, level, tuple(members)))

    conduits = [Conduit(a.name, b.name)
                for a, b in zip(built_zones, built_zones[1:])]
    if len(built_zones) >= 3 and rng.random() < 0.5:
        # A lateral maintenance conduit skipping one boundary — the
        # kind of path a segmentation audit exists to find.
        conduits.append(Conduit(built_zones[0].name,
                                built_zones[2].name))

    if harden:
        fleet.harden()
    return FleetTopology(
        name=topology_name,
        seed=seed,
        fleet=fleet,
        zones=tuple(built_zones),
        conduits=tuple(conduits),
        zone_of=zone_of,
    )
