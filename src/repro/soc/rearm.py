"""Live delta re-arming: stream deltas onto a running SOC, no restarts.

The cold path re-arms a fleet by tearing the whole service down and
rebuilding every monitor bank from scratch (``arm_soc``) — O(fleet)
work and a protection gap for every requirement, even the unchanged
ones.  This module applies a :class:`~repro.reqs.stream.StreamDelta`
to a *running* :class:`~repro.soc.service.SocService` instead:

* only the **affected** hosts' banks are touched, and only the
  affected requirements within them — sessions for unchanged
  requirements keep their obligation state;
* on the **thread backend** each host's patch is a
  :class:`~repro.soc.sessions.SessionPatch`, and one
  :class:`~repro.soc.sessions.ShardPatch` per shard carries them.  A
  shard with events queued or in flight gets the item queued behind
  them; an idle shard gets it applied in place, under its queue lock
  (:meth:`~repro.soc.queues.ShardQueue.run_if_idle`), with no worker
  wake-up.  Either way the patch is totally ordered against the
  host's events (events before it see the old bank, events after the
  new one — nothing is dropped or double-processed);
* on the **process backend** the patch ships as a manifest-delta
  REARM message over the existing binary event plane
  (:meth:`~repro.soc.procplane.backend.ProcessBackend.rearm`) with the
  same in-stream ordering guarantee;
* whether a changed requirement keeps its obligation state is decided
  by hash-consed formula identity: ``new.formula is old.formula``
  (interning makes it one pointer compare) means only the bindings
  moved — a rebind, state kept; a different formula re-arms fresh.

The planning half (:func:`monitor_entries`, :func:`plan_for_records`)
arms drift detectors through :func:`drift_entry`, the rule
:meth:`~repro.core.orchestrator.VeriDevOpsOrchestrator.protection_plan`
calls too, so a delta-re-armed service and a cold service armed from
the same final IR set hold identical monitor sets — the equivalence
the E18 property test pins down.

Planning happens once per delta record per **platform**, not per
host: a plan reads nothing of a host but its ``os_family``, so the
Rearmer plans each record on one host of each platform, and folds the
delta's per-platform diffs into one patch template per platform (its
adds, removes and rebinds, in delta order).  Each host's patch is read
off its platform's template: the remove and rebind tuples are shared
by every host of the platform.  Monitors are the exception: they carry
per-host obligation state, so each host that gets one gets a fresh
:class:`~repro.ltl.compile.CompiledMonitor` of its own — no monitor
object is ever shared between two hosts.
LTL texts are parsed once per process (``parse_ltl`` is memoized), so
the cold per-host :func:`plan_for_records` is cheap too.
"""

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.orchestrator import _event_compatible
from repro.core.repository import FRONTEND_SOURCES, RequirementSource
from repro.ltl.compile import CompiledMonitor
from repro.ltl.formulas import Formula
from repro.ltl.parser import parse_ltl
from repro.reqs.ir import Requirement
from repro.reqs.stream import StreamDelta
from repro.soc.queues import QueueClosed
from repro.soc.sessions import SessionPatch, ShardPatch
from repro.soc.workers import apply_shard_patch

@functools.lru_cache(maxsize=1)
def _drift_kinds() -> Tuple[Tuple[type, str], ...]:
    """The rqcode pattern classes and the drift kind each one watches,
    in precedence order.  Resolved once, on first use: importing
    :mod:`repro.rqcode` at module load would close an import cycle."""
    from repro.rqcode.ubuntu import (
        UbuntuConfigPattern,
        UbuntuPackagePattern,
        UbuntuServicePattern,
    )
    from repro.rqcode.win10 import AuditPolicyRequirement
    from repro.rqcode.win10_accounts import AccountPolicyRequirement
    from repro.rqcode.win10_registry import RegistryValueRequirement

    return ((UbuntuPackagePattern, "drift.package"),
            (UbuntuConfigPattern, "drift.config"),
            (UbuntuServicePattern, "drift.service"),
            (AuditPolicyRequirement, "drift.audit"),
            (RegistryValueRequirement, "drift.registry"),
            (AccountPolicyRequirement, "drift.account"))


def drift_atom(catalog, finding_ids: Sequence[str]) -> str:
    """The drift-event kind a finding set's monitor should watch.

    Package findings care about ``drift.package``, configuration
    findings about ``drift.config``, and so on; mixed or unknown
    shapes fall back to the coarse ``drift`` prefix.
    """
    drift_kinds = _drift_kinds()
    kinds = set()
    for finding_id in finding_ids:
        cls = catalog.get(finding_id).requirement_class
        for pattern_class, kind in drift_kinds:
            if issubclass(cls, pattern_class):
                kinds.add(kind)
                break
    if len(kinds) == 1:
        return kinds.pop()
    return "drift"


Entry = Tuple[str, CompiledMonitor, Tuple[str, ...]]

#: Front-end names whose records are standard-sourced, read off
#: :data:`~repro.core.repository.FRONTEND_SOURCES`.
_STANDARD_FRONTENDS = frozenset(
    name for name, source in FRONTEND_SOURCES.items()
    if source is RequirementSource.STANDARD)


def drift_entry(record: Requirement, host, catalog) -> Optional[Entry]:
    """The drift detector arming *record* on *host*, if any.

    A standard-sourced record bound to catalogue findings arms
    ``G !<kind>`` under ``<rid>/drift``, bound to the findings that
    apply to the host's platform (a Windows binding is never enforced
    on an Ubuntu box).  Cold plans
    (:meth:`~repro.core.orchestrator.VeriDevOpsOrchestrator.
    protection_plan`) and live re-arming both arm drift through here.
    """
    if not record.bindings or record.source not in _STANDARD_FRONTENDS:
        return None
    applicable = tuple([fid for fid in record.bindings
                        if fid in catalog
                        and catalog.get(fid).platform == host.os_family])
    if not applicable:
        return None
    atom = drift_atom(catalog, applicable)
    return (f"{record.rid}/drift",
            CompiledMonitor(parse_ltl(f"G !{atom}")), applicable)


def monitor_entries(record: Requirement, host, catalog) -> List[Entry]:
    """The ``(req_id, monitor, bindings)`` entries arming *record* on
    *host*:

    * its drift detector (:func:`drift_entry`), if any;
    * a record carrying an event-compatible LTL formalization arms
      that formula under the record's own id (on every host, exactly
      like pipeline-produced monitors).

    Of *host* only ``os_family`` is read, so two hosts of one platform
    get equal entries (with distinct monitor objects).
    """
    drift = drift_entry(record, host, catalog)
    entries: List[Entry] = [drift] if drift is not None else []
    formalization = record.formalization
    if formalization is not None and formalization.ltl:
        monitor = CompiledMonitor(parse_ltl(formalization.ltl))
        if _event_compatible(monitor):
            entries.append((record.rid, monitor, ()))
    return entries


def plan_for_records(records: Sequence[Requirement], host, catalog):
    """A cold ``(monitors, bindings)`` protection plan for *records* —
    what ``arm_soc`` would arm if the stream's current view were
    ingested from scratch (the equivalence reference)."""
    monitors: Dict[str, CompiledMonitor] = {}
    bindings: Dict[str, List[str]] = {}
    for record in records:
        for req_id, monitor, finding_ids in monitor_entries(
                record, host, catalog):
            monitors[req_id] = monitor
            if finding_ids:
                bindings[req_id] = list(finding_ids)
    return monitors, bindings


def _diff_entries(olds, news):
    """One record's ``req_id -> (formula, bindings)`` entries on one
    platform, old -> new, as ``(adds, removes, rebinds, kept)``.

    Hash-consed formula identity decides "kept state" vs "fresh": the
    same interned formula keeps its armed monitor (rebinding it when
    only the bindings moved); a different one is added fresh.
    """
    removes = [req_id for req_id in olds if req_id not in news]
    adds, rebinds, kept = [], [], 0
    for req_id, (formula, finding_ids) in news.items():
        previous = olds.get(req_id)
        if previous is not None and previous[0] is formula:
            if finding_ids != previous[1]:
                rebinds.append((req_id, finding_ids))
            else:
                kept += 1
        else:
            adds.append((req_id, formula, finding_ids))
    return adds, removes, rebinds, kept


@dataclass
class RearmReport:
    """What one delta application actually did.

    ``timings`` holds the wall seconds of the apply's four stages, which
    tile the call apart from any wait for a concurrent apply's lock:
    ``plan`` (each delta record planned per platform, risk refreshed
    and sorted), ``build`` (the per-platform templates, each host's
    patch and ``soc.plans``), ``deliver`` (patches applied in place on
    idle shards, queued on busy ones) and ``wait`` (drain plus token
    verification, summed over re-send rounds).  On the process backend
    ``deliver`` includes the wait for the workers' REARMED echoes and
    ``wait`` reads 0.  An empty delta records none.
    """

    generation: int
    backend: str
    hosts_patched: int = 0
    monitors_added: int = 0
    monitors_removed: int = 0
    monitors_rebound: int = 0
    #: Monitors left entirely alone (obligation state preserved).
    monitors_kept: int = 0
    tokens: List[int] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, int]:
        return {"generation": self.generation,
                "hosts_patched": self.hosts_patched,
                "added": self.monitors_added,
                "removed": self.monitors_removed,
                "rebound": self.monitors_rebound,
                "kept": self.monitors_kept}


class Rearmer:
    """Applies stream deltas to a running SOC, backend-appropriately.

    One Rearmer per service; patch tokens are unique across its
    lifetime (idempotent redelivery suppression on the thread
    backend).  When a :class:`~repro.reqs.risk.RiskIndex` is given,
    scores are refreshed from the delta (via the index's scorer) and
    higher-risk records are patched first.
    """

    def __init__(self, soc, risk=None, scorer=None):
        self.soc = soc
        self.risk = risk
        self.scorer = scorer
        self._tokens = itertools.count(1)
        self._lock = threading.Lock()

    # -- planning ------------------------------------------------------------

    def _hosts_by_platform(self) -> Dict[str, List[str]]:
        """Host names grouped by ``os_family``, each group sorted."""
        groups: Dict[str, List[str]] = {}
        for name in sorted(self.soc.hosts):
            groups.setdefault(self.soc.hosts[name].os_family,
                              []).append(name)
        return groups

    def _platform_entries(self, record: Optional[Requirement],
                          groups: Dict[str, List[str]]
                          ) -> Dict[str, Dict[str, Tuple[Formula,
                                                         Tuple[str, ...]]]]:
        """*record*'s ``req_id -> (formula, bindings)`` entries per
        platform, planned once per platform: a host's ``os_family`` is
        the only host input :func:`monitor_entries` reads."""
        if record is None:
            return {}
        per_platform = {}
        for platform, names in groups.items():
            entries = monitor_entries(record, self.soc.hosts[names[0]],
                                      self.soc.catalog)
            if entries:
                per_platform[platform] = {
                    req_id: (monitor.formula, finding_ids)
                    for req_id, monitor, finding_ids in entries}
        return per_platform

    def _planned_records(self, delta: StreamDelta, groups):
        """Delta records as ``(old, new, old plan, new plan)``, in
        stream order: added, changed, removed."""
        pairs = ([(None, record) for record in delta.added]
                 + [(old, new) for old, new in delta.changed]
                 + [(record, None) for record in delta.removed])
        return [(old, new, self._platform_entries(old, groups),
                 self._platform_entries(new, groups))
                for old, new in pairs]

    def _refresh_risk(self, delta: StreamDelta, planned, groups) -> None:
        if self.risk is None:
            return
        scorer = self.scorer or self.risk.scorer
        for record in delta.removed:
            self.risk.discard(record.rid)
        if scorer is None:
            return
        for _, record, _, new_plan in planned:
            if record is not None:
                routed = sum(len(groups[platform]) for platform in new_plan)
                self.risk.put(record.rid, scorer.score(
                    record, hosts_routed=routed).score)

    # -- application ---------------------------------------------------------

    def apply(self, delta: StreamDelta, wait: bool = True,
              timeout: float = 30.0) -> RearmReport:
        """Patch the running service to match *delta*.

        Computes per-host patches (add / remove / rebind, with
        hash-consed formula identity deciding "kept state" vs "fresh"),
        dispatches them through the backend's ordered channel, updates
        ``soc.plans`` so later restarts and manifests agree, and — with
        *wait* — blocks until every patch has been applied (thread
        backend: drain + token verification with bounded re-sends for
        drop-oldest displacement; process backend: REARMED echo).

        Each delta record is planned once per platform, and the delta
        folds into one patch template per platform; every host that
        gets an add receives a monitor of its own.

        The caller commits the delta into its :class:`ReqStream`
        afterwards; on failure the stream bookkeeping is untouched and
        the apply can be retried.
        """
        report = RearmReport(generation=delta.generation,
                             backend=self.soc.backend)
        if delta.empty:
            return report
        started = time.perf_counter()
        groups = self._hosts_by_platform()
        planned = self._planned_records(delta, groups)
        self._refresh_risk(delta, planned, groups)
        if self.risk is not None:
            # Highest risk first.
            planned.sort(key=lambda entry: (
                -self.risk.score_for((entry[1] or entry[0]).rid),
                (entry[1] or entry[0]).rid))
        timings = report.timings
        timings["plan"] = time.perf_counter() - started

        with self._lock:
            started = time.perf_counter()
            patches = self._host_patches(
                self._templates(planned, groups, report), groups, report)
            report.hosts_patched = len(patches)
            self._update_plans(patches)
            timings["build"] = time.perf_counter() - started
            timings["deliver"] = timings["wait"] = 0.0
            if self.soc._proc is not None:
                started = time.perf_counter()
                self._apply_process(patches, timeout)
                timings["deliver"] = time.perf_counter() - started
            else:
                self._apply_thread(patches, report, wait, timeout)
        self.soc.metrics.counter("soc.rearm.generations").inc()
        return report

    @staticmethod
    def _templates(planned, groups: Dict[str, List[str]],
                   report: RearmReport) -> Dict[str, Tuple[list, ...]]:
        """One patch template per platform: ``(adds, fresh, removes,
        rebinds)`` in delta order, where *adds* are ``(req_id, formula,
        bindings)`` and *fresh* the added req_ids of records new to the
        stream.  Counts every host's monitors into *report*."""
        templates: Dict[str, Tuple[list, ...]] = {}
        for old, _, old_plan, new_plan in planned:
            for platform in sorted(old_plan.keys() | new_plan.keys()):
                adds, removes, rebinds, kept = _diff_entries(
                    old_plan.get(platform, {}), new_plan.get(platform, {}))
                t_adds, fresh, t_removes, t_rebinds = templates.setdefault(
                    platform, ([], [], [], []))
                t_adds += adds
                t_removes += removes
                t_rebinds += rebinds
                if old is None:
                    fresh += [req_id for req_id, _, _ in adds]
                hosts = len(groups[platform])
                report.monitors_added += len(adds) * hosts
                report.monitors_removed += len(removes) * hosts
                report.monitors_rebound += len(rebinds) * hosts
                report.monitors_kept += kept * hosts
        return templates

    def _host_patches(self, templates, groups: Dict[str, List[str]],
                      report: RearmReport) -> Dict[str, Tuple[tuple, ...]]:
        """host -> ``(adds, removes, rebinds)`` read off its platform's
        template.  Every host gets monitors of its own, since they carry
        per-host obligation state; the remove and rebind tuples are
        shared."""
        plans = self.soc.plans
        patches: Dict[str, Tuple[tuple, ...]] = {}
        for platform, (adds, fresh, removes, rebinds) in templates.items():
            removes, rebinds = tuple(removes), tuple(rebinds)
            for host_name in groups[platform]:
                if fresh:
                    # An "added" record colliding with an armed req_id
                    # replaces it fresh.
                    armed = plans[host_name][0]
                    report.monitors_removed += sum(
                        1 for req_id in fresh if req_id in armed)
                patches[host_name] = (
                    tuple([(req_id, CompiledMonitor(formula), finding_ids)
                           for req_id, formula, finding_ids in adds]),
                    removes, rebinds)
        return patches

    def _update_plans(self, patches) -> None:
        """Keep ``soc.plans`` authoritative for restarts/manifests."""
        for host_name, (adds, removes, rebinds) in patches.items():
            monitors, bindings = self.soc.plans[host_name]
            for req_id in removes:
                monitors.pop(req_id, None)
                bindings.pop(req_id, None)
            for req_id, monitor, finding_ids in adds:
                monitors[req_id] = monitor
                if finding_ids:
                    bindings[req_id] = list(finding_ids)
                else:
                    bindings.pop(req_id, None)
            for req_id, finding_ids in rebinds:
                bindings[req_id] = list(finding_ids)

    # -- thread backend ------------------------------------------------------

    def _apply_thread(self, patches, report: RearmReport,
                      wait: bool, timeout: float) -> None:
        started = time.perf_counter()
        sent = self.soc.metrics.counter("soc.rearm.patches_sent")
        placement = self.soc._placement
        # Finding ids are already tuples: monitor_entries plans them so.
        outstanding = [SessionPatch(host_name=host_name,
                                    token=next(self._tokens), add=adds,
                                    remove=removes, rebind=rebinds)
                       for host_name, (adds, removes, rebinds)
                       in sorted(patches.items())]
        report.tokens = [patch.token for patch in outstanding]
        timings = report.timings
        # One item per shard carries the patches of all its hosts.  An
        # idle shard gets it applied in place, a busy one queued behind
        # its backlog.  Bounded re-sends: under drop-oldest backpressure
        # a queued item can be displaced by later events; verification
        # below detects the loss and re-enqueues (idempotent per token,
        # and a re-sent patch is still ordered after any events that
        # displaced it).
        for _round in range(8):
            by_shard: Dict[int, List[SessionPatch]] = {}
            for patch in outstanding:
                by_shard.setdefault(placement[patch.host_name],
                                    []).append(patch)
            for shard, shard_patches in sorted(by_shard.items()):
                item = ShardPatch(tuple(shard_patches))
                queue = self.soc.queues[shard]
                if not queue.run_if_idle(
                        functools.partial(self._apply_idle, shard, item)):
                    try:
                        queue.put((None, item))
                    except QueueClosed:
                        raise RuntimeError(
                            f"rearm: shard queue {shard} closed "
                            f"(service stopping?)")
                sent.inc(len(shard_patches))
            delivered = time.perf_counter()
            timings["deliver"] += delivered - started
            if not wait:
                return
            self.soc.drain()
            outstanding = [
                patch for patch in outstanding
                if patch.token not in
                self.soc.sessions[patch.host_name]._patched]
            started = time.perf_counter()
            timings["wait"] += started - delivered
            if not outstanding:
                return
        raise RuntimeError(
            f"rearm: patches for "
            f"{sorted(patch.host_name for patch in outstanding)} kept "
            f"being displaced; reduce ingress pressure or use BLOCK "
            f"policy")

    def _apply_idle(self, shard: int, item: ShardPatch) -> None:
        """Apply *item* on the calling thread, under the queue lock of
        an idle *shard* (:meth:`~repro.soc.queues.ShardQueue.
        run_if_idle`): the patches land where a queued item would
        have, and count as that shard's processed items, as the worker
        counts a queued item's patches."""
        apply_shard_patch(item, self.soc.sessions, self.soc.metrics)
        self.soc.metrics.counter(
            f"soc.shard.{shard}.processed").inc(len(item.patches))

    # -- process backend -----------------------------------------------------

    def _apply_process(self, patches, timeout: float) -> None:
        adds = []
        removes = []
        rebinds = []
        for host_name, (host_adds, host_removes,
                        host_rebinds) in sorted(patches.items()):
            for req_id in host_removes:
                removes.append((host_name, req_id))
            for req_id, monitor, finding_ids in host_adds:
                adds.append((host_name, req_id, monitor,
                             list(finding_ids)))
            for req_id, finding_ids in host_rebinds:
                rebinds.append((host_name, req_id, list(finding_ids)))
        self.soc._proc.rearm(adds=adds, removes=removes,
                             rebinds=rebinds, timeout=timeout)
