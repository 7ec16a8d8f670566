"""SOC pieces of the soc-churn workload: the repair probe, the output
checks and the per-cell facts read back from a drained service."""

import time
from collections import defaultdict
from typing import Dict, List, Tuple

from common import Patcher, WorkloadResult

#: The system under test, fixed for the SOC workload.
SHARDS = 2
QUEUE_CAPACITY = 4096


class RepairProbe:
    """Wall times of effective repairs, per ``(host, finding)``.

    Wraps ``IncidentPipeline.handle`` (one call per detection, never per
    event) and records, for every finding an incident enforced back to
    PASS, the time ``handle`` returned.  A drift is matched to the first
    such repair of its finding on its host after the drift was issued:
    hosts are live, so the worker may repair a drift while handling an
    earlier detection that re-checks the same finding.  Installed in
    traced and untraced passes alike: it is how repair latency is
    measured.
    """

    def __init__(self):
        self.repaired_at: Dict[Tuple[str, str], List[float]] = \
            defaultdict(list)
        self._patcher = Patcher()

    def install(self) -> "RepairProbe":
        from repro.soc.incidents import IncidentPipeline

        repaired_at = self.repaired_at
        clock = time.perf_counter

        def make(original):
            def handle(pipeline, host, detection, finding_ids):
                incident = original(pipeline, host, detection, finding_ids)
                if incident.effective:
                    done = clock()
                    for action in incident.repairs:
                        if action.detail.startswith("enforced") \
                                and action.detail.endswith("PASS"):
                            repaired_at[(host.name, action.finding_id)] \
                                .append(done)
                return incident
            handle.__wrapped__ = original
            return handle

        self._patcher.replace(IncidentPipeline, "handle", make)
        return self

    def restore(self) -> None:
        self._patcher.restore()


def drift_findings(scenario) -> Dict[tuple, str]:
    """The catalogue finding each drift of *scenario*'s rotation breaks,
    found once by drifting a scratch hardened host."""
    from repro.environment.profiles import hardened_ubuntu_host
    from repro.rqcode import default_catalog
    from repro.rqcode.concepts import CheckStatus

    catalog = default_catalog()
    findings = {}
    for index, drift in enumerate(scenario.drifts):
        host = hardened_ubuntu_host("calibration")
        scenario.apply_drift(host, index, 0)
        failing = [fid for fid in catalog.finding_ids()
                   if catalog.get(fid).platform == "ubuntu"
                   and catalog.get(fid).instantiate(host).check()
                   is not CheckStatus.PASS]
        if len(failing) != 1:
            raise RuntimeError(f"drift {drift} breaks {failing}, "
                               f"expected exactly one finding")
        findings[drift] = failing[0]
    return findings


def drift_latencies(result: WorkloadResult, drifts: List[tuple],
                    probe: RepairProbe, latencies_ms: list) -> None:
    """One ``(due, latency)`` pair per drift into *latencies_ms*: from
    its due time to the return of the ``handle`` call that repaired it.
    *drifts* holds ``(host, finding, issued, due)``; a drift with no
    repair before the next drift of the same finding on the same host
    fails its op."""
    by_target: Dict[Tuple[str, str], List[tuple]] = defaultdict(list)
    for host, finding, issued, due in drifts:
        by_target[(host, finding)].append((issued, due))
    for target, issued_due in by_target.items():
        repairs = sorted(probe.repaired_at.get(target, ()))
        issued_due.sort()
        for position, (issued, due) in enumerate(issued_due):
            limit = issued_due[position + 1][0] \
                if position + 1 < len(issued_due) else float("inf")
            repaired = next((t for t in repairs if issued < t < limit), None)
            if repaired is None:
                result.fail(f"drift of {target[1]} on {target[0]} got no "
                            f"effective repair")
            else:
                latencies_ms.append((due, (repaired - due) * 1000.0))


def check_service(result: WorkloadResult, fleet_audit, service,
                  drifts: int) -> None:
    """The SOC output checks on a drained service (outside timing).

    ``check_invariants`` counts every item a worker credits as a
    processed event, re-arm ``SessionPatch`` items included, so after a
    live re-arm its event-disposition law reads ``ingested + patches ==
    processed + dropped``.  That one violation is accepted when the
    difference is exactly the patches the workers dequeued; every other
    invariant must hold as reported.
    """
    from repro.chaos import check_invariants

    worst = fleet_audit().worst_ratio
    if worst != 1.0:
        result.fail(f"fleet posture after drain is {worst:.3f}, not 1.0")
    effective = service.effective_repairs()
    if effective < drifts:
        result.fail(f"{effective} effective repairs for {drifts} drifts")
    report = check_invariants(service)
    counters = service.metrics_snapshot()["counters"]
    patches = counters.get("soc.rearm.patches_applied", 0) \
        + counters.get("soc.rearm.patches_suppressed", 0)
    facts = report.facts
    violations = [
        violation for violation in report.violations
        if not (violation.startswith("disposition leak:") and patches
                and facts["ingested"] + patches
                == facts["processed"] + facts["dropped"])]
    if violations:
        result.fail("SOC invariants violated: " + "; ".join(violations[:3]))


class SocFacts:
    """Counts and end-of-run state sizes summed over cells."""

    def __init__(self):
        self.sums: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.shard_processed: Dict[int, float] = defaultdict(float)

    def add(self, service) -> None:
        from repro.ltl import compile as ltl_compile

        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        histograms = snapshot["histograms"]
        sums, maxima = self.sums, self.maxima
        for name in ("offered", "ingested", "dropped", "rejected",
                     "suppressed"):
            sums[f"soc.service.{name}"] += counters.get(
                f"soc.events.{name}", 0)
        for name in ("sent", "applied", "suppressed"):
            sums[f"soc.rearm.patches_{name}"] += counters.get(
                f"soc.rearm.patches_{name}", 0)
        for index in range(service.shards):
            self.shard_processed[index] += counters.get(
                f"soc.shard.{index}.processed", 0)
        for key, histogram in (("lag", "soc.detection_lag_events"),
                               ("attempts", "soc.repair_attempts")):
            data = histograms.get(histogram, {"count": 0, "sum": 0.0})
            sums[f"{key}_count"] += data["count"]
            sums[f"{key}_sum"] += data["sum"]
        incidents = service.incidents()
        sums["incidents"] += len(incidents)
        sums["effective"] += sum(1 for i in incidents if i.effective)
        sessions = service.sessions.values()
        sums["stepped"] += sum(s.monitors_stepped for s in sessions)
        sums["observed"] += sum(s.events_seen for s in sessions)
        # End-of-run state sizes (bounded-growth probes).
        maxima["soc.queues.depth_max"] = max(
            maxima["soc.queues.depth_max"],
            max(queue.peak_depth for queue in service.queues))
        maxima["soc.sessions.seen_set_max"] = max(
            maxima["soc.sessions.seen_set_max"],
            max(len(s._seen) for s in sessions))
        maxima["environment.event_log.len_max"] = max(
            maxima["environment.event_log.len_max"],
            max(len(host.events) for host in service.hosts.values()))
        maxima["ltl.compile.table_entries"] = max(
            maxima["ltl.compile.table_entries"],
            sum(len(table) for table in ltl_compile._TABLES.values()))

    def layers(self) -> Dict[str, float]:
        sums = self.sums
        processed = list(self.shard_processed.values())
        mean = sum(processed) / len(processed) if processed else 0.0

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        facts = {name: sums[name] for name in sums
                 if name.startswith(("soc.service.", "soc.rearm."))}
        facts.update(self.maxima)
        facts.update({
            "soc.workers.processed": sum(processed),
            "soc.workers.shard_skew": ratio(max(processed, default=0),
                                            mean),
            "soc.workers.detection_lag_mean_events": ratio(
                sums["lag_sum"], sums["lag_count"]),
            "soc.incidents.repair_attempts_mean": ratio(
                sums["attempts_sum"], sums["attempts_count"]),
            "soc.incidents.effective_ratio": ratio(sums["effective"],
                                                   sums["incidents"]),
            "soc.sessions.stepped_per_event": ratio(sums["stepped"],
                                                    sums["observed"]),
        })
        return facts
