"""SOC reporting: incident and metrics summaries for humans and tools.

The CLI's ``repro soc`` subcommand (and anything else that wants a
readable digest of a run) renders through here.  Two output shapes:

* :func:`render_report` — the aligned text report, now including a
  degradation section (dead letters, worker crashes/restarts,
  reconcile sweeps, chaos injections) when a run exercised any of it;
* :func:`run_summary` — the same facts as a
  plain-data document that round-trips through ``json`` losslessly,
  for machine consumers and the CLI's ``--json`` flag.
"""

from typing import Dict, List, Sequence

from repro.core.protection import Incident
from repro.soc.service import SocService


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Align a list of row dicts into a text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0])
    widths = {c: max(len(str(c)), *(len(str(r[c])) for r in rows))
              for c in columns}
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(str(row[c]).ljust(widths[c])
                               for c in columns))
    return "\n".join(lines)


def incident_rows(incidents_by_host: Dict[str, List[Incident]]
                  ) -> List[Dict[str, object]]:
    rows = []
    for host_name, incidents in sorted(incidents_by_host.items()):
        for incident in incidents:
            rows.append({
                "host": host_name,
                "requirement": incident.req_id,
                "trigger": incident.trigger_kind,
                "detected_at": incident.detected_at,
                "repairs": len(incident.repairs),
                "effective": "yes" if incident.effective else "no",
            })
    return rows


def degradation_rows(service: SocService) -> List[Dict[str, object]]:
    """One row summarizing the run's graceful-degradation activity."""
    counters = service.metrics_snapshot()["counters"]
    return [{
        "dead_lettered": counters.get("soc.events.dead_lettered", 0),
        "dlq_retained": len(service.dead_letters),
        "dlq_evicted": service.dead_letters.evicted,
        "worker_crashes": counters.get("soc.worker.crashes", 0),
        "worker_restarts": counters.get("soc.worker.restarts", 0),
        "worker_deposed": counters.get("soc.worker.deposed", 0),
        "session_errors": counters.get("soc.session.errors", 0),
        "enforce_exceptions": counters.get("soc.enforce.exception", 0),
        "reconcile_sweeps": counters.get("soc.reconcile.sweeps", 0),
        "reconcile_repairs": counters.get("soc.reconcile.repairs", 0),
    }]


def _degraded(service: SocService) -> bool:
    row = degradation_rows(service)[0]
    return any(value for value in row.values())


def run_summary(service: SocService) -> Dict[str, object]:
    """Machine-readable summary of one SOC run (JSON-safe plain data).

    Everything here survives a ``json.dumps``/``loads`` round trip
    unchanged: keys are strings, values are str/int/float/bool/None,
    containers are dicts and lists.
    """
    snapshot = service.metrics_snapshot()
    counters = snapshot["counters"]
    incidents = service.incidents()
    summary: Dict[str, object] = {
        "hosts": len(service.hosts),
        "shards": service.shards,
        "incidents": len(incidents),
        "effective_repairs": service.effective_repairs(),
        "events": {
            "offered": counters.get("soc.events.offered", 0),
            "ingested": counters.get("soc.events.ingested", 0),
            "suppressed": counters.get("soc.events.suppressed", 0),
            "dropped": counters.get("soc.events.dropped", 0),
            "rejected": counters.get("soc.events.rejected", 0),
            "dead_lettered": counters.get("soc.events.dead_lettered", 0),
        },
        "degradation": dict(degradation_rows(service)[0]),
        "incident_rows": [
            {str(k): v for k, v in row.items()}
            for row in incident_rows(service.incidents_by_host())
        ],
        "queues": [
            {str(k): v for k, v in stats.items()}
            for stats in service.queue_stats()
        ],
        "dead_letters": service.dead_letters.rows(),
        "breakers": dict(service.pipeline.breaker_states()),
        "counters": dict(sorted(counters.items())),
    }
    if service.chaos is not None:
        summary["chaos"] = {
            "plan": service.chaos.plan.to_dict(),
            "injections": service.chaos.injection_count(),
            "decisions_digest": service.chaos.decisions_digest(),
        }
    return summary


def render_report(service: SocService, title: str = "SOC run") -> str:
    """Full text report: incidents, shard stats, headline metrics."""
    snapshot = service.metrics_snapshot()
    counters = snapshot["counters"]
    lag = snapshot["histograms"].get("soc.detection_lag_events", {})
    lines = [f"=== {title} ==="]
    lines.append("")
    lines.append("-- incidents --")
    lines.append(format_table(incident_rows(service.incidents_by_host())))
    lines.append("")
    lines.append("-- shards --")
    lines.append(format_table(service.queue_stats()))
    lines.append("")
    lines.append("-- metrics --")
    incidents = service.incidents()
    effective = service.effective_repairs()
    summary_rows = [{
        "events_ingested": counters.get("soc.events.ingested", 0),
        "suppressed": counters.get("soc.events.suppressed", 0),
        "dropped": counters.get("soc.events.dropped", 0),
        "rejected": counters.get("soc.events.rejected", 0),
        "incidents": len(incidents),
        "effective": effective,
        "enforce_ok": counters.get("soc.enforce.success", 0),
        "enforce_fail": counters.get("soc.enforce.failure", 0),
        "retries": counters.get("soc.enforce.retries", 0),
        "breaker_trips": counters.get("soc.breaker.trips", 0),
    }]
    lines.append(format_table(summary_rows))
    if _degraded(service):
        lines.append("")
        lines.append("-- degradation --")
        lines.append(format_table(degradation_rows(service)))
        if len(service.dead_letters):
            lines.append("")
            lines.append("-- dead letters --")
            lines.append(format_table(service.dead_letters.rows()))
    chaos_counters = {name: value for name, value in sorted(counters.items())
                      if name.startswith("chaos.")}
    if chaos_counters:
        lines.append("")
        lines.append("-- chaos injections --")
        for name, value in chaos_counters.items():
            lines.append(f"{name}: {value}")
    if lag.get("count"):
        lines.append("")
        lines.append(
            f"detection lag (host events): mean={lag['mean']:.2f} "
            f"max={lag['max']:g} over {lag['count']} detections")
    open_breakers = {key: state
                     for key, state in service.pipeline.breaker_states()
                     .items() if state != "closed"}
    if open_breakers:
        lines.append("")
        lines.append("-- non-closed breakers --")
        for key, state in sorted(open_breakers.items()):
            lines.append(f"{key}: {state}")
    return "\n".join(lines)
