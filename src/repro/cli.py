"""Command-line interface for the VeriDevOps reproduction.

Subcommands map one-to-one to the library's main workflows::

    python -m repro.cli audit --profile ubuntu-default
    python -m repro.cli harden --profile ubuntu-adversarial
    python -m repro.cli smells requirements.csv
    python -m repro.cli formalize "When intrusion is detected, the \\
        gateway shall alert the operator within 5 seconds."
    python -m repro.cli scan --product bash=4.3 --product openssl=1.0.1f
    python -m repro.cli pipeline --profile ubuntu-default

Every subcommand prints a table to stdout and exits non-zero on a
failing verdict (non-compliant audit, failing pipeline), so the CLI
slots into a real CI job the way the paper intends.
"""

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.environment import (
    adversarial_ubuntu_host,
    adversarial_windows_host,
    default_ubuntu_host,
    default_windows_host,
    hardened_ubuntu_host,
    hardened_windows_host,
)
from repro.environment.host import SimulatedHost

PROFILES: Dict[str, Callable[[], SimulatedHost]] = {
    "win10-default": default_windows_host,
    "win10-hardened": hardened_windows_host,
    "win10-adversarial": adversarial_windows_host,
    "ubuntu-default": default_ubuntu_host,
    "ubuntu-hardened": hardened_ubuntu_host,
    "ubuntu-adversarial": adversarial_ubuntu_host,
}


def _print_rows(rows: Sequence[dict], out) -> None:
    if not rows:
        print("(no rows)", file=out)
        return
    columns = list(rows[0])
    widths = {c: max(len(str(c)), *(len(str(r[c])) for r in rows))
              for c in columns}
    print("  ".join(str(c).ljust(widths[c]) for c in columns), file=out)
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in columns),
              file=out)


def _print_json(document, out, status_line: str = "") -> None:
    """Emit one machine-readable JSON document on *out*.

    The document is stdout's only content — stable key order, trailing
    newline — so ``--json`` output pipes cleanly into ``jq`` or the
    schema validator; any human status line moves to stderr.  Every
    ``--json`` code path goes through here (``pipeline``, ``reqs``),
    keeping the JSON contract in one place.
    """
    import json as json_mod

    print(json_mod.dumps(document, indent=1, sort_keys=True), file=out)
    if status_line:
        print(status_line, file=sys.stderr)


def _host_for(profile: str) -> SimulatedHost:
    try:
        return PROFILES[profile]()
    except KeyError:
        raise SystemExit(
            f"unknown profile {profile!r}; choose from "
            f"{', '.join(sorted(PROFILES))}")


# -- subcommands -------------------------------------------------------------------


def cmd_audit(args, out) -> int:
    """Check a host profile against the STIG catalogue (read-only)."""
    from repro.rqcode import default_catalog

    host = _host_for(args.profile)
    report = default_catalog().check_host(host)
    _print_rows(report.rows(), out)
    print(report.summary(), file=out)
    return 0 if report.compliance_ratio >= 1.0 else 1


def cmd_harden(args, out) -> int:
    """Run the check/enforce/re-check campaign on a host profile."""
    from repro.rqcode import default_catalog

    host = _host_for(args.profile)
    report = default_catalog().harden_host(host)
    _print_rows(report.rows(), out)
    print(report.summary(), file=out)
    return 0 if report.compliance_ratio >= 1.0 else 1


def cmd_smells(args, out) -> int:
    """NALABS smell analysis of a requirements CSV (REQ ID, Text)."""
    from repro.nalabs import NalabsAnalyzer

    with open(args.csv_file) as handle:
        report = NalabsAnalyzer().analyze_csv(
            handle.read(), id_column=args.id_column,
            text_column=args.text_column)
    rows = [
        {"req": r.req_id,
         "smells": ", ".join(r.flagged_metrics) or "-"}
        for r in report.reports
    ]
    _print_rows(rows, out)
    print(f"{report.smelly_count}/{report.total} requirements smelly",
          file=out)
    threshold = args.max_smelly_ratio
    return 0 if report.smelly_count <= threshold * report.total else 1


def cmd_formalize(args, out) -> int:
    """Match one statement against the RESA boilerplates and render
    the formal artifacts."""
    from repro.resa import BoilerplateMatchError, match_boilerplate, \
        to_pattern
    from repro.specpatterns import to_ltl, to_tctl
    from repro.specpatterns.ltl_mappings import PatternScopeUnsupported

    try:
        structured = match_boilerplate("CLI", args.statement)
    except BoilerplateMatchError:
        print("no boilerplate match — rewrite the statement", file=out)
        return 1
    pattern, scope = to_pattern(structured)
    print(f"boilerplate: {structured.boilerplate_id}", file=out)
    print(f"pattern    : ({pattern}) ({scope})", file=out)
    try:
        print(f"LTL        : {to_ltl(pattern, scope)}", file=out)
    except PatternScopeUnsupported:
        print("LTL        : (outside the catalogue's LTL table)", file=out)
    print(f"TCTL       : {to_tctl(pattern, scope)}", file=out)
    return 0


def cmd_scan(args, out) -> int:
    """Scan a software inventory against the vulnerability database."""
    from repro.vulndb import (
        RequirementGenerator,
        Severity,
        SoftwareInventory,
        bundled_database,
    )

    products = {}
    for spec in args.product:
        name, _, version = spec.partition("=")
        if not version:
            raise SystemExit(f"product spec must be name=version: {spec!r}")
        products[name] = version
    inventory = SoftwareInventory.of(args.host_name, args.platform,
                                     products)
    generator = RequirementGenerator(
        bundled_database(), min_severity=Severity[args.min_severity])
    report = generator.generate(inventory)
    rows = [
        {"req": r.req_id, "severity": r.severity.value,
         "pattern": r.pattern_family, "cve": r.source_cve,
         "text": r.text[:60]}
        for r in report.requirements
    ]
    _print_rows(rows, out)
    print(f"{len(report.matched)} matches -> "
          f"{len(report.requirements)} requirements", file=out)
    return 0 if not args.fail_on_findings or not report.requirements else 1


def cmd_gap(args, out) -> int:
    """IEC 62443 gap analysis of a host profile at a target level."""
    from repro.rqcode import default_catalog
    from repro.standards import GapAnalysis, SecurityLevel, SrStatus

    host = _host_for(args.profile)
    level = SecurityLevel(args.level)
    report = GapAnalysis(default_catalog()).analyze(host, level)
    _print_rows(report.rows(), out)
    print(
        f"coverage (evidenced SRs): {report.coverage:.0%}; "
        f"unmapped: {report.count(SrStatus.UNMAPPED)}", file=out)
    return 0 if report.coverage >= 1.0 else 1


def cmd_report(args, out) -> int:
    """Run the prevention pipeline and write the Markdown report."""
    from repro.core import VeriDevOpsOrchestrator, report_for_cycle

    host = _host_for(args.profile)
    orchestrator = VeriDevOpsOrchestrator()
    orchestrator.ingest_standards(host.os_family)
    run = orchestrator.run_prevention([host])
    markdown = report_for_cycle(
        orchestrator, run, title=f"{host.name} security report").render()
    if args.output == "-":
        print(markdown, file=out)
    else:
        with open(args.output, "w") as handle:
            handle.write(markdown)
        print(f"report written to {args.output}", file=out)
    return 0 if run.passed else 1


def cmd_soc(args, out) -> int:
    """Run the SOC runtime over a synthetic fleet drift scenario.

    Builds a hardened fleet, arms the sharded concurrent protection
    service, injects a seeded storm of drift (and benign) events,
    drains deterministically, and prints the incident + metrics report.
    With ``--chaos-plan`` the run additionally injects the plan's
    deterministic faults and finishes with a reconcile sweep.
    """
    import random

    from repro.core.fleet import Fleet
    from repro.environment import (
        hardened_ubuntu_host as ubuntu,
        hardened_windows_host as windows,
    )
    from repro.rqcode import default_catalog
    from repro.soc import Backpressure, render_json, render_report

    if args.hosts < 1:
        raise SystemExit("repro soc: --hosts must be >= 1")
    if args.shards < 1:
        raise SystemExit("repro soc: --shards must be >= 1")
    if args.backend == "process" and args.policy == "drop-oldest":
        raise SystemExit("repro soc: --backend process supports "
                         "--policy block or reject (drop-oldest needs "
                         "the thread backend)")
    chaos = None
    if args.chaos_plan:
        from repro.chaos import ChaosController, FaultPlan, FaultPlanError

        try:
            with open(args.chaos_plan) as handle:
                plan = FaultPlan.from_json(handle.read())
        except OSError as exc:
            raise SystemExit(
                f"repro soc: cannot read chaos plan "
                f"{args.chaos_plan!r}: {exc.strerror or exc}")
        except FaultPlanError as exc:
            raise SystemExit(
                f"repro soc: invalid chaos plan {args.chaos_plan!r}: "
                f"{exc}")
        chaos = ChaosController(plan)
    # With --json, stdout is the machine-readable document alone;
    # human status lines move to stderr so the output pipes cleanly.
    status = sys.stderr if args.json else out
    if chaos is not None:
        print(f"chaos plan: {plan.describe()}", file=status)
    fleet = Fleet("soc-cli", default_catalog())
    for index in range(args.hosts):
        if args.windows_every and index % args.windows_every == 0:
            fleet.add(windows(f"win-{index:02d}"))
        else:
            fleet.add(ubuntu(f"host-{index:02d}"))
    service = fleet.arm_soc(
        shards=args.shards,
        queue_capacity=args.queue_capacity,
        policy=Backpressure(args.policy),
        seed=args.seed,
        chaos=chaos,
        backend=args.backend,
    )
    rng = random.Random(args.seed)
    ubuntu_drifts = ("nis", "rsh-server", "telnetd")
    windows_subcategories = ("Logon", "Account Lockout", "Special Logon")
    try:
        for _ in range(args.drifts):
            host = rng.choice(fleet.hosts())
            for _ in range(args.noise):
                host.events.emit("app.heartbeat")
            if host.os_family == "windows":
                host.drift_audit_policy(rng.choice(windows_subcategories))
            else:
                host.drift_install_package(rng.choice(ubuntu_drifts))
            # Drain between injections: a host is never re-drifted
            # while its own repair is in flight, so event timestamps
            # (and the incident table) are a pure function of the seed.
            service.drain()
    finally:
        service.stop()
    if chaos is not None:
        # The degradation ladder's last rung: sweep hosts whose
        # event-driven repair was eaten by injected faults.
        repaired = service.reconcile()
        print(f"reconcile: {repaired} repair(s); "
              f"{chaos.injection_count()} fault(s) injected; "
              f"decisions digest {chaos.decisions_digest()[:16]}",
              file=status)
    if args.json:
        print(render_json(service), file=out)
    else:
        print(render_report(service,
                            title=f"SOC run over {len(fleet)} hosts "
                                  f"/ {args.shards} shards"), file=out)
    posture = fleet.audit()
    print(f"posture after run: worst {posture.worst_ratio:.0%}, "
          f"mean {posture.mean_ratio:.0%}", file=status)
    return 0 if posture.worst_ratio >= 1.0 else 1


def _build_cache(args):
    """The verdict store the pipeline flags describe: a memory tier
    over one persistent tier.

    ``--shared-cache`` makes the fleet-shared remote that tier, else
    ``--cache`` makes the local bucket store it; with a remote, no
    local directory is read, written or created.  No flags, no cache.
    """
    shared = getattr(args, "shared_cache", None)
    if not (args.cache or shared):
        return None
    from repro.prevention import BucketStore, TieredVerdictStore

    writer_id = f"w{os.getpid()}"
    if shared:
        return TieredVerdictStore(
            remote=BucketStore(Path(shared) / "cas", tier="remote"),
            writer_id=writer_id)
    return TieredVerdictStore(
        local=BucketStore(Path(args.cache) / "cas", tier="local"),
        writer_id=writer_id)


def cmd_prevention(args, out) -> int:
    """Prevention-plane tooling; ``fleet`` simulates N concurrent CI
    runs sharing one remote verification cache and reports the
    aggregate warm-hit rate plus the per-run latency tail."""
    from repro.prevention import simulate_fleet

    if args.runs < 1:
        raise SystemExit("repro prevention fleet: --runs must be >= 1")
    report = simulate_fleet(
        runs=args.runs,
        shared_dir=args.shared_cache,
        workdir=args.workdir,
        jobs=args.jobs,
        mode="process" if args.processes else "thread",
        seed_cold=not args.no_seed,
    )
    document = report.to_dict()
    if args.json:
        _print_json(
            document, out,
            status_line=(f"fleet of {document['runs']} ({document['mode']}"
                         f" mode): warm-hit rate "
                         f"{document['warm_hit_rate']:.0%}"))
    else:
        _print_rows(document["per_run"], out)
        latency = document["latency_s"]
        print(f"fleet of {document['runs']} concurrent runs "
              f"({document['mode']} mode): warm-hit rate "
              f"{document['warm_hit_rate']:.0%}, latency p50 "
              f"{latency['p50'] * 1000:.0f}ms / p95 "
              f"{latency['p95'] * 1000:.0f}ms / max "
              f"{latency['max'] * 1000:.0f}ms", file=out)
    ok = report.all_passed and report.verdicts_identical
    return 0 if ok else 1


def cmd_pipeline(args, out) -> int:
    """Run the full prevention pipeline against a host profile.

    ``--jobs N`` wave-schedules pipeline jobs and fans the verification
    queries out to N threads; ``--cache DIR`` makes re-runs incremental
    through the content-addressed verdict cache; ``--shared-cache DIR``
    persists verdicts to the directory-based remote tier a CI fleet
    shares instead (hits are attributed per tier in the stats);
    ``--json`` emits the machine-readable run summary (cache stats
    included) on stdout with status lines on stderr, like ``repro soc
    --json``.
    """
    from repro.core import VeriDevOpsOrchestrator
    from repro.prevention import bundled_verification_tasks

    if args.jobs < 1:
        raise SystemExit("repro pipeline: --jobs must be >= 1")
    host = _host_for(args.profile)
    orchestrator = VeriDevOpsOrchestrator()
    orchestrator.ingest_standards(host.os_family)
    if args.requirement:
        orchestrator.ingest_natural_language(args.requirement)
    cache = _build_cache(args)
    run = orchestrator.run_prevention(
        [host],
        verification_tasks=bundled_verification_tasks(),
        max_workers=args.jobs if args.jobs > 1 else None,
        cache=cache,
    )
    stats = run.context.get("verification_cache_stats") \
        if cache is not None else None
    if stats is not None:
        # Counted once, after the run: the gate keeps to counters.
        stats = dict(stats, entries=len(cache))
    if args.json:
        document = {
            "profile": args.profile,
            "passed": run.passed,
            "failed_stage": run.failed_stage,
            "gates": run.gate_rows(),
            "jobs": args.jobs,
            "cache": stats,
            "cache_tiers": (cache.tier_names()
                            if cache is not None else None),
        }
        _print_json(document, out, status_line=run.summary())
        return 0 if run.passed else 1
    _print_rows(run.gate_rows(), out)
    if cache is not None:
        stats = stats or {}
        print("verification cache: "
              + ", ".join(f"{key}={value}"
                          for key, value in sorted(stats.items())),
              file=out)
    print(run.summary(), file=out)
    return 0 if run.passed else 1


def _reqs_corpora(registry, frontend: Optional[str]) -> Dict[str, list]:
    """Bundled IR per front-end (one, or all registered)."""
    if frontend:
        try:
            return {frontend: registry.lower_bundled(frontend)}
        except KeyError:
            raise SystemExit(
                f"repro reqs: unknown front-end {frontend!r}; "
                f"registered: {', '.join(registry.names())}")
    return registry.lower_all_bundled()


def _reqs_find(registry, frontend: Optional[str], rid: str):
    """Locate one IR record by id across the bundled corpora."""
    for name, irs in sorted(_reqs_corpora(registry, frontend).items()):
        for ir in irs:
            if ir.rid == rid:
                return name, ir
    raise SystemExit(f"repro reqs: no requirement {rid!r} in the "
                     f"bundled corpora")


def _reqs_lower_stream(registry, args, out) -> int:
    """``reqs lower --stream``: JSON-lines natives in, IR out, live.

    Each stdin line is one JSON value handed to the front-end as a
    native (a JSON string for prose front-ends like ``resa``).  Records
    are emitted as JSON lines *as they lower* — batched incrementally
    through :meth:`FrontendRegistry.lower_iter`, not at end of feed —
    so a downstream re-arm loop can act while the feed is still
    producing.  A malformed line (bad JSON, or a native the adapter or
    the provenance lint rejects) becomes a ``{"rejected": ...}`` line
    for that record only; the rest of the stream flows on.
    """
    import json as json_module
    import sys

    if args.frontend not in registry:
        raise SystemExit(
            f"repro reqs: unknown front-end {args.frontend!r}; "
            f"registered: {', '.join(registry.names())}")

    rejected_lines = [0]

    def natives():
        for line_number, line in enumerate(sys.stdin):
            line = line.strip()
            if not line:
                continue
            try:
                yield json_module.loads(line)
            except ValueError as exc:
                rejected_lines[0] += 1
                print(json_module.dumps(
                    {"rejected": {"frontend": args.frontend,
                                  "line": line_number,
                                  "error": f"bad JSON: {exc}"}}),
                    file=out, flush=True)

    from repro.reqs.ir import Requirement

    lowered = rejected = 0
    for item in registry.lower_iter(args.frontend, natives(),
                                    batch_size=args.batch):
        if isinstance(item, Requirement):
            lowered += 1
            print(json_module.dumps(
                dict(item.to_dict(), fingerprint=item.fingerprint())),
                file=out, flush=True)
        else:
            rejected += 1
            print(json_module.dumps(
                {"rejected": {"frontend": item.frontend,
                              "index": item.index,
                              "error": item.error}}),
                file=out, flush=True)
    print(f"{lowered} requirements lowered from {args.frontend!r}, "
          f"{rejected + rejected_lines[0]} rejected",
          file=sys.stderr)
    return 0


def cmd_reqs(args, out) -> int:
    """Inspect the unified requirements plane.

    ``list`` lowers every registered front-end's bundled corpus into
    the IR and tabulates it; ``show`` prints one record in full;
    ``lower`` dumps one front-end's IR with fingerprints; ``trace``
    walks source -> IR -> enforceable artifacts for one record.  All
    actions accept ``--json``; its output is schema-valid against
    ``schemas/requirement-ir.schema.json`` (the CI smoke pipes
    ``list --json`` straight into the validator).
    """
    from repro.reqs import default_registry

    registry = default_registry()

    if args.action == "list":
        corpora = _reqs_corpora(registry, args.frontend)
        records = [ir for _, irs in sorted(corpora.items()) for ir in irs]
        if args.json:
            _print_json([ir.to_dict() for ir in records], out,
                        status_line=f"{len(records)} requirements from "
                                    f"{len(corpora)} front-end(s)")
            return 0
        rows = [
            {"rid": ir.rid, "frontend": ir.source,
             "target": ir.target_kind, "severity": ir.severity,
             "pattern": (ir.formalization.pattern_kind or "-")
             if ir.formalization else "-",
             "title": ir.title[:48]}
            for ir in records
        ]
        _print_rows(rows, out)
        print(f"{len(records)} requirements from {len(corpora)} "
              f"front-end(s): "
              + ", ".join(f"{name}={len(irs)}"
                          for name, irs in sorted(corpora.items())),
              file=out)
        return 0

    if args.action == "lower" and getattr(args, "stream", False):
        return _reqs_lower_stream(registry, args, out)

    if args.action == "lower":
        try:
            irs = registry.lower_bundled(args.frontend)
        except KeyError:
            raise SystemExit(
                f"repro reqs: unknown front-end {args.frontend!r}; "
                f"registered: {', '.join(registry.names())}")
        if args.json:
            _print_json([dict(ir.to_dict(),
                              fingerprint=ir.fingerprint()) for ir in irs],
                        out,
                        status_line=f"{len(irs)} requirements lowered "
                                    f"from {args.frontend!r}")
            return 0
        rows = [
            {"rid": ir.rid, "fingerprint": ir.fingerprint(),
             "content": ir.content_fingerprint()}
            for ir in irs
        ]
        _print_rows(rows, out)
        print(f"{len(irs)} requirements lowered from "
              f"{args.frontend!r}", file=out)
        return 0

    frontend, ir = _reqs_find(registry, args.frontend, args.rid)

    if args.action == "show":
        if args.json:
            _print_json(ir.to_dict(), out)
            return 0
        print(f"rid       : {ir.rid}", file=out)
        print(f"frontend  : {frontend}", file=out)
        print(f"title     : {ir.title}", file=out)
        print(f"text      : {ir.text}", file=out)
        print(f"target    : {ir.target_kind}", file=out)
        print(f"severity  : {ir.severity}", file=out)
        if ir.formalization is not None:
            pattern, scope = ir.pattern_scope()
            print(f"pattern   : ({pattern}) ({scope})", file=out)
            print(f"LTL       : {ir.formalization.ltl or '-'}", file=out)
            print(f"TCTL      : {ir.formalization.tctl or '-'}", file=out)
        else:
            print("pattern   : -", file=out)
        print(f"tags      : {', '.join(ir.tags) or '-'}", file=out)
        print(f"bindings  : {', '.join(ir.bindings) or '-'}", file=out)
        for index, link in enumerate(ir.provenance):
            print(f"source #{index} : {link.render()}", file=out)
        return 0

    # trace: source -> IR -> enforceable artifacts.  Bindings are
    # RQCODE finding ids by IR contract, so any bound record can raise
    # through the rqcode adapter even if its own front-end cannot.
    host = _host_for(args.profile)
    artifacts = []
    for name in (frontend, "rqcode"):
        try:
            artifacts = [type(artifact).__name__ for artifact
                         in registry.get(name).raise_artifacts(ir, host)]
        except Exception:  # noqa: BLE001 - not every front-end raises
            continue
        break
    chain_digests = ir.provenance_digests()
    document = {
        "rid": ir.rid,
        "frontend": frontend,
        "provenance": [link.to_dict() for link in ir.provenance],
        "provenance_chain": list(chain_digests),
        "fingerprint": ir.fingerprint(),
        "content_fingerprint": ir.content_fingerprint(),
        "ltl": ir.formalization.ltl if ir.formalization else "",
        "tctl": ir.formalization.tctl if ir.formalization else "",
        "bindings": list(ir.bindings),
        "profile": args.profile,
        "artifacts": artifacts,
    }
    if args.json:
        _print_json(document, out)
        return 0
    print(f"{ir.rid} ({frontend})", file=out)
    for index, link in enumerate(ir.provenance):
        print(f"  source #{index}   : {link.render()} "
              f"[{chain_digests[index][:12]}]", file=out)
    print(f"  chain       : "
          + (chain_digests[-1] if chain_digests else "-"), file=out)
    print(f"  IR digest   : {document['fingerprint']}", file=out)
    print(f"  content     : {document['content_fingerprint']}", file=out)
    print(f"  LTL         : {document['ltl'] or '-'}", file=out)
    print(f"  TCTL        : {document['tctl'] or '-'}", file=out)
    print(f"  bindings    : {', '.join(ir.bindings) or '-'}", file=out)
    print(f"  artifacts   : "
          + (", ".join(artifacts) if artifacts
             else f"none raised for {args.profile}"), file=out)
    return 0


def cmd_scenarios(args, out) -> int:
    """Inspect the named bench scenarios.

    ``list`` tabulates the registry; ``describe`` prints one scenario
    in full (topology zones, compiled campaign schedule, shard hints);
    ``emit`` dumps the complete machine-readable scenario document —
    parameters, compiled campaign JSON, zone/conduit structure — the
    form external tooling (or a replay) consumes.
    """
    from repro.scenarios import get_scenario, scenario_names, \
        ScenarioError

    if args.action == "list":
        rows = []
        for name in scenario_names():
            scenario = get_scenario(name)
            campaign = scenario.compile_campaign()
            rows.append({
                "name": scenario.name,
                "kind": scenario.kind,
                "seed": scenario.seed,
                "hosts": scenario.hosts,
                "zones": scenario.zones or "-",
                "stages": ", ".join(s.name for s in campaign.stages),
            })
        if args.json:
            _print_json(rows, out,
                        status_line=f"{len(rows)} scenario(s)")
            return 0
        _print_rows(rows, out)
        print(f"{len(rows)} scenario(s); 'seed-legacy' pins the "
              f"pre-scenario bench fixtures", file=out)
        return 0

    try:
        scenario = get_scenario(args.name)
    except ScenarioError as exc:
        raise SystemExit(f"repro scenarios: {exc.args[0]}")

    if args.action == "emit":
        _print_json(scenario.to_dict(), out,
                    status_line=scenario.describe())
        return 0

    # describe
    campaign = scenario.compile_campaign()
    if args.json:
        _print_json(scenario.to_dict(), out)
        return 0
    print(scenario.describe(), file=out)
    print(f"summary   : {scenario.summary}", file=out)
    print(f"drifts    : " + ", ".join(
        f"{action} {arg}" for action, arg in scenario.drifts), file=out)
    print(f"NL feed   : {len(scenario.nl_requirements)} statement(s)",
          file=out)
    print(f"inventory : " + ", ".join(
        f"{name}={version}"
        for name, version in scenario.inventory), file=out)
    print(f"campaign  : {campaign.describe()}", file=out)
    for stage in campaign.stages:
        print(f"  stage {stage.name}: rounds>={stage.rounds} "
              f"(+<={stage.max_extra_rounds} at {stage.extend_rate}), "
              f"targets={len(stage.target_hosts) or 'fleet'}, "
              f"capec={', '.join(stage.capec_ids) or '-'}", file=out)
    if scenario.generated:
        topology = scenario.topology()
        print(f"topology  : {topology.describe()}", file=out)
        problems = topology.validate()
        print(f"validity  : "
              + ("OK" if not problems else "; ".join(problems)),
              file=out)
        census = topology.shard_census(args.shards)
        for shard in sorted(census):
            zones = ", ".join(f"{zone}={count}" for zone, count
                              in sorted(census[shard].items()))
            print(f"  shard {shard}: {zones}", file=out)
        return 0 if not problems else 1
    return 0


def _sched_journal(path: str):
    from repro.sched.journal import Journal, JournalError

    try:
        return Journal(path)
    except JournalError as exc:
        raise SystemExit(f"repro sched: {exc}")


def _sched_chaos(path):
    if not path:
        return None
    from repro.chaos import ChaosController, FaultPlan, FaultPlanError

    try:
        with open(path) as handle:
            plan = FaultPlan.from_json(handle.read())
    except OSError as exc:
        raise SystemExit(f"repro sched: cannot read chaos plan "
                         f"{path!r}: {exc.strerror or exc}")
    except FaultPlanError as exc:
        raise SystemExit(f"repro sched: invalid chaos plan {path!r}: {exc}")
    return ChaosController(plan)


def cmd_sched(args, out) -> int:
    """Journaled, crash-resumable scheduled runs.

    ``run`` drives the prevention pipeline through a journal-attached
    scheduler (``--crash-after`` / ``--chaos-plan`` inject crashes);
    ``resume`` continues a crashed run from its journal, adopting every
    journaled verdict instead of re-verifying; ``status`` and
    ``replay`` inspect a journal without executing anything.  An
    injected crash exits 3 and leaves the journal resumable.
    """
    if args.action in ("status", "replay"):
        journal = _sched_journal(args.journal)
        if args.action == "status":
            plan = journal.plan() or {}
            finished = journal.finished()
            duplicated = sorted(
                name for name, count
                in journal.completion_counts().items() if count > 1)
            document = {
                "journal": args.journal,
                "entries": len(journal),
                "head": journal.head_digest(),
                "chain_ok": journal.verify(),
                "torn_tail": journal.torn_tail,
                "profile": plan.get("profile"),
                "jobs": plan.get("jobs"),
                "requirements": len((plan.get("ir") or {})
                                    .get("fingerprints", [])),
                "resumes": journal.resumes(),
                "completions": len(journal.completions()),
                "duplicated_completions": duplicated,
                "finished": finished is not None,
                "passed": finished.get("passed") if finished else None,
            }
            if args.json:
                _print_json(document, out)
                return 0
            for key in ("journal", "entries", "head", "chain_ok",
                        "torn_tail", "profile", "jobs", "requirements",
                        "resumes", "completions",
                        "duplicated_completions", "finished", "passed"):
                print(f"{key:24}: {document[key]}", file=out)
            return 0
        # replay: the chain-validated entry history, in order.
        if args.json:
            _print_json([entry.to_dict() for entry in journal.entries],
                        out,
                        status_line=f"{len(journal)} entries; chain "
                                    f"{'ok' if journal.verify() else 'BROKEN'}")
            return 0
        rows = [{"seq": entry.seq, "kind": entry.kind,
                 "task": entry.task or "-", "digest": entry.digest[:12]}
                for entry in journal.entries]
        _print_rows(rows, out)
        print(f"{len(journal)} entries; chain "
              f"{'ok' if journal.verify() else 'BROKEN'}; "
              f"head {journal.head_digest()[:12]}"
              + ("; torn tail dropped" if journal.torn_tail else ""),
              file=out)
        return 0

    # run / resume: build (or rebuild) the journaled prevention run.
    from repro.sched.runner import JournaledPreventionRun, RunPlanError
    from repro.sched.scheduler import SchedulerCrash

    if args.action == "resume":
        journal = _sched_journal(args.journal)
        plan = journal.plan()
        if plan is None:
            raise SystemExit(
                f"repro sched: journal {args.journal!r} has no recorded "
                f"plan; nothing to resume")
        profile = plan.get("profile")
        jobs = int(plan.get("jobs") or 1)
    else:
        if args.jobs < 1:
            raise SystemExit("repro sched: --jobs must be >= 1")
        profile, jobs = args.profile, args.jobs

    host = _host_for(profile)
    runner = JournaledPreventionRun(
        args.journal, host, profile, jobs=jobs,
        chaos=_sched_chaos(args.chaos_plan),
        crash_after=args.crash_after)
    try:
        verdict = runner.execute()
    except RunPlanError as exc:
        raise SystemExit(f"repro sched: {exc}")
    except SchedulerCrash as exc:
        print(f"repro sched: {exc}", file=sys.stderr)
        print(f"repro sched: journal {args.journal!r} is resumable: "
              f"repro sched resume --journal {args.journal}",
              file=sys.stderr)
        return 3

    status_line = (
        f"sched {'replayed' if verdict['replayed'] else args.action}: "
        f"{'passed' if verdict['passed'] else 'failed'}; "
        f"resumes={verdict['resumes']} adopted={verdict['adopted']}")
    if args.json:
        document = dict(verdict, profile=profile, jobs=jobs,
                        journal=args.journal)
        _print_json(document, out, status_line=status_line)
        return 0 if verdict["passed"] else 1
    _print_rows(verdict["gates"], out)
    print(status_line, file=out)
    return 0 if verdict["passed"] else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VeriDevOps reproduction: security requirements as "
                    "code, from prose to protection.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    audit = subparsers.add_parser(
        "audit", help="check a host profile against the STIG catalogue")
    audit.add_argument("--profile", default="ubuntu-default",
                       help=f"one of {', '.join(sorted(PROFILES))}")
    audit.set_defaults(func=cmd_audit)

    harden = subparsers.add_parser(
        "harden", help="check/enforce/re-check a host profile")
    harden.add_argument("--profile", default="ubuntu-adversarial")
    harden.set_defaults(func=cmd_harden)

    smells = subparsers.add_parser(
        "smells", help="NALABS smell analysis of a requirements CSV")
    smells.add_argument("csv_file")
    smells.add_argument("--id-column", default="REQ ID")
    smells.add_argument("--text-column", default="Text")
    smells.add_argument("--max-smelly-ratio", type=float, default=0.2)
    smells.set_defaults(func=cmd_smells)

    formalize = subparsers.add_parser(
        "formalize", help="RESA-match a statement and render LTL/TCTL")
    formalize.add_argument("statement")
    formalize.set_defaults(func=cmd_formalize)

    scan = subparsers.add_parser(
        "scan", help="scan an inventory against the vulnerability DB")
    scan.add_argument("--product", action="append", default=[],
                      metavar="NAME=VERSION")
    scan.add_argument("--platform", default="ubuntu",
                      choices=("ubuntu", "windows"))
    scan.add_argument("--host-name", default="cli-host")
    scan.add_argument("--min-severity", default="LOW",
                      choices=("LOW", "MEDIUM", "HIGH", "CRITICAL"))
    scan.add_argument("--fail-on-findings", action="store_true")
    scan.set_defaults(func=cmd_scan)

    gap = subparsers.add_parser(
        "gap", help="IEC 62443-3-3 gap analysis of a host profile")
    gap.add_argument("--profile", default="ubuntu-default")
    gap.add_argument("--level", type=int, default=1, choices=(1, 2, 3, 4),
                     help="target security level (SL)")
    gap.set_defaults(func=cmd_gap)

    report = subparsers.add_parser(
        "report", help="run the pipeline and emit the Markdown report")
    report.add_argument("--profile", default="ubuntu-default")
    report.add_argument("--output", default="-",
                        help="output path, or - for stdout")
    report.set_defaults(func=cmd_report)

    soc = subparsers.add_parser(
        "soc", help="run the concurrent SOC runtime on a synthetic fleet")
    soc.add_argument("--hosts", type=int, default=6,
                     help="fleet size (default 6)")
    soc.add_argument("--shards", type=int, default=4,
                     help="worker shard count (default 4)")
    soc.add_argument("--drifts", type=int, default=12,
                     help="drift injections across the fleet (default 12)")
    soc.add_argument("--noise", type=int, default=3,
                     help="benign events emitted before each drift")
    soc.add_argument("--queue-capacity", type=int, default=256)
    soc.add_argument("--policy", default="block",
                     choices=("block", "drop-oldest", "reject"),
                     help="backpressure when a shard queue is full")
    soc.add_argument("--backend", default=None,
                     choices=("thread", "process"),
                     help="shard execution backend (default: "
                          "$REPRO_SOC_BACKEND or thread); 'process' "
                          "runs shards as worker processes over the "
                          "binary event plane")
    soc.add_argument("--seed", type=int, default=0)
    soc.add_argument("--windows-every", type=int, default=3, metavar="N",
                     help="every Nth host is Windows (0 = all Ubuntu)")
    soc.add_argument("--chaos-plan", metavar="PATH", default=None,
                     help="JSON fault plan: inject its deterministic "
                          "faults and reconcile afterwards")
    soc.add_argument("--json", action="store_true",
                     help="emit the machine-readable JSON run summary "
                          "instead of the text report")
    soc.set_defaults(func=cmd_soc)

    pipeline = subparsers.add_parser(
        "pipeline", help="run the prevention pipeline on a host profile")
    pipeline.add_argument("--profile", default="ubuntu-default")
    pipeline.add_argument("--requirement", action="append", default=[],
                          help="extra NL requirement (repeatable)")
    pipeline.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="parallel workers for stage jobs and "
                               "verification queries (default 1: serial)")
    pipeline.add_argument("--cache", metavar="DIR", default=None,
                          help="local verdict store directory (memory "
                               "over the bucket store in DIR/cas); "
                               "re-runs only re-verify changed "
                               "artifacts (ignored when --shared-cache "
                               "is given)")
    pipeline.add_argument("--shared-cache", metavar="DIR", default=None,
                          help="shared remote cache tier: a directory "
                               "of sharded verdict buckets concurrent "
                               "CI runs read through and write back to")
    pipeline.add_argument("--json", action="store_true",
                          help="emit the machine-readable JSON run "
                               "summary (cache stats included) instead "
                               "of the text table")
    pipeline.set_defaults(func=cmd_pipeline)

    prevention = subparsers.add_parser(
        "prevention", help="prevention-plane tooling (CI-fleet cache "
                           "simulator)")
    prevention_actions = prevention.add_subparsers(dest="action",
                                                   required=True)
    fleet = prevention_actions.add_parser(
        "fleet", help="run N concurrent pipeline runs against one "
                      "shared verification cache and report warm-hit "
                      "rate + latency tail")
    fleet.add_argument("--runs", type=int, default=4, metavar="N",
                       help="concurrent pipeline runs (default 4)")
    fleet.add_argument("--shared-cache", metavar="DIR", default=None,
                       help="shared remote cache directory (default: "
                            "a fresh directory under --workdir)")
    fleet.add_argument("--workdir", metavar="DIR", default=None,
                       help="where the shared remote lives when "
                            "--shared-cache is not given (default: a "
                            "temp directory)")
    fleet.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="verification workers inside each run")
    fleet.add_argument("--processes", action="store_true",
                       help="run fleet members as real child "
                            "processes through the CLI instead of "
                            "threads")
    fleet.add_argument("--no-seed", action="store_true",
                       help="skip the cold seeding run (the fleet "
                            "pays the cold cost itself)")
    fleet.add_argument("--json", action="store_true")
    fleet.set_defaults(func=cmd_prevention)

    reqs = subparsers.add_parser(
        "reqs", help="inspect the unified requirements plane (IR)")
    reqs_actions = reqs.add_subparsers(dest="action", required=True)

    reqs_list = reqs_actions.add_parser(
        "list", help="lower every bundled front-end corpus and tabulate")
    reqs_list.add_argument("--frontend", default=None,
                           help="restrict to one registered front-end")
    reqs_list.add_argument("--json", action="store_true",
                           help="emit the IR records as a JSON array "
                                "(schema-valid; see schemas/)")
    reqs_list.set_defaults(func=cmd_reqs)

    reqs_show = reqs_actions.add_parser(
        "show", help="print one bundled IR record in full")
    reqs_show.add_argument("rid", help="requirement id (see reqs list)")
    reqs_show.add_argument("--frontend", default=None)
    reqs_show.add_argument("--json", action="store_true")
    reqs_show.set_defaults(func=cmd_reqs)

    reqs_lower = reqs_actions.add_parser(
        "lower", help="lower one front-end's corpus, with fingerprints")
    reqs_lower.add_argument(
        "--stream", action="store_true",
        help="read JSON-lines natives from stdin and emit IR records "
             "as they lower (incremental; bad lines are rejected "
             "individually)")
    reqs_lower.add_argument(
        "--batch", type=int, default=8,
        help="streaming batch size (natives lowered per adapter call)")
    reqs_lower.add_argument("frontend",
                            help="registered front-end name")
    reqs_lower.add_argument("--json", action="store_true")
    reqs_lower.set_defaults(func=cmd_reqs)

    reqs_trace = reqs_actions.add_parser(
        "trace", help="walk source -> IR -> artifacts for one record")
    reqs_trace.add_argument("rid")
    reqs_trace.add_argument("--frontend", default=None)
    reqs_trace.add_argument("--profile", default="ubuntu-default",
                            help="host profile for artifact raising")
    reqs_trace.add_argument("--json", action="store_true")
    reqs_trace.set_defaults(func=cmd_reqs)

    scenarios = subparsers.add_parser(
        "scenarios", help="inspect the named bench scenarios")
    scenario_actions = scenarios.add_subparsers(dest="action",
                                                required=True)

    scenarios_list = scenario_actions.add_parser(
        "list", help="tabulate the scenario registry")
    scenarios_list.add_argument("--json", action="store_true")
    scenarios_list.set_defaults(func=cmd_scenarios)

    scenarios_describe = scenario_actions.add_parser(
        "describe", help="print one scenario in full (topology, "
                         "campaign schedule, shard hints)")
    scenarios_describe.add_argument("name",
                                    help="scenario name (see list)")
    scenarios_describe.add_argument("--shards", type=int, default=4,
                                    help="shard count for the "
                                         "placement census (default 4)")
    scenarios_describe.add_argument("--json", action="store_true")
    scenarios_describe.set_defaults(func=cmd_scenarios)

    scenarios_emit = scenario_actions.add_parser(
        "emit", help="dump the machine-readable scenario document "
                     "(campaign JSON + topology) on stdout")
    scenarios_emit.add_argument("name")
    scenarios_emit.set_defaults(func=cmd_scenarios)

    sched = subparsers.add_parser(
        "sched", help="journaled, crash-resumable scheduled runs")
    sched_actions = sched.add_subparsers(dest="action", required=True)

    sched_run = sched_actions.add_parser(
        "run", help="run the prevention pipeline under a journaled "
                    "scheduler")
    sched_run.add_argument("--journal", required=True, metavar="PATH",
                           help="journal file (created if absent)")
    sched_run.add_argument("--profile", default="ubuntu-default")
    sched_run.add_argument("--jobs", type=int, default=1, metavar="N")
    sched_run.add_argument("--crash-after", type=int, default=None,
                           metavar="N",
                           help="inject a scheduler crash after N fresh "
                                "journaled completions (exit 3)")
    sched_run.add_argument("--chaos-plan", metavar="PATH", default=None,
                           help="JSON fault plan with sched.crash / "
                                "sched.truncate rates")
    sched_run.add_argument("--json", action="store_true")
    sched_run.set_defaults(func=cmd_sched)

    sched_resume = sched_actions.add_parser(
        "resume", help="resume a crashed run from its journal "
                       "(profile and jobs come from the recorded plan)")
    sched_resume.add_argument("--journal", required=True, metavar="PATH")
    sched_resume.add_argument("--crash-after", type=int, default=None,
                              metavar="N")
    sched_resume.add_argument("--chaos-plan", metavar="PATH",
                              default=None)
    sched_resume.add_argument("--json", action="store_true")
    sched_resume.set_defaults(func=cmd_sched)

    sched_status = sched_actions.add_parser(
        "status", help="summarize a journal (plan, chain, completions)")
    sched_status.add_argument("--journal", required=True, metavar="PATH")
    sched_status.add_argument("--json", action="store_true")
    sched_status.set_defaults(func=cmd_sched)

    sched_replay = sched_actions.add_parser(
        "replay", help="print the chain-validated journal history")
    sched_replay.add_argument("--journal", required=True, metavar="PATH")
    sched_replay.add_argument("--json", action="store_true")
    sched_replay.set_defaults(func=cmd_sched)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":
    sys.exit(main())
