"""``pipeline``, ``report`` and ``prevention fleet``: the prevention
pipeline on a host profile, and a CI fleet sharing one verdict store."""

import os
from pathlib import Path

from repro.cli.common import command, count, emit, group, host_for, table


def _build_cache(args):
    """The verdict store the pipeline flags describe: a memory tier
    over one persistent tier.

    ``--shared-cache`` makes the fleet-shared remote that tier, else
    ``--cache`` makes the local bucket store it; with a remote, no
    local directory is read, written or created.  No flags, no cache.
    """
    if not (args.cache or args.shared_cache):
        return None
    from repro.prevention import BucketStore, TieredVerdictStore

    writer_id = f"w{os.getpid()}"
    if args.shared_cache:
        return TieredVerdictStore(
            remote=BucketStore(Path(args.shared_cache) / "cas",
                               tier="remote"),
            writer_id=writer_id)
    return TieredVerdictStore(
        local=BucketStore(Path(args.cache) / "cas", tier="local"),
        writer_id=writer_id)


def cmd_pipeline(args, out) -> int:
    """Run the full prevention pipeline against a host profile.

    ``--jobs N`` wave-schedules pipeline jobs and fans the verification
    queries out to N threads; ``--cache DIR`` makes re-runs incremental
    through the content-addressed verdict cache; ``--shared-cache DIR``
    persists verdicts to the directory-based remote tier a CI fleet
    shares instead (hits are attributed per tier in the stats);
    ``--json`` emits the machine-readable run summary (cache stats
    included).
    """
    from repro.core import VeriDevOpsOrchestrator
    from repro.prevention import bundled_verification_tasks

    host = host_for(args.profile)
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
    document = {
        "profile": args.profile,
        "passed": run.passed,
        "failed_stage": run.failed_stage,
        "gates": run.gate_rows(),
        "jobs": args.jobs,
        "cache": stats,
        "cache_tiers": cache.tier_names() if cache is not None else None,
    }
    cache_line = () if cache is None else (
        "verification cache: " + ", ".join(
            f"{key}={value}" for key, value in sorted((stats or {}).items())),)
    emit(args, out, document,
         table(document["gates"], *cache_line, run.summary()),
         status=run.summary())
    return 0 if run.passed else 1


def cmd_report(args, out) -> int:
    """Run the prevention pipeline and write the Markdown report."""
    from repro.core import VeriDevOpsOrchestrator, report_for_cycle

    host = host_for(args.profile)
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


def cmd_fleet(args, out) -> int:
    """Simulate N concurrent CI runs sharing one remote verification
    cache; report the aggregate warm-hit rate and the per-run latency
    tail."""
    from repro.prevention import simulate_fleet

    report = simulate_fleet(
        runs=args.runs,
        shared_dir=args.shared_cache,
        workdir=args.workdir,
        jobs=args.jobs,
        mode="process" if args.processes else "thread",
        seed_cold=not args.no_seed,
    )
    document = report.to_dict()
    runs, mode = document["runs"], document["mode"]
    rate, latency = document["warm_hit_rate"], document["latency_s"]
    emit(args, out, document, table(
        document["per_run"],
        f"fleet of {runs} concurrent runs ({mode} mode): warm-hit rate "
        f"{rate:.0%}, latency p50 {latency['p50'] * 1000:.0f}ms / p95 "
        f"{latency['p95'] * 1000:.0f}ms / max "
        f"{latency['max'] * 1000:.0f}ms"),
        status=f"fleet of {runs} ({mode} mode): warm-hit rate {rate:.0%}")
    return 0 if report.all_passed and report.verdicts_identical else 1


def register(subparsers) -> None:
    report = command(subparsers, "report",
                     "run the pipeline and emit the Markdown report",
                     cmd_report, "--profile")
    report.add_argument("--output", default="-",
                        help="output path, or - for stdout")

    pipeline = command(subparsers, "pipeline",
                       "run the prevention pipeline on a host profile",
                       cmd_pipeline, "--profile", "--jobs", "--shared-cache",
                       "--json")
    pipeline.add_argument("--requirement", action="append", default=[],
                          help="extra NL requirement (repeatable)")
    pipeline.add_argument("--cache", metavar="DIR", default=None,
                          help="local verdict store directory (memory "
                               "over the bucket store in DIR/cas); "
                               "re-runs only re-verify changed "
                               "artifacts (ignored when --shared-cache "
                               "is given)")

    fleet = command(
        group(subparsers, "prevention",
              "prevention-plane tooling (CI-fleet cache simulator)"),
        "fleet", "run N concurrent pipeline runs against one shared "
                 "verification cache and report warm-hit rate + latency "
                 "tail",
        cmd_fleet, "--shared-cache", "--jobs", "--json")
    fleet.add_argument("--runs", **count(4, metavar="N",
                       help="concurrent pipeline runs (default 4)"))
    fleet.add_argument("--workdir", metavar="DIR", default=None,
                       help="where the shared remote lives when "
                            "--shared-cache is not given (default: a "
                            "temp directory)")
    fleet.add_argument("--processes", action="store_true",
                       help="run fleet members as real child processes "
                            "through the CLI instead of threads")
    fleet.add_argument("--no-seed", action="store_true",
                       help="skip the cold seeding run (the fleet pays "
                            "the cold cost itself)")
