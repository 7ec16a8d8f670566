"""``soc``: the concurrent SOC runtime over a synthetic fleet."""

import sys

from repro.cli.common import command, count, emit, load_chaos


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
    from repro.soc import Backpressure, render_report, run_summary

    if args.backend == "process" and args.policy == "drop-oldest":
        raise SystemExit("repro soc: --backend process supports "
                         "--policy block or reject (drop-oldest needs "
                         "the thread backend)")
    chaos = load_chaos(args.chaos_plan, "repro soc")
    # With --json, stdout is the machine-readable document alone;
    # human status lines move to stderr so the output pipes cleanly.
    status = sys.stderr if args.json else out
    if chaos is not None:
        print(f"chaos plan: {chaos.plan.describe()}", file=status)
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
    title = f"SOC run over {len(fleet)} hosts / {args.shards} shards"
    emit(args, out, lambda: run_summary(service),
         lambda: [render_report(service, title=title)], indent=2)
    posture = fleet.audit()
    print(f"posture after run: worst {posture.worst_ratio:.0%}, "
          f"mean {posture.mean_ratio:.0%}", file=status)
    return 0 if posture.worst_ratio >= 1.0 else 1


def register(subparsers) -> None:
    soc = command(subparsers, "soc",
                  "run the concurrent SOC runtime on a synthetic fleet",
                  cmd_soc, "--shards", "--chaos-plan", "--json")
    soc.add_argument("--hosts", **count(6, help="fleet size (default 6)"))
    soc.add_argument("--drifts", **count(
        12, minimum=0,
        help="drift injections across the fleet (default 12)"))
    soc.add_argument("--noise", **count(
        3, minimum=0, help="benign events emitted before each drift"))
    soc.add_argument("--queue-capacity", **count(256))
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
