"""``audit``, ``harden`` and ``gap``: a host profile against the STIG
catalogue and the IEC 62443-3-3 security levels."""

from repro.cli.common import command, host_for, table


def cmd_stig(args, out) -> int:
    """Check a host profile against the STIG catalogue (read-only), or
    with ``harden`` run the check/enforce/re-check campaign on it."""
    from repro.rqcode import default_catalog

    catalog = default_catalog()
    campaign = catalog.harden_host if args.harden else catalog.check_host
    report = campaign(host_for(args.profile))
    print("\n".join(table(report.rows(), report.summary())), file=out)
    return 0 if report.compliance_ratio >= 1.0 else 1


def cmd_gap(args, out) -> int:
    """IEC 62443 gap analysis of a host profile at a target level."""
    from repro.rqcode import default_catalog
    from repro.standards import GapAnalysis, SecurityLevel, SrStatus

    report = GapAnalysis(default_catalog()).analyze(
        host_for(args.profile), SecurityLevel(args.level))
    print("\n".join(table(
        report.rows(),
        f"coverage (evidenced SRs): {report.coverage:.0%}; "
        f"unmapped: {report.count(SrStatus.UNMAPPED)}")), file=out)
    return 0 if report.coverage >= 1.0 else 1


def register(subparsers) -> None:
    command(subparsers, "audit",
            "check a host profile against the STIG catalogue",
            cmd_stig, "--profile", harden=False)
    command(subparsers, "harden", "check/enforce/re-check a host profile",
            cmd_stig, "--profile", harden=True,
            profile="ubuntu-adversarial")
    gap = command(subparsers, "gap",
                  "IEC 62443-3-3 gap analysis of a host profile",
                  cmd_gap, "--profile")
    gap.add_argument("--level", type=int, default=1, choices=(1, 2, 3, 4),
                     help="target security level (SL)")
