"""``smells``, ``formalize`` and ``scan``: requirements from a CSV, a
prose statement, or a software inventory."""

from repro.cli.common import command, table


def cmd_smells(args, out) -> int:
    """NALABS smell analysis of a requirements CSV (REQ ID, Text)."""
    from repro.nalabs import NalabsAnalyzer

    with open(args.csv_file) as handle:
        report = NalabsAnalyzer().analyze_csv(
            handle.read(), id_column=args.id_column,
            text_column=args.text_column)
    rows = [{"req": r.req_id, "smells": ", ".join(r.flagged_metrics) or "-"}
            for r in report.reports]
    print("\n".join(table(
        rows, f"{report.smelly_count}/{report.total} requirements smelly")),
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
    print("\n".join(table(rows, f"{len(report.matched)} matches -> "
                                f"{len(report.requirements)} requirements")),
          file=out)
    return 0 if not args.fail_on_findings or not report.requirements else 1


def register(subparsers) -> None:
    smells = command(subparsers, "smells",
                     "NALABS smell analysis of a requirements CSV",
                     cmd_smells)
    smells.add_argument("csv_file")
    smells.add_argument("--id-column", default="REQ ID")
    smells.add_argument("--text-column", default="Text")
    smells.add_argument("--max-smelly-ratio", type=float, default=0.2)

    formalize = command(subparsers, "formalize",
                        "RESA-match a statement and render LTL/TCTL",
                        cmd_formalize)
    formalize.add_argument("statement")

    scan = command(subparsers, "scan",
                   "scan an inventory against the vulnerability DB",
                   cmd_scan)
    scan.add_argument("--product", action="append", default=[],
                      metavar="NAME=VERSION")
    scan.add_argument("--platform", default="ubuntu",
                      choices=("ubuntu", "windows"))
    scan.add_argument("--host-name", default="cli-host")
    scan.add_argument("--min-severity", default="LOW",
                      choices=("LOW", "MEDIUM", "HIGH", "CRITICAL"))
    scan.add_argument("--fail-on-findings", action="store_true")
