"""``scenarios``: inspect the named bench scenarios.

``list`` tabulates the registry; ``describe`` prints one scenario in
full (topology zones, compiled campaign schedule, shard hints) and
exits 1 when its topology is invalid; ``emit`` dumps the complete
machine-readable scenario document — parameters, compiled campaign
JSON, zone/conduit structure — the form external tooling (or a replay)
consumes.
"""

from repro.cli.common import command, emit, group, table


def _scenario(name: str):
    from repro.scenarios import ScenarioError, get_scenario

    try:
        return get_scenario(name)
    except ScenarioError as exc:
        raise SystemExit(f"repro scenarios: {exc.args[0]}")


def cmd_list(args, out) -> int:
    from repro.scenarios import scenario_names

    rows = []
    for scenario in map(_scenario, scenario_names()):
        rows.append({
            "name": scenario.name,
            "kind": scenario.kind,
            "seed": scenario.seed,
            "hosts": scenario.hosts,
            "zones": scenario.zones or "-",
            "stages": ", ".join(
                s.name for s in scenario.compile_campaign().stages),
        })
    emit(args, out, rows, table(
        rows, f"{len(rows)} scenario(s); 'seed-legacy' pins the "
              f"pre-scenario bench fixtures"),
        status=f"{len(rows)} scenario(s)")
    return 0


def cmd_describe(args, out) -> int:
    scenario = _scenario(args.name)
    topology = scenario.topology() if scenario.generated else None
    problems = topology.validate() if topology is not None else []

    def lines():
        campaign = scenario.compile_campaign()
        yield scenario.describe()
        yield f"summary   : {scenario.summary}"
        yield "drifts    : " + ", ".join(
            f"{action} {arg}" for action, arg in scenario.drifts)
        yield f"NL feed   : {len(scenario.nl_requirements)} statement(s)"
        yield "inventory : " + ", ".join(
            f"{name}={version}" for name, version in scenario.inventory)
        yield f"campaign  : {campaign.describe()}"
        for stage in campaign.stages:
            yield (f"  stage {stage.name}: rounds>={stage.rounds} "
                   f"(+<={stage.max_extra_rounds} at {stage.extend_rate}), "
                   f"targets={len(stage.target_hosts) or 'fleet'}, "
                   f"capec={', '.join(stage.capec_ids) or '-'}")
        if topology is not None:
            yield f"topology  : {topology.describe()}"
            yield "validity  : " + ("; ".join(problems) or "OK")
            census = topology.shard_census(args.shards)
            for shard in sorted(census):
                yield f"  shard {shard}: " + ", ".join(
                    f"{zone}={count}"
                    for zone, count in sorted(census[shard].items()))

    emit(args, out, scenario.to_dict, lines())
    return 1 if problems else 0


def cmd_emit(args, out) -> int:
    scenario = _scenario(args.name)
    emit(args, out, scenario.to_dict(), status=scenario.describe())
    return 0


def register(subparsers) -> None:
    actions = group(subparsers, "scenarios",
                    "inspect the named bench scenarios")
    command(actions, "list", "tabulate the scenario registry",
            cmd_list, "--json")
    describe = command(actions, "describe",
                       "print one scenario in full (topology, campaign "
                       "schedule, shard hints)",
                       cmd_describe, "--shards", "--json")
    describe.add_argument("name", help="scenario name (see list)")
    emit_ = command(actions, "emit",
                    "dump the machine-readable scenario document "
                    "(campaign JSON + topology) on stdout",
                    cmd_emit, json=True)
    emit_.add_argument("name")
