"""Characterization tests for the CLI surface.

Two things are pinned here, independent of how the CLI is laid out in
code:

* the parser surface — for every subcommand path, each option's
  strings, dest, default, choices, required-ness, nargs, metavar and
  const (help text and ``type`` are free to change) — against
  ``tests/data/cli_surface.json``;
* the transcript of invalid input — each ``SystemExit`` message (exit
  status 1) or argparse usage error (exit status 2).

Regenerate the golden only for an intended CLI change::

    PYTHONPATH=src python -m tests.test_cli_surface > tests/data/cli_surface.json
"""

import argparse
import io
import json
from pathlib import Path

import pytest

from repro.cli import PROFILES, build_parser, main

GOLDEN = Path(__file__).parent / "data" / "cli_surface.json"


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def parser_surface(parser=None, path=("repro",)):
    """``{"repro sched run": [[option_strings, dest, default, choices,
    required, nargs, metavar, const], ...], ...}`` over every path."""
    parser = parser or build_parser()
    surface, rows = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                surface.update(parser_surface(child, path + (name,)))
            choices = sorted(choices)
        rows.append(_plain([action.option_strings, action.dest,
                            action.default, choices, action.required,
                            action.nargs, action.metavar, action.const]))
    surface[" ".join(path)] = sorted(rows, key=json.dumps)
    return surface


def test_parser_surface_matches_golden():
    assert parser_surface() == json.loads(GOLDEN.read_text())


def _exit_code(argv):
    """The ``SystemExit`` code *argv* raises: a message (exit status 1)
    or argparse's usage-error status 2."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv, out=io.StringIO())
    return excinfo.value.code


@pytest.fixture
def files(tmp_path):
    (tmp_path / "bad.json").write_text('{"worker_crash": 7}')
    (tmp_path / "corrupt.jsonl").write_text("torn\ntorn\n")
    return tmp_path


def _profiles():
    return ", ".join(sorted(PROFILES))


def _frontends():
    from repro.reqs import default_registry

    return ", ".join(default_registry().names())


UNKNOWN_PROFILE = "unknown profile 'solaris'; choose from {profiles}"
BAD_PLAN = ("{cmd}: invalid chaos plan '{tmp}/bad.json': worker_crash "
            "must be a rate in [0, 1], got 7")
MISSING_PLAN = ("{cmd}: cannot read chaos plan '{tmp}/missing.json': "
                "No such file or directory")
UNKNOWN_FRONTEND = "repro reqs: unknown front-end 'nope'; registered: " \
                   "{frontends}"
NO_RID = "repro reqs: no requirement 'NOPE-1' in the bundled corpora"

TRANSCRIPT = [
    ("audit --profile solaris", UNKNOWN_PROFILE),
    ("harden --profile solaris", UNKNOWN_PROFILE),
    ("gap --profile solaris", UNKNOWN_PROFILE),
    ("report --profile solaris", UNKNOWN_PROFILE),
    ("pipeline --profile solaris", UNKNOWN_PROFILE),
    ("reqs trace CIS-UBU-1 --profile solaris --frontend nope",
     UNKNOWN_FRONTEND),
    ("sched run --journal {tmp}/j.jsonl --profile solaris",
     UNKNOWN_PROFILE),
    ("soc --chaos-plan {tmp}/bad.json", BAD_PLAN.replace("{cmd}",
                                                        "repro soc")),
    ("soc --chaos-plan {tmp}/missing.json",
     MISSING_PLAN.replace("{cmd}", "repro soc")),
    ("sched run --journal {tmp}/j.jsonl --chaos-plan {tmp}/bad.json",
     BAD_PLAN.replace("{cmd}", "repro sched")),
    ("sched run --journal {tmp}/j.jsonl --chaos-plan {tmp}/missing.json",
     MISSING_PLAN.replace("{cmd}", "repro sched")),
    ("soc --backend process --policy drop-oldest",
     "repro soc: --backend process supports --policy block or reject "
     "(drop-oldest needs the thread backend)"),
    ("reqs list --frontend nope", UNKNOWN_FRONTEND),
    ("reqs lower nope", UNKNOWN_FRONTEND),
    ("reqs lower nope --stream", UNKNOWN_FRONTEND),
    ("reqs show NOPE-1 --frontend nope", UNKNOWN_FRONTEND),
    ("reqs show NOPE-1", NO_RID),
    ("reqs trace NOPE-1", NO_RID),
    ("scenarios describe nope",
     "repro scenarios: no scenario 'nope'; registered: {scenarios}"),
    ("scenarios emit nope",
     "repro scenarios: no scenario 'nope'; registered: {scenarios}"),
    ("sched resume --journal {tmp}/empty.jsonl",
     "repro sched: journal '{tmp}/empty.jsonl' has no recorded plan; "
     "nothing to resume"),
    ("sched status --journal {tmp}/corrupt.jsonl",
     "repro sched: {tmp}/corrupt.jsonl: unparseable entry at line 1"),
    ("sched replay --journal {tmp}/corrupt.jsonl",
     "repro sched: {tmp}/corrupt.jsonl: unparseable entry at line 1"),
    ("scan --product bash", "product spec must be name=version: 'bash'"),
    ("pipeline --jobs 0", "repro pipeline: --jobs must be >= 1"),
    ("soc --hosts 0", "repro soc: --hosts must be >= 1"),
    ("soc --shards 0", "repro soc: --shards must be >= 1"),
    ("prevention fleet --runs 0",
     "repro prevention fleet: --runs must be >= 1"),
    # argparse usage errors: exit status 2.
    ("soc --policy bogus", 2),
    ("soc --backend bogus", 2),
    ("audit --bogus", 2),
    ("sched run", 2),
    ("nosuchcommand", 2),
    ("reqs", 2),
]


@pytest.mark.parametrize("argv, expected", TRANSCRIPT,
                         ids=[argv for argv, _ in TRANSCRIPT])
def test_invalid_input_transcript(argv, expected, files):
    from repro.scenarios import scenario_names

    fill = dict(tmp=files, profiles=_profiles(), frontends=_frontends(),
                scenarios=", ".join(scenario_names()))
    code = _exit_code(argv.format(**fill).split())
    if isinstance(expected, str):
        expected = expected.format(**fill)
    assert code == expected


def test_existing_count_checks_keep_their_shape():
    code = _exit_code(["sched", "run", "--journal", "unused.jsonl",
                       "--jobs", "0"])
    assert code.startswith("repro sched")
    assert code.endswith(": --jobs must be >= 1")


if __name__ == "__main__":
    # One option per line, so a surface change reads as a small diff.
    print("{\n" + ",\n".join(
        f" {json.dumps(path)}: [\n"
        + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for path, rows in sorted(parser_surface().items())) + "\n}")
