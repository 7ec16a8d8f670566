"""What every subcommand module shares: the one flag set, the one
output path, and the input loaders.

A flag two subcommands accept is declared once, in :data:`FLAGS`, and
attached by name through :func:`command`; a count flag is an
:class:`AtLeast` action, so every count is validated the same way.  A
flag that spans several subcommands (the observability spine's
``--metrics PATH``, for one) belongs here.
"""

import argparse
import json
import sys
from typing import Callable, Dict, Iterable, Iterator, Sequence, Union

from repro import environment as env
from repro.environment.host import SimulatedHost

PROFILES: Dict[str, Callable[[], SimulatedHost]] = {
    "win10-default": env.default_windows_host,
    "win10-hardened": env.hardened_windows_host,
    "win10-adversarial": env.adversarial_windows_host,
    "ubuntu-default": env.default_ubuntu_host,
    "ubuntu-hardened": env.hardened_ubuntu_host,
    "ubuntu-adversarial": env.adversarial_ubuntu_host,
}


# -- flags -----------------------------------------------------------------------


class AtLeast(argparse.Action):
    """An integer count no smaller than *minimum*.

    A smaller value stops the run as it is parsed, with
    ``<prog>: --<flag> must be >= <minimum>`` and exit status 1.
    """

    def __init__(self, option_strings, dest, minimum=1, **kwargs):
        super().__init__(option_strings, dest, type=int, **kwargs)
        self.minimum = minimum

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.minimum:
            raise SystemExit(f"{parser.prog}: {self.option_strings[0]} "
                             f"must be >= {self.minimum}")
        setattr(namespace, self.dest, value)


def count(default, minimum=1, **kwargs) -> dict:
    """``add_argument`` keywords for a count flag."""
    return dict(action=AtLeast, default=default, minimum=minimum, **kwargs)


FLAGS: Dict[str, dict] = {
    "--json": dict(action="store_true",
                   help="emit the machine-readable JSON document on "
                        "stdout instead of the text report (status "
                        "lines move to stderr)"),
    "--profile": dict(default="ubuntu-default",
                      help=f"host profile: one of "
                           f"{', '.join(sorted(PROFILES))}"),
    "--journal": dict(required=True, metavar="PATH",
                      help="journal file (created if absent)"),
    "--chaos-plan": dict(metavar="PATH", default=None,
                         help="JSON fault plan whose deterministic "
                              "faults the run injects"),
    "--jobs": count(1, metavar="N",
                    help="parallel workers (default 1: serial)"),
    "--frontend": dict(default=None,
                       help="restrict to one registered front-end"),
    "--shards": count(4, help="shard count (default 4)"),
    "--shared-cache": dict(metavar="DIR", default=None,
                           help="shared remote verdict store: a directory "
                                "of sharded verdict buckets concurrent CI "
                                "runs read through and write back to"),
    "--crash-after": count(None, metavar="N",
                           help="inject a scheduler crash after N fresh "
                                "journaled completions (exit 3)"),
}


def command(subparsers, name: str, summary: str, func, *flags: str,
            **defaults) -> argparse.ArgumentParser:
    """Add subcommand *name* running *func*, with the shared *flags*;
    *defaults* override flag defaults or set fixed namespace values."""
    parser = subparsers.add_parser(name, help=summary)
    for flag in flags:
        parser.add_argument(flag, **FLAGS[flag])
    parser.set_defaults(func=func, **defaults)
    return parser


def group(subparsers, name: str, summary: str):
    """Add subcommand *name* whose own subcommands pick an ``action``."""
    return subparsers.add_parser(name, help=summary).add_subparsers(
        dest="action", required=True)


# -- output ----------------------------------------------------------------------


def table(rows: Sequence[dict], *after: str) -> Iterator[str]:
    """*rows* as aligned text columns, then the *after* lines."""
    if not rows:
        yield "(no rows)"
    else:
        columns = list(rows[0])
        widths = {c: max(len(str(c)), *(len(str(r[c])) for r in rows))
                  for c in columns}
        yield "  ".join(str(c).ljust(widths[c]) for c in columns)
        for row in rows:
            yield "  ".join(str(row[c]).ljust(widths[c]) for c in columns)
    yield from after


def emit(args, out, document,
         text: Union[Iterable[str], Callable[[], Iterable[str]]] = (),
         status: str = "", indent: int = 1) -> None:
    """Every subcommand's output goes through here.

    With ``--json`` the JSON *document* is stdout's only content (stable
    key order, trailing newline), so it pipes cleanly into ``jq`` or the
    schema validator, and the human *status* line goes to stderr.
    Without ``--json`` the *text* lines go to *out*.  Either may be
    passed as a callable (or *text* as a generator), so that the form
    not printed costs nothing.
    """
    if args.json:
        document = document() if callable(document) else document
        print(json.dumps(document, indent=indent, sort_keys=True), file=out)
        if status:
            print(status, file=sys.stderr)
    else:
        for line in text() if callable(text) else text:
            print(line, file=out)


# -- inputs ----------------------------------------------------------------------


def host_for(profile: str) -> SimulatedHost:
    try:
        return PROFILES[profile]()
    except KeyError:
        raise SystemExit(
            f"unknown profile {profile!r}; choose from "
            f"{', '.join(sorted(PROFILES))}")


def load_chaos(path, prefix: str):
    """The chaos controller for the fault plan at *path* (``None`` for
    no plan); an unreadable or invalid plan exits with *prefix*."""
    if not path:
        return None
    from repro.chaos import ChaosController, FaultPlan, FaultPlanError

    try:
        with open(path) as handle:
            return ChaosController(FaultPlan.from_json(handle.read()))
    except OSError as exc:
        raise SystemExit(f"{prefix}: cannot read chaos plan {path!r}: "
                         f"{exc.strerror or exc}")
    except FaultPlanError as exc:
        raise SystemExit(f"{prefix}: invalid chaos plan {path!r}: {exc}")
