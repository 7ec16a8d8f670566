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
slots into a real CI job the way the paper intends.  Each subcommand
group lives in its own module; the flags, output path and input
loaders they share live in :mod:`repro.cli.common`.
"""

import argparse
import os
import sys
from typing import List, Optional

from repro.cli import authoring, catalog, prevention, reqs, scenarios, \
    sched, soc
from repro.cli.common import PROFILES

__all__ = ["PROFILES", "build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VeriDevOps reproduction: security requirements as "
                    "code, from prose to protection.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for module in (catalog, authoring, prevention, soc, reqs, scenarios,
                   sched):
        module.register(subparsers)
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, out if out is not None else sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``repro reqs list | head``).
        # Point stdout at devnull so the interpreter's final flush
        # cannot raise again, and fail quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code
