"""CLI input validation: every count flag goes through one check, and
a scenario's exit status does not depend on ``--json``."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenarios.topology import FleetTopology

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


COUNTS = [
    (("soc", "--queue-capacity", "0"),
     "repro soc: --queue-capacity must be >= 1"),
    (("soc", "--drifts", "-3"), "repro soc: --drifts must be >= 0"),
    (("soc", "--noise", "-1"), "repro soc: --noise must be >= 0"),
    (("prevention", "fleet", "--jobs", "0"),
     "repro prevention fleet: --jobs must be >= 1"),
    (("scenarios", "describe", "seed-legacy", "--shards", "0"),
     "repro scenarios describe: --shards must be >= 1"),
    (("reqs", "lower", "resa", "--stream", "--batch", "0"),
     "repro reqs lower: --batch must be >= 1"),
    (("sched", "run", "--journal", "unused.jsonl", "--jobs", "0"),
     "repro sched run: --jobs must be >= 1"),
    (("sched", "run", "--journal", "unused.jsonl", "--crash-after", "0"),
     "repro sched run: --crash-after must be >= 1"),
    (("sched", "resume", "--journal", "unused.jsonl",
      "--crash-after", "-2"),
     "repro sched resume: --crash-after must be >= 1"),
]


@pytest.mark.parametrize("argv, message", COUNTS,
                         ids=[" ".join(argv) for argv, _ in COUNTS])
def test_count_below_its_minimum_is_rejected(argv, message):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == message


def test_zero_drifts_and_noise_are_accepted():
    code, output = run_cli("soc", "--hosts", "1", "--shards", "1",
                           "--drifts", "0", "--noise", "0")
    assert code == 0
    assert "posture after run: worst 100%" in output


class TestDescribeExitStatus:
    @pytest.fixture
    def broken_topology(self, monkeypatch):
        monkeypatch.setattr(FleetTopology, "validate",
                            lambda self: ["zone dmz has no hosts"])

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_valid_topology_exits_zero(self, json_flag):
        code, _ = run_cli("scenarios", "describe", "zoned-depth",
                          *json_flag)
        assert code == 0

    def test_invalid_topology_fails_the_text_form(self, broken_topology):
        code, output = run_cli("scenarios", "describe", "zoned-depth")
        assert code == 1
        assert "validity  : zone dmz has no hosts" in output

    def test_invalid_topology_fails_the_json_form(self, broken_topology):
        code, output = run_cli("scenarios", "describe", "zoned-depth",
                               "--json")
        assert code == 1
        assert json.loads(output)["name"] == "zoned-depth"


def test_closed_stdout_ends_without_a_traceback():
    # The JSON listing outgrows a pipe buffer, so the CLI is still
    # writing when the reader goes away after one line.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "reqs", "list", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr
