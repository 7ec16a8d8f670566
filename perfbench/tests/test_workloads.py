"""Seeded inputs are reproducible; tiny runs pass their output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workload_churn
import workload_ci
from tracing import NullTracer, Tracer, instrument

WORKLOADS = (workload_churn, workload_ci)
BENCH = Path(__file__).resolve().parent.parent


def _inputs(module, seed):
    return json.dumps(module.generated_inputs(seed), sort_keys=True).encode()


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_same_seed_gives_byte_identical_inputs(module):
    assert _inputs(module, 7) == _inputs(module, 7)
    assert _inputs(module, 7) != _inputs(module, 8)


TINY = {
    workload_churn.NAME: (workload_churn.Size(hosts=4, rate=400.0), 1.0),
    workload_ci.NAME: (workload_ci.Size(rings=(4, 5)), 0.5),
}


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_tiny_run_passes_output_checks(module):
    size, seconds = TINY[module.NAME]
    result = module.run(3, seconds, NullTracer(), size)
    assert result.attempted > 0
    assert result.correct, result.errors
    assert result.failed == 0
    assert result.metrics["setup_s"] > 0


def test_traced_tiny_run_records_its_layers():
    tracer = instrument(Tracer())
    try:
        size, seconds = TINY[workload_churn.NAME]
        result = workload_churn.run(3, seconds, tracer, size)
    finally:
        tracer.restore()
    assert result.correct, result.errors
    for span in ("environment.emit", "soc.queues.put",
                 "soc.sessions.observe", "ltl.compile.observe",
                 "soc.incidents.handle", "soc.rearm.apply",
                 "reqs.stream.diff", "reqs.registry.lower"):
        assert tracer.calls(span) > 0, span
    assert tracer.calls("rqcode.check") > 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soc-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
