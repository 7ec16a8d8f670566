"""The requirement repository's observable state, pinned per front-end.

For every bundled front-end's corpus, ingested into a fresh
orchestrator, the golden records the state before and after a full
``run_prevention`` on an Ubuntu and a Windows host:

* the scheduler journal's IR fingerprint manifest
  (:func:`repro.sched.runner.ir_manifest`): each record's
  ``fingerprint()`` and ``content_fingerprint()``, in id order;
* ``traceability_rows()``;
* the status histogram;
* the run's verdict (passed, failed stage).

A ``native`` case does the same for the orchestrator's own ingestion
methods.  Regenerate the golden only for an intended change to what a
record digests to or how the pipeline advances it:

    PYTHONPATH=src python -m tests.test_repository_golden > tests/data/repository_golden.json
"""

import json
from pathlib import Path

import pytest

from repro.core import VeriDevOpsOrchestrator
from repro.environment import default_ubuntu_host, default_windows_host
from repro.reqs import default_registry
from repro.sched.runner import ir_manifest
from repro.vulndb import SoftwareInventory, bundled_database

GOLDEN = Path(__file__).parent / "data" / "repository_golden.json"

CASES = default_registry().names() + ["native"]


def _ingest(orchestrator, case):
    if case != "native":
        orchestrator.ingest_frontend(case)
        return
    orchestrator.ingest_natural_language([
        "The audit subsystem shall not transmit passwords.",
        "When 3 consecutive failures occur, the session manager shall "
        "alert the operator within 5 seconds.",
        "free prose, no pattern",
    ])
    orchestrator.ingest_standards("ubuntu")
    orchestrator.ingest_standards("windows")
    orchestrator.ingest_iec62443("ubuntu")
    orchestrator.ingest_vulnerabilities(
        bundled_database(),
        SoftwareInventory.of("h", "ubuntu", {"bash": "4.3"}))


def _snapshot(repository):
    return {"manifest": ir_manifest(repository),
            "rows": repository.traceability_rows(),
            "histogram": repository.status_histogram()}


def repository_state(case):
    """The pinned state of one case, as plain data."""
    orchestrator = VeriDevOpsOrchestrator()
    _ingest(orchestrator, case)
    before = _snapshot(orchestrator.repository)
    run = orchestrator.run_prevention(
        [default_ubuntu_host(), default_windows_host()])
    return {"before": before,
            "run": {"passed": run.passed, "failed_stage": run.failed_stage},
            "after": _snapshot(orchestrator.repository)}


@pytest.mark.parametrize("case", CASES)
def test_repository_state_matches_golden(case):
    assert repository_state(case) == json.loads(GOLDEN.read_text())[case]


def test_golden_covers_every_bundled_frontend():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def _golden_text(states):
    """One manifest entry or row per line, so a change reads as a
    small diff."""
    def block(items):
        return ("[\n      " + ",\n      ".join(
            json.dumps(item, sort_keys=True) for item in items)
            + "]")

    def snapshot(state):
        manifest = dict(state["manifest"])
        fingerprints = manifest.pop("fingerprints")
        head = json.dumps(manifest, sort_keys=True)[:-1]
        return ("{\n    \"manifest\": " + head
                + ", \"fingerprints\": " + block(fingerprints)
                + "},\n    \"rows\": " + block(state["rows"])
                + ",\n    \"histogram\": " + json.dumps(state["histogram"])
                + "}")

    cases = []
    for case, state in states.items():
        cases.append(
            f" {json.dumps(case)}: {{\n  \"before\": "
            f"{snapshot(state['before'])},\n  \"run\": "
            f"{json.dumps(state['run'])},\n  \"after\": "
            f"{snapshot(state['after'])}}}")
    return "{\n" + ",\n".join(cases) + "\n}"


if __name__ == "__main__":
    print(_golden_text({case: repository_state(case) for case in CASES}))
