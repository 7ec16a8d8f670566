"""CI-fleet simulator: N concurrent pipeline runs, one shared cache.

The distributed cache only earns its complexity if a *fleet* of
concurrent CI runs — each with a cold memory tier, all persisting to
one shared remote — actually converges on verdict reuse.  This module
measures exactly that: an optional cold seeding run populates the
shared remote, then ``runs`` concurrent pipeline runs start behind a
barrier, each as a fresh cache over the common remote, and the report
aggregates the fleet's warm-hit rate and per-run latency tail.

Two execution modes:

* **thread** (default) — each run is a thread driving its own
  orchestrator and :class:`~repro.prevention.cas.tiers.TieredVerdictStore`
  over the shared remote in-process; writer isolation comes from
  per-run stores, each with its own writer id (``seed``, ``run{i}``).
* **process** — each run shells out to ``repro pipeline --json`` with
  ``--shared-cache``, so the multi-writer story crosses
  real process boundaries (the bucket locks are file locks for
  exactly this).

Verdict equality across all runs is part of the report
(``verdicts_identical``): a shared cache that changed a verdict would
be worse than no cache at all.
"""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.prevention.cas.store import BucketStore
from repro.prevention.cas.tiers import TieredVerdictStore


@dataclass
class FleetRun:
    """One pipeline run's contribution to the fleet report."""

    run_id: str
    seconds: float
    passed: bool
    stats: Dict[str, Any] = field(default_factory=dict)
    verdicts: Any = None

    def lookups(self) -> int:
        return int(self.stats.get("hits", 0)) \
            + int(self.stats.get("misses", 0))


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet simulation."""

    runs: List[FleetRun]
    cold: Optional[FleetRun] = None
    mode: str = "thread"

    @property
    def all_passed(self) -> bool:
        return all(run.passed for run in self.runs) and \
            (self.cold is None or self.cold.passed)

    @property
    def warm_hit_rate(self) -> float:
        """Fleet-wide hit fraction over the concurrent (warm) phase.

        The seeding run is excluded by construction: it exists to pay
        the cold cost once so the fleet doesn't have to.
        """
        hits = sum(int(run.stats.get("hits", 0)) for run in self.runs)
        lookups = sum(run.lookups() for run in self.runs)
        return hits / lookups if lookups else 0.0

    @property
    def verdicts_identical(self) -> bool:
        tables = [run.verdicts for run in self.runs
                  if run.verdicts is not None]
        return all(table == tables[0] for table in tables[1:]) \
            if tables else True

    def latency(self) -> Dict[str, float]:
        """Per-run wall-clock tail over the warm phase."""
        ordered = sorted(run.seconds for run in self.runs)
        if not ordered:
            return {"p50": 0.0, "p95": 0.0, "max": 0.0}

        def quantile(q: float) -> float:
            index = min(len(ordered) - 1, int(q * len(ordered)))
            return ordered[index]

        return {"p50": quantile(0.50), "p95": quantile(0.95),
                "max": ordered[-1]}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "runs": len(self.runs),
            "passed": self.all_passed,
            "warm_hit_rate": self.warm_hit_rate,
            "verdicts_identical": self.verdicts_identical,
            "latency_s": self.latency(),
            "cold_s": self.cold.seconds if self.cold else None,
            "per_run": [
                {"run_id": run.run_id,
                 "seconds": run.seconds,
                 "passed": run.passed,
                 "hits": run.stats.get("hits", 0),
                 "misses": run.stats.get("misses", 0),
                 "remote_hits": run.stats.get("remote_hits", 0)}
                for run in self.runs
            ],
        }


def _pipeline_run(cache: TieredVerdictStore, tasks=None,
                  jobs: int = 1) -> FleetRun:
    """One in-process prevention run against *cache* (no hosts: the
    verification gate is the load; compliance gates stay trivial)."""
    from repro.core.orchestrator import VeriDevOpsOrchestrator
    from repro.core.gates import _verdict_to_dict
    from repro.prevention.tasks import bundled_verification_tasks

    if tasks is None:
        tasks = bundled_verification_tasks()
    orchestrator = VeriDevOpsOrchestrator()
    started = time.perf_counter()
    run = orchestrator.run_prevention(
        [], verification_tasks=tasks, cache=cache,
        max_workers=jobs if jobs > 1 else None)
    seconds = time.perf_counter() - started
    verdicts = sorted(
        (label, json.dumps(_verdict_to_dict(result), sort_keys=True))
        for label, result in run.context.get("verification_results", []))
    return FleetRun(run_id=cache.writer_id, seconds=seconds,
                    passed=run.passed,
                    stats=run.context.get("verification_cache_stats"),
                    verdicts=verdicts)


def _subprocess_run(run_id: str, shared_dir: Path, jobs: int) -> FleetRun:
    """One pipeline run as a real child process via the CLI."""
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "pipeline",
         "--shared-cache", str(shared_dir), "--jobs", str(jobs),
         "--json"],
        capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - started
    try:
        document = json.loads(proc.stdout)
    except json.JSONDecodeError:
        document = {}
    stats = document.get("cache") or {}
    return FleetRun(run_id=run_id, seconds=seconds,
                    passed=proc.returncode == 0 and
                    bool(document.get("passed")),
                    stats=stats,
                    verdicts=json.dumps(document.get("gates"),
                                        sort_keys=True)
                    if document else None)


def simulate_fleet(runs: int = 4,
                   shared_dir: Union[str, Path, None] = None,
                   workdir: Union[str, Path, None] = None,
                   tasks=None,
                   jobs: int = 1,
                   mode: str = "thread",
                   seed_cold: bool = True) -> FleetReport:
    """Run a CI fleet against one shared remote cache.

    *workdir* (default: a fresh temp directory) hosts the shared
    remote when *shared_dir* is not given.  *tasks* defaults to the
    bundled verification corpus; thread mode builds a fresh task list
    per run via the callable's re-invocation when *tasks* is callable.
    """
    if shared_dir is None:
        if workdir is None:
            import tempfile

            workdir = tempfile.mkdtemp(prefix="repro-fleet-")
        shared_dir = Path(workdir) / "shared"
    shared = Path(shared_dir)
    if mode not in ("thread", "process"):
        raise ValueError(f"unknown fleet mode {mode!r}")

    def build_tasks():
        return tasks() if callable(tasks) else tasks

    def remote_store(writer_id: str) -> TieredVerdictStore:
        return TieredVerdictStore(
            remote=BucketStore(shared / "cas", tier="remote"),
            writer_id=writer_id)

    cold = None
    if seed_cold:
        cold = _pipeline_run(remote_store("seed"), build_tasks(), jobs)

    results: List[Optional[FleetRun]] = [None] * runs
    barrier = threading.Barrier(runs)

    def thread_body(index: int) -> None:
        cache = remote_store(f"run{index}")
        local_tasks = build_tasks()
        barrier.wait()
        results[index] = _pipeline_run(cache, local_tasks, jobs)

    def process_body(index: int) -> None:
        barrier.wait()
        results[index] = _subprocess_run(f"run{index}", shared, jobs)

    body = thread_body if mode == "thread" else process_body
    threads = [threading.Thread(target=body, args=(index,),
                                name=f"fleet-run{index}")
               for index in range(runs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return FleetReport(runs=[run for run in results if run is not None],
                       cold=cold, mode=mode)
