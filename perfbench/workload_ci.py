"""prevent-ci: a sequence of CI runs through the prevention pipeline.

Each run calls ``VeriDevOpsOrchestrator.run_prevention`` on a corpus of
token-ring verification tasks as a fresh CI agent would: a new
``TieredVerdictStore`` with a cold memory tier over its own new local
``BucketStore`` and one remote ``BucketStore`` shared by every run of
the sequence.  The gate's ``save()`` runs inside the timed window.

A cell is one sequence: a fresh shared remote, a cold first run (every
task model-checked) and then incremental runs until the cell's time is
up.  Each incremental run edits a fixed share of the models (two of
seven rings) to another hold time, so runs mix remote hits with
invalidations and checks.  Rings keep the state space linear in their
size (``ring(10)`` checks in about 5 ms, ``ring(18)`` in about 40 ms).
The rings are 12 to 18 stations so that model checking, which the
speed gauge tracks, carries most of a run: every run also creates and
deletes a few dozen small bucket files, and on the reference machine
the cost of that file-system work moves with the kernel's writeback
state, which no calibration pass follows.  With rings of 6 to 12
stations the bucket I/O took about half of a run's time.  This is the
only workload that touches ``prevention.fingerprint``,
``prevention.cas``, ``ta.checker`` and ``core.gates``; soc-churn
bypasses all of it.
"""

import gc
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from common import (
    OUT, Patcher, SpeedGauge, WorkloadResult, cells_for, percentile_or_none)

NAME = "prevent-ci"
RING_SIZES = (12, 13, 14, 15, 16, 17, 18)
#: Hold times a ring cycles through; an edit moves it to the next one.
HOLDS = (4, 6, 8)
EDITED_PER_RUN = 2
#: Seconds per CI sequence (cell): a cold run plus incremental runs.
CELL_SECONDS = 2.5


@dataclass(frozen=True)
class Size:
    """Run shape; tests shrink it, the benchmark uses the default."""

    rings: tuple = RING_SIZES


def queries(size: int) -> List[tuple]:
    return [("mutex", "A[] not (S0.busy and S1.busy)"),
            ("progress", f"E<> S{size - 1}.busy"),
            ("token-returns", "S1.busy --> S0.busy")]


class EditStream:
    """Per-run hold vectors of one cell.

    Run 0 is the cold corpus.  Run *r* then edits two rings in a fixed
    rotation, ``(offset + r)`` and ``(offset + r + models // 2)``, each
    to its next hold time: every pair of edited rings recurs once per
    cycle of ``models`` runs, so the work of an incremental run does
    not depend on the seed, which only picks the offset and the initial
    holds.
    """

    def __init__(self, seed: int, cell: int, models: int):
        rng = random.Random(f"{NAME}:{seed}:{cell}")
        self._holds = [rng.randrange(len(HOLDS)) for _ in range(models)]
        self._offset = rng.randrange(models)
        self._run = 0

    def next(self) -> List[int]:
        if self._run:
            models = len(self._holds)
            for step in range(EDITED_PER_RUN):
                model = (self._offset + self._run
                         + step * (models // EDITED_PER_RUN)) % models
                self._holds[model] = (self._holds[model] + 1) % len(HOLDS)
        self._run += 1
        return [HOLDS[index] for index in self._holds]


def generated_inputs(seed: int, size: Size = Size(), cells: int = 2,
                     runs: int = 12):
    """The first *runs* hold vectors of *cells* cells (determinism
    check)."""
    inputs = []
    for cell in range(cells):
        edits = EditStream(seed, cell, len(size.rings))
        inputs.append([edits.next() for _ in range(runs)])
    return inputs


def run(seed: int, seconds: float, tracer, size: Size = Size()
        ) -> WorkloadResult:
    from repro.core.orchestrator import VeriDevOpsOrchestrator
    from repro.prevention.cas.store import BucketStore
    from repro.prevention.cas.tiers import TieredVerdictStore
    from repro.prevention.tasks import _token_ring
    from repro.ta.checker import ZoneGraphChecker

    result = WorkloadResult(NAME)
    checks = [0]
    patcher = Patcher()

    def counting(original):
        def check(checker, query):
            checks[0] += 1
            return original(checker, query)
        check.__wrapped__ = original
        return check

    patcher.replace(ZoneGraphChecker, "check", counting)
    oracle = _Oracle()
    gauge = SpeedGauge()
    #: (began at, wall time) of every set-up, cold run and later run
    setups, cold_ms, run_ms = [], [], []
    tasks_total = checks_total = 0
    stats_sums: Dict[str, int] = {}
    bucket_bytes = 0
    work = Path(tempfile.mkdtemp(prefix="ci-", dir=_work_root()))
    try:
        cells = cells_for(seconds, CELL_SECONDS)
        for cell in range(cells):
            # The previous cell's garbage is collected before set-up is
            # timed, not during it.
            gc.collect()
            gauge.read()
            started = time.perf_counter()
            remote = BucketStore(work / f"remote-{cell}", tier="remote")
            orchestrator = VeriDevOpsOrchestrator()
            networks = {(ring, hold): _token_ring(ring, hold)
                        for ring in size.rings for hold in HOLDS}
            edits = EditStream(seed, cell, len(size.rings))
            setups.append((started, time.perf_counter() - started))

            deadline = time.perf_counter() + seconds / cells
            previous = set()
            index = 0
            while index == 0 or time.perf_counter() < deadline:
                holds = edits.next()
                tasks, keys = [], []
                for ring, hold in zip(size.rings, holds):
                    for name, text in queries(ring):
                        tasks.append((f"ring{ring}-{name}",
                                      networks[(ring, hold)], text))
                        keys.append((ring, hold, text))
                # A task's fingerprint changes exactly when its key does.
                changed = sum(1 for key in keys if key not in previous)
                local = work / f"local-{cell}-{index}"
                before = checks[0]
                begun = time.perf_counter()
                store = TieredVerdictStore(
                    local=BucketStore(local, tier="local"), remote=remote,
                    writer_id=f"agent-{cell}-{index}")
                pipeline_run = orchestrator.run_prevention(
                    [], verification_tasks=tasks, cache=store)
                elapsed_ms = (time.perf_counter() - begun) * 1000.0
                gauge.read()
                performed = checks[0] - before
                (cold_ms if index == 0 else run_ms).append(
                    (begun, elapsed_ms))
                tasks_total += len(tasks)
                checks_total += performed
                result.attempted += 1
                for key, value in store.stats.as_dict().items():
                    stats_sums[key] = stats_sums.get(key, 0) + value
                with tracer.paused():
                    _check_run(result, index, pipeline_run, tasks, keys,
                               performed, changed, oracle)
                shutil.rmtree(local, ignore_errors=True)
                previous = set(keys)
                index += 1
            bucket_bytes = max(bucket_bytes, sum(
                path.stat().st_size
                for path in (work / f"remote-{cell}").rglob("*.json")))
    finally:
        patcher.restore()
        shutil.rmtree(work, ignore_errors=True)

    result.metrics = {
        "setup_s": statistics.median(gauge.scale(setups)),
        "latency_p50_ms": percentile_or_none(gauge.scale(run_ms), 0.5),
        "batch_p50_ms": statistics.median(gauge.scale(cold_ms)),
    }
    setups, cold_ms, run_ms = ([value for _, value in timed]
                               for timed in (setups, cold_ms, run_ms))
    result.named = {
        "ci_cold_ms": statistics.median(cold_ms),
        "ci_run_p50_ms": percentile_or_none(run_ms, 0.5),
        "ci_run_p90_ms": percentile_or_none(run_ms, 0.9),
        "calibration_pass_ms": gauge.median_ms(),
        "tasks_per_run": len(size.rings) * 3,
        "edited_models_per_run": EDITED_PER_RUN,
        "runs": result.attempted,
        "checks": checks_total,
        "cold_ms": cold_ms,
        "run_ms": run_ms,
        "setup_s": setups,
    }
    hits = stats_sums.get("hits", 0)
    misses = stats_sums.get("misses", 0)
    result.layers = {
        "gen.ops_scheduled": result.attempted,
        "gen.ops_sent": result.attempted,
        "gen.late_max_ms": 0.0,
        "prevention.cas.hits_memory": stats_sums.get("memory_hits", 0),
        "prevention.cas.hits_local": stats_sums.get("local_hits", 0),
        "prevention.cas.hits_remote": stats_sums.get("remote_hits", 0),
        "prevention.cas.misses": misses,
        "prevention.cas.invalidations": stats_sums.get("invalidations", 0),
        "prevention.cas.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "prevention.cas.bucket_bytes": bucket_bytes,
        "ta.checker.avoided_ratio": 1.0 - checks_total / tasks_total,
    }
    return result


class _Oracle:
    """Uncached verdicts: a fresh checker per model variant and query,
    called past every wrapper so it is neither counted nor traced."""

    def __init__(self):
        from repro.core.gates import _verdict_to_dict
        from repro.ta.checker import ZoneGraphChecker
        from repro.ta.query import parse_query

        check = ZoneGraphChecker.check
        while hasattr(check, "__wrapped__"):
            check = check.__wrapped__
        self._check = check
        self._checker = ZoneGraphChecker
        self._parse = parse_query
        self.to_dict = _verdict_to_dict
        self._verdicts: Dict[tuple, dict] = {}

    def verdict(self, key: tuple, network, text: str) -> dict:
        if key not in self._verdicts:
            self._verdicts[key] = self.to_dict(self._check(
                self._checker(network), self._parse(text)))
        return self._verdicts[key]


def _check_run(result: WorkloadResult, index: int, pipeline_run, tasks,
               keys, performed: int, changed: int, oracle: _Oracle) -> None:
    """Verdicts equal uncached checks; checks equal changed tasks."""
    if not pipeline_run.passed:
        result.fail(f"CI run {index} did not pass its gates")
        return
    if performed != changed:
        result.fail(f"CI run {index}: {performed} checks for {changed} "
                    f"changed tasks")
        return
    got = {label: oracle.to_dict(verdict) for label, verdict
           in pipeline_run.context.require("verification_results")}
    for (label, network, text), key in zip(tasks, keys):
        if got.get(label) != oracle.verdict(key, network, text):
            result.fail(f"CI run {index}: verdict for {label} differs "
                        f"from an uncached check")
            return


def _work_root() -> Path:
    root = OUT / "work"
    root.mkdir(parents=True, exist_ok=True)
    return root
