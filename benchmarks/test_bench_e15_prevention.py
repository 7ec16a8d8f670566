"""E15 — the incremental, parallel prevention plane.

Three speedup gates, all with verdict-equality checks across modes:

1. **Warm cache ≥ 10x cold.**  A verification-heavy pipeline run
   (token rings of growing size plus watchdog models, full-exploration
   safety queries) against an empty content-addressed cache, then the
   same run warm.  The warm run performs zero model-checking calls
   (asserted via the cache miss counter) — it only re-fingerprints the
   artifacts.
2. **Parallel ≥ 2x serial on 4 workers.**  A stage of independent
   verification jobs, each modelling an external verification-tool
   invocation (the checker run plus the tool's invocation latency —
   UPPAAL-style subprocess round trip).  On one core the CPU slices
   serialize under the GIL; the wave scheduler overlaps the latency,
   which is where the wall-clock goes.
3. **Zone-graph checker ≥ 3x baseline on the largest E6 ablation
   point** (token_ring(5)).  A verification session — one checker per
   engine answering the E6 queries repeatedly, as CI re-verification
   does — amortized per check.  ``fast=False`` routes through the
   seed implementation (full Floyd-Warshall per constraint, fresh
   enumeration per visit, linear inclusion scans) over the unreduced
   zone graph; the fast engine's active-clock reduction must give the
   same verdicts while exploring no more states.

Results land in ``benchmarks/out/BENCH_prevention.json`` stamped with
the git commit.
"""

import time

from repro.core.pipeline import Job, Pipeline, PipelineContext, Stage
from repro.core.gates import VerificationGate, _verdict_to_dict
from repro.core.orchestrator import VeriDevOpsOrchestrator
from repro.prevention import (
    BucketStore, TieredVerdictStore, bundled_verification_tasks)
from repro.prevention.tasks import _token_ring, _watchdog
from repro.ta.checker import ZoneGraphChecker
from repro.ta.query import parse_query

from bench_utils import merge_bench_json
from conftest import print_table


def _worker_pool(count: int):
    """*count* independent cyclic workers: a tiny serialization with an
    exponentially interleaved (2^count) discrete state space — checking
    cost dwarfs fingerprinting cost, as real models do."""
    from repro.ta.automaton import Edge, Location, TimedAutomaton, \
        parse_guard
    from repro.ta.system import Network

    workers = []
    for index in range(count):
        workers.append(TimedAutomaton(
            name=f"W{index}",
            clocks=["t"],
            locations=[
                Location("rest", invariant=parse_guard("t <= 3")),
                Location("work", invariant=parse_guard("t <= 5")),
            ],
            edges=[
                Edge("rest", "work", guard=parse_guard("t >= 1"),
                     resets=("t",), action=f"start{index}"),
                Edge("work", "rest", guard=parse_guard("t >= 2"),
                     resets=("t",), action=f"done{index}"),
            ],
        ))
    return Network(workers)


def heavy_verification_tasks():
    """A verification-dominated workload: full-exploration queries over
    rings of growing size, interleaved worker pools, and the watchdog
    models."""
    tasks = []
    for size in (4, 5, 6, 7, 8):
        ring = _token_ring(size)
        tasks.append((f"ring{size}-mutex", ring,
                      "A[] not (S0.busy and S1.busy)"))
        tasks.append((f"ring{size}-progress", ring,
                      f"E<> S{size - 1}.busy"))
        tasks.append((f"ring{size}-token-returns", ring,
                      "S1.busy --> S0.busy"))
    for count in (3, 4):
        pool = _worker_pool(count)
        tasks.append((f"pool{count}-all-working", pool,
                      "E<> " + " and ".join(f"W{i}.work"
                                            for i in range(count))))
    tasks.append(("pool3-no-deadlock", _worker_pool(3),
                  "A[] not deadlock"))
    for deadline in (3, 5, 8):
        tasks.append((f"watchdog{deadline}-handled", _watchdog(deadline),
                      "Sensor.raised --> Watchdog.watch"))
    return tasks


def _verdict_table(run):
    return sorted(
        (label, _verdict_to_dict(result))
        for label, result in run.context.require("verification_results")
    )


def test_bench_e15_warm_cache_vs_cold(tmp_path):
    orchestrator = VeriDevOpsOrchestrator()
    tasks = heavy_verification_tasks()
    cache = TieredVerdictStore(local=BucketStore(tmp_path / "cas"))

    started = time.perf_counter()
    cold_run = orchestrator.run_prevention(
        [], verification_tasks=tasks, cache=cache)
    cold_s = time.perf_counter() - started
    cold_stats = cache.stats_dict()

    started = time.perf_counter()
    warm_run = orchestrator.run_prevention(
        [], verification_tasks=tasks, cache=cache)
    warm_s = time.perf_counter() - started
    warm_stats = cache.stats_dict()

    fresh_run = orchestrator.run_prevention([], verification_tasks=tasks)

    assert cold_run.passed and warm_run.passed and fresh_run.passed
    # Identical verdicts: cached vs fresh, byte for byte.
    assert _verdict_table(cold_run) == _verdict_table(fresh_run)
    assert _verdict_table(warm_run) == _verdict_table(fresh_run)
    # The warm run performed zero model-checking calls.
    assert cold_stats["misses"] == len(tasks)
    assert warm_stats["misses"] == cold_stats["misses"]
    assert warm_stats["hits"] == len(tasks)
    assert warm_stats["invalidations"] == 0

    speedup = cold_s / warm_s
    rows = [
        {"mode": "cold", "seconds": round(cold_s, 4),
         "checks": cold_stats["misses"]},
        {"mode": "warm", "seconds": round(warm_s, 4), "checks": 0},
        {"mode": "speedup", "seconds": round(speedup, 1), "checks": "-"},
    ]
    print_table("E15 content-addressed cache (verification pipeline)",
                rows)
    assert speedup >= 10.0, f"warm cache only {speedup:.1f}x over cold"
    test_bench_e15_warm_cache_vs_cold.result = {
        "cold_s": cold_s, "warm_s": warm_s, "speedup": speedup,
        "tasks": len(tasks),
    }


TOOL_LATENCY_S = 0.03


def _external_tool_jobs():
    """One job per verification task, each paying the external tool's
    invocation latency on top of the in-process check."""
    jobs = []
    for label, network, query_text in bundled_verification_tasks():
        def run(context, network=network, query_text=query_text,
                label=label):
            time.sleep(TOOL_LATENCY_S)  # subprocess round trip
            result = ZoneGraphChecker(network).check(
                parse_query(query_text))
            context.put(f"verdict:{label}", _verdict_to_dict(result))
            return f"{label}: {'sat' if result.satisfied else 'unsat'}"
        jobs.append(Job(f"verify-{label}", run,
                        writes=(f"verdict:{label}",)))
    return jobs


def test_bench_e15_parallel_vs_serial():
    def build():
        return Pipeline([Stage("verification", jobs=_external_tool_jobs())])

    started = time.perf_counter()
    serial_run = build().run(PipelineContext())
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel_run = build().run(PipelineContext(), max_workers=4)
    parallel_s = time.perf_counter() - started

    assert serial_run.passed and parallel_run.passed
    # Identical verdicts, parallel vs serial.
    keys = [k for k in serial_run.context.keys()
            if k.startswith("verdict:")]
    assert keys == [k for k in parallel_run.context.keys()
                    if k.startswith("verdict:")]
    for key in keys:
        assert serial_run.context.get(key) == parallel_run.context.get(key)

    speedup = serial_s / parallel_s
    print_table("E15 parallel gate fan-out (4 workers)", [
        {"mode": "serial", "seconds": round(serial_s, 4)},
        {"mode": "parallel", "seconds": round(parallel_s, 4)},
        {"mode": "speedup", "seconds": round(speedup, 1)},
    ])
    assert speedup >= 2.0, f"parallel only {speedup:.1f}x over serial"
    test_bench_e15_parallel_vs_serial.result = {
        "serial_s": serial_s, "parallel_s": parallel_s,
        "speedup": speedup, "jobs": len(keys), "workers": 4,
        "tool_latency_s": TOOL_LATENCY_S,
    }


SESSION_CHECKS = 10


def _checker_session(network, queries, fast):
    """One CI verification session: a checker constructed once answers
    the query set *SESSION_CHECKS* times; returns (seconds, verdicts)."""
    started = time.perf_counter()
    checker = ZoneGraphChecker(network, fast=fast)
    verdicts = []
    for _ in range(SESSION_CHECKS):
        verdicts = [
            (str(query), result.satisfied, result.states_explored)
            for query in queries
            for result in [checker.check(query)]
        ]
    return time.perf_counter() - started, verdicts


def test_bench_e15_checker_fast_vs_baseline():
    # The largest E6 ablation point, on the E6 queries plus the
    # full-exploration safety check.
    network = _token_ring(5)
    queries = [parse_query("E<> S4.busy"),
               parse_query("A[] not (S0.busy and S1.busy)")]

    fast_s, fast_verdicts = _checker_session(network, queries, fast=True)
    base_s, base_verdicts = _checker_session(network, queries, fast=False)

    # Identical verdicts, fast vs baseline.  The fast engine explores
    # the reduced zone graph, so its counts may only be smaller.
    assert [(query, satisfied) for query, satisfied, _ in fast_verdicts] \
        == [(query, satisfied) for query, satisfied, _ in base_verdicts]
    for (query, _, fast_states), (_, _, base_states) in zip(
            fast_verdicts, base_verdicts):
        assert fast_states <= base_states, query
    speedup = base_s / fast_s
    print_table(
        f"E15 zone-graph checker (token_ring(5), "
        f"{SESSION_CHECKS}-check session)",
        [
            {"engine": "baseline (seed)",
             "seconds": round(base_s, 4),
             "per_check_ms": round(1000 * base_s
                                   / (SESSION_CHECKS * len(queries)), 3)},
            {"engine": "fast",
             "seconds": round(fast_s, 4),
             "per_check_ms": round(1000 * fast_s
                                   / (SESSION_CHECKS * len(queries)), 3)},
            {"engine": "speedup", "seconds": round(speedup, 1),
             "per_check_ms": "-"},
        ])
    assert speedup >= 3.0, f"fast checker only {speedup:.1f}x baseline"
    test_bench_e15_checker_fast_vs_baseline.result = {
        "baseline_s": base_s, "fast_s": fast_s, "speedup": speedup,
        "session_checks": SESSION_CHECKS,
        "queries": [str(query) for query in queries],
        "verdicts": [
            {"query": query, "satisfied": satisfied, "states": states}
            for query, satisfied, states in fast_verdicts
        ],
    }


def test_bench_e15_write_json():
    """Collect the three measurements into BENCH_prevention.json.

    Runs last (pytest preserves definition order within a module); if a
    gate test was skipped or failed its attribute is absent and this
    write fails loudly rather than publishing a partial document.
    """
    sections = {
        "cache": test_bench_e15_warm_cache_vs_cold.result,
        "parallel": test_bench_e15_parallel_vs_serial.result,
        "checker": test_bench_e15_checker_fast_vs_baseline.result,
        "gates": {
            "warm_cache_speedup_min": 10.0,
            "parallel_speedup_min": 2.0,
            "checker_speedup_min": 3.0,
        },
    }
    # Merged section by section: E17's fleet bench shares this
    # document, and a whole-file write would clobber it.
    for section, payload in sections.items():
        path = merge_bench_json("prevention", section, payload)
    assert path.exists()
