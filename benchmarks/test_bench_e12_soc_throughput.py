"""E12 — SOC runtime throughput: serial loop vs thread vs process backends.

The serial :class:`ProtectionLoop` steps *every* armed monitor on
*every* host event, inline on the emitting thread.  The SOC runtime
shards hosts across workers and routes each event only to the monitors
whose obligations can actually change on it (sound selective routing:
a monitor is skipped iff progressing its obligation over an atom-free
step is a fixed point).  The SOC runtime itself is swept over both
shard execution backends:

* ``thread`` — shard workers as threads over :class:`ShardQueue`
  (shared heap, GIL-interleaved);
* ``process`` — shard workers as processes over the binary event
  plane (fixed-width codec + SPSC shared-memory rings).

This bench drives the same fleet-wide drift-plus-noise scenario
through all three — 32 hosts, 448 armed monitors, benign heartbeat
traffic around every drift, exactly as an operations event stream
looks — and measures end-to-end throughput (scenario events per
second, emission through repair) and detection lag.  Both backends
are swept over shard counts {1, 2, 4, 8}.  Headline numbers land in
``benchmarks/out/BENCH_soc.json``, stamped with the core count.

Expected shape: routing makes the SOC faster than the serial loop even
at 1 shard on noise-heavy streams.  The process backend's throughput
story is *hardware-conditional* — with real cores it escapes the GIL
plateau the thread backend hits, while on a single-core box wall-clock
is simply the sum of all work and the cross-process transport can only
cost, never win.  Its detection-lag story is structural and holds
everywhere: shard processes drain continuously instead of waiting for
GIL handoffs, so lag stays flat as shards scale.  Assertions are
therefore split: universal invariants always run; scaling wins are
gated on ``os.cpu_count()``.
"""

import os
import time

from repro.chaos import check_invariants
from repro.core.fleet import FleetProtection
from repro.scenarios import generated_scenarios, get_scenario

from bench_utils import write_bench_json
from conftest import print_table

#: The pinned scenario behind the headline sweep: its drift rotation
#: (four *distinct* targets so a host never re-drifts the same package
#: across the four rounds — a repeat would race its first repair
#: against its second install) and its 32-node hardened fleet are the
#: pre-refactor fixtures, byte for byte, so BENCH_soc.json figures
#: stay comparable.
SCENARIO = get_scenario("seed-legacy")
HOSTS = SCENARIO.hosts
ROUNDS = 4
NOISE_PER_DRIFT = 80
# Per drift: NOISE heartbeats + package event + drift event.
SCENARIO_EVENTS = HOSTS * ROUNDS * (NOISE_PER_DRIFT + 2)
SHARD_SWEEP = (1, 2, 4, 8)
BACKENDS = ("thread", "process")
REPS = 2  # best-of-N to damp scheduler noise
CPUS = os.cpu_count() or 1


def build_fleet():
    return SCENARIO.build_fleet(name="e12")


def inject_storm(fleet, scenario=SCENARIO, rounds=ROUNDS,
                 noise_per_drift=NOISE_PER_DRIFT):
    """Noise-wrapped drift on every host, *rounds* times over, the
    rotation drawn from the scenario's drift schedule."""
    drifts = 0
    for round_index in range(rounds):
        for host_index, host in enumerate(fleet.hosts()):
            for _ in range(noise_per_drift):
                host.events.emit("app.heartbeat")
            scenario.apply_drift(host, round_index, host_index)
            drifts += 1
    return drifts


def run_serial():
    fleet = build_fleet()
    protection = FleetProtection(fleet).start()
    started = time.perf_counter()
    drifts = inject_storm(fleet)          # handled inline, synchronously
    elapsed = time.perf_counter() - started
    protection.stop()
    effective = sum(1 for i in protection.incidents() if i.effective)
    assert effective >= drifts
    assert fleet.audit().worst_ratio == 1.0
    return elapsed


def run_soc(backend, shards):
    fleet = build_fleet()
    service = fleet.arm_soc(shards=shards, queue_capacity=4096,
                            backend=backend)
    try:
        started = time.perf_counter()
        drifts = inject_storm(fleet)
        service.drain()                   # barrier: every repair landed
        elapsed = time.perf_counter() - started
    finally:
        service.stop()
    assert service.effective_repairs() >= drifts
    assert fleet.audit().worst_ratio == 1.0
    snapshot = service.metrics_snapshot()
    lag = snapshot["histograms"]["soc.detection_lag_events"]
    return elapsed, lag


def test_bench_e12_soc_vs_serial_throughput():
    serial_seconds = min(run_serial() for _ in range(REPS))
    serial_tp = SCENARIO_EVENTS / serial_seconds

    rows = [{
        "runtime": "serial-loop",
        "shards": "-",
        "events_per_sec": f"{serial_tp:,.0f}",
        "seconds": f"{serial_seconds:.4f}",
        "lag_mean_events": "0.00",
    }]
    results = {backend: {} for backend in BACKENDS}
    for backend in BACKENDS:
        for shards in SHARD_SWEEP:
            timed = [run_soc(backend, shards) for _ in range(REPS)]
            seconds, lag = min(timed, key=lambda pair: pair[0])
            throughput = SCENARIO_EVENTS / seconds
            results[backend][shards] = {
                "seconds": round(seconds, 6),
                "events_per_sec": round(throughput, 1),
                "detection_lag_mean_events": round(lag["mean"], 3),
                "detection_lag_max_events": lag["max"],
            }
            rows.append({
                "runtime": f"soc-{backend}",
                "shards": shards,
                "events_per_sec": f"{throughput:,.0f}",
                "seconds": f"{seconds:.4f}",
                "lag_mean_events": f"{lag['mean']:.2f}",
            })
    print_table(
        f"E12 SOC throughput ({HOSTS} hosts, {SCENARIO_EVENTS} events, "
        f"{CPUS} cpus)", rows)

    path = write_bench_json("soc", {
        "scenario": {
            "hosts": HOSTS,
            "rounds": ROUNDS,
            "noise_per_drift": NOISE_PER_DRIFT,
            "events": SCENARIO_EVENTS,
            "cpus": CPUS,
        },
        "serial": {
            "seconds": round(serial_seconds, 6),
            "events_per_sec": round(serial_tp, 1),
        },
        "soc": {backend: {str(shards): result
                          for shards, result in per_backend.items()}
                for backend, per_backend in results.items()},
    })
    print(f"wrote {path}")

    thread, process = results["thread"], results["process"]

    # -- universal invariants (any core count) ------------------------------
    # Selective routing keeps the thread SOC at least even with the
    # serial loop at operational shard counts (10% tolerance: on a
    # single, shared core the two runs are within scheduler noise of
    # each other — best-of-2 does not fully damp it).
    for shards in (4, 8):
        assert thread[shards]["events_per_sec"] >= 0.9 * serial_tp, (
            f"thread SOC at {shards} shards slower than serial loop")
    # The process backend's transport overhead must stay bounded even
    # where it cannot win wall-clock (single core): no worse than
    # 0.4x the serial loop at operational shard counts (typically
    # 0.7-0.9x here; the slack absorbs single-core scheduler noise).
    for shards in (4, 8):
        assert process[shards]["events_per_sec"] >= 0.4 * serial_tp, (
            f"process SOC at {shards} shards pathologically slow")
    # Detection lag is the process backend's structural win: shard
    # processes drain continuously (no GIL handoff between producer
    # and workers), so lag stays flat as shards scale — the thread
    # backend's lag grows with shard count instead.
    for shards in (4, 8):
        assert process[shards]["detection_lag_mean_events"] <= 5.0, (
            f"process backend lag regressed at {shards} shards")
    assert process[8]["detection_lag_mean_events"] <= \
        thread[8]["detection_lag_mean_events"], \
        "process backend lost its detection-lag advantage at 8 shards"

    # -- scaling wins (hardware-gated) --------------------------------------
    # With real cores the process backend escapes the GIL plateau.
    if CPUS >= 4:
        assert process[4]["events_per_sec"] >= \
            thread[4]["events_per_sec"], \
            "process backend below thread at 4 shards despite >=4 cpus"
        assert process[8]["events_per_sec"] > \
            thread[8]["events_per_sec"], \
            "process backend below thread at 8 shards despite >=4 cpus"
    if CPUS >= 8:
        assert process[8]["events_per_sec"] >= 2.5 * serial_tp, (
            "process backend at 8 shards under 2.5x serial despite "
            ">=8 cpus")


# -- generated scenarios ----------------------------------------------------

GEN_ROUNDS = 2
GEN_NOISE = 8
GEN_SHARDS = 4


def run_generated(scenario):
    """One thread-backend storm over a generated zoned estate, the SOC
    sharded by the topology's conduit-aware placement hints."""
    fleet = scenario.build_fleet()
    service = fleet.arm_soc(shards=GEN_SHARDS, queue_capacity=4096,
                            placement=scenario.shard_hints(GEN_SHARDS))
    try:
        started = time.perf_counter()
        drifts = inject_storm(fleet, scenario=scenario,
                              rounds=GEN_ROUNDS,
                              noise_per_drift=GEN_NOISE)
        service.drain()
        elapsed = time.perf_counter() - started
    finally:
        service.stop()
    check_invariants(service).raise_if_violated()
    assert service.effective_repairs() >= drifts
    assert fleet.audit().worst_ratio == 1.0
    events = len(fleet.hosts()) * GEN_ROUNDS * (GEN_NOISE + 2)
    return {
        "hosts": len(fleet.hosts()),
        "zones": scenario.zones,
        "seconds": round(elapsed, 6),
        "events_per_sec": round(events / elapsed, 1),
        "drifts": drifts,
    }


def test_bench_e12_generated_scenarios():
    """The same storm loop over every generated scenario: correctness
    (full repair coverage, conservation invariants) must hold on any
    seeded estate, not just the pinned fixture fleet."""
    results = {}
    rows = []
    for scenario in generated_scenarios():
        results[scenario.name] = run_generated(scenario)
        rows.append(dict({"scenario": scenario.name},
                         **results[scenario.name]))
    print_table(
        f"E12 generated scenarios (thread backend, {GEN_SHARDS} shards, "
        f"conduit-aware placement)", rows)
    path = write_bench_json("soc_scenarios", {
        "rounds": GEN_ROUNDS,
        "noise_per_drift": GEN_NOISE,
        "shards": GEN_SHARDS,
        "scenarios": results,
    })
    print(f"wrote {path}")
    assert len(results) >= 3
