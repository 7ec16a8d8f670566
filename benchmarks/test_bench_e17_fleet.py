"""E17 — the CI fleet sharing one remote verification cache.

The distributed payoff of the content-addressed cache: one cold run
seeds a shared remote tier, then N concurrent runs — each with a
cold memory tier over that remote, as N fresh CI machines would
have — verify the same workload simultaneously.  Gates:

1. **Warm-hit rate >= 0.9 across the fleet.**  The concurrent runs
   answer (almost) everything from the shared tier; with the bundled
   workload the rate is exactly 1.0 — zero model-checking calls
   fleet-wide after the seed.
2. **Byte-identical verdicts** on every run, cached or not.
3. **Tail latency bounded by the cold run.**  A warm fleet member's
   p95 must beat the cold seeding run — cache reads cost less than
   model checking.

Results land in the ``fleet`` section of ``BENCH_prevention.json``
(merged, so the E15 sections survive).
"""

from repro.prevention import simulate_fleet

from bench_utils import merge_bench_json
from conftest import print_table
from test_bench_e15_prevention import heavy_verification_tasks

FLEET_RUNS = 4
WARM_HIT_RATE_MIN = 0.9


def test_bench_e17_fleet_warm_hit_rate(tmp_path):
    report = simulate_fleet(
        runs=FLEET_RUNS,
        workdir=tmp_path,
        tasks=heavy_verification_tasks(),
        mode="thread",
        seed_cold=True,
    )
    document = report.to_dict()
    latency = document["latency_s"]

    rows = [{"run": row["run_id"], "seconds": round(row["seconds"], 4),
             "hits": row["hits"], "misses": row["misses"],
             "remote_hits": row["remote_hits"]}
            for row in document["per_run"]]
    rows.append({"run": "cold (seed)",
                 "seconds": round(document["cold_s"], 4),
                 "hits": 0, "misses": "-", "remote_hits": "-"})
    print_table(
        f"E17 CI fleet ({FLEET_RUNS} concurrent runs, shared remote)",
        rows)

    assert report.all_passed
    assert report.verdicts_identical
    assert document["warm_hit_rate"] >= WARM_HIT_RATE_MIN, (
        f"fleet warm-hit rate {document['warm_hit_rate']:.2f} below "
        f"{WARM_HIT_RATE_MIN}")
    # Every fleet member was served by the shared tier, and nobody
    # fell back to model checking.
    for row in document["per_run"]:
        assert row["misses"] == 0
        assert row["remote_hits"] > 0
    # Cache reads cost less than model checking: a warm member's tail
    # beats the cold seeding run outright.
    assert latency["p95"] < document["cold_s"], (
        f"warm p95 {latency['p95']:.3f}s not under cold "
        f"{document['cold_s']:.3f}s")

    test_bench_e17_fleet_warm_hit_rate.result = {
        **document,
        "gates": {
            "warm_hit_rate_min": WARM_HIT_RATE_MIN,
            "verdicts_identical": True,
            "warm_p95_under_cold": True,
        },
    }


def test_bench_e17_write_json():
    """Merge the fleet section into BENCH_prevention.json (runs last;
    fails loudly if the gate test did not complete)."""
    path = merge_bench_json(
        "prevention", "fleet", test_bench_e17_fleet_warm_hit_rate.result)
    assert path.exists()
