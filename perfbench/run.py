"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload soc-churn --seed 1 --seconds 50 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` spends half of ``--seconds`` on an untraced pass and half
on a traced one, and reports the per-layer metrics of the traced pass
plus the tracing overhead (traced minus untraced).  Metric names, units
and the workload list come from ``BENCHMARK.json`` at the checkout
root.  The last line
of standard output is the result object; the full result document
(stamp, samples, per-layer breakdown) is written under
``perfbench/out/`` together with the traced pass's spans.

Exit status: 0 when every output check passed, 1 when an op failed its
check (or the run was too short to support a reported percentile), 2 on
a usage or environment error (no ``src/`` beside the benchmark), 3 when
the open-loop generator could not keep its schedule (the run is
unsustainable and prints no result).
"""

import argparse
import json
import sys

from common import OUT, ROOT, SRC, latency_summary, peak_rss_mb, stamp
from tracing import NullTracer, Tracer, instrument

#: The end-to-end metric whose traced/untraced ratio is reported as
#: ``trace.overhead_pct`` (each workload's headline delay).
PRIMARY = {"soc-churn": "latency_p50_ms", "prevent-ci": "latency_p50_ms"}

#: Per-layer metrics read from the tracer under another span name.
SPAN_METRICS = {
    "soc.queues.get_batch.wait_s": ("total", "soc.queues.get_batch"),
    "prevention.fingerprint.calls": ("calls", "prevention.fingerprint"),
    "prevention.fingerprint.self_s": ("self", "prevention.fingerprint"),
}

#: Spans that time waiting, not work: left out of the busy breakdown.
WAIT_SPANS = ("soc.queues.get_batch", "soc.service.drain")

#: Units of the workloads' own metric names (the README's table).
NAMED_UNITS = {
    "events_per_s": "ev/s", "repair_p50_ms": "ms", "repair_p90_ms": "ms",
    "rearm_p50_ms": "ms", "rearm_p90_ms": "ms", "ci_cold_ms": "ms",
    "ci_run_p50_ms": "ms", "ci_run_p90_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "failed_ratio": "ratio", "calibration_pass_ms": "ms",
}


def load_workloads():
    import workload_ci
    import workload_churn

    return {module.NAME: module for module in (workload_churn, workload_ci)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def layer_of(span: str) -> str:
    """The module a span name belongs to."""
    return span if span == "prevention.fingerprint" \
        else span.rsplit(".", 1)[0]


def per_layer(spec, tracer: Tracer, facts, overhead_pct: float):
    """Every ``per_layer`` metric of BENCHMARK.json for one traced pass.

    A layer the workload never reaches reads 0 (its predicted-flat
    case); a name the benchmark cannot resolve is a bug and raises.
    """
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif name == "soc.queues.batch_mean":
            gets = tracer.calls("soc.queues.get_batch")
            value = facts.get("soc.workers.processed", 0) / gets \
                if gets else 0.0
        elif name == "soc.rearm.drain_wait_s":
            value = tracer.nested_s("soc.rearm.apply", "soc.service.drain")
        elif name in SPAN_METRICS:
            kind, span = SPAN_METRICS[name]
            value = {"total": tracer.total_s, "calls": tracer.calls,
                     "self": tracer.self_s}[kind](span)
        elif name in facts:
            value = facts[name]
        elif name.endswith(".calls"):
            value = tracer.calls(name[:-len(".calls")])
        elif name.endswith(".self_s"):
            value = tracer.self_s(name[:-len(".self_s")])
        elif name.startswith(("soc.", "environment.", "ltl.", "reqs.",
                              "prevention.", "ta.", "gen.")):
            value = 0.0
        else:
            raise KeyError(f"per-layer metric {name!r} has no source")
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    return metrics


def breakdown(tracer: Tracer):
    """Busy self seconds per layer, largest first."""
    layers = {}
    for span, (_calls, _total, self_s) in tracer.totals.items():
        if span not in WAIT_SPANS:
            layer = layer_of(span)
            layers[layer] = layers.get(layer, 0.0) + self_s
    return dict(sorted(layers.items(), key=lambda item: -item[1]))


def summarize(named):
    """Sample lists become count/median/percentile summaries."""
    return {key: latency_summary(value) if isinstance(value, list) else value
            for key, value in named.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = workloads[args.workload]

    # The untraced pass is the overhead baseline of the traced one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = module.run(args.seed, seconds, NullTracer())
    result, tracer = untraced, None
    if args.trace:
        tracer = instrument(Tracer())
        try:
            result = module.run(args.seed, seconds, tracer)
        finally:
            tracer.restore()

    passes = [untraced] if result is untraced else [untraced, result]
    attempted = sum(one.attempted for one in passes)
    failed = sum(one.failed for one in passes)
    correct = all(one.correct for one in passes)
    e2e = dict(untraced.metrics, peak_rss_mb=peak_rss_mb())
    named = summarize(untraced.named)
    named["peak_rss_mb"] = e2e["peak_rss_mb"]
    named["failed_ratio"] = failed / attempted if attempted else 1.0
    document = {"stamp": stamp(args.workload, args.seed, bool(args.trace)),
                "correct": correct, "attempted": attempted,
                "failed": failed,
                "errors": [error for one in passes for error in one.errors],
                "sustainable": untraced.sustainable,
                "named": named, "end_to_end": e2e,
                "samples": {key: value for key, value
                            in untraced.named.items()
                            if isinstance(value, list)}}
    OUT.mkdir(parents=True, exist_ok=True)
    base = f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer is not None:
        primary = PRIMARY[args.workload]
        traced, plain = result.metrics[primary], untraced.metrics[primary]
        overhead_pct = (traced / plain - 1.0) * 100.0 \
            if traced is not None and plain else 0.0
        busy = breakdown(tracer)
        document["trace"] = {
            "traced_end_to_end": result.metrics,
            "overhead": {name: result.metrics[name] - untraced.metrics[name]
                         for name in untraced.metrics
                         if None not in (result.metrics[name],
                                         untraced.metrics[name])},
            "overhead_pct": {primary: overhead_pct},
            "busy_self_s_by_layer": busy,
            "dominant_layer": next(iter(busy), None),
            "spans_written": tracer.write(OUT / f"spans-{base}.jsonl"),
        }
        metrics = per_layer(spec, tracer, result.layers, overhead_pct)
        missing = []
    else:
        missing = [entry["name"] for entry in spec["end_to_end"]
                   if e2e.get(entry["name"]) is None]
        metrics = {entry["name"]: {"value": float(e2e[entry["name"]]),
                                   "unit": entry["unit"]}
                   for entry in spec["end_to_end"]
                   if entry["name"] not in missing}
    (OUT / f"result-{base}.json").write_text(
        json.dumps(dict(document, metrics=metrics), indent=1, default=str)
        + "\n")

    for key, value in named.items():
        unit = NAMED_UNITS.get(key, "")
        print(f"{args.workload} {key} = {value} {unit}".rstrip())
    if tracer is not None:
        print(f"{args.workload} dominant layer: "
              f"{document['trace']['dominant_layer']} "
              f"(busy self s: {document['trace']['busy_self_s_by_layer']})")
    for error in document["errors"]:
        print(f"{args.workload} check failed: {error}")
    if correct and not untraced.sustainable:
        # Latencies of a generator that fell behind are not reported.
        print(f"{args.workload} unsustainable: the generator fell behind "
              f"by more than one churn period; no result reported")
        return 3
    if correct and missing:
        print(f"{args.workload} too few samples for {missing}; run longer",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
