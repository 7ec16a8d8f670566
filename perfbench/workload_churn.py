"""soc-churn: open-loop drift stream with live requirement churn.

Thirty-two hardened Ubuntu hosts armed through ``plan_for_records``
with 66 requirements each: every Ubuntu catalogue finding bound (so
every drift can be repaired), two records whose binding flips drift
class, two whose bindings grow and shrink within one class, four NL
statement slots lowered through the RESA front-end, and 44 formalized
specification-pattern records (response, scoped absence, scoped
precedence) over a shared six-kind event vocabulary, so each event
steps tens of monitors.  The absence and precedence records forbid
kinds the stream never emits: they step on their scope events but
never fire, and every incident is a drift's.

The generator is one open-loop thread.  It issues host ops at a fixed
rate (every twentieth op of a host is a drift from the scenario's
rotation, the rest vocabulary events) and, every churn period, one
churn batch: RESA lowering -> ``ReqStream.diff`` ->
``Rearmer.apply(wait=True)`` -> ``commit``.  A batch mixes NL slots
re-lowered (changed or unchanged statements), one drift-class flip
(re-armed fresh), one rebind (state kept) and four unchanged
re-announcements.  Every op is timed from its due time, so a re-arm
stall shows up as late drifts.  The rate is fixed at about 15% of
what the thread backend sustains on this fleet; the README says why
it is not half.
"""

import gc
import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List

from common import SpeedGauge, WorkloadResult, cells_for, percentile_or_none
from soc_shared import (
    QUEUE_CAPACITY, SHARDS, RepairProbe, SocFacts, check_service,
    drift_findings, drift_latencies)

NAME = "soc-churn"
#: Host ops issued per second (a drift op emits two log events).
RATE = 1000.0
CHURN_PERIOD_S = 0.2
DRIFT_EVERY = 20
VOCABULARY = ("app.auth.fail", "app.auth.ok", "app.session.open",
              "app.session.close", "app.job.start", "app.job.done")
PATTERN_RECORDS = 44
NL_SLOTS = 4
FLIP_RECORDS = 2
REBIND_RECORDS = 2
UNCHANGED_PER_BATCH = 4
#: Seconds of open-loop traffic per cell (each cell sets up afresh).
CELL_SECONDS = 4.0
DRIFT_OP = len(VOCABULARY)


@dataclass(frozen=True)
class Size:
    """Run shape; tests shrink it, the benchmark uses the default."""

    hosts: int = 32
    rate: float = RATE


# -- generated inputs ---------------------------------------------------------

def pattern_specs(seed: int) -> List[list]:
    """``[kind, params]`` of every pattern record.

    The records follow one fixed template over vocabulary positions, so
    every seed arms the same amount of stepping work; the seed only
    permutes which event kind sits at which position.
    """
    kinds = list(VOCABULARY)
    random.Random(f"{NAME}:{seed}:patterns").shuffle(kinds)
    width = len(kinds)
    specs = []
    for index in range(PATTERN_RECORDS):
        a = kinds[index % width]
        b = kinds[(index + 1 + index // width) % width]
        c = kinds[(index + 3) % width]
        if b == a:
            b = kinds[(index + 2) % width]
        if c in (a, b):
            c = kinds[(index + 4) % width]
        forbidden = f"app.forbidden.k{index}"
        kind = ("response", "absence", "precedence")[index % 3]
        params = {"response": [a, b],
                  "absence": [forbidden, a, b],
                  "precedence": [forbidden, a, b, c]}[kind]
        specs.append([kind, params])
    return specs


def op_stream(seed: int, cell: int, size: Size, seconds: float) -> Dict:
    """Host ops of one cell: op *k* is due ``k / rate`` seconds in;
    ``hosts[k]`` is its host index and ``kinds[k]`` a vocabulary index
    or :data:`DRIFT_OP`."""
    rng = random.Random(f"{NAME}:{seed}:{cell}:ops")
    count = int(size.rate * seconds)
    phase = [rng.randrange(DRIFT_EVERY) for _ in range(size.hosts)]
    hosts, kinds = [], []
    order = list(range(size.hosts))
    for round_index in range(-(-count // size.hosts)):
        rng.shuffle(order)
        for host_index in order:
            hosts.append(host_index)
            drift = (round_index + phase[host_index]) % DRIFT_EVERY \
                == DRIFT_EVERY - 1
            kinds.append(DRIFT_OP if drift
                         else rng.randrange(len(VOCABULARY)))
    return {"hosts": hosts[:count], "kinds": kinds[:count]}


def churn_batches(seed: int, cell: int, seconds: float) -> List[Dict]:
    """The churn batches of one cell, batch *j* due ``(j + 1)`` periods
    in.  The batch shape rotates (NL slots and statements, which flip
    and which rebind record) so every seed does the same re-arm work;
    the seed picks the rotation offset and the unchanged records.
    Toggle states are carried so each batch is self-describing."""
    rng = random.Random(f"{NAME}:{seed}:{cell}:churn")
    pool = _nl_pool_size()
    offset = rng.randrange(pool)
    flip_state = [0] * FLIP_RECORDS
    rebind_state = [0] * REBIND_RECORDS
    base = [f"R-{i:03d}" for i in range(len(_ubuntu_findings()))] + \
        [f"P-{i:03d}" for i in range(PATTERN_RECORDS)]
    batches = []
    for index in range(int(seconds / CHURN_PERIOD_S)):
        slots = sorted({index % NL_SLOTS, (index + 2) % NL_SLOTS})
        flip = index % FLIP_RECORDS
        flip_state[flip] ^= 1
        rebind = (index + 1) % REBIND_RECORDS
        rebind_state[rebind] ^= 1
        batches.append({
            "nl": [[slot, (offset + index + slot) % pool] for slot in slots],
            "flip": [flip, flip_state[flip]],
            "rebind": [rebind, rebind_state[rebind]],
            "same": rng.sample(base, UNCHANGED_PER_BATCH),
        })
    return batches


def generated_inputs(seed: int, size: Size = Size(), cells: int = 2,
                     seconds: float = 1.0):
    """Every generated input of *cells* cells (determinism check)."""
    return {"patterns": pattern_specs(seed),
            "cells": [{"ops": op_stream(seed, cell, size, seconds),
                       "churn": churn_batches(seed, cell, seconds)}
                      for cell in range(cells)]}


# -- records ------------------------------------------------------------------

def _ubuntu_findings() -> List[str]:
    from repro.rqcode import default_catalog

    catalog = default_catalog()
    return [fid for fid in catalog.finding_ids()
            if catalog.get(fid).platform == "ubuntu"]


def _nl_pool_size() -> int:
    from repro.scenarios.library import NL_TEMPLATE_POOL

    return len(NL_TEMPLATE_POOL)


class Records:
    """Builds the IR records the batches name."""

    def __init__(self, seed: int):
        from repro.reqs import default_registry
        from repro.rqcode import default_catalog
        from repro.soc.rearm import drift_atom

        self.catalog = default_catalog()
        self.registry = default_registry()
        findings = _ubuntu_findings()
        by_class: Dict[str, List[str]] = {}
        for fid in findings:
            by_class.setdefault(drift_atom(self.catalog, [fid]), []).append(
                fid)
        packages, configs = by_class["drift.package"], by_class["drift.config"]
        self.base = {f"R-{i:03d}": self._standard(f"R-{i:03d}", [fid])
                     for i, fid in enumerate(findings)}
        for index, (kind, params) in enumerate(pattern_specs(seed)):
            rid = f"P-{index:03d}"
            self.base[rid] = self._pattern(rid, kind, params)
        #: flip j: state 0 binds a package finding, state 1 a config one
        self._flip = [[packages[j], configs[j % len(configs)]]
                      for j in range(FLIP_RECORDS)]
        #: rebind j: state 0 binds one package finding, state 1 two
        self._rebind = [[packages[-1 - j], packages[-2 - j]]
                        for j in range(REBIND_RECORDS)]

    @staticmethod
    def _standard(rid: str, finding_ids):
        from repro.reqs.ir import Provenance, Requirement

        return Requirement(
            rid=rid, title=rid, text=f"requirement {rid}", source="rqcode",
            severity="high", bindings=tuple(finding_ids),
            provenance=(Provenance("perfbench", rid, "soc-churn record"),))

    @staticmethod
    def _pattern(rid: str, kind: str, params):
        from repro.reqs.ir import Formalization, Provenance, Requirement
        from repro.specpatterns import (
            Absence, AfterQUntilR, Globally, Precedence, Response, to_ltl)

        if kind == "response":
            pattern, scope = Response(p=params[0], s=params[1]), Globally()
        elif kind == "absence":
            pattern = Absence(p=params[0])
            scope = AfterQUntilR(q=params[1], r=params[2])
        else:
            pattern = Precedence(p=params[0], s=params[1])
            scope = AfterQUntilR(q=params[2], r=params[3])
        return Requirement(
            rid=rid, title=rid, text=f"{pattern} {kind} requirement {rid}",
            source="resa",
            formalization=Formalization.from_objects(
                pattern, scope, ltl=str(to_ltl(pattern, scope))),
            provenance=(Provenance("perfbench", rid, "soc-churn pattern"),))

    def flip(self, index: int, state: int):
        return self._standard(f"X-{index}", [self._flip[index][state]])

    def rebind(self, index: int, state: int):
        return self._standard(f"Y-{index}", self._rebind[index][:1 + state])

    def lower_nl(self, assignments) -> list:
        """RESA-lower ``(slot, pool index)`` pairs under slot rids."""
        from repro.scenarios.library import NL_TEMPLATE_POOL

        rids = iter([f"NL-{slot}" for slot, _ in assignments])
        return list(self.registry.lower_iter(
            "resa", [NL_TEMPLATE_POOL[index] for _, index in assignments],
            ids=lambda: next(rids)))

    def initial(self) -> list:
        return (list(self.base.values())
                + [self.flip(j, 0) for j in range(FLIP_RECORDS)]
                + [self.rebind(j, 0) for j in range(REBIND_RECORDS)]
                + self.lower_nl([[slot, slot] for slot in range(NL_SLOTS)]))


# -- the run ------------------------------------------------------------------

class _Churn:
    """One cell's churn plane: lower -> diff -> apply -> commit."""

    def __init__(self, records: Records, service, initial, tracer,
                 totals: Dict[str, int]):
        from repro.reqs.stream import ReqStream
        from repro.soc.rearm import Rearmer

        self.records = records
        self.stream = ReqStream(initial)
        self.rearmer = Rearmer(service)
        self.tracer = tracer
        self.totals = totals
        self.tokens: List[int] = []

    def apply(self, batch: Dict) -> None:
        from repro.reqs.registry import RejectedNative

        records, totals = self.records, self.totals
        with self.tracer.span("reqs.registry.lower"):
            items = records.lower_nl(batch["nl"])
        rejected = sum(1 for item in items
                       if isinstance(item, RejectedNative))
        totals["lowered"] += len(items) - rejected
        totals["rejected"] += rejected
        items.append(records.flip(*batch["flip"]))
        items.append(records.rebind(*batch["rebind"]))
        items.extend(records.base[rid] for rid in batch["same"])
        delta = self.stream.diff(items)
        report = self.rearmer.apply(delta, wait=True)
        self.stream.commit(delta)
        totals["diffed"] += len(items)
        totals["unchanged"] += delta.unchanged
        totals["added"] += report.monitors_added
        totals["kept"] += report.monitors_kept
        totals["rebound"] += report.monitors_rebound
        totals["removed"] += report.monitors_removed
        self.tokens.extend(report.tokens)


def run(seed: int, seconds: float, tracer, size: Size = Size()
        ) -> WorkloadResult:
    from repro.scenarios import get_scenario
    from repro.soc import rearm
    from repro.soc.queues import Backpressure
    from repro.soc.service import SocService

    scenario = get_scenario("seed-legacy")
    finding_of = drift_findings(scenario)
    records = Records(seed)
    cold_plan = getattr(rearm.plan_for_records, "__wrapped__",
                        rearm.plan_for_records)
    result = WorkloadResult(NAME)
    facts = SocFacts()
    cells = cells_for(seconds, CELL_SECONDS)
    cell_seconds = seconds / cells
    interval = 1.0 / size.rate
    gauge = SpeedGauge()
    #: (began or was due at, wall time) of every set-up, drift and batch
    setups, latencies_ms, rearm_ms = [], [], []
    late_max = active_s = 0.0
    scheduled = sent = drifts_total = offered_total = 0
    totals = dict.fromkeys(("lowered", "rejected", "diffed", "unchanged",
                            "added", "kept", "rebound", "removed"), 0)

    for cell in range(cells):
        ops = op_stream(seed, cell, size, cell_seconds)
        batches = churn_batches(seed, cell, cell_seconds)
        hosts_of, kinds_of = ops["hosts"], ops["kinds"]
        scheduled += len(kinds_of) + len(batches)
        # Collect the previous cell's fleet and service now, so set-up
        # is not timed paying for their collection.
        fleet = hosts = plans = service = churn = drifts = None
        gc.collect()
        gauge.read()
        started = time.perf_counter()
        fleet = scenario.build_fleet(hosts=size.hosts)
        hosts = fleet.hosts()
        with tracer.span("reqs.registry.lower"):
            initial = records.initial()
        plans = {host.name: rearm.plan_for_records(initial, host,
                                                   records.catalog)
                 for host in hosts}
        service = SocService(hosts, records.catalog, plans, shards=SHARDS,
                             queue_capacity=QUEUE_CAPACITY,
                             policy=Backpressure.BLOCK, backend="thread",
                             seed=seed).start()
        churn = _Churn(records, service, initial, tracer, totals)
        setups.append((started, time.perf_counter() - started))
        drift_counts = [0] * len(hosts)
        drifts: List[tuple] = []
        probe = RepairProbe().install()
        try:
            t0 = time.perf_counter()
            # Behind by more than a period at the end: stop, unsustainable.
            stop_at = t0 + cell_seconds + CHURN_PERIOD_S
            k = j = 0
            while k < len(kinds_of) or j < len(batches):
                op_due = t0 + k * interval if k < len(kinds_of) \
                    else float("inf")
                batch_due = t0 + (j + 1) * CHURN_PERIOD_S \
                    if j < len(batches) else float("inf")
                due = min(op_due, batch_due)
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                    now = time.perf_counter()
                if now > stop_at:
                    break
                late_max = max(late_max, now - due)
                sent += 1
                if batch_due <= op_due:
                    j += 1
                    try:
                        churn.apply(batches[j - 1])
                    except RuntimeError as exc:
                        result.fail(f"churn batch {j - 1} failed: {exc}")
                        continue
                    rearm_ms.append((due, (time.perf_counter() - due)
                                     * 1000.0))
                    # Every shard has just applied the batch's patches, so
                    # the program is idle: the moment to read the gauge.
                    gauge.read()
                    continue
                host_index = hosts_of[k]
                host = hosts[host_index]
                if kinds_of[k] == DRIFT_OP:
                    round_index = drift_counts[host_index]
                    drift_counts[host_index] += 1
                    scenario.apply_drift(host, round_index, host_index)
                    drifts.append((host.name, finding_of[
                        scenario.drift_for(round_index, host_index)],
                        now, op_due))
                else:
                    host.events.emit(VOCABULARY[kinds_of[k]])
                k += 1
            service.drain()
            active_s += time.perf_counter() - t0
            gauge.read()
            offered_total += service.metrics.counter(
                "soc.events.offered").value
            drifts_total += len(drifts)
            result.attempted += len(drifts) + j
            with tracer.paused():
                drift_latencies(result, drifts, probe, latencies_ms)
                check_service(result, fleet.audit, service, len(drifts))
                _check_armed(result, service, churn.stream.armed(),
                             cold_plan, records.catalog)
                applied = set()
                for session in service.sessions.values():
                    applied |= session._patched
                missing = set(churn.tokens) - applied
                if missing:
                    result.fail(f"{len(missing)} patch token(s) never "
                                f"applied")
                facts.add(service)
        finally:
            probe.restore()
            service.stop()

    result.sustainable = late_max <= CHURN_PERIOD_S and sent == scheduled
    result.metrics = {
        "setup_s": statistics.median(gauge.scale(setups)),
        "latency_p50_ms": percentile_or_none(gauge.scale(latencies_ms), 0.5),
        "batch_p50_ms": percentile_or_none(gauge.scale(rearm_ms), 0.5),
    }
    setups, latencies_ms, rearm_ms = ([value for _, value in timed]
                                      for timed in (setups, latencies_ms,
                                                    rearm_ms))
    result.named = {
        "events_per_s": offered_total / active_s,
        "repair_p50_ms": percentile_or_none(latencies_ms, 0.5),
        "repair_p90_ms": percentile_or_none(latencies_ms, 0.9),
        "rearm_p50_ms": percentile_or_none(rearm_ms, 0.5),
        "rearm_p90_ms": percentile_or_none(rearm_ms, 0.9),
        "calibration_pass_ms": gauge.median_ms(),
        "rate_ops_per_s": size.rate,
        "churn_period_s": CHURN_PERIOD_S,
        "sustainable": result.sustainable,
        "generator_late_max_ms": late_max * 1000.0,
        "ops_scheduled": scheduled,
        "ops_sent": sent,
        "drifts": drifts_total,
        "churn_batches": len(rearm_ms),
        "repair_latency_ms": latencies_ms,
        "rearm_ms": rearm_ms,
        "setup_s": setups,
    }
    result.layers = facts.layers()
    result.layers.update({
        "gen.ops_scheduled": scheduled,
        "gen.ops_sent": sent,
        "gen.late_max_ms": late_max * 1000.0,
        "reqs.registry.lower.records": totals["lowered"],
        "reqs.registry.lower.rejected": totals["rejected"],
        "reqs.stream.unchanged_ratio": (totals["unchanged"] / totals["diffed"]
                                        if totals["diffed"] else 0.0),
        **{f"soc.rearm.monitors_{key}": totals[key]
           for key in ("added", "kept", "rebound", "removed")},
    })
    return result


def _check_armed(result: WorkloadResult, service, final_records, cold_plan,
                 catalog) -> None:
    """delta == cold: each host's armed monitors (ids, interned
    formulas, non-empty bindings) equal a cold plan of the final set."""
    for name, session in sorted(service.sessions.items()):
        monitors, bindings = cold_plan(final_records, session.host, catalog)
        armed = {rid: monitor.formula
                 for rid, monitor in session.monitors.items()}
        cold = {rid: monitor.formula for rid, monitor in monitors.items()}
        if armed.keys() != cold.keys() or any(
                armed[rid] is not cold[rid] for rid in cold):
            result.fail(f"{name}: armed monitors differ from a cold plan")
            return
        live = {rid: list(ids) for rid, ids in session.bindings.items()
                if ids}
        if live != {rid: list(ids) for rid, ids in bindings.items()}:
            result.fail(f"{name}: armed bindings differ from a cold plan")
            return
