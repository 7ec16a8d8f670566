"""Security gates: the prevention checkpoints of the VeriDevOps pipeline.

Each gate reads artifacts from the :class:`~repro.core.pipeline.
PipelineContext` and returns a :class:`GateResult`.  The five gates map
one-to-one to the framework's promises:

* :class:`RequirementsQualityGate` — NALABS smell analysis over the
  natural-language requirements (WP2 quality).
* :class:`FormalizationGate` — every requirement that claims a
  formalization actually renders to LTL/TCTL (WP2 formalization).
* :class:`VerificationGate` — observer-automata verification tasks all
  hold under the zone-graph checker (WP4 verification).
* :class:`ComplianceGate` — target hosts meet the bound STIG findings,
  optionally auto-remediating (WP4 hardening / deployment).
* :class:`MonitoringGate` — runtime monitors are instantiated for every
  formalized requirement before deployment completes (WP3 handoff).

Gates read requirements through :func:`gate_repository`: a context may
carry a ready ``repository`` or, equivalently, a ``requirements_ir``
collection of canonical :class:`~repro.reqs.ir.Requirement` records —
the IR is materialized into a repository on first access, so callers
holding only front-end-lowered IR can run the pipeline directly.
"""

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.core.pipeline import PipelineContext
from repro.core.repository import (
    RequirementRepository,
    RequirementStatus,
)
from repro.ltl.compile import CompiledMonitor
from repro.ltl.monitor import LtlMonitor
from repro.ltl.parser import parse_ltl
from repro.nalabs.analyzer import NalabsAnalyzer, RequirementText
from repro.rqcode.catalog import StigCatalog
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task as SchedTask
from repro.specpatterns.ltl_mappings import PatternScopeUnsupported, to_ltl
from repro.specpatterns.tctl_mappings import to_tctl
from repro.ta.checker import CheckResult, ZoneGraphChecker
from repro.ta.query import parse_query


def gate_repository(context: PipelineContext,
                    required: bool = True
                    ) -> Optional[RequirementRepository]:
    """The context's repository, materializing ``requirements_ir``.

    Precedence: an explicit ``repository`` artifact wins; otherwise a
    ``requirements_ir`` collection (IR records from any front-end) is
    lowered into a fresh repository and cached back on the context so
    every gate sees the same mutable records.  With ``required`` the
    absence of both raises, mirroring ``context.require``.
    """
    repository = context.get("repository")
    if repository is not None:
        return repository
    irs = context.get("requirements_ir")
    if irs is not None:
        repository = RequirementRepository.from_irs(irs)
        context.put("repository", repository)
        return repository
    if required:
        return context.require("repository")
    return None


@dataclass
class GateResult:
    """Verdict of one gate evaluation."""

    passed: bool
    detail: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)


class SecurityGate:
    """Base protocol: a named check over the pipeline context."""

    name = "gate"

    def evaluate(self, context: PipelineContext) -> GateResult:
        raise NotImplementedError


class RequirementsQualityGate(SecurityGate):
    """Fails when too many requirements carry NALABS smells.

    Reads ``repository`` (RequirementRepository); writes
    ``nalabs_report``.  Requirements passing move to ANALYZED.

    Metrics include the repository's cross-front-end duplicate
    accounting (``duplicate_groups``/``duplicate_requirements`` from
    :meth:`RequirementRepository.duplicate_groups`): two sources
    stating the same content fingerprint are one obligation, and the
    gate is where that first becomes visible.
    """

    name = "requirements-quality"

    def __init__(self, max_smelly_ratio: float = 0.2,
                 analyzer: Optional[NalabsAnalyzer] = None):
        self.max_smelly_ratio = max_smelly_ratio
        self.analyzer = analyzer if analyzer is not None else NalabsAnalyzer()

    def evaluate(self, context: PipelineContext) -> GateResult:
        repository: RequirementRepository = gate_repository(context)
        records = repository.all()
        if not records:
            return GateResult(passed=True, detail="no requirements to check")
        corpus = [RequirementText(r.ir.rid, r.ir.text) for r in records]
        report = self.analyzer.analyze_corpus(corpus)
        context.put("nalabs_report", report)
        by_id = {r.req_id: r for r in report.reports}
        for record in records:
            requirement_report = by_id[record.ir.rid]
            record.quality_flags = list(requirement_report.flagged_metrics)
            record.advance_to(RequirementStatus.ANALYZED)
        ratio = report.smelly_count / report.total
        passed = ratio <= self.max_smelly_ratio
        duplicates = repository.duplicate_groups()
        return GateResult(
            passed=passed,
            detail=(
                f"{report.smelly_count}/{report.total} requirements "
                f"smelly (max ratio {self.max_smelly_ratio:.0%})"
            ),
            metrics={
                "smelly_ratio": ratio,
                "total": float(report.total),
                "duplicate_groups": float(len(duplicates)),
                "duplicate_requirements": float(
                    sum(len(ids) for ids in duplicates.values())),
            },
        )


class FormalizationGate(SecurityGate):
    """Fails when too few requirements formalize to patterns/LTL.

    Requirements with a pattern attached get their LTL and TCTL
    rendered into their IR's formalization (and move to FORMALIZED);
    the gate passes when the formalized fraction meets the threshold.
    """

    name = "formalization"

    def __init__(self, min_formalized_ratio: float = 0.5):
        self.min_formalized_ratio = min_formalized_ratio

    def evaluate(self, context: PipelineContext) -> GateResult:
        repository: RequirementRepository = gate_repository(context)
        records = repository.all()
        if not records:
            return GateResult(passed=True, detail="no requirements")
        formalized = 0
        for record in records:
            pattern, scope = record.ir.pattern_scope()
            if pattern is None:
                continue
            try:
                ltl = str(to_ltl(pattern, scope))
            except PatternScopeUnsupported:
                # Pattern known but mapping absent: keep TCTL-only.
                ltl = ""
            record.ir = replace(record.ir, formalization=replace(
                record.ir.formalization, ltl=ltl,
                tctl=to_tctl(pattern, scope)))
            record.advance_to(RequirementStatus.FORMALIZED)
            formalized += 1
        ratio = formalized / len(records)
        passed = ratio >= self.min_formalized_ratio
        return GateResult(
            passed=passed,
            detail=(
                f"{formalized}/{len(records)} requirements formalized "
                f"(min ratio {self.min_formalized_ratio:.0%})"
            ),
            metrics={"formalized_ratio": ratio},
        )


def _verdict_to_dict(result: CheckResult) -> Dict:
    """A check result as plain data — what the verdict cache persists."""
    return {
        "satisfied": result.satisfied,
        "query": result.query,
        "states_explored": result.states_explored,
        "witness": list(result.witness),
    }


def _verdict_from_dict(verdict: Dict) -> CheckResult:
    return CheckResult(
        satisfied=verdict["satisfied"],
        query=verdict["query"],
        states_explored=verdict["states_explored"],
        witness=list(verdict.get("witness", [])),
    )


class _NetworkChecks:
    """One network's share of a gate evaluation.

    The checker is built lazily on the first check and dropped after
    the last one the evaluation scheduled, so at most one checker per
    network is alive.  Its tasks all write :attr:`key`, which keeps
    them serial on the shared checker under any scheduler.
    """

    def __init__(self, network, group: int):
        self.network = network
        self.key = f"checker:{group}"
        self.remaining = 0
        self._checker: Optional[ZoneGraphChecker] = None

    def check(self, query_text: str) -> CheckResult:
        if self._checker is None:
            self._checker = ZoneGraphChecker(self.network)
        try:
            return self._checker.check(parse_query(query_text))
        finally:
            self.remaining -= 1
            if not self.remaining:
                self._checker = None


class VerificationGate(SecurityGate):
    """Runs the model-checking tasks; fails on any unsatisfied query.

    Reads ``verification_tasks``: a list of ``(label, network, query)``
    triples (query text for :func:`repro.ta.query.parse_query`).
    Writes ``verification_results``.  Formalized requirements advance
    to VERIFIED when the gate passes.

    With a verdict store attached (``cache``: a
    :class:`~repro.prevention.cas.tiers.TieredVerdictStore`), each task
    is content-addressed first: a fingerprint hit returns the stored
    verdict without touching the model checker, and only the misses
    run.  Misses execute as *effective* tasks on the unified scheduler
    — the run's own scheduler when the pipeline attached one to the
    context (journaled runs adopt already-verified verdicts on
    crash-resume instead of re-checking), otherwise an ephemeral
    scheduler sized by ``max_workers``.

    Tasks that share a network object share one
    :class:`~repro.ta.checker.ZoneGraphChecker`, built on that network's
    first check and dropped after its last, so later queries walk the
    successor edges the earlier ones cached; fingerprinting likewise
    serializes and hashes each network object once per evaluation.
    Each task writes its network's ``checker:<n>`` key: tasks on one
    network run one after another in task order, tasks on different
    networks are independent and fan out across the workers.  Cache
    counters — plus the repository's content-fingerprint dedup
    accounting — land in the gate metrics and in
    ``verification_cache_stats``.
    """

    name = "verification"

    def __init__(self, cache=None, max_workers: Optional[int] = None):
        self.cache = cache
        self.max_workers = max_workers

    def evaluate(self, context: PipelineContext) -> GateResult:
        tasks = context.get("verification_tasks", [])
        results: List[Optional[tuple]] = [None] * len(tasks)
        pending = []  # (index, label, network, query_text, fingerprint)
        if self.cache is not None:
            from repro.prevention.fingerprint import fingerprint_task

            # One network hash state per network for this evaluation;
            # ``tasks`` keeps every network alive meanwhile.
            hashed: Dict[int, Any] = {}
            for index, (label, network, query_text) in enumerate(tasks):
                fp = fingerprint_task(network, query_text, memo=hashed)
                verdict = self.cache.lookup(label, fp)
                if verdict is not None:
                    results[index] = (label, _verdict_from_dict(verdict))
                else:
                    pending.append((index, label, network, query_text, fp))
        else:
            pending = [(index, label, network, query_text, None)
                       for index, (label, network, query_text)
                       in enumerate(tasks)]

        fresh: List[tuple] = []
        if pending:
            risk = context.get("risk_index", None)
            if risk is not None:
                # Risk-prioritized fan-out: tasks whose label matches a
                # scored requirement run first, so under a worker-
                # starved scheduler (or a fail-fast batch) the riskiest
                # verifications land earliest.  Results still fill in
                # by original index — verdict output is order-stable.
                pending.sort(key=lambda item: (
                    -risk.score_for(item[1]), item[0]))
            scheduler = getattr(context, "scheduler", None)
            if scheduler is None:
                scheduler = Scheduler(workers=self.max_workers or 1)
            groups: Dict[int, _NetworkChecks] = {}
            sched_tasks = []
            for index, label, network, query_text, fp in pending:
                group = groups.get(id(network))
                if group is None:
                    group = groups[id(network)] = _NetworkChecks(
                        network, len(groups))
                group.remaining += 1
                sched_tasks.append(SchedTask(
                    name=f"verify:{label}",
                    run=(lambda g=group, q=query_text:
                         _verdict_to_dict(g.check(q))),
                    writes=(group.key,),
                    effective=True,
                ))
            report = scheduler.run_batch(sched_tasks, fail_fast=False)
            report.raise_errors()
            fresh = [
                (index, label, fp, _verdict_from_dict(task_result.value))
                for (index, label, network, query_text, fp), task_result
                in zip(pending, report.results)
            ]
        for index, label, fp, result in fresh:
            results[index] = (label, result)
            if self.cache is not None:
                self.cache.store(label, fp, _verdict_to_dict(result))
        cache_stats = None
        if self.cache is not None:
            self.cache.save()
            cache_stats = self.cache.stats_dict()
            repository = gate_repository(context, required=False)
            if repository is not None:
                groups = repository.duplicate_groups()
                cache_stats["dedup_groups"] = len(groups)
                cache_stats["dedup_requirements"] = sum(
                    len(ids) for ids in groups.values())
            # The metrics block stays purely numeric (cache_stats is
            # folded into float-valued gate metrics below); hit
            # provenance — which tier answered, whose verdict it was —
            # rides only on the context document.
            stats_document = dict(cache_stats)
            provenance = getattr(self.cache, "provenance_dict", None)
            if provenance is not None:
                stats_document["provenance"] = provenance()
            context.put("verification_cache_stats", stats_document)

        failures = []
        total_states = 0
        for label, result in results:
            total_states += result.states_explored
            if not result.satisfied:
                failures.append(label)
        context.put("verification_results", results)
        passed = not failures
        if passed:
            repository = gate_repository(context, required=False)
            if repository is not None:
                for record in repository.formalized():
                    if record.status is RequirementStatus.FORMALIZED:
                        record.advance_to(RequirementStatus.VERIFIED)
        return GateResult(
            passed=passed,
            detail=(
                f"{len(tasks) - len(failures)}/{len(tasks)} verification "
                f"tasks hold"
                + (f"; failing: {failures}" if failures else "")
            ),
            metrics={
                "tasks": float(len(tasks)),
                "states_explored": float(total_states),
                **({f"cache_{key}": float(value)
                    for key, value in cache_stats.items()}
                   if cache_stats is not None else {}),
            },
        )


class ComplianceGate(SecurityGate):
    """Checks (and optionally hardens) target hosts against the catalogue.

    Reads ``hosts`` (list of SimulatedHost); writes
    ``compliance_reports``.  With ``auto_remediate`` the gate enforces
    failing findings before judging, which is the deployment-time
    hardening the paper promises.
    """

    name = "stig-compliance"

    def __init__(self, catalog: StigCatalog,
                 min_compliance: float = 1.0,
                 auto_remediate: bool = True):
        self.catalog = catalog
        self.min_compliance = min_compliance
        self.auto_remediate = auto_remediate

    def evaluate(self, context: PipelineContext) -> GateResult:
        hosts = context.get("hosts", [])
        if not hosts:
            return GateResult(passed=True, detail="no hosts to check")
        reports = []
        for host in hosts:
            if self.auto_remediate:
                reports.append(self.catalog.harden_host(host))
            else:
                reports.append(self.catalog.check_host(host))
        context.put("compliance_reports", reports)
        worst = min(report.compliance_ratio for report in reports)
        passed = worst >= self.min_compliance
        if passed:
            repository = gate_repository(context, required=False)
            if repository is not None:
                for record in repository.all():
                    if record.ir.bindings and \
                            record.status.rank() >= \
                            RequirementStatus.VERIFIED.rank():
                        record.advance_to(RequirementStatus.DEPLOYED)
        detail = "; ".join(report.summary() for report in reports)
        return GateResult(
            passed=passed,
            detail=detail,
            metrics={"worst_compliance": worst,
                     "hosts": float(len(hosts))},
        )


class MonitoringGate(SecurityGate):
    """Instantiates runtime monitors for every LTL-formalized requirement.

    Writes ``monitors``: requirement id -> :class:`LtlMonitor`.  The
    gate fails only when a stored LTL string no longer parses — a
    pipeline-integrity error worth stopping a deployment for.
    """

    name = "monitoring-deployment"

    def evaluate(self, context: PipelineContext) -> GateResult:
        repository: RequirementRepository = gate_repository(context)
        monitors: Dict[str, LtlMonitor] = {}
        broken: List[str] = []
        for record in repository.formalized():
            ir = record.ir
            if not ir.formalization.ltl:
                continue
            try:
                monitors[ir.rid] = CompiledMonitor(
                    parse_ltl(ir.formalization.ltl))
            except Exception:  # noqa: BLE001 - collect, report below
                broken.append(ir.rid)
        context.put("monitors", monitors)
        if not broken:
            for req_id in monitors:
                record = repository.get(req_id)
                if record.status.rank() >= RequirementStatus.DEPLOYED.rank():
                    record.advance_to(RequirementStatus.MONITORED)
        return GateResult(
            passed=not broken,
            detail=(
                f"{len(monitors)} monitors armed"
                + (f"; unparseable LTL for {broken}" if broken else "")
            ),
            metrics={"monitors": float(len(monitors))},
        )
