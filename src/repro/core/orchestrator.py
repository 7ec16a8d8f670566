"""The VeriDevOps orchestrator: WP2 -> WP4 -> WP3 in one object.

``VeriDevOpsOrchestrator`` owns a requirement repository and builds the
prevention pipeline around it:

1. **Ingestion (WP2)** — every ingestion method lowers its native
   objects through the registered front-end adapter
   (:mod:`repro.reqs.adapters`) into the canonical Requirement IR and
   stores the result: :meth:`ingest_natural_language` (RESA
   boilerplate matching attaches patterns), :meth:`ingest_standards`
   (one requirement per catalogue finding, with its RQCODE binding),
   :meth:`ingest_vulnerabilities` (the vulndb generator), plus the
   source-agnostic :meth:`ingest_ir` / :meth:`ingest_frontend` for IR
   produced elsewhere.  A record ingested through a native method and
   one lowered externally through the registry are the same IR, so
   prevention-cache fingerprints agree across paths.
2. **Prevention (WP4)** — :meth:`build_pipeline` assembles the staged
   pipeline with the five security gates; :meth:`run_prevention`
   executes it against target hosts.
3. **Protection (WP3)** — :meth:`start_protection` arms the
   event-driven loop on a deployed host with the monitors the pipeline
   produced, plus drift detectors for every standard-sourced binding
   (the same rule the live re-arm plane applies).
"""

from typing import Dict, List, Optional, Sequence

from repro.core.gates import (
    ComplianceGate,
    FormalizationGate,
    MonitoringGate,
    RequirementsQualityGate,
    VerificationGate,
)
from repro.core.pipeline import (
    Job,
    Pipeline,
    PipelineContext,
    PipelineRun,
    Stage,
)
from repro.core.protection import ProtectionLoop
from repro.core.repository import RequirementRecord, RequirementRepository
from repro.environment.host import SimulatedHost
from repro.ltl.compile import transition_table
from repro.ltl.formulas import FALSE
from repro.ltl.monitor import LtlMonitor
from repro.reqs.ir import Requirement
from repro.reqs.registry import FrontendRegistry, default_registry
from repro.rqcode.catalog import StigCatalog, default_catalog
from repro.vulndb.database import VulnerabilityDatabase
from repro.vulndb.generator import RequirementGenerator, SoftwareInventory


def _event_compatible(monitor: LtlMonitor) -> bool:
    """Can *monitor* observe an event with no propositions and survive?

    Event logs assert only event atoms, so a formula falsified by an
    empty step (``G state_atom``) cannot be monitored on the stream.
    The probe goes through the formula's shared transition table, so
    it is one progression per formula per process, then a lookup.
    """
    formula = monitor.formula
    return transition_table(formula).step(formula, frozenset()) \
        is not FALSE


class VeriDevOpsOrchestrator:
    """End-to-end driver for the framework."""

    def __init__(self, catalog: Optional[StigCatalog] = None,
                 registry: Optional[FrontendRegistry] = None):
        self.repository = RequirementRepository()
        self.catalog = catalog if catalog is not None else default_catalog()
        self.registry = registry if registry is not None \
            else default_registry()
        self._counter = 0

    # -- WP2: ingestion -------------------------------------------------------------

    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}-{self._counter:03d}"

    def _ids(self, prefix: str):
        """An id allocator adapters can draw from (shared counter)."""
        return lambda: self._next_id(prefix)

    def ingest_ir(self, irs: Sequence[Requirement]
                  ) -> List[RequirementRecord]:
        """Store IR records lowered elsewhere (any front-end)."""
        return self.repository.extend_ir(irs)

    def ingest_frontend(self, name: str,
                        natives: Optional[Sequence] = None
                        ) -> List[RequirementRecord]:
        """Lower one registered front-end and store the result.

        With *natives* omitted, the adapter's bundled corpus is
        lowered — the uniform path ``repro reqs`` and the SOC's
        front-end arming use.
        """
        if natives is None:
            irs = self.registry.lower_bundled(name)
        else:
            irs = self.registry.lower(name, natives)
        return self.ingest_ir(irs)

    def ingest_natural_language(self, statements: Sequence[str]
                                ) -> List[RequirementRecord]:
        """Ingest NL statements; RESA matches attach a formal pattern.

        Statements outside the boilerplate grammar are still recorded
        (the quality gate will judge them); they simply carry no
        pattern and stay at the textual level.
        """
        return self.ingest_ir(self.registry.lower(
            "resa", list(statements), ids=self._ids("NL")))

    def ingest_resa_document(self, text: str) -> List[RequirementRecord]:
        """Ingest a RESA document (``ID: statement`` lines).

        Boilerplate-matched statements carry their exported pattern;
        statements with *error* diagnostics are recorded pattern-less so
        the quality gate can surface them.  The original requirement
        ids are preserved in provenance.
        """
        from repro.resa import parse_document

        document = parse_document(text)
        return self.ingest_ir(self.registry.lower(
            "resa", document.requirements, ids=self._ids("NL")))

    def ingest_standards(self, platform: str) -> List[RequirementRecord]:
        """One requirement per catalogue finding for *platform*."""
        return self.ingest_ir(self.registry.lower(
            "rqcode", self.catalog.entries_for(platform),
            ids=self._ids("STD")))

    def ingest_iec62443(self, platform: str,
                        level=None) -> List[RequirementRecord]:
        """One requirement per IEC 62443-3-3 SR required at *level*.

        SRs with mapped findings applicable to *platform* carry those
        bindings (and so reach deployment and protection); unmapped SRs
        are still recorded, keeping the gap visible in traceability.
        """
        from repro.standards import (
            DEFAULT_SR_MAPPING,
            SecurityLevel,
            requirements_for_level,
        )

        level = level if level is not None else SecurityLevel.SL1
        platform_findings = set(self.catalog.finding_ids(platform))
        natives = []
        for sr in requirements_for_level(level):
            mapping = DEFAULT_SR_MAPPING.get(sr.sr_id)
            bindings = ()
            if mapping is not None:
                bindings = tuple(fid for fid in mapping.finding_ids
                                 if fid in platform_findings)
            natives.append((sr, bindings))
        return self.ingest_ir(self.registry.lower(
            "standards", natives, ids=self._ids("IEC")))

    def ingest_vulnerabilities(self, database: VulnerabilityDatabase,
                               inventory: SoftwareInventory
                               ) -> List[RequirementRecord]:
        """Run the vulndb generator and record its requirements."""
        report = RequirementGenerator(database).generate(inventory)
        return self.ingest_ir(self.registry.lower(
            "vulndb", report.requirements, ids=self._ids("VDB")))

    # -- WP4: prevention ---------------------------------------------------------------

    def build_pipeline(self,
                       max_smelly_ratio: float = 0.35,
                       min_formalized_ratio: float = 0.5,
                       min_compliance: float = 1.0,
                       verification_tasks: Optional[list] = None,
                       max_workers: Optional[int] = None,
                       cache=None
                       ) -> Pipeline:
        """Assemble the staged prevention pipeline.

        ``max_workers`` parallelizes stage jobs (wave-scheduled on the
        keys they declare) and the verification gate's per-requirement
        queries; ``cache`` (a :class:`~repro.prevention.
        TieredVerdictStore`) makes re-runs incremental — only tasks
        whose fingerprints changed are re-checked.
        """
        def load_requirements(context: PipelineContext) -> str:
            context.put("repository", self.repository)
            return f"{len(self.repository)} requirements loaded"

        def load_verification(context: PipelineContext) -> str:
            tasks = verification_tasks or []
            context.put("verification_tasks", tasks)
            return f"{len(tasks)} verification tasks queued"

        return Pipeline([
            Stage(
                name="requirements",
                jobs=[Job("load-requirements", load_requirements,
                          writes=("repository",))],
                gates=[RequirementsQualityGate(
                    max_smelly_ratio=max_smelly_ratio)],
            ),
            Stage(
                name="formalization",
                jobs=[],
                gates=[FormalizationGate(
                    min_formalized_ratio=min_formalized_ratio)],
            ),
            Stage(
                name="verification",
                jobs=[Job("load-verification-tasks", load_verification,
                          writes=("verification_tasks",))],
                gates=[VerificationGate(cache=cache,
                                        max_workers=max_workers)],
            ),
            Stage(
                name="deployment",
                jobs=[],
                gates=[
                    ComplianceGate(self.catalog,
                                   min_compliance=min_compliance),
                    MonitoringGate(),
                ],
            ),
        ], max_workers=max_workers)

    def run_prevention(self, hosts: Sequence[SimulatedHost],
                       verification_tasks: Optional[list] = None,
                       max_workers: Optional[int] = None,
                       cache=None,
                       scheduler=None,
                       risk=None,
                       **thresholds) -> PipelineRun:
        """Run the full prevention pipeline against *hosts*.

        An explicit *scheduler* (:class:`repro.sched.Scheduler`) routes
        the whole run — stage jobs and verification fan-out — through
        that scheduler, which is how journaled, crash-resumable runs
        are driven (see :mod:`repro.sched.runner`).

        A *risk* index (:class:`repro.reqs.risk.RiskIndex`) lands in
        the pipeline context as ``risk_index``: serial stage execution
        re-orders through the risk-aware wave planner (high-risk jobs
        as early as their conflicts allow) and the verification gate
        drains its pending queries highest-risk-first.

        A *cache* (:class:`repro.prevention.TieredVerdictStore` over
        one bucket store) makes the run incremental: the verification
        gate re-checks only tasks whose fingerprints changed and saves
        the fresh verdicts back before the run ends.
        """
        pipeline = self.build_pipeline(
            verification_tasks=verification_tasks,
            max_workers=max_workers, cache=cache, **thresholds)
        context = PipelineContext(hosts=list(hosts))
        if risk is not None:
            context.put("risk_index", risk)
        return pipeline.run(context, scheduler=scheduler)

    # -- WP3: protection -----------------------------------------------------------------

    def protection_plan(self, host: SimulatedHost,
                        run: Optional[PipelineRun] = None):
        """The monitors and RQCODE bindings protecting *host*.

        Uses the monitors the pipeline produced (when *run* is given)
        and always adds a drift detector for every standard-sourced
        requirement bound to catalogue findings of the host's platform:
        the re-arm plane's :func:`~repro.soc.rearm.drift_entry`, so cold
        and live plans arm drift by one rule.  Returns ``(monitors,
        bindings)`` — the plan both the serial :class:`ProtectionLoop`
        and the concurrent SOC runtime arm.
        """
        from repro.soc.rearm import drift_entry

        monitors: Dict[str, LtlMonitor] = {}
        bindings: Dict[str, List[str]] = {}
        if run is not None and run.context is not None:
            for req_id, monitor in run.context.get("monitors", {}).items():
                # Event streams only assert event atoms; a monitor that
                # demands a proposition on *every* step (state-style
                # universality, e.g. ``G compliant_X``) would go FALSE on
                # the first event.  Those requirements are protected by
                # the drift detectors below instead.
                if _event_compatible(monitor):
                    monitors[req_id] = monitor
        for ir in self.repository.irs():
            entry = drift_entry(ir, host, self.catalog)
            if entry is not None:
                drift_id, monitor, finding_ids = entry
                monitors[drift_id] = monitor
                bindings[drift_id] = list(finding_ids)
        return monitors, bindings

    def start_protection(self, host: SimulatedHost,
                         run: Optional[PipelineRun] = None
                         ) -> ProtectionLoop:
        """Arm the event-driven protection loop on a deployed host."""
        monitors, bindings = self.protection_plan(host, run)
        loop = ProtectionLoop(host, self.catalog, monitors, bindings)
        return loop.start()
