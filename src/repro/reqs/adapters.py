"""The seven bundled front-end adapters.

Each adapter lowers one native requirement shape into the canonical IR:

========== ====================================================
nalabs     :class:`~repro.nalabs.analyzer.RequirementText` /
           ``RequirementReport`` (quality-analyzed prose)
resa       statements / :class:`~repro.resa.boilerplates.
           StructuredRequirement` (boilerplate-matched prose)
rqcode     :class:`~repro.rqcode.catalog.CatalogEntry` (STIG
           findings; also raises IR back into checkable/
           enforceable instances)
vulndb     :class:`~repro.vulndb.generator.GeneratedRequirement`
           (CVE-derived requirements)
standards  :class:`~repro.standards.iec62443.SystemRequirement`
           (IEC 62443-3-3 SRs with their finding mappings)
cwe        :class:`~repro.vulndb.records.CweEntry` (weakness
           catalogue entries, or bare CWE ids)
capec      :class:`~repro.scenarios.catalogues.AttackPattern`
           (attack-pattern catalogue entries, or bare CAPEC ids)
========== ====================================================

The lowering rules here are *the* definition of each source's IR form:
the orchestrator's ingestion methods call these adapters, so a record
ingested through the legacy native API and one lowered explicitly
through the registry are field-for-field (and therefore
fingerprint-for-fingerprint) identical.

The catalogue adapters (``cwe``, ``capec``) derive their requirement
ids from the catalogue ids themselves, so re-announcing an entry on
the streaming path (``lower_iter`` → ``ReqStream`` → ``Rearmer``)
lands as an upsert of the same rid rather than a fresh record — no
threaded id counter needed (their :meth:`~repro.reqs.registry.
FrontendAdapter.id_factory` stays ``None`` by design).
"""

import itertools
from typing import Callable, List, Optional, Sequence, Tuple

from repro.reqs.ir import Formalization, Provenance, Requirement
from repro.reqs.registry import FrontendAdapter, RequirementSource
from repro.specpatterns.ltl_mappings import PatternScopeUnsupported, to_ltl
from repro.specpatterns.tctl_mappings import to_tctl


def _title(text: str, limit: int = 60) -> str:
    """A one-line title derived from the normative text."""
    line = " ".join(text.split())
    return line if len(line) <= limit else line[:limit - 1].rstrip() + "…"


def _formalize(pattern, scope) -> Optional[Formalization]:
    """Render a pattern/scope pair into the IR formalization payload."""
    if pattern is None:
        return None
    try:
        ltl = str(to_ltl(pattern, scope))
    except PatternScopeUnsupported:
        ltl = ""
    return Formalization.from_objects(pattern, scope, ltl=ltl,
                                      tctl=to_tctl(pattern, scope))


def _id_factory(prefix: str) -> Callable[[], str]:
    counter = itertools.count(1)
    return lambda: f"{prefix}-{next(counter):03d}"


class NalabsAdapter(FrontendAdapter):
    """Prose requirements with NALABS quality metadata as tags."""

    name = "nalabs"
    requirement_source = RequirementSource.NATURAL_LANGUAGE
    native = "RequirementText / RequirementReport"

    def __init__(self, analyzer=None):
        self._analyzer = analyzer

    def _analyze(self, requirement):
        from repro.nalabs.analyzer import NalabsAnalyzer

        if self._analyzer is None:
            self._analyzer = NalabsAnalyzer()
        return self._analyzer.analyze(requirement)

    def lower(self, natives: Sequence,
              ids: Optional[Callable[[], str]] = None) -> List[Requirement]:
        from repro.nalabs.analyzer import RequirementText

        records = []
        for native in natives:
            report = (self._analyze(native)
                      if isinstance(native, RequirementText) else native)
            rid = ids() if ids is not None else f"NAL-{report.req_id}"
            records.append(Requirement(
                rid=rid,
                title=_title(report.text),
                text=report.text,
                source=self.name,
                provenance=(Provenance(
                    "nalabs", report.req_id,
                    f"NALABS-analyzed requirement {report.req_id}"),),
                target_kind="document",
                severity="medium",
                formalization=None,
                tags=tuple(f"smell:{name}"
                           for name in sorted(report.flagged_metrics)),
            ))
        return records

    def discover(self) -> Sequence:
        """A seeded slice of the synthetic E4 corpus (deterministic)."""
        from repro.nalabs.corpus import CorpusGenerator

        requirements, _ = CorpusGenerator(seed=0).generate(
            count=10, injection_rate=0.1)
        return requirements

    def native_ref(self, native) -> str:
        return str(getattr(native, "req_id", "") or "")


class ResaAdapter(FrontendAdapter):
    """Boilerplate-matched prose, carrying its exported formalization.

    Accepts plain statement strings (matched here; statements outside
    the grammar still lower, pattern-less, so the quality gate can
    judge them) or pre-matched ``StructuredRequirement`` objects.
    """

    name = "resa"
    requirement_source = RequirementSource.NATURAL_LANGUAGE
    native = "statement str / StructuredRequirement"

    def id_factory(self):
        # Default ids are positional: streaming must thread one
        # counter across batches or every batch restarts at RESA-001.
        return _id_factory("RESA")

    def lower(self, natives: Sequence,
              ids: Optional[Callable[[], str]] = None) -> List[Requirement]:
        from repro.resa.boilerplates import (
            BoilerplateMatchError,
            StructuredRequirement,
            match_boilerplate,
        )
        from repro.resa.export import to_pattern

        ids = ids if ids is not None else _id_factory("RESA")
        records = []
        for native in natives:
            rid = ids()
            if isinstance(native, StructuredRequirement):
                structured = native
                provenance = Provenance(
                    "resa", structured.boilerplate_id,
                    f"{structured.req_id} (boilerplate "
                    f"{structured.boilerplate_id})")
            else:
                try:
                    structured = match_boilerplate(rid, str(native))
                    provenance = Provenance(
                        "resa", structured.boilerplate_id,
                        f"boilerplate {structured.boilerplate_id}")
                except BoilerplateMatchError:
                    records.append(Requirement(
                        rid=rid,
                        title=_title(str(native)),
                        text=str(native),
                        source=self.name,
                        provenance=(Provenance(
                            "freeform", rid,
                            "free-form (no boilerplate match)"),),
                        target_kind="document",
                        formalization=None,
                    ))
                    continue
            pattern, scope = to_pattern(structured)
            records.append(Requirement(
                rid=rid,
                title=_title(structured.text),
                text=structured.text,
                source=self.name,
                provenance=(provenance,),
                target_kind="monitor",
                formalization=_formalize(pattern, scope),
            ))
        return records

    def discover(self) -> Sequence:
        """A reference document exercising the boilerplate shapes."""
        from repro.resa.parser import parse_document

        return parse_document(
            "REQ-1: The authentication service shall lock the account "
            "after 3 consecutive failures.\n"
            "REQ-2: When intrusion is detected, the gateway shall "
            "alert the operator within 5 seconds.\n"
            "REQ-3: The audit subsystem shall not transmit passwords.\n"
            "REQ-4: While maintenance mode is active, the update client "
            "shall reject remote sessions.\n"
        ).requirements

    def native_ref(self, native) -> str:
        return str(getattr(native, "boilerplate_id", "") or "")


class RqcodeAdapter(FrontendAdapter):
    """STIG catalogue findings: continuous-compliance requirements.

    The only adapter with both directions: :meth:`lower` turns a
    catalogue entry into a `G compliant_<finding>` requirement bound to
    the finding, and :meth:`raise_artifacts` turns such an IR record
    back into the checkable/enforceable instances for a host.
    """

    name = "rqcode"
    requirement_source = RequirementSource.STANDARD
    native = "CatalogEntry"

    def __init__(self, catalog=None):
        self._catalog = catalog

    def catalog(self):
        if self._catalog is None:
            from repro.rqcode.catalog import default_catalog

            self._catalog = default_catalog()
        return self._catalog

    def lower(self, natives: Sequence,
              ids: Optional[Callable[[], str]] = None) -> List[Requirement]:
        from repro.specpatterns.patterns import Universality
        from repro.specpatterns.scopes import Globally

        records = []
        for entry in natives:
            atom = f"compliant_{entry.finding_id}".replace("-", "_")
            severity = entry.severity if entry.severity in (
                "low", "medium", "high", "critical") else "medium"
            records.append(Requirement(
                rid=(ids() if ids is not None
                     else f"RQC-{entry.finding_id}"),
                title=f"STIG finding {entry.finding_id}",
                text=(f"The system shall satisfy STIG finding "
                      f"{entry.finding_id} continuously."),
                source=self.name,
                provenance=(Provenance(
                    "stig", entry.finding_id,
                    f"STIG {entry.finding_id} ({entry.platform})"),),
                target_kind="host",
                severity=severity,
                formalization=_formalize(Universality(p=atom), Globally()),
                bindings=(entry.finding_id,),
            ))
        return records

    def discover(self) -> Sequence:
        catalog = self.catalog()
        return [catalog.get(fid) for fid in catalog.finding_ids()]

    def raise_artifacts(self, record: Requirement, host):
        """IR -> instantiated checkable/enforceable STIG requirements."""
        catalog = self.catalog()
        return [catalog.get(fid).instantiate(host)
                for fid in record.bindings
                if fid in catalog
                and catalog.get(fid).platform == host.os_family]

    def native_ref(self, native) -> str:
        return str(getattr(native, "finding_id", "") or "")


class VulndbAdapter(FrontendAdapter):
    """CVE-derived requirements from the vulnerability database."""

    name = "vulndb"
    requirement_source = RequirementSource.VULNERABILITY_DB
    native = "GeneratedRequirement"

    #: Pattern family -> pattern builder, mirroring the WP2 mapping.
    @staticmethod
    def _pattern_for(generated):
        from repro.specpatterns import patterns as pat

        def atom(prefix: str) -> str:
            return f"{prefix}_{generated.source_cve}".replace("-", "_")

        factory = {
            "Absence": lambda: pat.Absence(p=atom("exploit")),
            "Existence": lambda: pat.Existence(p=atom("audited")),
            "Universality": lambda: pat.Universality(p=atom("hardened")),
            "Precedence": lambda: pat.Precedence(p=atom("access"),
                                                 s=atom("authz")),
            "TimedResponse": lambda: pat.TimedResponse(
                p=atom("exhaustion"), s=atom("recovered"), bound=60),
        }
        return factory[generated.pattern_family]()

    def lower(self, natives: Sequence,
              ids: Optional[Callable[[], str]] = None) -> List[Requirement]:
        from repro.specpatterns.scopes import Globally

        records = []
        for generated in natives:
            binding = generated.rqcode_binding
            target = ("monitor" if binding == "monitor"
                      else "host" if binding else "system")
            records.append(Requirement(
                rid=(ids() if ids is not None else f"VDB-{generated.req_id}"),
                title=f"Mitigate {generated.source_cve}",
                text=generated.text,
                source=self.name,
                provenance=(Provenance(
                    "cve", generated.source_cve,
                    f"{generated.source_cve} ({generated.cwe_category}, "
                    f"{generated.severity.value})"),),
                target_kind=target,
                severity=generated.severity.value.lower(),
                formalization=_formalize(self._pattern_for(generated),
                                         Globally()),
                tags=(f"cwe-category:{generated.cwe_category}",)
                + ((f"rqcode-binding:{binding}",) if binding else ()),
            ))
        return records

    def discover(self) -> Sequence:
        """Requirements for the reference inventory (bash/openssl)."""
        from repro.vulndb import (
            RequirementGenerator,
            SoftwareInventory,
            bundled_database,
        )

        inventory = SoftwareInventory.of(
            "reqs-reference", "ubuntu",
            {"bash": "4.3", "openssl": "1.0.1f"})
        return RequirementGenerator(
            bundled_database()).generate(inventory).requirements

    def native_ref(self, native) -> str:
        return str(getattr(native, "source_cve", "") or "")


class StandardsAdapter(FrontendAdapter):
    """IEC 62443-3-3 system requirements with their SR mappings.

    Natives are ``(SystemRequirement, bindings)`` pairs or bare
    ``SystemRequirement`` objects (bindings then come from the default
    SR mapping, unfiltered by platform).
    """

    name = "standards"
    requirement_source = RequirementSource.STANDARD
    native = "SystemRequirement [+ bindings]"

    def lower(self, natives: Sequence,
              ids: Optional[Callable[[], str]] = None) -> List[Requirement]:
        from repro.specpatterns.patterns import Universality
        from repro.specpatterns.scopes import Globally
        from repro.standards.mapping import DEFAULT_SR_MAPPING

        records = []
        for native in natives:
            if isinstance(native, tuple):
                sr, bindings = native
            else:
                sr = native
                mapping = DEFAULT_SR_MAPPING.get(sr.sr_id)
                bindings = mapping.finding_ids if mapping is not None else ()
            atom = ("satisfied_"
                    + sr.sr_id.replace(" ", "_").replace(".", "_"))
            records.append(Requirement(
                rid=(ids() if ids is not None else
                     "IEC-" + sr.sr_id.replace(" ", "-").replace(".", "-")),
                title=f"{sr.sr_id} {sr.name}",
                text=(f"The system shall satisfy {sr.sr_id} "
                      f"({sr.name}) continuously."),
                source=self.name,
                provenance=(Provenance(
                    "iec62443-3-3", sr.sr_id,
                    f"IEC 62443-3-3 {sr.sr_id}, baseline "
                    f"SL{sr.baseline_level.value}: {sr.intent}"),),
                target_kind="host" if bindings else "system",
                formalization=_formalize(Universality(p=atom), Globally()),
                tags=(f"fr:{sr.fr.name}",
                      f"baseline:SL{sr.baseline_level.value}"),
                bindings=tuple(bindings),
            ))
        return records

    def discover(self) -> Sequence:
        from repro.standards.iec62443 import (
            SecurityLevel,
            requirements_for_level,
        )

        return list(requirements_for_level(SecurityLevel.SL4))

    def native_ref(self, native) -> str:
        sr = native[0] if isinstance(native, tuple) and native else native
        return str(getattr(sr, "sr_id", "") or "")


#: Severity the CWE adapter assigns per weakness category: the coarse
#: judgement a triage playbook would make from the category alone.
CWE_CATEGORY_SEVERITY = {
    "memory-safety": "critical",
    "input-validation": "high",
    "authentication": "high",
    "authorization": "high",
    "cryptography": "medium",
    "availability": "medium",
    "configuration": "medium",
    "auditing": "low",
}


class CweAdapter(FrontendAdapter):
    """Weakness-catalogue entries as absence requirements.

    Natives are :class:`~repro.vulndb.records.CweEntry` objects or
    bare CWE id strings (resolved against the bundled catalogue —
    the shape a live catalogue feed announces).  Requirement ids
    derive from the CWE id, so catalogue re-announcements upsert
    rather than duplicate on the streaming path.
    """

    name = "cwe"
    requirement_source = RequirementSource.VULNERABILITY_DB
    native = "CweEntry / 'CWE-nnn' id"

    @staticmethod
    def _resolve(native):
        from repro.vulndb.records import CWE_CATALOG, CweEntry

        if isinstance(native, CweEntry):
            return native
        try:
            return CWE_CATALOG[str(native)]
        except KeyError:
            raise KeyError(f"unknown weakness {native!r}; "
                           f"catalogued: {sorted(CWE_CATALOG)}")

    def lower(self, natives: Sequence,
              ids: Optional[Callable[[], str]] = None) -> List[Requirement]:
        from repro.specpatterns.patterns import Absence
        from repro.specpatterns.scopes import Globally

        records = []
        for native in natives:
            entry = self._resolve(native)
            atom = f"weakness_{entry.cwe_id}".replace("-", "_").lower()
            records.append(Requirement(
                rid=(ids() if ids is not None
                     else entry.cwe_id.replace("CWE-", "CWE-REQ-")),
                title=f"{entry.cwe_id} {entry.name}",
                text=(f"The system shall not exhibit {entry.name} "
                      f"({entry.cwe_id}) weaknesses."),
                source=self.name,
                provenance=(Provenance(
                    "cwe", entry.cwe_id,
                    f"{entry.cwe_id} {entry.name} "
                    f"[{entry.category}]"),),
                target_kind="system",
                severity=CWE_CATEGORY_SEVERITY.get(entry.category,
                                                   "medium"),
                formalization=_formalize(Absence(p=atom), Globally()),
                tags=(f"cwe-category:{entry.category}",),
            ))
        return records

    def discover(self) -> Sequence:
        from repro.vulndb.records import CWE_CATALOG

        return [CWE_CATALOG[cwe_id] for cwe_id in sorted(
            CWE_CATALOG, key=lambda cid: int(cid.split("-")[1]))]

    def native_ref(self, native) -> str:
        return str(getattr(native, "cwe_id", native) or "")


class CapecAdapter(FrontendAdapter):
    """Attack-pattern catalogue entries as detection requirements.

    Natives are :class:`~repro.scenarios.catalogues.AttackPattern`
    objects or bare CAPEC id strings.  The provenance chain cites the
    CAPEC id first and then every related CWE, so a record traces to
    both halves of the weakness taxonomy; the stage tag is what the
    campaign compiler keys on.
    """

    name = "capec"
    requirement_source = RequirementSource.VULNERABILITY_DB
    native = "AttackPattern / 'CAPEC-nnn' id"

    @staticmethod
    def _resolve(native):
        from repro.scenarios.catalogues import AttackPattern, get_pattern

        if isinstance(native, AttackPattern):
            return native
        return get_pattern(str(native))

    def lower(self, natives: Sequence,
              ids: Optional[Callable[[], str]] = None) -> List[Requirement]:
        from repro.specpatterns.patterns import Absence
        from repro.specpatterns.scopes import Globally
        from repro.vulndb.records import CWE_CATALOG

        records = []
        for native in natives:
            pattern = self._resolve(native)
            atom = (f"attack_{pattern.capec_id}"
                    .replace("-", "_").lower())
            chain = [Provenance(
                "capec", pattern.capec_id,
                f"{pattern.capec_id} {pattern.name} "
                f"({pattern.stage}, likelihood {pattern.likelihood})")]
            for cwe_id in pattern.related_cwes:
                entry = CWE_CATALOG.get(cwe_id)
                chain.append(Provenance(
                    "cwe", cwe_id,
                    f"{cwe_id} {entry.name}" if entry is not None
                    else f"{cwe_id} related weakness"))
            records.append(Requirement(
                rid=(ids() if ids is not None
                     else pattern.capec_id.replace("CAPEC-",
                                                   "CAPEC-REQ-")),
                title=f"Counter {pattern.capec_id} {pattern.name}",
                text=(f"The system shall detect and counter "
                      f"{pattern.name} ({pattern.capec_id}) attack "
                      f"attempts. {pattern.summary}"),
                source=self.name,
                provenance=tuple(chain),
                target_kind="monitor",
                severity=pattern.severity,
                formalization=_formalize(Absence(p=atom), Globally()),
                tags=(f"capec-stage:{pattern.stage}",
                      f"likelihood:{pattern.likelihood}")
                + tuple(f"cwe:{cwe_id}"
                        for cwe_id in pattern.related_cwes),
            ))
        return records

    def discover(self) -> Sequence:
        from repro.scenarios.catalogues import CAPEC_CATALOG

        return [CAPEC_CATALOG[cid] for cid in sorted(
            CAPEC_CATALOG, key=lambda cid: int(cid.split("-")[1]))]

    def native_ref(self, native) -> str:
        return str(getattr(native, "capec_id", native) or "")
