"""Requirement repository with lifecycle and traceability.

Every security requirement the framework handles — whatever its source
— is a :class:`~repro.reqs.ir.Requirement` (the immutable IR every
front-end lowers into).  The repository stores each one in a
:class:`RequirementRecord`: the IR itself plus the pipeline state the
gates advance (lifecycle status, quality flags).  The stored IR is the
requirement's one representation: the prevention plane fingerprints
it, the protection plane arms monitors from it, and persistence writes
it.

The repository is the traceability backbone: experiment E1's
end-to-end table is a walk over these records.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.reqs.ir import Requirement


class RequirementSource(enum.Enum):
    """Where a requirement came from (the three WP2 inputs)."""

    NATURAL_LANGUAGE = "natural-language"
    VULNERABILITY_DB = "vulnerability-db"
    STANDARD = "standard"


#: Front-end registry name -> coarse WP2 source.  Front-ends missing
#: here count as natural language.
FRONTEND_SOURCES: Dict[str, RequirementSource] = {
    "nalabs": RequirementSource.NATURAL_LANGUAGE,
    "resa": RequirementSource.NATURAL_LANGUAGE,
    "rqcode": RequirementSource.STANDARD,
    "standards": RequirementSource.STANDARD,
    "vulndb": RequirementSource.VULNERABILITY_DB,
}


def requirement_source(ir: Requirement) -> RequirementSource:
    """The WP2 source of the front-end *ir* was lowered from."""
    return FRONTEND_SOURCES.get(ir.source,
                                RequirementSource.NATURAL_LANGUAGE)


class RequirementStatus(enum.Enum):
    """Lifecycle stages, in order."""

    ELICITED = "elicited"
    ANALYZED = "analyzed"          # quality-checked (NALABS)
    FORMALIZED = "formalized"      # pattern + formula attached
    VERIFIED = "verified"          # model-checked / gate-passed
    DEPLOYED = "deployed"          # enforcement bound on hosts
    MONITORED = "monitored"        # runtime monitor active

    def rank(self) -> int:
        return _STATUS_ORDER.index(self)


_STATUS_ORDER = [
    RequirementStatus.ELICITED,
    RequirementStatus.ANALYZED,
    RequirementStatus.FORMALIZED,
    RequirementStatus.VERIFIED,
    RequirementStatus.DEPLOYED,
    RequirementStatus.MONITORED,
]


@dataclass
class RequirementRecord:
    """One stored requirement: its IR plus the pipeline's own state.

    ``ir`` is the whole requirement.  The gates replace it when they
    render its formulas (the IR is frozen), and every consumer reads it
    directly.  ``status`` and ``quality_flags`` are what the pipeline
    knows about the requirement and the IR does not: where it is in the
    lifecycle, and the NALABS flags raised at analysis time.
    """

    ir: Requirement
    status: RequirementStatus = RequirementStatus.ELICITED
    quality_flags: List[str] = field(default_factory=list)

    def advance_to(self, status: RequirementStatus) -> None:
        """Move the lifecycle forward; regression raises.

        The lifecycle is monotone: a verified requirement cannot drop
        back to elicited — re-analysis creates a new record instead.
        """
        if status.rank() < self.status.rank():
            raise ValueError(
                f"{self.ir.rid}: cannot regress from {self.status.value} "
                f"to {status.value}"
            )
        self.status = status


class RequirementRepository:
    """Record store with the queries the pipeline and reports need."""

    def __init__(self) -> None:
        self._records: Dict[str, RequirementRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, req_id: str) -> bool:
        return req_id in self._records

    def __iter__(self):
        return iter(self.all())

    def add(self, record: RequirementRecord) -> RequirementRecord:
        """Store *record*.  Its pattern and scope kinds are checked
        here, so a record the repository holds always raises into
        pattern/scope objects."""
        rid = record.ir.rid
        if rid in self._records:
            raise ValueError(f"duplicate requirement id: {rid}")
        record.ir.pattern_scope()
        self._records[rid] = record
        return record

    def add_ir(self, ir: Requirement) -> RequirementRecord:
        """Store one IR record as a fresh (ELICITED) repository record."""
        return self.add(RequirementRecord(ir))

    def extend_ir(self, irs: Iterable[Requirement]
                  ) -> List[RequirementRecord]:
        return [self.add_ir(ir) for ir in irs]

    @classmethod
    def from_irs(cls, irs: Iterable[Requirement]) -> "RequirementRepository":
        """Build a repository from an IR collection (any front-end)."""
        repository = cls()
        repository.extend_ir(irs)
        return repository

    def get(self, req_id: str) -> RequirementRecord:
        return self._records[req_id]

    def all(self) -> List[RequirementRecord]:
        return sorted(self._records.values(), key=lambda r: r.ir.rid)

    def irs(self) -> List[Requirement]:
        """Every record's IR, sorted by id."""
        return [record.ir for record in self.all()]

    def formalized(self) -> List[RequirementRecord]:
        """Records whose IR carries a specification pattern."""
        return [r for r in self.all()
                if r.ir.formalization is not None
                and r.ir.formalization.pattern_kind]

    def duplicate_groups(self) -> Dict[str, List[str]]:
        """Content fingerprint -> ids sharing it (cross-source dedup).

        Only groups with more than one member are returned; the digest
        ignores ids and provenance, so the same normative requirement
        reached through two front-ends lands in one group.
        """
        groups: Dict[str, List[str]] = {}
        for ir in self.irs():
            groups.setdefault(ir.content_fingerprint(), []).append(ir.rid)
        return {key: ids for key, ids in groups.items() if len(ids) > 1}

    def status_histogram(self) -> Dict[str, int]:
        histogram = {status.value: 0 for status in RequirementStatus}
        for record in self.all():
            histogram[record.status.value] += 1
        return histogram

    def traceability_rows(self) -> List[Dict[str, str]]:
        """One row per requirement for the E1 end-to-end table.

        ``trace`` is the short form of the record's provenance-chain
        digest (see :meth:`~repro.reqs.ir.Requirement.
        provenance_digests`): one column that commits to the full
        source chain ``repro reqs trace`` renders at length.
        """
        rows = []
        for record in self.all():
            ir = record.ir
            pattern, _ = ir.pattern_scope()
            chain = ir.provenance_chain_digest()
            rows.append({
                "req": ir.rid,
                "source": requirement_source(ir).value,
                "status": record.status.value,
                "pattern": pattern.kind if pattern else "-",
                "ltl": (ir.formalization.ltl if ir.formalization else "")
                       or "-",
                "bindings": ",".join(ir.bindings) or "-",
                "trace": chain[:12] if chain else "-",
            })
        return rows
