"""Repository persistence: requirement records to/from JSON.

Traceability survives only if it outlives the Python process; this
module serializes a :class:`~repro.core.repository.
RequirementRepository` into the JSON artifact a CI job archives between
pipeline runs, and restores it losslessly.  Each record is its IR's
wire shape (:meth:`~repro.reqs.ir.Requirement.to_dict`) plus the
pipeline state; a file of any other version is refused.
"""

import json
from typing import Any, Dict

from repro.core.repository import (
    RequirementRecord,
    RequirementRepository,
    RequirementStatus,
)
from repro.reqs.ir import IrError, Requirement
from repro.reqs.schema import validate_record

#: The file format version: records as ``{"ir", "status",
#: "quality_flags"}``.
VERSION = 2


def record_to_dict(record: RequirementRecord) -> Dict[str, Any]:
    """One record as plain data."""
    return {"ir": record.ir.to_dict(),
            "status": record.status.value,
            "quality_flags": list(record.quality_flags)}


def record_from_dict(payload: Dict[str, Any]) -> RequirementRecord:
    """Inverse of :func:`record_to_dict`.  The IR is validated against
    the IR schema, so a malformed record fails the load, not a later
    query; :meth:`RequirementRepository.add` checks its pattern and
    scope kinds."""
    ir_payload = payload["ir"]
    errors = validate_record(ir_payload)
    if errors:
        raise IrError(f"{ir_payload.get('rid', '?')}: " + "; ".join(errors))
    return RequirementRecord(ir=Requirement.from_dict(ir_payload),
                             status=RequirementStatus(payload["status"]),
                             quality_flags=list(payload["quality_flags"]))


def repository_to_json(repository: RequirementRepository,
                       indent: int = 2) -> str:
    """Serialize every record, sorted by id."""
    payload = {
        "version": VERSION,
        "records": [record_to_dict(record) for record in repository.all()],
    }
    return json.dumps(payload, indent=indent)


def repository_from_json(text: str) -> RequirementRepository:
    """Restore a repository from :func:`repository_to_json` output."""
    payload = json.loads(text)
    if payload.get("version") != VERSION:
        raise ValueError(
            f"unsupported repository JSON version: {payload.get('version')}")
    repository = RequirementRepository()
    for record_payload in payload["records"]:
        repository.add(record_from_dict(record_payload))
    return repository
