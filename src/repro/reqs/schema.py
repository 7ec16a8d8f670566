"""JSON Schema for the Requirement IR, plus a dependency-free validator.

The schema is the IR's wire contract: ``repro reqs list --json`` must
emit records that validate against it, and CI's ``reqs-smoke`` step
pipes that output through this module against the *checked-in* copy at
``schemas/requirement-ir.schema.json``.  The embedded :data:`IR_SCHEMA`
and the checked-in file must stay identical — drift between them (or
between either and the emitted records) fails the step, which is the
point: the schema can only change deliberately, in the same commit as
the code and the file.

The validator implements the subset of JSON Schema the IR needs
(``type`` incl. unions, ``properties`` / ``required`` /
``additionalProperties``, ``items``, ``enum``, ``minLength`` /
``minItems``) so it runs in environments without the ``jsonschema``
package.

**Versioning.**  The wire shape is versioned (:data:`SCHEMA_VERSION`,
carried in the ``$id``): v2 adds the *optional* ``ir_version`` stamp
that version-aware embedders — the scheduler journal's IR-fingerprint
manifest — attach to records, while emitters of the bare shape (``repro
reqs list --json``) stay byte-identical, so fingerprints and the
``reqs-smoke`` drift check are unaffected.  A bare record validates as
is; a record stamped with any other version fails the stamp's ``enum``.
"""

import json
import sys
from typing import Any, Dict, List

from repro.reqs.ir import SEVERITIES, TARGET_KINDS

#: Wire-shape version.  Bump together with ``$id`` and regenerate
#: ``schemas/requirement-ir.schema.json`` in the same commit.
SCHEMA_VERSION = 2

SCHEMA_ID = ("https://veridevops.example/schemas/"
             f"requirement-ir.v{SCHEMA_VERSION}.schema.json")

_PROVENANCE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["kind", "ref", "detail"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "minLength": 1},
        "ref": {"type": "string", "minLength": 1},
        "detail": {"type": "string"},
    },
}

_PATTERN_HALF_SCHEMA: Dict[str, Any] = {
    "type": ["object", "null"],
    "required": ["kind", "params"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "minLength": 1},
        "params": {
            "type": "object",
            "additionalProperties": {"type": ["string", "integer", "number"]},
        },
    },
}

IR_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": SCHEMA_ID,
    "title": "Requirement IR",
    "description": "Canonical requirement record lowered from any "
                   "registered front-end (see src/repro/reqs/).",
    "type": "object",
    "required": ["rid", "title", "text", "source", "provenance",
                 "target_kind", "severity", "formalization", "tags",
                 "bindings"],
    "additionalProperties": False,
    "properties": {
        "rid": {"type": "string", "minLength": 1},
        "title": {"type": "string"},
        "text": {"type": "string", "minLength": 1},
        "source": {"type": "string", "minLength": 1},
        "provenance": {
            "type": "array",
            "minItems": 1,
            "items": _PROVENANCE_SCHEMA,
        },
        "target_kind": {"type": "string", "enum": list(TARGET_KINDS)},
        "severity": {"type": "string", "enum": list(SEVERITIES)},
        "formalization": {
            "type": ["object", "null"],
            "required": ["pattern", "scope", "ltl", "tctl"],
            "additionalProperties": False,
            "properties": {
                "pattern": _PATTERN_HALF_SCHEMA,
                "scope": _PATTERN_HALF_SCHEMA,
                "ltl": {"type": "string"},
                "tctl": {"type": "string"},
            },
        },
        "tags": {"type": "array", "items": {"type": "string"}},
        "bindings": {"type": "array",
                     "items": {"type": "string", "minLength": 1}},
        # Optional version stamp (the validator's keyword subset has no
        # "minimum"/"const", so the accepted value is pinned by enum).
        # Emitters of the bare wire shape omit it.
        "ir_version": {"type": "integer", "enum": [SCHEMA_VERSION]},
    },
}


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(value: Any, schema: Dict[str, Any], path: str,
              errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append(f"{path}: expected {'/'.join(types)}, "
                          f"got {type(value).__name__}")
            return
        if value is None and "null" in types:
            return  # nullable and null: nested object keywords don't apply
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        errors.append(f"{path}: shorter than minLength "
                      f"{schema['minLength']}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{path}: fewer than minItems "
                          f"{schema['minItems']}")
        item_schema = schema.get("items")
        if item_schema is not None:
            for index, item in enumerate(value):
                _validate(item, item_schema, f"{path}[{index}]", errors)
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path}: missing required property {name!r}")
        additional = schema.get("additionalProperties", True)
        for name, item in value.items():
            if name in properties:
                _validate(item, properties[name], f"{path}.{name}", errors)
            elif additional is False:
                errors.append(f"{path}: unexpected property {name!r}")
            elif isinstance(additional, dict):
                _validate(item, additional, f"{path}.{name}", errors)


def validate_record(payload: Any,
                    schema: Dict[str, Any] = None) -> List[str]:
    """Validate one plain-data record; returns a list of error strings
    (empty when the record conforms)."""
    errors: List[str] = []
    _validate(payload, schema if schema is not None else IR_SCHEMA,
              "$", errors)
    return errors


def schema_drift(checked_in: Dict[str, Any]) -> bool:
    """True when the checked-in schema no longer matches the code's."""
    return checked_in != IR_SCHEMA


def main(argv=None) -> int:
    """Validate a JSON array of IR records read from stdin.

    Usage: ``repro reqs list --json | python -m repro.reqs.schema
    [schemas/requirement-ir.schema.json]``.  With a schema path, the
    file is first compared against the embedded schema (drift fails),
    then used for validation.  Exit 0 only when every record conforms.
    """
    argv = argv if argv is not None else sys.argv[1:]
    schema = IR_SCHEMA
    if argv:
        with open(argv[0]) as handle:
            checked_in = json.load(handle)
        if schema_drift(checked_in):
            print(f"schema drift: {argv[0]} does not match "
                  f"repro.reqs.schema.IR_SCHEMA — regenerate the file in "
                  f"the same commit as the schema change", file=sys.stderr)
            return 2
        schema = checked_in
    try:
        records = json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        print(f"stdin is not JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(records, list):
        print("expected a JSON array of IR records", file=sys.stderr)
        return 2
    failures = 0
    for index, record in enumerate(records):
        errors = validate_record(record, schema)
        if errors:
            failures += 1
            label = (record.get("rid", f"#{index}")
                     if isinstance(record, dict) else f"#{index}")
            for error in errors:
                print(f"{label}: {error}", file=sys.stderr)
    print(f"{len(records) - failures}/{len(records)} records conform",
          file=sys.stderr)
    return 0 if failures == 0 else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    sys.exit(main())
