"""The canonical Requirement IR: one typed shape behind every front-end.

The paper promises a single automated path from a security requirement
— stated in natural language, in a standard, or implied by a
vulnerability-database entry — to a machine-checkable artifact.  The
repo grew one requirement shape per source; this module is the merge
point: every front-end lowers its native objects into an immutable
:class:`Requirement`, and every consumer (repository, pipeline, gates,
prevention cache, SOC routing, CLI) works on that one type.

Design invariants:

* **Immutable** — frozen dataclasses; list-like fields are tuples, so
  a requirement can key dictionaries and be shared across threads.
* **Hash-stable** — :meth:`Requirement.canonical_json` is a sorted-key,
  no-whitespace serialization; :meth:`Requirement.fingerprint` is a
  blake2b digest over it.  The digest is a pure function of content:
  field order at construction, dict insertion order and process
  identity never leak in.  Each instance computes it once.
* **Provenanced** — every record carries a non-empty source chain
  (enforced by the registry's lint; see :mod:`repro.reqs.registry`),
  so any artifact in the pipeline can be traced back to the CVE, STIG
  finding, boilerplate or standard clause it came from.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.specpatterns import patterns as pattern_module
from repro.specpatterns import scopes as scope_module
from repro.specpatterns.patterns import Pattern
from repro.specpatterns.scopes import Scope

#: Digest size in bytes — matches the prevention plane's cache keys.
_DIGEST_SIZE = 16

#: The severity ladder (CVSS qualitative bands, lower-cased).
SEVERITIES: Tuple[str, ...] = ("low", "medium", "high", "critical")

#: What kind of thing the requirement ultimately constrains:
#: ``host`` — host configuration checked/enforced via RQCODE bindings;
#: ``monitor`` — runtime behaviour watched by an LTL monitor;
#: ``document`` — the requirement text itself (quality analysis);
#: ``system`` — a system-level property with no bound mechanism yet.
TARGET_KINDS: Tuple[str, ...] = ("host", "monitor", "document", "system")


class IrError(ValueError):
    """A malformed IR record or payload."""


def _digest(payload: str) -> str:
    return hashlib.blake2b(payload.encode("utf-8"),
                           digest_size=_DIGEST_SIZE).hexdigest()


def _class_registry(module, base) -> Dict[str, type]:
    return {
        name: obj for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, base) and obj is not base
    }


_PATTERN_CLASSES = _class_registry(pattern_module, Pattern)
_SCOPE_CLASSES = _class_registry(scope_module, Scope)


@dataclass(frozen=True)
class Provenance:
    """One link in a requirement's source chain.

    ``kind`` names the kind of source ("stig", "cve", "resa",
    "iec62443-3-3", ...), ``ref`` the identifier within it, and
    ``detail`` an optional human-readable note.  Chains read
    origin-first: the first link is where the requirement came from,
    later links record intermediate derivations.
    """

    kind: str
    ref: str
    detail: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "ref": self.ref, "detail": self.detail}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Provenance":
        return cls(kind=str(payload.get("kind", "")),
                   ref=str(payload.get("ref", "")),
                   detail=str(payload.get("detail", "")))

    def render(self) -> str:
        text = f"{self.kind}:{self.ref}"
        return f"{text} ({self.detail})" if self.detail else text


def _params_tuple(value) -> Tuple[Tuple[str, Any], ...]:
    """Normalize a params mapping/sequence into a sorted tuple of pairs."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = [(str(k), v) for k, v in value]
    return tuple(sorted((str(k), v) for k, v in items))


def _field_values(obj) -> Dict[str, Any]:
    """A pattern's or scope's fields by name.  Their values are plain
    strings and ints, so ``dataclasses.asdict``'s deep copy is not
    needed."""
    return {field.name: getattr(obj, field.name)
            for field in dataclasses.fields(obj)}


@dataclass(frozen=True)
class Formalization:
    """The formal payload of a requirement.

    The pattern/scope halves are stored as plain data (class kind +
    parameter pairs) so the IR serializes without importing consumer
    machinery; :meth:`to_objects` raises them back into the
    :mod:`repro.specpatterns` dataclasses when a consumer needs them.
    ``ltl``/``tctl`` hold the rendered formulas ("" when the catalogue
    has no mapping for the pattern/scope combination).
    """

    pattern_kind: str = ""
    pattern_params: Tuple[Tuple[str, Any], ...] = ()
    scope_kind: str = ""
    scope_params: Tuple[Tuple[str, Any], ...] = ()
    ltl: str = ""
    tctl: str = ""

    def __post_init__(self):
        object.__setattr__(self, "pattern_params",
                           _params_tuple(self.pattern_params))
        object.__setattr__(self, "scope_params",
                           _params_tuple(self.scope_params))

    @classmethod
    def from_objects(cls, pattern: Optional[Pattern],
                     scope: Optional[Scope],
                     ltl: str = "", tctl: str = "") -> "Formalization":
        return cls(
            pattern_kind=type(pattern).__name__ if pattern else "",
            pattern_params=_field_values(pattern) if pattern else (),
            scope_kind=type(scope).__name__ if scope else "",
            scope_params=_field_values(scope) if scope else (),
            ltl=ltl,
            tctl=tctl,
        )

    def to_objects(self) -> Tuple[Optional[Pattern], Optional[Scope]]:
        """Raise the plain-data halves back into pattern/scope objects."""
        pattern = scope = None
        if self.pattern_kind:
            cls = _PATTERN_CLASSES.get(self.pattern_kind)
            if cls is None:
                raise IrError(f"unknown pattern kind: {self.pattern_kind!r}")
            pattern = cls(**dict(self.pattern_params))
        if self.scope_kind:
            cls = _SCOPE_CLASSES.get(self.scope_kind)
            if cls is None:
                raise IrError(f"unknown scope kind: {self.scope_kind!r}")
            scope = cls(**dict(self.scope_params))
        return pattern, scope

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pattern": ({"kind": self.pattern_kind,
                         "params": dict(self.pattern_params)}
                        if self.pattern_kind else None),
            "scope": ({"kind": self.scope_kind,
                       "params": dict(self.scope_params)}
                      if self.scope_kind else None),
            "ltl": self.ltl,
            "tctl": self.tctl,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Formalization":
        pattern = payload.get("pattern") or {}
        scope = payload.get("scope") or {}
        return cls(
            pattern_kind=str(pattern.get("kind", "")),
            pattern_params=_params_tuple(pattern.get("params", {})),
            scope_kind=str(scope.get("kind", "")),
            scope_params=_params_tuple(scope.get("params", {})),
            ltl=str(payload.get("ltl", "")),
            tctl=str(payload.get("tctl", "")),
        )


@dataclass(frozen=True)
class Requirement:
    """One requirement in the canonical IR.

    ``rid`` is the requirement's identifier, ``source`` the registered
    front-end name it was lowered from ("nalabs", "resa", "rqcode",
    "vulndb", "standards", ...), ``bindings`` the RQCODE finding ids
    that can check/enforce it on hosts, and ``tags`` free-form labels
    (quality smells, CWE categories, ...).
    """

    rid: str
    title: str
    text: str
    source: str
    provenance: Tuple[Provenance, ...] = ()
    target_kind: str = "system"
    severity: str = "medium"
    formalization: Optional[Formalization] = None
    tags: Tuple[str, ...] = ()
    bindings: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "provenance", tuple(self.provenance))
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "bindings", tuple(self.bindings))
        if not self.rid:
            raise IrError("requirement rid must be non-empty")
        if not self.text:
            raise IrError(f"{self.rid}: requirement text must be non-empty")
        if not self.source:
            raise IrError(f"{self.rid}: requirement source must be non-empty")
        if self.severity not in SEVERITIES:
            raise IrError(
                f"{self.rid}: severity {self.severity!r} not in {SEVERITIES}")
        if self.target_kind not in TARGET_KINDS:
            raise IrError(
                f"{self.rid}: target_kind {self.target_kind!r} "
                f"not in {TARGET_KINDS}")

    # -- canonical serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The record as plain data — the schema-governed wire shape."""
        return {
            "rid": self.rid,
            "title": self.title,
            "text": self.text,
            "source": self.source,
            "provenance": [link.to_dict() for link in self.provenance],
            "target_kind": self.target_kind,
            "severity": self.severity,
            "formalization": (self.formalization.to_dict()
                              if self.formalization is not None else None),
            "tags": list(self.tags),
            "bindings": list(self.bindings),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Requirement":
        formalization = payload.get("formalization")
        return cls(
            rid=str(payload.get("rid", "")),
            title=str(payload.get("title", "")),
            text=str(payload.get("text", "")),
            source=str(payload.get("source", "")),
            provenance=tuple(Provenance.from_dict(link)
                             for link in payload.get("provenance", ())),
            target_kind=str(payload.get("target_kind", "system")),
            severity=str(payload.get("severity", "medium")),
            formalization=(Formalization.from_dict(formalization)
                           if formalization is not None else None),
            tags=tuple(str(tag) for tag in payload.get("tags", ())),
            bindings=tuple(str(b) for b in payload.get("bindings", ())),
        )

    def canonical_json(self) -> str:
        """Sorted-key, no-whitespace JSON — the fingerprint input."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        """Content address of the full record (id and provenance
        included) — what the prevention cache keys on.

        Digested once per instance: the record is immutable, so the
        digest is cached on it, outside the dataclass fields (equality,
        hashing, ``repr`` and pickling never see it).
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            digest = _digest(self.canonical_json())
            object.__setattr__(self, "_fingerprint", digest)
        return digest

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_fingerprint", None)
        return state

    def content_fingerprint(self) -> str:
        """Content address of the *normative* content only.

        Excludes ``rid`` and ``provenance``, so the same requirement
        reached through two different front-ends (a CVE feed and a
        standard citing it, say) collides here — cross-source dedup
        falls out of comparing this digest.
        """
        body = self.to_dict()
        del body["rid"]
        del body["provenance"]
        return _digest(json.dumps(body, sort_keys=True,
                                  separators=(",", ":")))

    def provenance_digests(self) -> Tuple[str, ...]:
        """Chained digests over the provenance links, origin-first.

        ``digest[i] = blake2b(digest[i-1] + canonical(link[i]))`` with a
        fixed genesis — the same construction as the scheduler journal's
        entry chain, so each link's digest commits to the whole chain
        before it.  Tampering with (or dropping) any upstream link
        changes every digest after it, which is what lets a
        traceability report cite one short digest per requirement and
        still cover the full derivation.
        """
        digests = []
        prev = "ir-provenance-genesis"
        for link in self.provenance:
            payload = prev + json.dumps(link.to_dict(), sort_keys=True,
                                        separators=(",", ":"))
            prev = _digest(payload)
            digests.append(prev)
        return tuple(digests)

    def provenance_chain_digest(self) -> str:
        """The terminal chained digest ("" without provenance) — one
        value committing to the record's entire source chain."""
        digests = self.provenance_digests()
        return digests[-1] if digests else ""

    # -- convenience ---------------------------------------------------------------

    def pattern_scope(self) -> Tuple[Optional[Pattern], Optional[Scope]]:
        """The raised pattern/scope objects (``(None, None)`` when the
        record carries no formalization)."""
        if self.formalization is None:
            return None, None
        return self.formalization.to_objects()


def dedupe(records) -> "list[Requirement]":
    """Drop records whose normative content repeats an earlier one.

    Order-preserving: the first record with a given
    :meth:`~Requirement.content_fingerprint` wins, whatever front-end
    it entered through.
    """
    seen = set()
    unique = []
    for record in records:
        key = record.content_fingerprint()
        if key in seen:
            continue
        seen.add(key)
        unique.append(record)
    return unique
