"""Content addresses for verification inputs.

A fingerprint is a blake2b digest over a *canonical* JSON serialization
— sorted keys, no whitespace — of the artifact.  Two artifacts share a
fingerprint exactly when they are semantically identical inputs to the
model checker: same composed network (automata, clocks, locations,
invariants, edges, guards, resets, synchronizations, initial
locations), same query text, same checker version.  Field order,
object identity and construction history never leak into the digest.

The serializers walk the public structure of the ``repro.ta`` types;
anything unknown fails loudly rather than fingerprinting an incomplete
view (a cache keyed on a partial serialization would serve stale
verdicts after a change it cannot see).
"""

import hashlib
import json
from typing import Any, Dict, Optional

from repro.ta.automaton import ClockConstraint, Edge, Location, TimedAutomaton
from repro.ta.checker import CHECKER_VERSION
from repro.ta.system import Network

#: Digest size in bytes; 16 (128 bits) keeps keys short while making
#: accidental collisions across a repository's lifetime implausible.
_DIGEST_SIZE = 16


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(payload: str) -> str:
    return hashlib.blake2b(payload.encode("utf-8"),
                           digest_size=_DIGEST_SIZE).hexdigest()


def fingerprint(obj: Any) -> str:
    """Hex blake2b digest of *obj*'s canonical JSON form."""
    return _digest(_canonical_json(obj))


def _canonical_constraint(constraint: ClockConstraint) -> dict:
    return {
        "left": constraint.left,
        "op": constraint.op,
        "value": constraint.value,
        "right": constraint.right,
    }


def _canonical_location(location: Location) -> dict:
    return {
        "name": location.name,
        "invariant": [_canonical_constraint(c) for c in location.invariant],
        "urgent": location.urgent,
    }


def _canonical_edge(edge: Edge) -> dict:
    return {
        "source": edge.source,
        "target": edge.target,
        "guard": [_canonical_constraint(c) for c in edge.guard],
        "resets": list(edge.resets),
        "sync": edge.sync,
        "action": edge.action,
    }


def _canonical_automaton(automaton: TimedAutomaton) -> dict:
    return {
        "name": automaton.name,
        "clocks": list(automaton.clocks),
        "initial": automaton.initial,
        "locations": [_canonical_location(automaton.locations[name])
                      for name in sorted(automaton.locations)],
        "edges": [_canonical_edge(edge) for edge in automaton.edges],
    }


def canonical_network(network: Network) -> dict:
    """The network as plain data: composition order is semantic, kept."""
    return {
        "automata": [_canonical_automaton(a) for a in network.automata],
    }


def canonical_query(query_text: str) -> dict:
    """Query canonical form: the text, whitespace-normalized."""
    return {"query": " ".join(query_text.split())}


def canonical_requirement(record: Any) -> dict:
    """A requirement's verification-relevant content — its canonical IR.

    Repository records and IR records alike serialize through the
    unified Requirement IR (:mod:`repro.reqs.ir`), so cache keys are
    front-end agnostic: the same normative requirement fingerprints
    identically whether it was ingested through a native orchestrator
    method or lowered externally through the front-end registry.
    Mutating any normative content changes the fingerprint; mutable
    pipeline bookkeeping (status, quality flags) deliberately does not.

    Objects that are neither IR nor IR-convertible fall back to a
    duck-typed serialization of the legacy fields.
    """
    from repro.reqs.ir import Requirement

    if isinstance(record, Requirement):
        return record.to_dict()
    to_ir = getattr(record, "to_ir", None)
    if callable(to_ir):
        return to_ir().to_dict()
    return {
        "req_id": record.req_id,
        "text": record.text,
        "source": getattr(record.source, "value", str(record.source)),
        "pattern": repr(record.pattern) if record.pattern else None,
        "scope": repr(record.scope) if record.scope else None,
        "ltl": record.ltl,
        "tctl": record.tctl,
        "rqcode_findings": list(record.rqcode_findings),
    }


def fingerprint_task(network: Network, query_text: str,
                     requirement: Optional[Any] = None,
                     memo: Optional[Dict[int, str]] = None) -> str:
    """Content address of one verification task.

    The digest covers the composed network and the query; when the task
    traces back to a requirement record, its verification-relevant
    content is folded in as well, so editing the requirement text
    invalidates the task even if the derived automaton is unchanged.
    The checker's :data:`~repro.ta.checker.CHECKER_VERSION` is folded
    in too: verdicts an older checker cached miss and are re-checked.

    The digest is :func:`fingerprint` of ``{"checker", "network",
    "query"[, "requirement"]}``.  Its canonical JSON is spliced from
    the parts, so a caller fingerprinting many tasks over few networks
    can pass one *memo* (``id(network)`` -> the network's canonical
    JSON) for the batch and serialize each network once.  The caller
    keeps every network alive while the memo lives: ids of collected
    objects are reused.
    """
    network_json = memo.get(id(network)) if memo is not None else None
    if network_json is None:
        network_json = _canonical_json(canonical_network(network))
        if memo is not None:
            memo[id(network)] = network_json
    # Keys in sorted order, exactly as fingerprint() would write them.
    payload = ('{"checker":' + _canonical_json(CHECKER_VERSION)
               + ',"network":' + network_json
               + ',"query":'
               + _canonical_json(canonical_query(query_text)["query"]))
    if requirement is not None:
        payload += ',"requirement":' + _canonical_json(
            canonical_requirement(requirement))
    return _digest(payload + "}")


def fingerprint_requirement(record: Any) -> str:
    """Content address of one requirement record (via its IR form)."""
    return fingerprint(canonical_requirement(record))


def fingerprint_ir(ir: Any) -> str:
    """Content address of an IR record — same digest the IR itself
    computes (:meth:`repro.reqs.ir.Requirement.fingerprint`)."""
    return fingerprint(ir.to_dict())
