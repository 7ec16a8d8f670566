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

:func:`canonical_network` is the reference form of a network (plain
data for :func:`fingerprint`).  :func:`canonical_network_json` writes
the same canonical JSON straight from the ``repro.ta`` objects, byte
for byte, without building the dict or running the encoder; a field of
an unexpected type sends it back to the reference path.
:func:`fingerprint_task` hashes that JSON once per network and finishes
each task from a copy of the hash state, so the digests are those of
the whole-document serialization.
"""

import hashlib
import json
from json.encoder import encode_basestring_ascii as _string
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


class _NotCanonical(Exception):
    """A field whose type the direct writer does not handle."""


# The writers below check field types inline: a helper call per string
# cost about a fifth of the writer's time on the prevent-ci rings.


def _constraints_json(constraints) -> str:
    parts = []
    for constraint in constraints:
        left, op, value, right = (constraint.left, constraint.op,
                                  constraint.value, constraint.right)
        if type(left) is not str or type(op) is not str \
                or type(value) is not int:
            raise _NotCanonical
        if right is None:
            right = "null"
        elif type(right) is str:
            right = _string(right)
        else:
            raise _NotCanonical
        parts.append(f'{{"left":{_string(left)},"op":{_string(op)},'
                     f'"right":{right},"value":{value}}}')
    return "[" + ",".join(parts) + "]"


def _strings_json(strings) -> str:
    parts = []
    for string in strings:
        if type(string) is not str:
            raise _NotCanonical
        parts.append(_string(string))
    return "[" + ",".join(parts) + "]"


def _automaton_json(automaton: TimedAutomaton) -> str:
    name, initial = automaton.name, automaton.initial
    if type(name) is not str or type(initial) is not str:
        raise _NotCanonical
    locations = []
    for key in sorted(automaton.locations):
        location = automaton.locations[key]
        urgent = location.urgent
        if type(location.name) is not str or type(urgent) is not bool:
            raise _NotCanonical
        locations.append(
            f'{{"invariant":{_constraints_json(location.invariant)},'
            f'"name":{_string(location.name)},'
            f'"urgent":{"true" if urgent else "false"}}}')
    edges = []
    for edge in automaton.edges:
        source, target, sync, action = (edge.source, edge.target,
                                        edge.sync, edge.action)
        if type(source) is not str or type(target) is not str \
                or type(action) is not str:
            raise _NotCanonical
        if sync is None:
            sync = "null"
        elif type(sync) is str:
            sync = _string(sync)
        else:
            raise _NotCanonical
        edges.append(
            f'{{"action":{_string(action)},'
            f'"guard":{_constraints_json(edge.guard)},'
            f'"resets":{_strings_json(edge.resets)},'
            f'"source":{_string(source)},"sync":{sync},'
            f'"target":{_string(target)}}}')
    return (f'{{"clocks":{_strings_json(automaton.clocks)},'
            f'"edges":[{",".join(edges)}],'
            f'"initial":{_string(initial)},'
            f'"locations":[{",".join(locations)}],'
            f'"name":{_string(name)}}}')


def canonical_network_json(network: Network) -> str:
    """The canonical JSON of :func:`canonical_network`, written directly.

    Byte-identical to ``_canonical_json(canonical_network(network))``:
    sorted keys, no whitespace, strings ASCII-escaped as the encoder
    escapes them, locations sorted by name, composition and edge order
    kept.  A network with a field that is not of the expected str, int,
    bool or None type (a float constraint bound, say) is serialized
    through the reference path instead.
    """
    try:
        return ('{"automata":['
                + ",".join(_automaton_json(a) for a in network.automata)
                + "]}")
    except _NotCanonical:
        return _canonical_json(canonical_network(network))


def canonical_query(query_text: str) -> dict:
    """Query canonical form: the text, whitespace-normalized."""
    return {"query": " ".join(query_text.split())}


def _network_hasher(network: Network) -> "hashlib.blake2b":
    """Hash state over the digest document up to its network."""
    return hashlib.blake2b(
        ('{"checker":' + _canonical_json(CHECKER_VERSION) + ',"network":'
         + canonical_network_json(network)).encode("utf-8"),
        digest_size=_DIGEST_SIZE)


def fingerprint_task(network: Network, query_text: str,
                     memo: Optional[Dict[int, "hashlib.blake2b"]] = None
                     ) -> str:
    """Content address of one verification task.

    The digest covers the composed network and the query.  The
    checker's :data:`~repro.ta.checker.CHECKER_VERSION` is folded in
    too: verdicts an older checker cached miss and are re-checked.

    The digest is :func:`fingerprint` of ``{"checker", "network",
    "query"}``, hashed in two parts: the document up to and including
    the network (:func:`canonical_network_json`), then the query
    tail.  A caller fingerprinting many tasks over few networks can
    pass one *memo* (``id(network)`` -> the blake2b state after the
    network) for the batch, so each network is serialized and hashed
    once and every task finishes from a copy of that state.  The caller keeps every network alive while the memo
    lives (ids of collected objects are reused) and drops the memo
    after the batch.
    """
    if memo is None:
        hasher = _network_hasher(network)
    else:
        state = memo.get(id(network))
        if state is None:
            state = memo[id(network)] = _network_hasher(network)
        hasher = state.copy()
    # Keys in sorted order, exactly as fingerprint() would write them.
    query = _string(canonical_query(query_text)["query"])
    hasher.update((',"query":' + query + "}").encode("utf-8"))
    return hasher.hexdigest()
