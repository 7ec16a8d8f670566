"""Property tests for the direct network writer of the fingerprint.

:func:`~repro.prevention.fingerprint.canonical_network_json` writes a
network's canonical JSON without the encoder; it must agree byte for
byte with encoding :func:`~repro.prevention.fingerprint.canonical_network`,
and task digests built from its hash state must agree with hashing the
whole document at once.
"""

import importlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ta.automaton import ClockConstraint, Edge, Location, TimedAutomaton
from repro.ta.system import Network
from tests.test_prevention_cache import reference_fingerprint
from tests.test_ta_properties import ALL_OPS, automata

fingerprint_module = importlib.import_module("repro.prevention.fingerprint")
canonical_network_json = fingerprint_module.canonical_network_json
fingerprint_task = fingerprint_module.fingerprint_task

#: Strings the ASCII escaping must get right: quotes, backslashes,
#: control characters, non-ASCII (one outside the BMP, written as a
#: surrogate pair), the empty string.
AWKWARD = ("", '"', "\\", 'a"b\\c', "\x00", "\n\t\x1f", "\x7f", "é",
           " ", "\U0001f512", "z", "A")


def names():
    return st.one_of(st.sampled_from(AWKWARD), st.text(max_size=6))


@st.composite
def constraints(draw, clocks, diagonal=True):
    right = None
    if diagonal and len(clocks) > 1 and draw(st.booleans()):
        right = draw(st.sampled_from(clocks))
    return ClockConstraint(
        left=draw(st.sampled_from(clocks)), op=draw(st.sampled_from(ALL_OPS)),
        value=draw(st.one_of(st.integers(-20, 20), st.integers())),
        right=right)


@st.composite
def awkward_automata(draw, name):
    """Awkward names everywhere; locations in drawn (unsorted) order."""
    clocks = draw(st.lists(names(), min_size=1, max_size=3, unique=True))
    location_names = draw(st.lists(names(), min_size=1, max_size=4,
                                   unique=True))
    locations = [
        Location(location,
                 tuple(draw(st.lists(constraints(clocks), max_size=2))),
                 urgent=draw(st.booleans()))
        for location in location_names]
    edges = []
    for _ in range(draw(st.integers(0, 4))):
        sync = None
        if draw(st.booleans()):
            sync = draw(names()) + draw(st.sampled_from("!?"))
        edges.append(Edge(
            draw(st.sampled_from(location_names)),
            draw(st.sampled_from(location_names)),
            guard=tuple(draw(st.lists(constraints(clocks), max_size=2))),
            resets=tuple(draw(st.lists(st.sampled_from(clocks),
                                       max_size=2))),
            sync=sync, action=draw(names())))
    return TimedAutomaton(name, clocks, locations, edges,
                          initial=draw(st.sampled_from(location_names)))


@st.composite
def networks(draw):
    """One to three automata: the checker tests' random ones (diagonal
    and negative bounds, urgent locations, unsynchronized edges) and
    awkwardly named ones, in any composition order."""
    members = []
    for name in draw(st.lists(names(), min_size=1, max_size=3, unique=True)):
        if draw(st.booleans()):
            members.append(draw(automata(name, draw(st.booleans()), True)))
        else:
            members.append(draw(awkward_automata(name)))
    return Network(members)


def awkward_network():
    """Every awkward case in one network, built by hand."""
    clocks = ['"', "\\", "é"]
    locations = [
        Location("\U0001f512", (ClockConstraint("é", "<=", -4, '"'),),
                 urgent=True),
        Location("", (ClockConstraint('"', "<", 7),)),
        Location("\x00\n", ()),
        Location("a", (), urgent=True),
    ]
    edges = [
        Edge("", "\U0001f512", guard=(ClockConstraint("\\", ">=", -1, "é"),),
             resets=("é", '"'), sync=" !", action='say "hi"\\'),
        Edge("a", "", guard=(), resets=(), sync=None, action=""),
        Edge("\x00\n", "a", sync="\x7f?"),
    ]
    return Network([
        TimedAutomaton("zeta\t", clocks, locations, edges, initial="a"),
        TimedAutomaton("", ["c"], [Location("b"), Location("B")], []),
    ])


def reference_json(network):
    return fingerprint_module._canonical_json(
        fingerprint_module.canonical_network(network))


@settings(max_examples=300, deadline=None)
@given(network=networks())
@example(network=awkward_network())
def test_direct_json_equals_the_reference(network):
    assert canonical_network_json(network) == reference_json(network)


@settings(max_examples=100, deadline=None)
@given(network=networks(),
       query_texts=st.lists(st.one_of(names(), st.sampled_from(
           ["E<> A0.l1", " A[]  not\tdeadlock\n", "é --> \\"])),
           min_size=1, max_size=4))
@example(network=awkward_network(), query_texts=['E<> "\U0001f512"'])
def test_shared_memo_digests_equal_the_reference(network, query_texts):
    memo = {}
    for text in query_texts:
        assert fingerprint_task(network, text, memo=memo) == \
            reference_fingerprint(network, text)
    assert list(memo) == [id(network)]


@pytest.mark.parametrize("value", [True, False, 2.5, -0.0])
def test_unexpected_constraint_value_takes_the_reference_path(value):
    network = Network([TimedAutomaton(
        "M", ["x"],
        [Location("off"),
         Location("on", (ClockConstraint("x", "<=", value),))],
        [Edge("off", "on", guard=(ClockConstraint("x", ">=", value),))])])
    assert canonical_network_json(network) == reference_json(network)
    assert fingerprint_task(network, "E<> M.on") == \
        reference_fingerprint(network, "E<> M.on")
    assert fingerprint_task(network, "E<> M.on", memo={}) == \
        reference_fingerprint(network, "E<> M.on")
