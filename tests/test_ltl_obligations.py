"""Bounded obligations: progression keeps every pattern's monitor finite.

Progression conjoins a pending obligation with the formula that keeps
re-arming it (``G φ`` progresses to ``φ' & G φ``).  If the conjunction
kept its operands as written, the same trigger repeated a thousand
times would nest a thousand copies and the monitor would die of
``RecursionError``.  Progression builds conjunctions and disjunctions
in normal form (flattened, deduplicated, sorted), so:

* the streams that used to crash run for thousands of steps;
* every pattern × scope pair progresses to at most 7 distinct
  obligations under single-event steps;
* the verdicts are those of the unnormalised progression, on every
  finite prefix.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.ltl.compile import CompiledMonitor
from repro.ltl.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Eventually,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakUntil,
    implies,
    land,
    lnot,
    lor,
)
from repro.ltl.monitor import evaluate_ltlf, progress
from repro.specpatterns import patterns, scopes
from repro.specpatterns.ltl_mappings import supported_combinations, to_ltl

STEPS = 6000


def _instance(cls):
    """*cls* with each string field named after itself and each int
    field set to 2 (``Response(p="p", s="s")``, ``AfterQ(q="q")``)."""
    return cls(**{field.name: 2 if field.type in (int, "int")
                  else field.name
                  for field in dataclasses.fields(cls)})


def _reference_progress(formula, step):
    """Progression as it was before normal forms: ``land``/``lor``
    keep their operands as written.  The oracle for the verdicts."""
    if formula is TRUE or formula is FALSE:
        return formula
    if isinstance(formula, Atom):
        return TRUE if formula.name in step else FALSE
    if isinstance(formula, Not):
        return lnot(_reference_progress(formula.operand, step))
    if isinstance(formula, And):
        return land(_reference_progress(formula.left, step),
                    _reference_progress(formula.right, step))
    if isinstance(formula, Or):
        return lor(_reference_progress(formula.left, step),
                   _reference_progress(formula.right, step))
    if isinstance(formula, Implies):
        return implies(_reference_progress(formula.left, step),
                       _reference_progress(formula.right, step))
    if isinstance(formula, Next):
        return formula.operand
    if isinstance(formula, (Until, WeakUntil)):
        return lor(_reference_progress(formula.right, step),
                   land(_reference_progress(formula.left, step), formula))
    if isinstance(formula, Release):
        return land(_reference_progress(formula.right, step),
                    lor(_reference_progress(formula.left, step), formula))
    if isinstance(formula, Eventually):
        return lor(_reference_progress(formula.operand, step), formula)
    if isinstance(formula, Globally):
        return land(_reference_progress(formula.operand, step), formula)
    raise TypeError(formula)


@pytest.mark.parametrize("pattern,scope,stream", [
    (patterns.Response("p", "s"), scopes.Globally(),
     lambda i: {"p"}),
    (patterns.Existence("p"), scopes.AfterQ("q"),
     lambda i: {"q"}),
    (patterns.Absence("p"), scopes.AfterQ("q"),
     lambda i: {"q"} if i % 3 == 0 else set()),
], ids=["response-globally", "existence-afterq", "absence-afterq"])
def test_repeated_triggers_do_not_nest(pattern, scope, stream):
    monitor = CompiledMonitor(to_ltl(pattern, scope))
    for index in range(STEPS):
        monitor.observe(stream(index))
    assert monitor.steps_observed == STEPS


def test_every_pair_reaches_at_most_seven_obligations():
    pairs = supported_combinations()
    assert len(pairs) == 29
    sizes = {}
    for pattern_cls, scope_cls in pairs:
        formula = to_ltl(_instance(pattern_cls), _instance(scope_cls))
        steps = [frozenset()] + [frozenset((atom,))
                                 for atom in sorted(formula.atoms())]
        seen = {formula}
        frontier = [formula]
        while frontier and len(seen) <= 7:
            fresh = []
            for obligation in frontier:
                for step in steps:
                    successor = progress(obligation, step)
                    if successor not in seen:
                        seen.add(successor)
                        fresh.append(successor)
            frontier = fresh
        sizes[f"{pattern_cls.__name__}/{scope_cls.__name__}"] = len(seen)
    assert max(sizes.values()) <= 7, sizes
    assert sizes["BoundedExistence/Globally"] == 7


@settings(max_examples=150, deadline=None)
@given(pair=st.sampled_from(supported_combinations()),
       stream=st.lists(st.frozensets(st.sampled_from("pqrst"), max_size=2),
                       max_size=24))
def test_normal_forms_keep_the_verdicts(pair, stream):
    pattern_cls, scope_cls = pair
    formula = to_ltl(_instance(pattern_cls), _instance(scope_cls))
    ours = theirs = formula
    for step in stream:
        ours = progress(ours, step)
        theirs = _reference_progress(theirs, step)
        # The same three-valued verdict, and the same LTLf verdict if
        # the trace ended here.
        assert (ours is TRUE, ours is FALSE) == \
            (theirs is TRUE, theirs is FALSE)
        assert evaluate_ltlf(ours, []) == evaluate_ltlf(theirs, [])
