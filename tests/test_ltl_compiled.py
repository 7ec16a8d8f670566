"""Compiled-engine tests: interning invariants and verdict equivalence.

The compiled monitor must be observationally identical to progression —
not just verdict-equal, but obligation-identical at every step (interned
formulas make that an ``is`` check).  Interning itself carries the
invariants the memo keys rely on: one canonical object per structure,
cached atom sets, and no cross-talk between monitors sharing a formula
(and therefore a transition table).
"""

from hypothesis import given, settings, strategies as st

from repro.ltl import (
    CompiledMonitor,
    LtlMonitor,
    TransitionTable,
    Verdict,
    empty_step_stable,
    evaluate_ltlf,
    parse_ltl,
    step_monitors,
    transition_table,
)
from repro.ltl.formulas import (
    And,
    Atom,
    Eventually,
    FALSE,
    Globally,
    Next,
    Not,
    Or,
    TRUE,
    Until,
    WeakUntil,
    implies,
    land,
    lnot,
    lor,
)

ATOMS = ("a", "b", "c")


def formulas(max_depth=4):
    atoms = st.sampled_from([Atom(name) for name in ATOMS])

    def extend(children):
        return st.one_of(
            children.map(lnot),
            children.map(Next),
            children.map(Eventually),
            children.map(Globally),
            st.tuples(children, children).map(lambda pair: land(*pair)),
            st.tuples(children, children).map(lambda pair: lor(*pair)),
            st.tuples(children, children).map(lambda pair: implies(*pair)),
            st.tuples(children, children).map(lambda pair: Until(*pair)),
            st.tuples(children, children).map(lambda pair: WeakUntil(*pair)),
        )

    return st.recursive(atoms, extend, max_leaves=max_depth)


def steps():
    return st.frozensets(st.sampled_from(ATOMS), max_size=len(ATOMS))


def traces(max_size=8):
    return st.lists(steps(), min_size=0, max_size=max_size)


class TestInterning:
    def test_parse_returns_canonical_object(self):
        assert parse_ltl("G (a -> F b)") is parse_ltl("G (a -> F b)")

    def test_structural_construction_is_identity(self):
        assert Atom("a") is Atom("a")
        assert Not(Atom("a")) is Not(Atom("a"))
        assert And(Atom("a"), Atom("b")) is And(Atom("a"), Atom("b"))
        assert Globally(Not(Atom("x"))) is parse_ltl("G !x")

    def test_distinct_structures_stay_distinct(self):
        assert Atom("a") is not Atom("b")
        assert And(Atom("a"), Atom("b")) is not And(Atom("b"), Atom("a"))
        assert Until(Atom("a"), Atom("b")) is not \
            WeakUntil(Atom("a"), Atom("b"))

    def test_keyword_construction_hits_the_same_cache(self):
        assert Atom(name="a") is Atom("a")
        assert And(left=Atom("a"), right=Atom("b")) is \
            And(Atom("a"), Atom("b"))

    def test_atoms_cached_per_node(self):
        formula = parse_ltl("G (a -> (b U c))")
        assert formula.atoms() == frozenset({"a", "b", "c"})
        assert formula.atoms() is formula.atoms()

    def test_constants_are_singletons(self):
        assert parse_ltl("true") is TRUE
        assert parse_ltl("false") is FALSE
        assert lnot(TRUE) is FALSE

    @settings(max_examples=150, deadline=None)
    @given(formula=formulas())
    def test_roundtrip_through_parser_is_identity(self, formula):
        assert parse_ltl(str(formula)) is formula

    @settings(max_examples=100, deadline=None)
    @given(formula=formulas())
    def test_equality_is_identity(self, formula):
        assert (formula == parse_ltl(str(formula))) == \
            (formula is parse_ltl(str(formula)))


class TestEmptyStepStable:
    def test_drift_detector_is_stable(self):
        assert empty_step_stable(parse_ltl("G !drift.package"))

    def test_eventually_is_stable(self):
        assert empty_step_stable(parse_ltl("F x"))

    def test_next_tail_is_not_stable(self):
        assert not empty_step_stable(parse_ltl("X p"))

    def test_until_obligation_is_not_stable(self):
        # p U q is falsified by an empty step (no q, no p).
        assert not empty_step_stable(parse_ltl("p U q"))


class TestCompiledEquivalence:
    """CompiledMonitor == LtlMonitor pointwise, on random formulas x
    random traces — verdicts and obligations alike."""

    @settings(max_examples=250, deadline=None)
    @given(formula=formulas(), trace=traces())
    def test_verdicts_and_obligations_agree_pointwise(self, formula, trace):
        compiled = CompiledMonitor(formula)
        reference = LtlMonitor(formula)
        for step in trace:
            assert compiled.observe(step) is reference.observe(step)
            assert compiled.obligation is reference.obligation
        assert compiled.verdict is reference.verdict
        assert compiled.steps_observed == reference.steps_observed

    @settings(max_examples=150, deadline=None)
    @given(formula=formulas(), trace=traces())
    def test_observe_many_matches_stepwise_observe(self, formula, trace):
        batched = CompiledMonitor(formula)
        stepwise = CompiledMonitor(formula)
        verdict = batched.observe_many(trace)
        for step in trace:
            if stepwise.observe(step) is not Verdict.INCONCLUSIVE:
                break
        assert verdict is stepwise.verdict
        assert batched.obligation is stepwise.obligation
        assert batched.steps_observed == stepwise.steps_observed

    @settings(max_examples=150, deadline=None)
    @given(formula=formulas(), trace=traces())
    def test_concluded_compiled_verdict_agrees_with_ltlf(self, formula,
                                                         trace):
        monitor = CompiledMonitor(formula)
        consumed = []
        for step in trace:
            consumed.append(step)
            if monitor.observe(step) is not Verdict.INCONCLUSIVE:
                break
        if monitor.verdict is Verdict.TRUE:
            assert evaluate_ltlf(formula, consumed + [frozenset()] * 3)
            assert evaluate_ltlf(formula, consumed + [frozenset(ATOMS)] * 3)
        elif monitor.verdict is Verdict.FALSE:
            assert not evaluate_ltlf(formula, consumed + [frozenset()] * 3)
            assert not evaluate_ltlf(
                formula, consumed + [frozenset(ATOMS)] * 3)


class TestSharedTables:
    def test_same_formula_shares_one_table(self):
        formula = parse_ltl("G (req -> F ack)")
        first = CompiledMonitor(formula)
        second = CompiledMonitor(parse_ltl("G (req -> F ack)"))
        assert first.table is second.table
        assert transition_table(formula) is first.table

    def test_no_cross_talk_between_monitors_sharing_a_table(self):
        formula = parse_ltl("G (req -> F ack)")
        busy = CompiledMonitor(formula)
        idle = CompiledMonitor(formula)
        busy.observe(frozenset({"req"}))
        assert busy.obligation is not formula
        assert idle.obligation is formula
        assert idle.verdict is Verdict.INCONCLUSIVE
        # The idle monitor progresses from its own state, not busy's.
        idle.observe(frozenset({"ack"}))
        assert idle.obligation is formula
        assert busy.obligation is not formula

    def test_reset_only_affects_the_reset_monitor(self):
        formula = parse_ltl("F done")
        done = CompiledMonitor(formula)
        pending = CompiledMonitor(formula)
        done.observe(frozenset({"done"}))
        assert done.verdict is Verdict.TRUE
        done.reset()
        assert done.verdict is Verdict.INCONCLUSIVE
        assert pending.verdict is Verdict.INCONCLUSIVE
        assert pending.steps_observed == 0

    @settings(max_examples=100, deadline=None)
    @given(formula=formulas(), left=traces(max_size=5),
           right=traces(max_size=5))
    def test_interleaved_monitors_match_isolated_runs(self, formula,
                                                      left, right):
        shared_a = CompiledMonitor(formula)
        shared_b = CompiledMonitor(formula)
        for index in range(max(len(left), len(right))):
            if index < len(left):
                shared_a.observe(left[index])
            if index < len(right):
                shared_b.observe(right[index])
        isolated_a = LtlMonitor(formula)
        isolated_b = LtlMonitor(formula)
        for step in left:
            isolated_a.observe(step)
        for step in right:
            isolated_b.observe(step)
        assert shared_a.obligation is isolated_a.obligation
        assert shared_b.obligation is isolated_b.obligation


class TestTransitionTableBounds:
    def test_epoch_eviction_keeps_answers_correct(self):
        formula = parse_ltl("G (a -> F b)")
        table = TransitionTable(formula, max_transitions=2)
        constrained = CompiledMonitor(formula, table=table)
        reference = LtlMonitor(formula)
        trace = [frozenset({"a"}), frozenset(), frozenset({"b"}),
                 frozenset({"a"}), frozenset({"a", "b"}), frozenset()] * 4
        for step in trace:
            assert constrained.observe(step) is reference.observe(step)
            assert constrained.obligation is reference.obligation
        assert table.evictions >= 1
        assert len(table) <= table.max_transitions

    def test_warm_table_stops_missing(self):
        formula = parse_ltl("G !drift.package")
        table = TransitionTable(formula)
        monitor = CompiledMonitor(formula, table=table)
        for _ in range(5):
            monitor.observe(frozenset({"app.heartbeat"}))
        warm_misses = table.misses
        for _ in range(100):
            monitor.observe(frozenset({"app.heartbeat"}))
        assert table.misses == warm_misses  # pure lookups after warmup


class TestStepMonitors:
    def test_returns_tripped_keys_in_insertion_order(self):
        monitors = {
            "drift": CompiledMonitor(parse_ltl("G !drift.package")),
            "quiet": CompiledMonitor(parse_ltl("G !never.seen")),
            "until": CompiledMonitor(parse_ltl("p U q")),
        }
        tripped = step_monitors(monitors, ["drift.package", "drift"])
        assert tripped == ["drift", "until"]
        assert monitors["quiet"].verdict is Verdict.INCONCLUSIVE

    def test_steps_every_monitor_once(self):
        monitors = {
            "a": CompiledMonitor(parse_ltl("G !x")),
            "b": CompiledMonitor(parse_ltl("F y")),
        }
        assert step_monitors(monitors, ["noise"]) == []
        assert all(m.steps_observed == 1 for m in monitors.values())


class TestEventCompatible:
    """The orchestrator's event-compatibility probe (one empty step
    through the shared transition table) agrees with tree progression
    on every pattern x scope mapping ``to_ltl`` supports."""

    @staticmethod
    def formulas():
        import dataclasses

        from repro.specpatterns import supported_combinations, to_ltl

        for pattern_cls, scope_cls in supported_combinations():
            pattern = pattern_cls(**{
                f.name: 2 if f.name == "bound" else f.name
                for f in dataclasses.fields(pattern_cls)})
            scope = scope_cls(**{f.name: f.name
                                 for f in dataclasses.fields(scope_cls)})
            yield to_ltl(pattern, scope)
        yield parse_ltl("G custom.flag")

    def test_probe_matches_progression(self):
        from repro.core.orchestrator import _event_compatible
        from repro.ltl.monitor import progress

        outcomes = []
        for formula in self.formulas():
            expected = progress(formula, frozenset()) is not FALSE
            assert _event_compatible(LtlMonitor(formula)) is expected, \
                formula
            assert _event_compatible(CompiledMonitor(formula)) is expected
            outcomes.append(expected)
        assert len(outcomes) == 30
        # Both answers occur, so the comparison is not vacuous.
        assert set(outcomes) == {True, False}
