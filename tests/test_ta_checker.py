"""Unit tests for automata, networks, queries, and the model checkers."""

import pytest

from repro.ta import (
    DiscreteTimeChecker,
    Edge,
    Location,
    Network,
    TimedAutomaton,
    ZoneGraphChecker,
    parse_guard,
    parse_query,
)
from repro.prevention.tasks import _token_ring, _watchdog
from repro.ta.query import parse_state_formula


# -- shared models -----------------------------------------------------------------

def door_automaton():
    """A door that stays open at most 8 units and needs 2 to close."""
    return TimedAutomaton(
        name="Door", clocks=["c"],
        locations=[
            Location("closed"),
            Location("open", invariant=parse_guard("c <= 8")),
        ],
        edges=[
            Edge("closed", "open", resets=("c",), action="open"),
            Edge("open", "closed", guard=parse_guard("c >= 2"),
                 action="close"),
        ],
    )


def lamp_network():
    lamp = TimedAutomaton(
        name="Lamp", clocks=["y"],
        locations=[Location("off"), Location("low"), Location("bright")],
        edges=[
            Edge("off", "low", sync="press?", resets=("y",)),
            Edge("low", "bright", guard=parse_guard("y < 5"), sync="press?"),
            Edge("low", "off", guard=parse_guard("y >= 5"), sync="press?"),
            Edge("bright", "off", sync="press?"),
        ],
    )
    user = TimedAutomaton(
        name="User", clocks=["x"],
        locations=[Location("idle")],
        edges=[Edge("idle", "idle", sync="press!", resets=("x",),
                    action="press")],
    )
    return Network([lamp, user])


class TestAutomatonConstruction:
    def test_guard_parsing(self):
        constraints = parse_guard("x <= 5 & x - y < 3")
        assert len(constraints) == 2
        assert constraints[0].left == "x"
        assert constraints[1].right == "y"
        assert str(constraints[1]) == "x - y < 3"

    def test_empty_guard(self):
        assert parse_guard("  ") == ()

    def test_bad_guard_raises(self):
        with pytest.raises(ValueError):
            parse_guard("x ~ 5")

    def test_duplicate_locations_rejected(self):
        with pytest.raises(ValueError):
            TimedAutomaton("A", [], [Location("a"), Location("a")], [])

    def test_edge_to_unknown_location_rejected(self):
        with pytest.raises(ValueError):
            TimedAutomaton("A", [], [Location("a")],
                           [Edge("a", "ghost")])

    def test_undeclared_clock_rejected(self):
        with pytest.raises(ValueError):
            TimedAutomaton("A", [], [Location("a")],
                           [Edge("a", "a", guard=parse_guard("x < 1"))])

    def test_bad_sync_suffix_rejected(self):
        with pytest.raises(ValueError):
            Edge("a", "b", sync="press")

    def test_max_constant(self):
        assert door_automaton().max_constant() == 8


class TestNetwork:
    def test_clock_namespacing(self):
        network = lamp_network()
        assert network.clock_index == {"Lamp.y": 1, "User.x": 2}

    def test_duplicate_names_rejected(self):
        door = door_automaton()
        with pytest.raises(ValueError):
            Network([door, door_automaton()])

    def test_handshake_requires_both_sides(self):
        # A lone emitter has no discrete steps.
        user = TimedAutomaton(
            "User", [], [Location("idle")],
            [Edge("idle", "idle", sync="press!")])
        network = Network([user])
        steps = list(network.discrete_steps(network.initial_state()))
        assert steps == []

    def test_internal_steps_interleave(self):
        network = Network([door_automaton()])
        steps = list(network.discrete_steps(network.initial_state()))
        assert [s.label for s in steps] == ["open"]


class TestQueryParsing:
    def test_forms(self):
        assert parse_query("E<> Door.open").operator == "E<>"
        assert parse_query("A[] not Door.open").operator == "A[]"
        assert parse_query("A<> Door.closed").operator == "A<>"
        assert parse_query("E[] Door.closed").operator == "E[]"
        leads = parse_query("Door.open --> Door.closed")
        assert leads.operator == "-->"
        assert str(leads.conclusion) == "Door.closed"

    def test_clock_atom(self):
        query = parse_query("E<> Door.open and Door.c >= 3")
        assert not query.formula.location_only()

    def test_negation_flips_comparison(self):
        formula = parse_state_formula("not Door.c > 5")
        assert str(formula) == "Door.c <= 5"

    def test_negated_equality_splits(self):
        formula = parse_state_formula("not Door.c == 5")
        assert "or" in str(formula)

    def test_de_morgan(self):
        formula = parse_state_formula("not (Door.open and Door.closed)")
        assert "or" in str(formula)

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            parse_query("sometimes Door.open")
        with pytest.raises(ValueError):
            parse_query("E<> open")  # atom without automaton prefix


class TestZoneGraphChecker:
    def test_reachability_with_witness(self):
        checker = ZoneGraphChecker(lamp_network())
        result = checker.check(parse_query("E<> Lamp.bright"))
        assert result.satisfied
        assert len(result.witness) == 2

    def test_timed_reachability_boundary(self):
        checker = ZoneGraphChecker(Network([door_automaton()]))
        at_bound = checker.check(parse_query("E<> Door.open and Door.c >= 8"))
        assert at_bound.satisfied
        past_bound = checker.check(
            parse_query("E<> Door.open and Door.c > 8"))
        assert not past_bound.satisfied

    def test_invariant_never_violated(self):
        checker = ZoneGraphChecker(Network([door_automaton()]))
        result = checker.check(
            parse_query("A[] not (Door.open and Door.c > 8)"))
        assert result.satisfied

    def test_safety_counterexample(self):
        checker = ZoneGraphChecker(lamp_network())
        result = checker.check(parse_query("A[] not Lamp.bright"))
        assert not result.satisfied
        assert result.witness  # path to the violation

    def test_guard_blocks_unreachable_branch(self):
        # Fast presses only: bright requires y < 5 which is reachable;
        # but a guard y > 90 on a fresh clock is not.
        auto = TimedAutomaton(
            "A", ["x"],
            [Location("s", invariant=parse_guard("x <= 10")),
             Location("t")],
            [Edge("s", "t", guard=parse_guard("x > 90"))],
        )
        checker = ZoneGraphChecker(Network([auto]))
        assert not checker.check(parse_query("E<> A.t")).satisfied

    def test_liveness_holds(self):
        checker = ZoneGraphChecker(Network([door_automaton()]))
        # The door may stay closed forever, so A<> open fails...
        result = checker.check(parse_query("A<> Door.open"))
        assert not result.satisfied

    def test_leads_to(self):
        checker = ZoneGraphChecker(Network([door_automaton()]))
        # ...but whenever it opens, the invariant forces a close.
        result = checker.check(parse_query("Door.open --> Door.closed"))
        assert result.satisfied

    def test_leads_to_counterexample(self):
        # A trap state: once in 'stuck' nothing happens; open never
        # leads back to closed.
        auto = TimedAutomaton(
            "T", [],
            [Location("a"), Location("stuck")],
            [Edge("a", "stuck", action="fall")],
        )
        checker = ZoneGraphChecker(Network([auto]))
        result = checker.check(parse_query("T.stuck --> T.a"))
        assert not result.satisfied
        # The clockless trap state can idle forever without reaching a.
        assert result.witness[-1] in ("(deadlock)", "(time divergence)")

    def test_liveness_rejects_clock_formulas(self):
        checker = ZoneGraphChecker(Network([door_automaton()]))
        with pytest.raises(ValueError):
            checker.check(parse_query("A<> Door.c > 3"))

    def test_possibly_always(self):
        checker = ZoneGraphChecker(Network([door_automaton()]))
        result = checker.check(parse_query("E[] Door.closed"))
        assert result.satisfied

    def test_urgent_location_blocks_delay(self):
        auto = TimedAutomaton(
            "U", ["x"],
            [Location("go", urgent=True), Location("done")],
            [Edge("go", "done", action="move")],
        )
        checker = ZoneGraphChecker(Network([auto]))
        # No delay in the urgent location: x stays 0 until the move.
        result = checker.check(parse_query("E<> U.go and U.x > 0"))
        assert not result.satisfied


class TestStateFormulaZones:
    def test_conjoined_clock_atoms_must_meet_in_one_valuation(self):
        for fast in (True, False):
            checker = ZoneGraphChecker(Network([door_automaton()]),
                                       fast=fast)
            assert checker.check(
                parse_query("E<> Door.c > 3 or Door.c < 2")).satisfied
            assert not checker.check(
                parse_query("E<> Door.c > 3 and Door.c < 2")).satisfied
            assert checker.check(
                parse_query("A[] Door.c <= 3 or Door.c >= 2")).satisfied
            assert checker.check(parse_query(
                "E<> Door.open and (Door.c < 1 or Door.c > 7)")).satisfied


    def test_query_constants_beyond_the_network_are_exact(self):
        # At C, x >= 10; the network's own max constant is only 5.
        chain = TimedAutomaton(
            "T", ["x", "y"],
            [Location("a"), Location("b"), Location("c")],
            [Edge("a", "b", guard=parse_guard("y >= 5"), resets=("y",)),
             Edge("b", "c", guard=parse_guard("y >= 5"), resets=("y",))])
        network = Network([chain])
        for text, expected in (("E<> T.c and T.x < 7", False),
                               ("E<> T.c and T.x >= 10", True),
                               ("E<> T.a and T.x > 100", True)):
            query = parse_query(text)
            for fast in (True, False):
                assert ZoneGraphChecker(network, fast=fast).check(
                    query).satisfied is expected, (text, fast)
            assert DiscreteTimeChecker(network).reachable(
                query.formula).satisfied is expected, text


class TestDiscreteTimeChecker:
    def test_agrees_with_zone_checker_on_reachability(self):
        network = lamp_network()
        zone = ZoneGraphChecker(network)
        discrete = DiscreteTimeChecker(network)
        for text in ("E<> Lamp.bright", "E<> Lamp.low and Lamp.y > 3"):
            query = parse_query(text)
            assert zone.check(query).satisfied == \
                discrete.reachable(query.formula).satisfied, text

    def test_agrees_on_safety(self):
        network = Network([door_automaton()])
        zone = ZoneGraphChecker(network)
        discrete = DiscreteTimeChecker(network)
        query = parse_query("A[] not (Door.open and Door.c > 8)")
        assert zone.check(query).satisfied
        assert discrete.invariantly(query.formula).satisfied

    def test_discrete_explores_more_states(self):
        network = Network([door_automaton()])
        zone_states = ZoneGraphChecker(network).check(
            parse_query("E<> Door.open and Door.c > 100"))
        discrete_states = DiscreteTimeChecker(network).reachable(
            parse_query("E<> Door.open and Door.c > 100").formula)
        assert not zone_states.satisfied
        assert not discrete_states.satisfied
        assert discrete_states.states_explored > zone_states.states_explored


class TestActiveClocks:
    def test_token_ring_station_clock_dead_while_idle(self):
        for station in _token_ring(4).automata:
            assert station.active_clocks() == {
                "idle": frozenset(), "busy": frozenset({"c"})}

    def test_watchdog_clocks_dead_where_reset_before_read(self):
        sensor, watchdog = _watchdog(5).automata
        assert sensor.active_clocks() == {
            "calm": frozenset({"s"}), "raised": frozenset()}
        assert watchdog.active_clocks() == {
            "watch": frozenset(), "respond": frozenset({"w"})}

    def test_activity_flows_back_along_edges_without_reset(self):
        chain = TimedAutomaton(
            "C", ["x", "y"],
            [Location("a"), Location("b"), Location("c")],
            [Edge("a", "b", resets=("y",)),
             Edge("b", "c", guard=parse_guard("x - y <= 2"))])
        assert chain.active_clocks() == {
            "a": frozenset({"x"}), "b": frozenset({"x", "y"}),
            "c": frozenset()}

    def test_reduction_explores_fewer_states_with_equal_verdicts(self):
        network = _token_ring(6)
        for text in ("E<> S5.busy", "A[] not (S0.busy and S1.busy)",
                     "S0.busy --> S5.busy"):
            query = parse_query(text)
            reduced = ZoneGraphChecker(network).check(query)
            full = ZoneGraphChecker(network, fast=False).check(query)
            assert reduced.satisfied == full.satisfied, text
            assert reduced.states_explored <= full.states_explored, text

    def test_query_clock_atom_keeps_a_dead_clock(self):
        # S0 enters idle with c >= 2, and c is dead there: freeing it
        # would let the atom's "c < 2" through.
        checker = ZoneGraphChecker(_token_ring(3))
        assert not checker.check(
            parse_query("E<> S0.idle and S0.c < 2")).satisfied
        assert checker.check(
            parse_query("E<> S0.idle and S0.c >= 2")).satisfied


class TestDeadlockAtom:
    def test_deadlock_reachable_in_trap_model(self):
        auto = TimedAutomaton(
            "T", [], [Location("a"), Location("trap")],
            [Edge("a", "trap", action="fall")],
        )
        checker = ZoneGraphChecker(Network([auto]))
        result = checker.check(parse_query("E<> deadlock"))
        assert result.satisfied
        assert result.witness == ["fall"]

    def test_deadlock_free_model(self):
        checker = ZoneGraphChecker(Network([door_automaton()]))
        result = checker.check(parse_query("A[] not deadlock"))
        assert result.satisfied

    def test_deadlock_with_location_conjunction(self):
        auto = TimedAutomaton(
            "T", [], [Location("a"), Location("trap")],
            [Edge("a", "trap", action="fall")],
        )
        checker = ZoneGraphChecker(Network([auto]))
        assert checker.check(
            parse_query("E<> T.trap and deadlock")).satisfied
        assert not checker.check(
            parse_query("E<> T.a and deadlock")).satisfied

    def test_discrete_engine_agrees(self):
        auto = TimedAutomaton(
            "T", [], [Location("a"), Location("trap")],
            [Edge("a", "trap", action="fall")],
        )
        network = Network([auto])
        query = parse_query("E<> deadlock")
        assert DiscreteTimeChecker(network).reachable(
            query.formula).satisfied
        deadlock_free = Network([door_automaton()])
        assert not DiscreteTimeChecker(deadlock_free).reachable(
            query.formula).satisfied

    def test_partly_deadlocked_zone_counts(self):
        # From x > 0 the self-loop never fires again: a deadlock after
        # any positive delay, although the zone as a whole has a
        # successor.
        stuck = TimedAutomaton(
            "T", ["x"], [Location("a")],
            [Edge("a", "a", guard=parse_guard("x <= 0"), action="spin")])
        network = Network([stuck])
        query = parse_query("E<> deadlock")
        assert ZoneGraphChecker(network).check(query).satisfied
        assert ZoneGraphChecker(network, fast=False).check(query).satisfied
        assert DiscreteTimeChecker(network).reachable(
            query.formula).satisfied

    def test_partly_deadlocked_zone_ends_a_maximal_run(self):
        # Waiting past x = 0 leaves no way out before the invariant
        # stops time, so l1 is not inevitable.
        late = TimedAutomaton(
            "T", ["x"],
            [Location("l0", invariant=parse_guard("x <= 5")),
             Location("l1")],
            [Edge("l0", "l1", guard=parse_guard("x <= 0"), action="go")])
        network = Network([late])
        for fast in (True, False):
            result = ZoneGraphChecker(network, fast=fast).check(
                parse_query("A<> T.l1"))
            assert not result.satisfied
            assert result.witness == ["(deadlock)"]

    def test_negated_deadlock_holds_where_some_valuation_moves(self):
        stuck = TimedAutomaton(
            "T", ["x"], [Location("a")],
            [Edge("a", "a", guard=parse_guard("x <= 0"), action="spin")])
        network = Network([stuck])
        for fast in (True, False):
            checker = ZoneGraphChecker(network, fast=fast)
            assert not checker.check(
                parse_query("A[] deadlock")).satisfied
            assert checker.check(
                parse_query("E<> deadlock and T.x > 0")).satisfied
            assert not checker.check(
                parse_query("E<> deadlock and T.x <= 0")).satisfied

    def test_deadlock_is_liveness_safe(self):
        auto = TimedAutomaton(
            "T", [], [Location("a"), Location("trap")],
            [Edge("a", "trap", action="fall")],
        )
        checker = ZoneGraphChecker(Network([auto]))
        # A<> deadlock: the only maximal behaviour falls into the trap
        # eventually... but the clockless 'a' state can idle forever.
        result = checker.check(parse_query("A<> deadlock"))
        assert not result.satisfied

    def test_deadlock_that_ends_a_run_satisfies_a_deadlock_goal(self):
        # Every maximal run ends in a deadlock: at l1, or at l0 after
        # any positive delay.  Those deadlocks satisfy φ = deadlock, so
        # they must not count as runs avoiding it.
        late = TimedAutomaton(
            "T", ["x"],
            [Location("l0", invariant=parse_guard("x <= 5")),
             Location("l1")],
            [Edge("l0", "l1", guard=parse_guard("x <= 0"), action="go")])
        network = Network([late])
        for fast in (True, False):
            checker = ZoneGraphChecker(network, fast=fast)
            assert checker.check(parse_query("A<> deadlock")).satisfied
            assert not checker.check(
                parse_query("E[] not deadlock")).satisfied
            assert checker.check(parse_query("T.l0 --> deadlock")).satisfied

    def test_wait_into_a_deadlock_satisfies_a_deadlock_goal(self):
        # l0 can wait forever, but past x = 3 it is deadlocked: waiting
        # reaches the deadlock φ asks for.
        late = TimedAutomaton(
            "T", ["x"], [Location("l0"), Location("l1")],
            [Edge("l0", "l1", guard=parse_guard("x <= 3"), action="go")])
        network = Network([late])
        for fast in (True, False):
            checker = ZoneGraphChecker(network, fast=fast)
            assert checker.check(parse_query("A<> deadlock")).satisfied
            assert not checker.check(
                parse_query("E[] not deadlock")).satisfied
            # Waiting forever still avoids a location goal.
            result = checker.check(parse_query("A<> T.l1"))
            assert not result.satisfied
            assert result.witness == ["(time divergence)"]
