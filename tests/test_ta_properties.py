"""Property-based tests (hypothesis) for the DBM zone algebra, for
query independence on a shared zone-graph checker, and for the
active-clock reduction's verdict equivalence."""

from hypothesis import Phase, example, find, given, settings, strategies as st

from repro.core.gates import _verdict_to_dict
from repro.prevention.tasks import (
    _token_ring,
    _watchdog,
    bundled_verification_tasks,
)
from repro.ta.automaton import Edge, Location, TimedAutomaton, parse_guard
from repro.ta.checker import DiscreteTimeChecker, ZoneGraphChecker
from repro.ta.dbm import DBM, INF, encode
from repro.ta.query import parse_query
from repro.ta.system import Network, NetworkState

N_CLOCKS = 2


def constraints():
    """Random single constraints (i, j, bound) over N_CLOCKS clocks."""
    indices = st.integers(min_value=0, max_value=N_CLOCKS)
    values = st.integers(min_value=-10, max_value=10)
    return st.tuples(indices, indices, values, st.booleans()).filter(
        lambda t: t[0] != t[1])


def zones():
    """Random non-empty zones built by constraining the delayed origin."""

    @st.composite
    def build(draw):
        zone = DBM.zero(N_CLOCKS).up()
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            i, j, value, strict = draw(constraints())
            probe = zone.copy().constrain(i, j, encode(value, strict))
            if not probe.is_empty():
                zone = probe
        return zone

    return build()


@settings(max_examples=200, deadline=None)
@given(zone=zones())
def test_up_enlarges(zone):
    delayed = zone.copy().up()
    assert delayed.includes(zone)


@settings(max_examples=200, deadline=None)
@given(zone=zones())
def test_up_is_idempotent(zone):
    once = zone.copy().up()
    twice = once.copy().up()
    assert once == twice


@settings(max_examples=200, deadline=None)
@given(zone=zones(), clock=st.integers(min_value=1, max_value=N_CLOCKS))
def test_reset_is_idempotent(zone, clock):
    once = zone.copy().reset(clock)
    twice = once.copy().reset(clock)
    assert once == twice


@settings(max_examples=200, deadline=None)
@given(zone=zones(), clock=st.integers(min_value=1, max_value=N_CLOCKS))
def test_reset_pins_clock_to_zero(zone, clock):
    reset = zone.copy().reset(clock)
    assert not reset.is_empty()
    assert reset.satisfies(clock, 0, encode(0, False))
    assert reset.satisfies(0, clock, encode(0, False))


@settings(max_examples=200, deadline=None)
@given(zone=zones(), constraint=constraints())
def test_constrain_shrinks(zone, constraint):
    i, j, value, strict = constraint
    tightened = zone.copy().constrain(i, j, encode(value, strict))
    if not tightened.is_empty():
        assert zone.includes(tightened)


@settings(max_examples=200, deadline=None)
@given(zone=zones(), k=st.integers(min_value=1, max_value=15))
def test_extrapolation_enlarges(zone, k):
    extrapolated = zone.copy().extrapolate(k)
    assert extrapolated.includes(zone)


@settings(max_examples=200, deadline=None)
@given(zone=zones(), k=st.integers(min_value=1, max_value=15))
def test_extrapolation_is_idempotent(zone, k):
    once = zone.copy().extrapolate(k)
    twice = once.copy().extrapolate(k)
    assert once == twice


@settings(max_examples=200, deadline=None)
@given(zone=zones(), clock=st.integers(min_value=1, max_value=N_CLOCKS))
def test_free_drops_exactly_the_clocks_constraints(zone, clock):
    freed = zone.copy().free(clock)
    assert freed == freed.copy().canonicalize()
    # The reference: erase every bound on the clock but "clock >= 0",
    # then close with full Floyd-Warshall.
    dropped = zone.copy()
    dim = dropped.dim
    for other in range(dim):
        if other != clock:
            dropped.m[clock * dim + other] = INF
            dropped.m[other * dim + clock] = INF
    dropped.m[clock] = encode(0, strict=False)
    assert freed == dropped.canonicalize()
    assert freed.includes(zone)


#: Clocks of the zones :func:`projections` draws from.
PROJECT_CLOCKS = 4


@st.composite
def projections(draw):
    """A zone over PROJECT_CLOCKS clocks shaped by random delays,
    resets, frees and constraints, plus a projection of it: the kept
    clocks in any order, each kept as is or reset (its slot maps to
    0).  Returns ``(zone, kept, reset)``."""
    n = PROJECT_CLOCKS
    clocks = st.integers(min_value=1, max_value=n)
    zone = DBM.zero(n).up()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(("constrain", "reset", "free")))
        if kind == "reset":
            zone.reset(draw(clocks)).up()
        elif kind == "free":
            zone.free(draw(clocks))
        else:
            i, j = draw(st.lists(st.integers(min_value=0, max_value=n),
                                 min_size=2, max_size=2, unique=True))
            value = draw(st.integers(min_value=-6, max_value=6))
            probe = zone.copy().constrain(i, j,
                                          encode(value, draw(st.booleans())))
            if not probe.is_empty():
                zone = probe
    kept = draw(st.permutations(range(1, n + 1)))
    kept = kept[:draw(st.integers(min_value=0, max_value=n))]
    reset = set(draw(st.lists(st.sampled_from(kept), unique=True))
                if kept else [])
    return zone, kept, reset


@settings(max_examples=300, deadline=None)
@given(case=projections())
def test_project_equals_reset_free_delete_and_close(case):
    zone, kept, reset = case
    sources = [0] + [0 if clock in reset else clock for clock in kept]
    projected = zone.project(sources)
    assert projected.n == len(kept)
    assert projected == projected.copy().canonicalize()
    # The reference: reset the reset clocks, free the dropped ones,
    # delete the dropped rows and columns (keeping the drawn order),
    # then close with full Floyd-Warshall.
    reference = zone.copy()
    for clock in reset:
        reference.reset(clock)
    for clock in range(1, PROJECT_CLOCKS + 1):
        if clock not in kept:
            reference.free(clock)
    order = [0] + list(kept)
    rows = [[reference.bound(i, j) for j in order] for i in order]
    assert projected == DBM(len(kept), rows).canonicalize()


def _contains(zone, point):
    """Does the zone hold the valuation *point* (clock 0 first)?"""
    dim = zone.dim
    for i in range(dim):
        for j in range(dim):
            bound = zone.bound(i, j)
            if i == j or bound >= INF:
                continue
            difference = point[i] - point[j]
            limit, strict = bound >> 1, bound & 1 == 0
            if difference > limit or (difference == limit and strict):
                return False
    return True


#: Every valuation on the half-integer grid up to 6 (the strategies'
#: constants stay within 10, so the grid meets every region shape the
#: tests need without being exhaustive).
_GRID = [(0, x / 2, y / 2) for x in range(13) for y in range(13)]


@settings(max_examples=200, deadline=None)
@given(first=zones(), second=zones())
def test_subtract_partitions_the_difference(first, second):
    pieces = first.subtract(second)
    for piece in pieces:
        assert not piece.is_empty()
        assert first.includes(piece)
        assert piece == piece.copy().canonicalize()
    for point in _GRID:
        inside = [piece for piece in pieces if _contains(piece, point)]
        want = _contains(first, point) and not _contains(second, point)
        assert len(inside) == (1 if want else 0), point


@settings(max_examples=200, deadline=None)
@given(first=zones(), second=zones())
def test_intersect_keeps_the_common_valuations(first, second):
    both = first.copy().intersect(second)
    if not both.is_empty():
        assert both == both.copy().canonicalize()
    for point in _GRID:
        assert _contains(both, point) == (
            _contains(first, point) and _contains(second, point)), point


@settings(max_examples=200, deadline=None)
@given(zone=zones(), constraint=constraints())
def test_satisfies_implies_intersects(zone, constraint):
    i, j, value, strict = constraint
    bound = encode(value, strict)
    if zone.satisfies(i, j, bound):
        assert zone.intersects(i, j, bound)


@settings(max_examples=200, deadline=None)
@given(zone=zones())
def test_inclusion_is_reflexive_and_key_stable(zone):
    assert zone.includes(zone.copy())
    assert zone.key() == zone.copy().key()


@settings(max_examples=200, deadline=None)
@given(first=zones(), second=zones())
def test_inclusion_antisymmetry(first, second):
    if first.includes(second) and second.includes(first):
        assert first.key() == second.key()


# -- one checker, many queries ------------------------------------------------


def _ring_queries(size):
    last = f"S{size - 1}"
    return [f"E<> {last}.busy",
            "A[] not (S0.busy and S1.busy)",
            "A[] S0.idle",
            # S0.c is dead at idle, so only pinning keeps it there.
            "E<> S0.idle and S0.c < 2",
            "A<> S1.busy",
            "A<> S0.idle",
            f"E[] not {last}.busy",
            "E[] S0.busy",
            "S1.busy --> S0.busy",
            f"S0.busy --> {last}.busy"]


_WATCHDOG_QUERIES = ["E<> Watchdog.respond",
                     "A[] not (Sensor.raised and Watchdog.watch)",
                     "A<> Watchdog.respond",
                     "E[] Watchdog.watch",
                     "E[] not Sensor.raised",
                     "Sensor.raised --> Watchdog.watch",
                     "Watchdog.respond --> Sensor.calm"]


def _shared_checker_cases():
    """(network, queries) pairs: the bundled task set grouped by
    network, token rings of 3-8 stations at holds 4, 6 and 8, and the
    watchdog at two deadlines."""
    cases = {}
    for _label, network, text in bundled_verification_tasks():
        cases.setdefault(id(network), (network, []))[1].append(text)
    cases = list(cases.values())
    for size in range(3, 9):
        for hold in (4, 6, 8):
            cases.append((_token_ring(size, hold), _ring_queries(size)))
    for deadline in (2, 5):
        cases.append((_watchdog(deadline), _WATCHDOG_QUERIES))
    return cases


SHARED_CASES = _shared_checker_cases()
_FRESH_VERDICTS = {}


def _fresh_verdict(case, text):
    key = (case, text)
    if key not in _FRESH_VERDICTS:
        network = SHARED_CASES[case][0]
        _FRESH_VERDICTS[key] = _verdict_to_dict(
            ZoneGraphChecker(network).check(parse_query(text)))
    return _FRESH_VERDICTS[key]


@st.composite
def shared_checker_runs(draw):
    """A case and a shuffled run of its queries (repeats allowed)."""
    case = draw(st.integers(min_value=0, max_value=len(SHARED_CASES) - 1))
    queries = SHARED_CASES[case][1]
    run = draw(st.permutations(queries))
    repeats = draw(st.lists(st.sampled_from(queries), max_size=3))
    return case, list(run) + repeats


@settings(max_examples=60, deadline=None)
@given(run=shared_checker_runs())
def test_shared_checker_answers_like_fresh_checkers(run):
    case, queries = run
    checker = ZoneGraphChecker(SHARED_CASES[case][0])
    for text in queries:
        assert _verdict_to_dict(checker.check(parse_query(text))) \
            == _fresh_verdict(case, text), text


def test_shared_checker_cases_cover_every_operator():
    operators = {parse_query(text).operator
                 for _network, queries in SHARED_CASES for text in queries}
    assert operators == {"E<>", "A[]", "A<>", "E[]", "-->"}


# -- active-clock reduction: reduced == unreduced == discrete time -----------

CLOCK_NAMES = ("x", "y")
SYNCS = (None, None, "alert!", "alert?", "ack!", "ack?", "go!", "go?")
ALL_OPS = ("<=", ">=", "==", "<", ">")
CLOSED_OPS = ("<=", ">=", "==")
OPEN_OPS = ("<", ">")
#: Operators whose negations fall in the keyed set.
_NEGATED_FROM = {ALL_OPS: ALL_OPS, CLOSED_OPS: OPEN_OPS,
                 OPEN_OPS: ("<=", ">="), ("<=", ">="): OPEN_OPS}


@st.composite
def clock_constraints(draw, clocks, closed, diagonal, invariant=False):
    """One constraint's text over *clocks*.  Invariants are upper
    bounds; *closed* keeps to non-strict operators, *diagonal* allows
    ``x - y`` differences."""
    left = draw(st.sampled_from(clocks))
    if invariant:
        ops = ("<=",) if closed else ("<=", "<")
    else:
        ops = CLOSED_OPS if closed else ALL_OPS
    op = draw(st.sampled_from(ops))
    if diagonal and not invariant and len(clocks) > 1 and draw(st.booleans()):
        right = clocks[1] if left == clocks[0] else clocks[0]
        return f"{left} - {right} {op} {draw(st.integers(-3, 3))}"
    return f"{left} {op} {draw(st.integers(0, 4))}"


@st.composite
def automata(draw, name, closed, diagonal):
    clocks = list(CLOCK_NAMES[:draw(st.integers(1, 2))])
    names = [f"l{index}" for index in range(draw(st.integers(2, 3)))]
    locations = []
    for location in names:
        invariant = ""
        if draw(st.integers(0, 2)) == 0:
            invariant = draw(clock_constraints(clocks, closed, diagonal,
                                               invariant=True))
        locations.append(Location(location, parse_guard(invariant),
                                  urgent=draw(st.integers(0, 4)) == 0))
    edges = []
    for _ in range(draw(st.integers(1, 4))):
        guard = " & ".join(
            draw(st.lists(clock_constraints(clocks, closed, diagonal),
                          max_size=2)))
        edges.append(Edge(
            draw(st.sampled_from(names)), draw(st.sampled_from(names)),
            guard=parse_guard(guard),
            resets=tuple(clock for clock in clocks if draw(st.booleans())),
            sync=draw(st.sampled_from(SYNCS))))
    return TimedAutomaton(name, clocks, locations, edges)


@st.composite
def networks(draw, closed=False, diagonal=True):
    """Two random automata, or one beside the bundled watchdog (whose
    ``alert``/``ack`` channels it may share): at most four clocks, so
    the unreduced oracle stays quick."""
    watchdog = draw(st.booleans())
    members = [draw(automata(f"A{index}", closed, diagonal))
               for index in range(1 if watchdog else 2)]
    if watchdog:
        members.extend(_watchdog(draw(st.integers(1, 4))).automata)
    return Network(members)


@st.composite
def state_formulas(draw, network, clock_atoms=True, deadlock=True,
                   depth=2, ops=ALL_OPS):
    """A state formula whose clock atoms, once ``not`` is pushed down
    to them, compare with one of *ops*."""
    atoms = ["location"] + ["clock"] * clock_atoms + ["deadlock"] * deadlock
    kind = draw(st.sampled_from(
        atoms + (["not", "and", "or"] if depth else [])))
    if kind in ("and", "or"):
        left = draw(state_formulas(network, clock_atoms, deadlock,
                                   depth - 1, ops))
        right = draw(state_formulas(network, clock_atoms, deadlock,
                                    depth - 1, ops))
        return f"({left} {kind} {right})"
    if kind == "not":
        inner = draw(state_formulas(network, clock_atoms, deadlock,
                                    depth - 1, _NEGATED_FROM[ops]))
        return f"not {inner}"
    if kind == "deadlock":
        return "deadlock"
    automaton = draw(st.sampled_from(network.automata))
    if kind == "clock" and automaton.clocks:
        clock = draw(st.sampled_from(automaton.clocks))
        op = draw(st.sampled_from(ops))
        # Constants past the network's own exercise the query-aware
        # extrapolation constant (and the discrete engine's cap).
        value = draw(st.integers(0, network.max_constant() + 3))
        return f"{automaton.name}.{clock} {op} {value}"
    location = draw(st.sampled_from(sorted(automaton.locations)))
    return f"{automaton.name}.{location}"


@st.composite
def queries(draw, network):
    """One query of each operator; liveness ones are location-only."""
    def formula(**kwargs):
        return draw(state_formulas(network, **kwargs))
    return [f"E<> {formula()}",
            f"A[] {formula()}",
            f"A<> {formula(clock_atoms=False)}",
            f"E[] {formula(clock_atoms=False)}",
            f"{formula(clock_atoms=False)} --> "
            f"{formula(clock_atoms=False)}"]


def _two_pass_steps(network, state):
    """The composition as a scan of every automaton's edges, twice:
    internal edges, then each emit against each receive on its channel
    in another automaton.  ``(index, edge)`` moves and target per step."""
    def moved(pairs):
        locations = list(state.locations)
        for index, edge in pairs:
            locations[index] = edge.target
        return tuple(locations)

    steps = []
    for index, automaton in enumerate(network.automata):
        for edge in automaton.outgoing(state.location_of(index)):
            if edge.sync is None:
                steps.append(([(index, id(edge))],
                              moved([(index, edge)])))
    emits, receives = [], []
    for index, automaton in enumerate(network.automata):
        for edge in automaton.outgoing(state.location_of(index)):
            if edge.is_emit:
                emits.append((index, edge))
            elif edge.is_receive:
                receives.append((index, edge))
    for emit_index, emit_edge in emits:
        for recv_index, recv_edge in receives:
            if emit_index == recv_index \
                    or emit_edge.channel != recv_edge.channel:
                continue
            pairs = [(emit_index, emit_edge), (recv_index, recv_edge)]
            steps.append(([(index, id(edge)) for index, edge in pairs],
                          moved(pairs)))
    return steps


def _every_state(network):
    states = [()]
    for automaton in network.automata:
        states = [state + (location,) for state in states
                  for location in automaton.locations]
    return [NetworkState(locations) for locations in states]


@settings(max_examples=300, deadline=None)
@given(network=networks())
@example(network=_token_ring(4, 3))
def test_discrete_steps_equal_the_two_pass_scan(network):
    """The per-location edge tables yield the steps, in the order, that
    scanning every automaton's edges does, from every discrete state."""
    for state in _every_state(network):
        steps = [([(index, id(edge)) for index, edge in step.edges],
                  step.target.locations)
                 for step in network.discrete_steps(state)]
        assert steps == _two_pass_steps(network, state), state


def _assert_step_table_matches(network):
    """The fast checker's step table yields, from every discrete state
    (reachable or not), the steps :meth:`Network.discrete_steps` does,
    in its order, with the guard ops and reset ids the reference path
    resolves by name; its urgency flags agree with the network's."""
    compiled = ZoneGraphChecker(network)
    reference = ZoneGraphChecker(network, fast=False)
    for state in _every_state(network):
        steps = compiled._steps_from(state)
        assert tuple(step for step, _guard, _reset in steps) \
            == tuple(network.discrete_steps(state)), state
        assert steps == reference._steps_from(state), state
        assert compiled._is_urgent(state) == network.is_urgent(state), state


@settings(max_examples=300, deadline=None)
@given(network=networks())
@example(network=_token_ring(4, 3))
def test_step_table_equals_the_reference_enumerator(network):
    _assert_step_table_matches(network)


def _station(name, edges, urgent=()):
    locations = sorted({edge.source for edge in edges}
                       | {edge.target for edge in edges} | {"l0"})
    return TimedAutomaton(
        name, ["x"],
        [Location(location, urgent=location in urgent)
         for location in locations],
        edges, initial="l0")


def test_step_table_pairs_every_receiver_on_a_channel():
    """One emit, three receivers in two automata: three handshakes, by
    automaton and then edge order; a receiver elsewhere is skipped."""
    network = Network([
        _station("A", [Edge("l0", "l1", sync="go!", resets=("x",))]),
        _station("B", [Edge("l0", "l1", sync="go?"),
                       Edge("l0", "l2", sync="go?",
                            guard=parse_guard("x >= 1")),
                       Edge("l1", "l0", sync="go?")]),
        _station("C", [Edge("l0", "l1", sync="go?", resets=("x",))]),
    ])
    _assert_step_table_matches(network)
    steps = ZoneGraphChecker(network)._steps_from(network.initial_state())
    assert [step.target.locations for step, _guard, _reset in steps] == [
        ("l1", "l1", "l0"), ("l1", "l2", "l0"), ("l1", "l0", "l1")]


def test_step_table_never_pairs_an_emitter_with_itself():
    """An automaton that emits and receives on one channel from one
    location hands shakes only with the other automaton."""
    network = Network([
        _station("A", [Edge("l0", "l1", sync="go!"),
                       Edge("l0", "l2", sync="go?")]),
        _station("B", [Edge("l0", "l1", sync="go?"),
                       Edge("l0", "l2", sync="go!")]),
    ])
    _assert_step_table_matches(network)
    steps = ZoneGraphChecker(network)._steps_from(network.initial_state())
    assert [step.target.locations for step, _guard, _reset in steps] == [
        ("l1", "l1"), ("l2", "l2")]


def test_step_table_flags_urgent_locations():
    network = Network([
        _station("A", [Edge("l0", "l1", action="go"),
                       Edge("l1", "l0", guard=parse_guard("x <= 0"))],
                 urgent=("l1",)),
        _station("B", [Edge("l0", "l1", resets=("x",))]),
    ])
    _assert_step_table_matches(network)
    checker = ZoneGraphChecker(network)
    assert not checker._is_urgent(NetworkState(("l0", "l1")))
    assert checker._is_urgent(NetworkState(("l1", "l0")))


@st.composite
def checker_cases(draw):
    network = draw(networks())
    return network, draw(queries(network))


@settings(max_examples=300, deadline=None)
@given(case=checker_cases())
def test_reduced_checker_agrees_with_unreduced_oracle(case):
    """One reduced checker answers every operator as ``fast=False``
    does; the queries share its memos, pinned and unpinned."""
    network, texts = case
    reduced = ZoneGraphChecker(network)
    oracle = ZoneGraphChecker(network, fast=False)
    for text in texts:
        query = parse_query(text)
        assert reduced.check(query).satisfied \
            == oracle.check(query).satisfied, text


@st.composite
def discrete_cases(draw):
    """Closed, diagonal-free networks and closed reachability targets:
    there integer time decides reachability exactly (digitization), so
    the discrete engine is an independent oracle.  ``A[] φ`` searches
    for ``not φ``, so φ's clock atoms are strict."""
    network = draw(networks(closed=True, diagonal=False))
    return network, [
        f"E<> {draw(state_formulas(network, ops=CLOSED_OPS))}",
        f"A[] {draw(state_formulas(network, ops=OPEN_OPS))}"]


@settings(max_examples=200, deadline=None)
@given(case=discrete_cases())
def test_reduced_checker_agrees_with_discrete_time(case):
    network, texts = case
    reduced = ZoneGraphChecker(network)
    discrete = DiscreteTimeChecker(network)
    for text in texts:
        query = parse_query(text)
        expected = (discrete.reachable(query.formula)
                    if query.operator == "E<>"
                    else discrete.invariantly(query.formula))
        assert reduced.check(query).satisfied == expected.satisfied, text


def _dead_somewhere(automaton, clock):
    return any(clock not in active
               for active in automaton.active_clocks().values())


def test_generated_cases_cover_the_reduction():
    """The generators reach what the reduction has to get right."""
    # The first example found will do: no shrinking.  Derandomized, so
    # a rare predicate cannot miss on an unlucky draw.
    quiet = settings(max_examples=2000, database=None, derandomize=True,
                     phases=[Phase.generate])
    find(networks(), lambda network: any(
        _dead_somewhere(automaton, clock)
        for automaton in network.automata for clock in automaton.clocks),
        settings=quiet)
    find(networks(), lambda network: any(
        constraint.right is not None
        for automaton in network.automata for edge in automaton.edges
        for constraint in edge.guard), settings=quiet)
    find(networks(), lambda network: any(
        location.urgent for automaton in network.automata
        for location in automaton.locations.values()), settings=quiet)
    find(networks(), lambda network: "Watchdog" in {
        automaton.name for automaton in network.automata}, settings=quiet)

    def reads_locally_dead_clock(case):
        network, texts = case
        query = parse_query(texts[0])
        return any(
            atom.constraint is not None and _dead_somewhere(
                network.automata[network.automaton_index(atom.automaton)],
                atom.constraint.left)
            for atom in query.formula.atoms())

    find(checker_cases(), reads_locally_dead_clock, settings=quiet)
