"""Property-based tests (hypothesis) for the DBM zone algebra and for
query independence on a shared zone-graph checker."""

from hypothesis import given, settings, strategies as st

from repro.core.gates import _verdict_to_dict
from repro.prevention.tasks import (
    _token_ring,
    _watchdog,
    bundled_verification_tasks,
)
from repro.ta.checker import ZoneGraphChecker
from repro.ta.dbm import DBM, INF, encode
from repro.ta.query import parse_query

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
