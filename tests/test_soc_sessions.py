"""Unit tests for per-host monitor sessions and their sound routing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protection import event_step
from repro.environment.events import Event
from repro.environment.host import SimulatedHost
from repro.ltl.compile import CompiledMonitor, empty_step_stable
from repro.ltl.monitor import LtlMonitor, Verdict
from repro.ltl.parser import parse_ltl
from repro.soc.procplane.worker import HostBank
from repro.soc.sessions import MonitorSession, SessionPatch


def make_session(formulas, bindings=None):
    host = SimulatedHost("s-host", "ubuntu")
    monitors = {req_id: LtlMonitor(parse_ltl(text))
                for req_id, text in formulas.items()}
    return host, MonitorSession(host, monitors, bindings or {})


def event(time, kind):
    return Event(time=time, kind=kind)


class TestFormulaAtoms:
    """Sessions lean on the cached ``Formula.atoms()`` (the old local
    ``formula_atoms`` re-implementation is gone)."""

    def test_collects_all_atoms(self):
        formula = parse_ltl("G (a -> (b U c))")
        assert formula.atoms() == {"a", "b", "c"}

    def test_constants_have_no_atoms(self):
        assert parse_ltl("true").atoms() == frozenset()

    def test_atoms_are_cached_per_interned_node(self):
        formula = parse_ltl("G (a -> (b U c))")
        assert formula.atoms() is formula.atoms()
        assert formula is parse_ltl("G (a -> (b U c))")


class TestSelectiveRouting:
    def test_benign_event_skips_stable_monitors(self):
        _, session = make_session({"R1/drift": "G !drift.package"})
        session.observe(event(0, "app.heartbeat"))
        assert session.monitors_stepped == 0
        assert session.events_seen == 1

    def test_matching_event_reaches_the_monitor(self):
        _, session = make_session({"R1/drift": "G !drift.package"})
        detections = session.observe(event(0, "drift.package"))
        assert [d.req_id for d in detections] == ["R1/drift"]

    def test_prefix_proposition_reaches_coarse_monitor(self):
        # ``G !drift`` must trip on the nested kind drift.config.
        _, session = make_session({"R1/drift": "G !drift"})
        detections = session.observe(event(0, "drift.config"))
        assert len(detections) == 1

    def test_tripped_monitor_is_rearmed(self):
        _, session = make_session({"R1/drift": "G !drift.package"})
        session.observe(event(0, "drift.package"))
        assert session.monitors[
            "R1/drift"].verdict is Verdict.INCONCLUSIVE
        detections = session.observe(event(1, "drift.package"))
        assert len(detections) == 1  # detects again after re-arm


class TestRoutingSoundness:
    """Selective routing must agree with running every monitor on
    every event — including formulas whose obligation becomes
    empty-step-sensitive mid-trace."""

    def test_next_obligation_sees_unrelated_event(self):
        # G(a -> X b): after an ``a`` event the obligation demands b at
        # the very next step; an unrelated event must falsify it even
        # though it mentions neither a nor b.
        _, session = make_session({"R": "G (a -> X b)"})
        assert session.observe(event(0, "a")) == []
        detections = session.observe(event(1, "unrelated"))
        assert [d.req_id for d in detections] == ["R"]

    def test_agrees_with_unindexed_monitor_on_mixed_trace(self):
        trace = ["a", "noise", "b", "drift.package", "noise", "a", "b"]
        reference = LtlMonitor(parse_ltl("G (a -> X b)"))
        _, session = make_session({"R": "G (a -> X b)"})
        for time, kind in enumerate(trace):
            session_detected = bool(session.observe(event(time, kind)))
            parts = kind.split(".")
            step = {".".join(parts[:i + 1]) for i in range(len(parts))}
            reference_detected = reference.observe(step) is Verdict.FALSE
            if reference_detected:
                reference.reset()
            assert session_detected == reference_detected, kind

    def test_eventually_monitor_stays_stable(self):
        # F x is a fixed point under irrelevant steps: no work, no
        # verdict, until x arrives.
        _, session = make_session({"R": "F x"})
        for time in range(5):
            assert session.observe(event(time, "noise")) == []
        assert session.monitors_stepped == 0
        session.observe(event(5, "x"))
        assert session.monitors["R"].verdict is Verdict.TRUE


class TestBindings:
    def test_bindings_are_copied_per_session(self):
        host = SimulatedHost("b-host", "ubuntu")
        bindings = {"R": ["V-1"]}
        session = MonitorSession(host, {}, bindings)
        bindings["R"].append("V-2")
        assert session.bindings == {"R": ["V-1"]}


class TestRoutingIndexAcrossPatches:
    """The routing index always equals one rebuilt from the monitors'
    current obligations, however monitors were stepped, replaced,
    removed or added in between."""

    @staticmethod
    def assert_index_is_fresh(session):
        from repro.ltl.compile import empty_step_stable

        watch, always = {}, set()
        for req_id, monitor in session.monitors.items():
            if empty_step_stable(monitor.obligation):
                for atom in monitor.obligation.atoms():
                    watch.setdefault(atom, set()).add(req_id)
            else:
                always.add(req_id)
        assert {atom: watchers for atom, watchers
                in session._watch.items() if watchers} == watch
        assert session._always == always

    def test_index_tracks_steps_and_patches(self):
        from repro.soc.sessions import SessionPatch

        _, session = make_session({"R": "G (a -> X b)",
                                   "D": "G !drift.package",
                                   "F": "F x"})
        self.assert_index_is_fresh(session)
        session.observe(event(0, "a"))      # R now needs b next
        self.assert_index_is_fresh(session)
        patches = [
            # Replace D with a monitor over other atoms, drop F.
            SessionPatch("s-host", 1,
                         add=(("D", LtlMonitor(parse_ltl("G !drift.config")),
                               ()),),
                         remove=("F",)),
            # Replace R mid-obligation, add a new monitor.
            SessionPatch("s-host", 2,
                         add=(("R", LtlMonitor(parse_ltl("G !c")), ()),
                              ("N", LtlMonitor(parse_ltl("G (p -> X q)")),
                               ()))),
        ]
        for time, patch in enumerate(patches, start=1):
            assert session.apply_patch(patch)
            self.assert_index_is_fresh(session)
            session.observe(event(10 + time, "p"))
            self.assert_index_is_fresh(session)
        assert set(session.monitors) == {"R", "D", "N"}


FORMULAS = ("G !a", "G (a -> X b)", "F c", "G (a -> F b)", "a U b",
            "G !drift.package", "G (req -> X ack)", "G !drift")
KINDS = ("a", "b", "c", "req", "ack", "drift.package", "drift.config",
         "app.heartbeat")
MONITOR_IDS = range(6)

routing_ops = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.sampled_from(KINDS)),
        st.tuples(st.just("patch"),
                  st.lists(st.tuples(st.sampled_from(MONITOR_IDS),
                                     st.sampled_from(FORMULAS)),
                           max_size=3),
                  st.lists(st.sampled_from(MONITOR_IDS), max_size=3)),
    ),
    max_size=40,
)


def rebuilt_index(monitors):
    """The routing index built from *monitors* (key -> monitor)."""
    watch, always = {}, set()
    for key, monitor in monitors.items():
        if empty_step_stable(monitor.obligation):
            for atom in monitor.obligation.atoms():
                watch.setdefault(atom, set()).add(key)
        else:
            always.add(key)
    return watch, always


def step_bank(bank, step):
    """The process worker's stepping loop over one bank, one event."""
    for mon_id in bank.route(tuple(sorted(step)), step):
        monitor = bank.monitors[mon_id][1]
        before = monitor.obligation
        if monitor.observe(step) is Verdict.FALSE:
            monitor.reset()
        if monitor.obligation is not before:
            bank._classify(mon_id)


class TestRoutingIndexUnderRandomTraffic:
    """Reclassifying or removing a monitor touches only the atoms it
    is filed under, and both backends' indexes still equal one rebuilt
    from the monitors' current obligations after any traffic."""

    @settings(max_examples=150, deadline=None)
    @given(ops=routing_ops)
    def test_thread_and_process_indexes_stay_fresh(self, ops):
        start = {mon_id: FORMULAS[mon_id] for mon_id in range(3)}
        host = SimulatedHost("r-host", "ubuntu")
        session = MonitorSession(
            host, {f"M{mon_id}": CompiledMonitor(parse_ltl(text))
                   for mon_id, text in start.items()}, {})
        bank = HostBank(0, [(mon_id, f"M{mon_id}",
                             CompiledMonitor(parse_ltl(text)))
                            for mon_id, text in start.items()])
        for index, op in enumerate(ops):
            if op[0] == "observe":
                observed = Event(time=index, kind=op[1])
                session.observe(observed)
                step_bank(bank, event_step(observed))
            else:
                _, adds, removes = op
                adds = dict(adds)
                session.apply_patch(SessionPatch(
                    "r-host", index,
                    add=tuple((f"M{mon_id}",
                               CompiledMonitor(parse_ltl(text)), ())
                              for mon_id, text in adds.items()),
                    remove=tuple(f"M{mon_id}" for mon_id in removes)))
                bank.patch([(mon_id, f"M{mon_id}",
                             CompiledMonitor(parse_ltl(text)))
                            for mon_id, text in adds.items()],
                           list(removes))
            for index_owner, monitors in (
                    (session, session.monitors),
                    (bank, {mon_id: monitor for mon_id, (_, monitor)
                            in bank.monitors.items()})):
                watch, always = rebuilt_index(monitors)
                assert {atom: keys for atom, keys
                        in index_owner._watch.items() if keys} == watch
                assert index_owner._always == always
                assert set(index_owner._filed) == set(monitors) - always
            assert {f"M{mon_id}" for mon_id in bank.monitors} \
                == set(session.monitors)
