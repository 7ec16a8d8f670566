"""Unit tests for the monitor bank both SOC backends step, and for
the thread backend's per-host sessions built on it."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protection import event_step
from repro.environment.events import Event
from repro.environment.host import SimulatedHost
from repro.ltl.compile import CompiledMonitor, empty_step_stable, step_monitors
from repro.ltl.monitor import LtlMonitor, Verdict
from repro.ltl.parser import parse_ltl
from repro.soc.bank import MonitorBank
from repro.soc.sessions import MonitorSession, SessionPatch
from repro.specpatterns import supported_combinations, to_ltl


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


class TestRoutingIndexUnderRandomTraffic:
    """Reclassifying or removing a monitor touches only the atoms it
    is filed under, and both backends' indexes still equal one rebuilt
    from the monitors' current obligations after any traffic."""

    @settings(max_examples=150, deadline=None)
    @given(ops=routing_ops)
    def test_thread_and_process_indexes_stay_fresh(self, ops):
        # The thread backend steps a MonitorSession, a worker process
        # steps a bare MonitorBank patched with (req_id, monitor) pairs.
        start = {mon_id: FORMULAS[mon_id] for mon_id in range(3)}
        host = SimulatedHost("r-host", "ubuntu")
        session = MonitorSession(
            host, {f"M{mon_id}": CompiledMonitor(parse_ltl(text))
                   for mon_id, text in start.items()}, {})
        bank = MonitorBank({f"M{mon_id}": CompiledMonitor(parse_ltl(text))
                            for mon_id, text in start.items()})
        for index, op in enumerate(ops):
            if op[0] == "observe":
                observed = Event(time=index, kind=op[1])
                detections = session.observe(observed)
                assert bank.step(event_step(observed)) \
                    == [detection.req_id for detection in detections]
            else:
                _, adds, removes = op
                adds = dict(adds)
                session.apply_patch(SessionPatch(
                    "r-host", index,
                    add=tuple((f"M{mon_id}",
                               CompiledMonitor(parse_ltl(text)), ())
                              for mon_id, text in adds.items()),
                    remove=tuple(f"M{mon_id}" for mon_id in removes)))
                bank.patch(add=[(f"M{mon_id}",
                                 CompiledMonitor(parse_ltl(text)))
                                for mon_id, text in adds.items()],
                           remove=[f"M{mon_id}" for mon_id in removes])
            for owner in (session, bank):
                watch, always = rebuilt_index(owner.monitors)
                assert {atom: keys for atom, keys
                        in owner._watch.items() if keys} == watch
                assert owner._always == always
                assert set(owner._filed) == set(owner.monitors) - always
            assert set(bank.monitors) == set(session.monitors)


PATTERN_ATOMS = ("p", "q", "r", "s", "t")


@st.composite
def pattern_formulas(draw):
    """``to_ltl`` of a random supported pattern x scope over a small
    alphabet (so atoms recur across the formulas of one bank)."""
    pattern_cls, scope_cls = draw(st.sampled_from(supported_combinations()))

    def instance(cls):
        # Bounds: the only LTL-mapped bounded existence is bound 2, and
        # a timed response's bound is dropped from its LTL mapping.
        return cls(**{
            field.name: (2 if field.name == "bound"
                         else draw(st.sampled_from(PATTERN_ATOMS)))
            for field in dataclasses.fields(cls)})

    return to_ltl(instance(pattern_cls), instance(scope_cls))


#: At most 200 steps: after-Q obligations nest one level deeper per q,
#: and progression recurses over that depth.
pattern_step = st.frozensets(st.sampled_from(PATTERN_ATOMS + ("noise",)),
                             max_size=3)
pattern_steps = st.lists(pattern_step, max_size=200)


def bank_of(formulas, monitor=CompiledMonitor):
    return {f"R{index:02d}": monitor(formula)
            for index, formula in enumerate(formulas)}


class RaisingMonitor(CompiledMonitor):
    """A compiled monitor that raises on its next step while armed."""

    armed = False

    def observe(self, propositions):
        if self.armed:
            raise RuntimeError("injected monitor fault")
        return super().observe(propositions)


def bank_state(bank):
    return ({req_id: (monitor.obligation, monitor.steps_observed)
             for req_id, monitor in bank.monitors.items()},
            {atom: set(keys) for atom, keys in bank._watch.items() if keys},
            dict(bank._filed), set(bank._always), set(bank._seen))


class TestMonitorBankProperties:
    """The one bank against the serial loop's ``step_monitors``, which
    steps every monitor on every step."""

    @settings(max_examples=60, deadline=None)
    @given(formulas=st.lists(pattern_formulas(), min_size=1, max_size=6),
           steps=pattern_steps)
    def test_step_trips_what_step_monitors_trips(self, formulas, steps):
        bank = MonitorBank(bank_of(formulas))
        reference = bank_of(formulas, LtlMonitor)
        for step in steps:
            tripped = step_monitors(reference, step)
            for req_id in tripped:
                reference[req_id].reset()
            assert bank.step(step) == sorted(tripped)
            assert {req_id: monitor.obligation for req_id, monitor
                    in bank.monitors.items()} \
                == {req_id: monitor.obligation for req_id, monitor
                    in reference.items()}

    @settings(max_examples=60, deadline=None)
    @given(formulas=st.lists(pattern_formulas(), min_size=1, max_size=6),
           prefix=pattern_steps, fault_step=pattern_step)
    def test_raising_monitor_rolls_the_sweep_back(self, formulas, prefix,
                                                  fault_step):
        # "Z" sorts after every "Rnn" and watches "boom", so on the
        # faulting step it is stepped last: every other monitor routed
        # there has already advanced (and maybe tripped) when it raises.
        monitors = bank_of(formulas)
        monitors["Z"] = RaisingMonitor(parse_ltl("G !boom"))
        bank = MonitorBank(monitors)
        twin = MonitorBank(dict(bank_of(formulas),
                                Z=CompiledMonitor(parse_ltl("G !boom"))))
        for time, step in enumerate(prefix):
            assert bank.step(step, time) == twin.step(step, time)
        before = bank_state(bank)
        fault_step = fault_step | {"boom"}
        monitors["Z"].armed = True
        with pytest.raises(RuntimeError, match="injected"):
            bank.step(fault_step, len(prefix))
        assert bank_state(bank) == before
        assert not bank.already_observed(len(prefix))
        # The retry reports exactly what a sweep that never failed does.
        monitors["Z"].armed = False
        assert bank.step(fault_step, len(prefix)) \
            == twin.step(fault_step, len(prefix))
        assert bank_state(bank) == bank_state(twin)
