"""The binary event plane: codec round-trips, rings, and the
thread/process equivalence suite.

The equivalence contract is the whole point of the process backend:
for identical scenarios, both backends must produce identical incident
sets and identical final monitor verdicts.  The suite runs the same
seeded drift storm through each backend and compares the full
surfaces; chaos variants additionally exercise crash/restart and
quarantine carryover across worker processes.
"""

import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fleet import Fleet
from repro.environment import (
    hardened_ubuntu_host,
    hardened_windows_host,
)
from repro.ltl.compile import formula_text, obligation_id, parse_formula_text
from repro.ltl.parser import parse_ltl
from repro.rqcode import default_catalog
from repro.soc.procplane.codec import (
    EventCodec,
    MergeCodec,
    REASONS,
    Tag,
    slot_size,
)
from repro.soc.procplane.rings import RingFull, SpscRing
from repro.soc.service import SocService, resolve_backend


# -- formula text as the wire format ------------------------------------------


class TestFormulaWire:
    def test_parse_of_text_is_the_interned_formula(self):
        formula = parse_ltl("G (drift -> F repaired)")
        assert parse_formula_text(formula_text(formula)) is formula

    def test_obligation_id_is_stable_across_equivalent_spellings(self):
        left = parse_ltl("G (a -> F b)")
        right = parse_ltl("G ((a) -> (F (b)))")
        assert left is right
        assert obligation_id(left) == obligation_id(right)

    def test_distinct_formulas_get_distinct_ids(self):
        assert obligation_id(parse_ltl("G !a")) \
            != obligation_id(parse_ltl("G !b"))


# -- codec round-trips --------------------------------------------------------


ATOM_POOL = [f"atom.{index}" for index in range(70)]   # spans >1 word


@st.composite
def vocab_and_step(draw):
    vocab = draw(st.lists(st.sampled_from(ATOM_POOL), min_size=1,
                          max_size=70, unique=True))
    step = draw(st.lists(st.sampled_from(ATOM_POOL + ["other.kind"]),
                         max_size=8, unique=True))
    return sorted(vocab), frozenset(step)


class TestEventCodec:
    @given(vocab_and_step())
    @settings(max_examples=200, deadline=None)
    def test_project_unproject_is_vocabulary_intersection(self, case):
        vocab, step = case
        codec = EventCodec(vocab)
        bits = codec.project(step)
        assert codec.unproject(bits) == step & set(vocab)

    @given(vocab_and_step(), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 60))
    @settings(max_examples=200, deadline=None)
    def test_event_record_round_trip(self, case, host_id, kind_id, time):
        vocab, step = case
        codec = EventCodec(vocab)
        buffer = bytearray(codec.slot)
        codec.pack_event(buffer, 0, host_id, kind_id, time,
                         codec.project(step))
        got_host, got_kind, got_time, got_bits = codec.unpack_event(
            buffer, 0)
        assert (got_host, got_kind, got_time) == (host_id, kind_id, time)
        assert codec.unproject(got_bits) == step & set(vocab)

    def test_slot_covers_every_record(self):
        # The fixed slot must hold the largest record of either plane.
        assert slot_size(1) >= 22                 # VERDICT: 6 + digest
        assert slot_size(2) >= 17 + 16            # EVENT with 2 words
        assert slot_size(1) % 8 == 0

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            EventCodec(["a", "a"])


class TestMergeCodec:
    def setup_method(self):
        self.buffer = bytearray(slot_size(2))

    def test_detection_round_trip(self):
        MergeCodec.pack_detection(self.buffer, 0, 7, 11, 3, 99)
        assert self.buffer[0] == Tag.DETECTION
        assert MergeCodec.unpack_detection(self.buffer, 0) == (7, 11, 3, 99)

    def test_progress_round_trip(self):
        MergeCodec.pack_progress(self.buffer, 0, 10, 20, 3, 1)
        assert MergeCodec.unpack_progress(self.buffer, 0) == (10, 20, 3, 1)

    def test_strike_round_trip_both_tags(self):
        for tag in (Tag.STRIKE, Tag.DEAD_LETTER):
            MergeCodec.pack_strike(self.buffer, 0, tag, 5, 2, 3, 42, 1)
            assert self.buffer[0] == tag
            assert MergeCodec.unpack_strike(self.buffer, 0) \
                == (5, 2, 3, 42, 1)

    def test_verdict_round_trip(self):
        digest = obligation_id(parse_ltl("G !drift"))
        MergeCodec.pack_verdict(self.buffer, 0, 9, "INCONCLUSIVE", digest)
        assert MergeCodec.unpack_verdict(self.buffer, 0) \
            == (9, "INCONCLUSIVE", digest)

    def test_flush_round_trip(self):
        MergeCodec.pack_flush(self.buffer, 0, 17)
        assert self.buffer[0] == Tag.FLUSH
        assert MergeCodec.unpack_flushed(self.buffer, 0) == 17
        MergeCodec.pack_flushed(self.buffer, 0, 18)
        assert self.buffer[0] == Tag.FLUSHED
        assert MergeCodec.unpack_flushed(self.buffer, 0) == 18

    def test_reason_codes_are_total(self):
        assert len(set(REASONS)) == len(REASONS)

    def test_rearm_chunk_round_trip(self):
        payload = b'{"adds": [["web-00", "R-1/drift"]]}'
        MergeCodec.pack_rearm_chunk(self.buffer, 0, 3, 1, 4, payload)
        assert self.buffer[0] == Tag.REARM
        assert MergeCodec.unpack_rearm_chunk(self.buffer, 0) \
            == (3, 1, 4, payload)

    def test_rearm_payload_capacity_fills_the_slot(self):
        slot = slot_size(2)
        capacity = MergeCodec.rearm_payload_capacity(slot)
        assert 0 < capacity < slot
        payload = b"x" * capacity
        buffer = bytearray(slot)
        MergeCodec.pack_rearm_chunk(buffer, 0, 1, 0, 1, payload)
        assert MergeCodec.unpack_rearm_chunk(buffer, 0)[3] == payload

    def test_rearmed_round_trip(self):
        MergeCodec.pack_rearmed(self.buffer, 0, 42)
        assert self.buffer[0] == Tag.REARMED
        assert MergeCodec.unpack_rearmed(self.buffer, 0) == 42


class TestVocabularyGrowth:
    def test_reserve_provisions_spare_bit_capacity(self):
        codec = EventCodec(["a", "b"], reserve=70)
        assert codec.capacity >= 70
        assert codec.words == (70 + 63) // 64

    def test_extend_preserves_existing_bits(self):
        codec = EventCodec(["a", "b"], reserve=8)
        before = codec.project(frozenset(["a", "b"]))
        appended = codec.extend(["c", "a"])     # "a" already known
        assert appended == ["c"]
        assert codec.project(frozenset(["a", "b"])) == before
        bits = codec.project(frozenset(["a", "c"]))
        assert codec.unproject(bits) == {"a", "c"}

    def test_extend_past_capacity_raises(self):
        # Capacity is whole bit words: 64 atoms fill one word exactly.
        codec = EventCodec([f"atom.{index}" for index in range(64)])
        assert codec.capacity == 64
        with pytest.raises(ValueError):
            codec.extend(["atom.overflow"])


# -- rings --------------------------------------------------------------------


class TestSpscRing:
    def _ring(self, capacity=4, slot=32):
        ring = SpscRing(capacity, slot, create=True)
        ring.sync_consumer()
        return ring

    def test_fifo_order_and_depth(self):
        ring = self._ring()
        try:
            for value in range(3):
                offset = ring.reserve()
                ring.buf[offset] = value + 1
                ring.publish()
            assert ring.depth == 3
            seen = []
            while ring.poll():
                seen.append(ring.buf[ring.peek_offset()])
                ring.advance()
            assert seen == [1, 2, 3]
            assert ring.depth == 0
        finally:
            ring.destroy()

    def test_full_ring_raises_and_frees_after_advance(self):
        ring = self._ring(capacity=2)
        try:
            ring.reserve(); ring.publish()
            ring.reserve(); ring.publish()
            with pytest.raises(RingFull):
                ring.reserve()
            ring.poll()
            ring.advance()
            ring.reserve()          # slot freed
        finally:
            ring.destroy()

    def test_attach_by_name_sees_published_records(self):
        ring = self._ring()
        try:
            offset = ring.reserve()
            ring.buf[offset] = 0xAB
            ring.publish()
            other = SpscRing(ring.capacity, ring.slot, name=ring.name)
            other.sync_consumer()
            assert other.poll() == 1
            assert other.buf[other.peek_offset()] == 0xAB
            other.advance()
            other.detach()
            assert ring.depth == 0   # head advance visible to creator
        finally:
            ring.destroy()

    def test_wraparound_past_capacity(self):
        ring = self._ring(capacity=3)
        try:
            for value in range(10):
                offset = ring.reserve()
                ring.buf[offset] = value % 251
                ring.publish()
                ring.poll()
                assert ring.buf[ring.peek_offset()] == value % 251
                ring.advance()
        finally:
            ring.destroy()

    def test_closed_flag(self):
        ring = self._ring()
        try:
            assert not ring.closed
            ring.close_producer()
            assert ring.closed
        finally:
            ring.destroy()


def _cursor_writer(name, capacity, slot, rounds):
    """Writer process for :class:`TestCursorPublication`: drives head
    through 6-byte carries and tail through plain increments.

    It yields the CPU every 100 rounds, so a reader sharing one CPU
    with it still sees the head move hundreds of times; without the
    yields the whole run fits in a few time slices."""
    ring = SpscRing(capacity, slot, name=name)
    ring.sync_consumer()
    ring.sync_producer()
    try:
        for round_ in range(rounds):
            ring.advance(_LOW_MASK)     # head -> k * 2^48 + (2^48 - 1)
            ring.publish()
            ring.advance(1)             # head -> (k + 1) * 2^48: a carry
            ring.publish()
            if round_ % 100 == 0:
                time.sleep(0)
    finally:
        ring.close_producer()
        ring.detach()


#: The writer's head values all have low 48 bits 0 or all ones.
_LOW_MASK = (1 << 48) - 1


class TestCursorPublication:
    """Cursors cross processes whole: a reader never sees a cursor go
    backwards or take a value the writer never stored."""

    def test_cursors_are_monotonic_across_processes(self):
        rounds = 60_000           # head stays below 2^64
        ring = SpscRing(4, 16, create=True)
        writer = multiprocessing.get_context("spawn").Process(
            target=_cursor_writer,
            args=(ring.name, ring.capacity, ring.slot, rounds))
        try:
            writer.start()
            last_head = last_tail = moves = 0
            deadline = time.monotonic() + 20.0
            while not ring.closed and time.monotonic() < deadline:
                head, tail = ring.head, ring.tail
                assert head >= last_head and tail >= last_tail
                assert head & _LOW_MASK in (0, _LOW_MASK)
                moves += head != last_head
                last_head, last_tail = head, tail
            writer.join(timeout=10.0)
            assert writer.exitcode == 0
            assert ring.head == rounds << 48
            assert ring.tail == 2 * rounds
            assert moves >= 10          # the reader raced the writer
        finally:
            if writer.is_alive():
                writer.kill()
            ring.destroy()


class TestMergeOverrun:
    """A consumer head past the producer tail must not replay the
    stale slots below it as records."""

    def test_head_past_tail_pumps_nothing(self):
        from types import SimpleNamespace

        from repro.soc.metrics import MetricsRegistry
        from repro.soc.procplane.merge import MergePlane

        handled = []
        service = SimpleNamespace(
            metrics=MetricsRegistry(),
            hosts={"h0": SimpleNamespace(events=SimpleNamespace(clock=9))},
            pipeline=SimpleNamespace(
                handle=lambda host, detection, bindings:
                handled.append(detection)))
        ring = SpscRing(4, slot_size(1), create=True)
        try:
            ring.sync_consumer()
            plane = MergePlane(service, [ring], ["h0"], ["k"], ["h0"],
                               ["r"], [[]])
            offset = ring.reserve()
            MergeCodec.pack_detection(ring.buf, offset, 0, 0, 0, 3)
            ring.publish()
            assert plane.pump(0) == 1
            assert len(handled) == 1
            # Head lands on slot 0 again, which still holds the
            # detection already handled.
            ring.advance(3)
            assert ring.poll() < 0
            assert plane.pump(0) == 0
            assert plane.pump(0) == 0
            assert len(handled) == 1
            counters = service.metrics.snapshot()["counters"]
            assert counters["soc.merge.cursor_overruns"] == 1
        finally:
            ring.destroy()


# -- backend knob -------------------------------------------------------------


class TestBackendKnob:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOC_BACKEND", raising=False)
        assert resolve_backend(None) == "thread"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOC_BACKEND", "process")
        assert resolve_backend(None) == "process"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOC_BACKEND", "process")
        assert resolve_backend("thread") == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown SOC backend"):
            resolve_backend("fiber")

    def test_process_backend_refuses_drop_oldest(self):
        host = hardened_ubuntu_host("po-host")
        from repro.ltl.monitor import LtlMonitor

        plans = {host.name: ({"R/d": LtlMonitor(parse_ltl("G !drift"))},
                             {"R/d": []})}
        with pytest.raises(ValueError, match="drop-oldest"):
            SocService([host], default_catalog(), plans, shards=1,
                       policy="drop-oldest", backend="process")


# -- thread/process equivalence ----------------------------------------------


DRIFT_PACKAGES = ("nis", "rsh-server", "telnetd")


def build_fleet(ubuntu=3, windows=1):
    fleet = Fleet("procplane-test", default_catalog())
    for index in range(ubuntu):
        fleet.add(hardened_ubuntu_host(f"web-{index:02d}"))
    for index in range(windows):
        fleet.add(hardened_windows_host(f"console-{index:02d}"))
    return fleet


def run_scenario(backend, rounds=2, shards=2, seed=7, chaos_plan=None,
                 noise=2):
    fleet = build_fleet()
    chaos = None
    if chaos_plan is not None:
        from repro.chaos import ChaosController

        chaos = ChaosController(chaos_plan)
    service = fleet.arm_soc(shards=shards, seed=seed, chaos=chaos,
                            backend=backend)
    try:
        for round_index in range(rounds):
            for host in fleet.hosts():
                for _ in range(noise):
                    host.events.emit("app.heartbeat")
                if host.os_family == "windows":
                    host.drift_audit_policy("Logon")
                else:
                    host.drift_install_package(
                        DRIFT_PACKAGES[round_index % len(DRIFT_PACKAGES)])
            service.drain()
    finally:
        service.stop()
    incidents = [
        (incident.detected_at, incident.req_id, incident.trigger_kind,
         incident.violation_time,
         tuple((repair.finding_id, repair.status.value, repair.detail)
               for repair in incident.repairs))
        for incident in service.incidents()
    ]
    posture = fleet.audit().worst_ratio
    return incidents, service.final_verdicts(), posture, service


class TestEquivalence:
    def test_incidents_and_verdicts_match_across_backends(self):
        thread_inc, thread_verdicts, thread_posture, _ = \
            run_scenario("thread")
        proc_inc, proc_verdicts, proc_posture, _ = run_scenario("process")
        assert proc_inc == thread_inc
        assert proc_verdicts == thread_verdicts
        assert thread_posture == proc_posture == 1.0
        assert len(thread_verdicts) > 0

    def test_equivalence_under_chaos_session_errors(self):
        from repro.chaos import FaultPlan

        plan = FaultPlan(seed=5, session_error=0.3, event_duplicate=0.2,
                         max_deliveries=3)
        thread_inc, thread_verdicts, _, thread_service = \
            run_scenario("thread", chaos_plan=plan)
        proc_inc, proc_verdicts, _, proc_service = \
            run_scenario("process", chaos_plan=plan)
        assert proc_inc == thread_inc
        assert proc_verdicts == thread_verdicts
        thread_counters = thread_service.metrics_snapshot()["counters"]
        proc_counters = proc_service.metrics_snapshot()["counters"]
        for key in ("soc.events.ingested",
                    "soc.events.duplicates_suppressed",
                    "soc.events.dead_lettered"):
            assert proc_counters.get(key, 0) \
                == thread_counters.get(key, 0), key

    def test_process_event_accounting_matches_thread(self):
        _, _, _, thread_service = run_scenario("thread", rounds=1)
        _, _, _, proc_service = run_scenario("process", rounds=1)
        thread_counters = thread_service.metrics_snapshot()["counters"]
        proc_counters = proc_service.metrics_snapshot()["counters"]
        assert proc_counters["soc.events.ingested"] \
            == thread_counters["soc.events.ingested"]
        shards_processed = lambda counters: sum(
            value for key, value in counters.items()
            if key.startswith("soc.shard.") and key.endswith(".processed"))
        assert shards_processed(proc_counters) \
            == shards_processed(thread_counters)


    def test_monitor_step_counts_match_across_backends(self):
        _, _, _, thread_service = run_scenario("thread", rounds=1)
        _, _, _, proc_service = run_scenario("process", rounds=1)
        stepped = [service.metrics_snapshot()["counters"]
                   .get("soc.monitors.stepped", 0)
                   for service in (thread_service, proc_service)]
        assert stepped[0] > 0
        assert stepped[1] == stepped[0]
        assert stepped[0] == sum(session.monitors_stepped for session
                                 in thread_service.sessions.values())


class TestRolledBackSweep:
    """A monitor that raises mid-sweep rolls the whole sweep back, so
    a monitor stepped earlier in that sweep must not be published
    twice when the event is retried."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched monitor class must reach the worker process")
    def test_retried_sweep_publishes_each_detection_once(self, monkeypatch):
        from repro.ltl.compile import CompiledMonitor

        monkeypatch.setenv("REPRO_SOC_MP_START", "fork")
        flaky = parse_ltl("G (drift.package -> F repaired)")
        observe = CompiledMonitor.observe
        raised = []

        def observe_once_raising(self, propositions):
            if self.formula is flaky and "drift.package" in propositions \
                    and not raised:
                raised.append(True)
                raise RuntimeError("injected monitor fault")
            return observe(self, propositions)

        monkeypatch.setattr(CompiledMonitor, "observe", observe_once_raising)

        def run(backend):
            raised.clear()
            host = hardened_ubuntu_host("dup-host")
            monitors = {"A": CompiledMonitor(parse_ltl("G !drift.package")),
                        "B": CompiledMonitor(flaky)}
            plans = {host.name: (monitors, {"A": [], "B": []})}
            service = SocService([host], default_catalog(), plans, shards=1,
                                 backend=backend).start()
            try:
                host.events.emit("app.heartbeat")
                host.events.emit("drift.package")
                service.drain()
            finally:
                service.stop()
            incidents = [(incident.detected_at, incident.req_id,
                          incident.trigger_kind)
                         for incident in service.incidents()]
            errors = service.metrics_snapshot()["counters"].get(
                "soc.session.errors", 0)
            return incidents, errors

        thread_incidents, thread_errors = run("thread")
        proc_incidents, proc_errors = run("process")
        assert proc_incidents == thread_incidents
        assert [req_id for _, req_id, _ in thread_incidents] == ["A"]
        assert thread_errors == proc_errors == 1


# -- process-backend degradation ---------------------------------------------


class TestProcessDegradation:
    def test_worker_crash_loop_quarantines_and_drain_terminates(self):
        from repro.chaos import ChaosController, FaultPlan

        plan = FaultPlan(seed=21, worker_crash=1.0, max_deliveries=2)
        fleet = build_fleet(ubuntu=2, windows=0)
        service = fleet.arm_soc(shards=1, chaos=ChaosController(plan),
                                backend="process")
        try:
            for host in fleet.hosts():
                host.drift_install_package("telnetd")
            service.drain()
        finally:
            service.stop()
        counters = service.metrics_snapshot()["counters"]
        # Every delivery crashes; each event burns its budget (two
        # crash-strikes) then is dead-lettered on redelivery.
        assert counters["soc.worker.crashes"] >= 1
        assert counters["soc.worker.restarts"] >= 1
        assert counters["soc.events.dead_lettered"] \
            == len(service.dead_letters.letters())
        assert counters["soc.events.dead_lettered"] >= 1

    def test_reconcile_repairs_what_crashes_ate(self):
        from repro.chaos import ChaosController, FaultPlan

        plan = FaultPlan(seed=21, worker_crash=1.0, max_deliveries=2)
        fleet = build_fleet(ubuntu=2, windows=0)
        service = fleet.arm_soc(shards=1, chaos=ChaosController(plan),
                                backend="process")
        try:
            for host in fleet.hosts():
                host.drift_install_package("telnetd")
            service.drain()
        finally:
            service.stop()
        service.reconcile()
        assert fleet.audit().worst_ratio == 1.0

    def test_lifecycle_is_idempotent(self):
        fleet = build_fleet(ubuntu=1, windows=0)
        service = fleet.arm_soc(shards=1, backend="process")
        assert service.start() is service
        service.stop()
        service.stop()
        assert not service.running
        host = fleet.hosts()[0]
        assert host.events.subscriber_count == 0
        host.events.emit("drift.package")      # must not raise

    def test_queue_stats_shape_matches_thread_backend(self):
        _, _, _, proc_service = run_scenario("process", rounds=1)
        stats = proc_service.queue_stats()
        assert [sorted(entry) for entry in stats] == [
            ["depth", "dropped", "peak_depth", "rejected", "shard"]
            for _ in stats]
        assert all(entry["depth"] == 0 for entry in stats)
