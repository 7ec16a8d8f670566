"""Property tests for the content-addressed verification cache.

The contracts the prevention plane stands on:

* cached verdicts are byte-identical to fresh ones (serialize both,
  compare the bytes);
* mutating any ingested artifact — requirement text, automaton guard,
  query — invalidates exactly the affected cache entries, no more;
* a fully-warm gate evaluation performs zero model-checking calls.
"""

import importlib
import json
import random

import pytest

from repro.core.gates import VerificationGate, _verdict_to_dict
from repro.core.pipeline import PipelineContext
from repro.prevention import (
    bundled_verification_tasks,
    fingerprint_task,
)
from repro.reqs.ir import Requirement
from repro.ta.automaton import Edge, Location, TimedAutomaton, parse_guard
from repro.ta.checker import ZoneGraphChecker
from repro.ta.query import parse_query
from repro.ta.system import Network
from tests.verdict_store import open_store

#: The module, not the ``fingerprint`` function the package re-exports.
fingerprint_module = importlib.import_module("repro.prevention.fingerprint")


def small_network(guard_bound: int = 3) -> Network:
    automaton = TimedAutomaton(
        name="M",
        clocks=["x"],
        locations=[Location("off"),
                   Location("on", invariant=parse_guard("x <= 9"))],
        edges=[
            Edge("off", "on", guard=parse_guard(f"x >= {guard_bound}"),
                 resets=("x",), action="start"),
            Edge("on", "off", guard=parse_guard("x >= 1"), action="stop"),
        ],
    )
    return Network([automaton])


class TestFingerprintStability:
    def test_equal_networks_share_fingerprint(self):
        assert fingerprint_task(small_network(), "E<> M.on") == \
            fingerprint_task(small_network(), "E<> M.on")

    def test_query_whitespace_is_normalized(self):
        assert fingerprint_task(small_network(), "E<>  M.on") == \
            fingerprint_task(small_network(), "E<> M.on")

    def test_guard_change_changes_fingerprint(self):
        assert fingerprint_task(small_network(3), "E<> M.on") != \
            fingerprint_task(small_network(4), "E<> M.on")

    def test_query_change_changes_fingerprint(self):
        assert fingerprint_task(small_network(), "E<> M.on") != \
            fingerprint_task(small_network(), "E<> M.off")

    def test_requirement_text_changes_fingerprint(self):
        def record(text):
            return Requirement(rid="R1", title="", text=text,
                               source="resa")
        assert record("lock after 3 attempts").fingerprint() != \
            record("lock after 5 attempts").fingerprint()
        assert record("lock after 3 attempts").fingerprint() == \
            record("lock after 3 attempts").fingerprint()


class RecordingCache:
    """A verdict store that answers every lookup with a canned hold
    and records the fingerprints the gate computed (nothing is
    model-checked)."""

    def __init__(self):
        self.fingerprints = {}

    def lookup(self, label, fp):
        self.fingerprints[label] = fp
        return {"satisfied": True, "query": "", "states_explored": 0,
                "witness": []}

    def save(self):
        return False

    def stats_dict(self):
        return {}


def reference_fingerprint(network, query_text):
    """The task digest spelled out as one plain document."""
    return fingerprint_module.fingerprint(
        {"checker": fingerprint_module.CHECKER_VERSION,
         "network": fingerprint_module.canonical_network(network),
         "query": " ".join(query_text.split())})


def ring_shape_tasks():
    """The prevent-ci benchmark's ring corpus: every size, hold and
    query it cycles through."""
    from repro.prevention.tasks import _token_ring

    tasks = []
    for size in range(12, 19):
        for hold in (4, 6, 8):
            ring = _token_ring(size, hold)
            for name, text in (
                    ("mutex", "A[] not (S0.busy and S1.busy)"),
                    ("progress", f"E<> S{size - 1}.busy"),
                    ("token-returns", "S1.busy --> S0.busy")):
                tasks.append((f"ring{size}-h{hold}-{name}", ring, text))
    return tasks


class TestBatchFingerprintIdentity:
    """One serialization per network per evaluation, same digests."""

    #: ``ring-token-reaches-last`` of the bundled corpus, as the
    #: whole-document serialization computed it (CHECKER_VERSION 3).
    GOLDEN = "24ee4f1435e2278276d64b7ab23c6d34"

    @pytest.mark.parametrize("tasks", [
        bundled_verification_tasks(), ring_shape_tasks()],
        ids=["bundled", "prevent-ci-rings"])
    def test_gate_digests_equal_the_reference(self, tasks):
        cache = RecordingCache()
        VerificationGate(cache=cache).evaluate(
            PipelineContext(verification_tasks=tasks))
        assert cache.fingerprints == {
            label: reference_fingerprint(network, text)
            for label, network, text in tasks}

    def test_golden_digest(self):
        label, network, text = bundled_verification_tasks()[0]
        assert label == "ring-token-reaches-last"
        assert fingerprint_task(network, text) == self.GOLDEN
        assert fingerprint_task(network, text, memo={}) == self.GOLDEN

    def test_memo_matches_with_spacing_variants(self):
        network = small_network()
        memo = {}
        for text in ("E<> M.on", "E<>   M.on", " E<>\tM.on\n"):
            assert fingerprint_task(network, text, memo=memo) == \
                reference_fingerprint(network, text)
        assert list(memo) == [id(network)]

    def test_one_canonical_network_per_network_per_evaluation(
            self, monkeypatch):
        calls = []
        memos = []
        original = fingerprint_module.canonical_network_json
        original_task = fingerprint_module.fingerprint_task

        def counting(network):
            calls.append(id(network))
            return original(network)

        def recording(network, query_text, memo=None):
            if not any(memo is seen for seen in memos):
                memos.append(memo)
            return original_task(network, query_text, memo)

        monkeypatch.setattr(fingerprint_module, "canonical_network_json",
                            counting)
        monkeypatch.setattr(fingerprint_module, "fingerprint_task",
                            recording)
        tasks = bundled_verification_tasks()
        distinct = {id(network) for _label, network, _text in tasks}
        gate = VerificationGate(cache=RecordingCache())
        for evaluation in (1, 2):
            gate.evaluate(PipelineContext(verification_tasks=tasks))
            assert len(calls) == evaluation * len(distinct)
            assert set(calls) == distinct
            assert len(memos) == evaluation
            assert set(memos[-1]) == distinct


class TestCheckerVersionSalt:
    def test_version_bump_changes_every_task_fingerprint(self,
                                                         monkeypatch):
        tasks = bundled_verification_tasks()
        before = [fingerprint_task(network, text)
                  for _label, network, text in tasks]
        monkeypatch.setattr(fingerprint_module, "CHECKER_VERSION",
                            fingerprint_module.CHECKER_VERSION + 1)
        after = [fingerprint_task(network, text)
                 for _label, network, text in tasks]
        assert all(old != new for old, new in zip(before, after))

    def test_store_of_an_older_checker_misses_and_rechecks(self, tmp_path,
                                                           monkeypatch):
        tasks = bundled_verification_tasks()
        monkeypatch.setattr(fingerprint_module, "CHECKER_VERSION",
                            fingerprint_module.CHECKER_VERSION - 1)
        VerificationGate(cache=open_store(tmp_path)).evaluate(
            PipelineContext(verification_tasks=tasks))
        monkeypatch.undo()

        checks = []
        original = ZoneGraphChecker.check

        def counting_check(checker, query):
            checks.append(str(query))
            return original(checker, query)

        monkeypatch.setattr(ZoneGraphChecker, "check", counting_check)
        cache = open_store(tmp_path)
        context = PipelineContext(verification_tasks=tasks)
        assert VerificationGate(cache=cache).evaluate(context).passed
        stats = cache.stats_dict()
        assert stats["hits"] == 0
        assert stats["invalidations"] == len(tasks)
        assert len(checks) == len(tasks)
        for label, result in context.require("verification_results"):
            network, text = next((network, text)
                                 for name, network, text in tasks
                                 if name == label)
            assert _verdict_to_dict(result) == _verdict_to_dict(
                original(ZoneGraphChecker(network), parse_query(text)))


class TestCachedVerdictsAreByteIdentical:
    def test_randomized_task_sets(self, tmp_path):
        rng = random.Random(0xCAC4E)
        for trial in range(10):
            tasks = bundled_verification_tasks(
                ring_size=rng.randrange(2, 5),
                deadline=rng.randrange(2, 9))
            rng.shuffle(tasks)
            tasks = tasks[:rng.randrange(2, len(tasks) + 1)]
            cache = open_store(tmp_path / f"cache-{trial}")

            cold = PipelineContext(verification_tasks=tasks)
            VerificationGate(cache=cache).evaluate(cold)
            warm = PipelineContext(verification_tasks=tasks)
            VerificationGate(cache=cache).evaluate(warm)

            fresh = {
                label: ZoneGraphChecker(network).check(
                    parse_query(query_text))
                for label, network, query_text in tasks
            }
            for run in (cold, warm):
                for label, result in run.require("verification_results"):
                    cached_bytes = json.dumps(
                        _verdict_to_dict(result), sort_keys=True)
                    fresh_bytes = json.dumps(
                        _verdict_to_dict(fresh[label]), sort_keys=True)
                    assert cached_bytes == fresh_bytes, \
                        f"trial {trial}, task {label!r}"
            stats = cache.stats_dict()
            assert stats["misses"] == len(tasks)
            assert stats["hits"] == len(tasks)
            assert stats["invalidations"] == 0

    def test_warm_run_checks_nothing(self, tmp_path, monkeypatch):
        tasks = bundled_verification_tasks()
        cache = open_store(tmp_path)
        VerificationGate(cache=cache).evaluate(
            PipelineContext(verification_tasks=tasks))

        def exploding_check(checker, query):
            raise AssertionError("warm run must not model-check")

        monkeypatch.setattr(ZoneGraphChecker, "check", exploding_check)
        warm = PipelineContext(verification_tasks=tasks)
        outcome = VerificationGate(cache=cache).evaluate(warm)
        assert outcome.passed
        assert cache.stats_dict()["misses"] == len(tasks)  # cold only


class TestInvalidationIsExact:
    def _evaluate(self, cache, tasks):
        context = PipelineContext(verification_tasks=tasks)
        VerificationGate(cache=cache).evaluate(context)
        return context

    def test_guard_mutation_invalidates_only_affected(self, tmp_path):
        tasks = bundled_verification_tasks(ring_size=3)
        cache = open_store(tmp_path)
        self._evaluate(cache, tasks)
        before = cache.stats_dict()

        # Mutate one automaton guard: rebuild the watchdog tasks with a
        # different deadline; the ring tasks are untouched.
        mutated = bundled_verification_tasks(ring_size=3, deadline=7)
        watchdog_labels = {label for label, _, _ in mutated
                           if label.startswith("watchdog")}
        self._evaluate(cache, mutated)
        after = cache.stats_dict()
        assert after["invalidations"] - before["invalidations"] == \
            len(watchdog_labels)
        assert after["hits"] - before["hits"] == \
            len(mutated) - len(watchdog_labels)

    def test_query_mutation_invalidates_one_entry(self, tmp_path):
        tasks = [("only-task", small_network(), "E<> M.on"),
                 ("other-task", small_network(), "E<> M.off")]
        cache = open_store(tmp_path)
        self._evaluate(cache, tasks)
        mutated = [("only-task", small_network(), "A[] not deadlock"),
                   ("other-task", small_network(), "E<> M.off")]
        self._evaluate(cache, mutated)
        stats = cache.stats_dict()
        assert stats["invalidations"] == 1
        assert stats["hits"] == 1

    def test_invalidated_entry_is_replaced(self, tmp_path):
        cache = open_store(tmp_path)
        tasks = [("t", small_network(3), "E<> M.on")]
        self._evaluate(cache, tasks)
        self._evaluate(cache, [("t", small_network(4), "E<> M.on")])
        # The stale verdict is gone; the new fingerprint now hits.
        fp = fingerprint_task(small_network(4), "E<> M.on")
        assert cache.lookup("t", fp) is not None
        old_fp = fingerprint_task(small_network(3), "E<> M.on")
        assert cache.lookup("t", old_fp) is None


class TestPersistence:
    def test_round_trip_through_disk(self, tmp_path):
        cache = open_store(tmp_path)
        tasks = bundled_verification_tasks()
        context = PipelineContext(verification_tasks=tasks)
        VerificationGate(cache=cache).evaluate(context)
        assert (tmp_path / "cas").exists()

        reloaded = open_store(tmp_path)
        assert len(reloaded) == len(tasks)
        warm = PipelineContext(verification_tasks=tasks)
        VerificationGate(cache=reloaded).evaluate(warm)
        stats = reloaded.stats_dict()
        assert stats["hits"] == len(tasks)
        assert stats["misses"] == 0

    def test_warm_save_is_a_no_op(self, tmp_path):
        cache = open_store(tmp_path)
        tasks = bundled_verification_tasks()
        VerificationGate(cache=cache).evaluate(
            PipelineContext(verification_tasks=tasks))
        snapshot = {path: path.stat().st_mtime_ns
                    for path in sorted(tmp_path.rglob("*"))
                    if path.is_file()}
        VerificationGate(cache=cache).evaluate(
            PipelineContext(verification_tasks=tasks))
        after = {path: path.stat().st_mtime_ns
                 for path in sorted(tmp_path.rglob("*"))
                 if path.is_file()}
        assert after == snapshot   # not one byte rewritten anywhere
