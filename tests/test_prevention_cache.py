"""Property tests for the content-addressed verification cache.

The contracts the prevention plane stands on:

* cached verdicts are byte-identical to fresh ones (serialize both,
  compare the bytes);
* mutating any ingested artifact — requirement text, automaton guard,
  query — invalidates exactly the affected cache entries, no more;
* a fully-warm gate evaluation performs zero model-checking calls.
"""

import json
import random

import pytest

from repro.core.gates import VerificationGate, _verdict_to_dict
from repro.core.pipeline import PipelineContext
from repro.prevention import (
    VerificationCache,
    bundled_verification_tasks,
    fingerprint_requirement,
    fingerprint_task,
)
from repro.core.repository import RequirementRecord, RequirementSource
from repro.ta.automaton import Edge, Location, TimedAutomaton, parse_guard
from repro.ta.checker import ZoneGraphChecker
from repro.ta.query import parse_query
from repro.ta.system import Network


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
            return RequirementRecord(
                req_id="R1", text=text,
                source=RequirementSource.NATURAL_LANGUAGE)
        assert fingerprint_requirement(record("lock after 3 attempts")) != \
            fingerprint_requirement(record("lock after 5 attempts"))
        assert fingerprint_requirement(record("lock after 3 attempts")) == \
            fingerprint_requirement(record("lock after 3 attempts"))


class TestCachedVerdictsAreByteIdentical:
    def test_randomized_task_sets(self, tmp_path):
        rng = random.Random(0xCAC4E)
        for trial in range(10):
            tasks = bundled_verification_tasks(
                ring_size=rng.randrange(2, 5),
                deadline=rng.randrange(2, 9))
            rng.shuffle(tasks)
            tasks = tasks[:rng.randrange(2, len(tasks) + 1)]
            cache = VerificationCache(tmp_path / f"cache-{trial}")

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
        cache = VerificationCache(tmp_path)
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
        cache = VerificationCache(tmp_path)
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
        cache = VerificationCache(tmp_path)
        self._evaluate(cache, tasks)
        mutated = [("only-task", small_network(), "A[] not deadlock"),
                   ("other-task", small_network(), "E<> M.off")]
        self._evaluate(cache, mutated)
        stats = cache.stats_dict()
        assert stats["invalidations"] == 1
        assert stats["hits"] == 1

    def test_invalidated_entry_is_replaced(self, tmp_path):
        cache = VerificationCache(tmp_path)
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
        cache = VerificationCache(tmp_path)
        tasks = bundled_verification_tasks()
        context = PipelineContext(verification_tasks=tasks)
        VerificationGate(cache=cache).evaluate(context)
        assert cache.path.exists()

        reloaded = VerificationCache(tmp_path)
        assert len(reloaded) == len(tasks)
        warm = PipelineContext(verification_tasks=tasks)
        VerificationGate(cache=reloaded).evaluate(warm)
        stats = reloaded.stats_dict()
        assert stats["hits"] == len(tasks)
        assert stats["misses"] == 0

    def test_warm_save_is_a_no_op(self, tmp_path):
        cache = VerificationCache(tmp_path)
        tasks = bundled_verification_tasks()
        VerificationGate(cache=cache).evaluate(
            PipelineContext(verification_tasks=tasks))
        snapshot = {path: path.stat().st_mtime_ns
                    for path in sorted(cache.path.rglob("*"))
                    if path.is_file()}
        VerificationGate(cache=cache).evaluate(
            PipelineContext(verification_tasks=tasks))
        after = {path: path.stat().st_mtime_ns
                 for path in sorted(cache.path.rglob("*"))
                 if path.is_file()}
        assert after == snapshot   # not one byte rewritten anywhere

    def test_corrupt_file_is_counted_not_swallowed(self, tmp_path):
        """A corrupt legacy store must not be silently discarded: the
        cache starts empty, but the loss is warned about and surfaced
        in the ``corrupt_loads`` stat so a run summary shows it."""
        path = tmp_path / "verification-cache.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = VerificationCache(tmp_path)
        assert len(cache) == 0
        assert cache.stats_dict()["corrupt_loads"] == 1
