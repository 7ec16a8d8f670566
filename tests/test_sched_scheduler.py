"""Scheduler, task linker, event bus, policy, and chaos-seam tests."""

import threading
import time

import pytest

from repro.chaos import ChaosController, FaultPlan
from repro.sched.events import EventBus
from repro.sched.journal import Journal
from repro.sched.policy import (BreakerBank, PolicyRunner, RetryPolicy,
                                SINGLE_ATTEMPT)
from repro.sched.scheduler import BatchReport, Scheduler, SchedulerCrash
from repro.sched.task import Task, TaskPolicy, TaskState, conflicts, link


class TestLinker:
    def test_disjoint_tasks_have_no_edges(self):
        tasks = [Task(name="a", run=lambda: None, writes=("x",)),
                 Task(name="b", run=lambda: None, writes=("y",))]
        deps, ancestors = link(tasks)
        assert deps == [set(), set()]
        assert ancestors == [set(), set()]

    def test_conflict_rules_match_wave_partitioner(self):
        writer = Task(name="w", run=lambda: None, writes=("k",))
        rewriter = Task(name="w2", run=lambda: None, writes=("k",))
        reader = Task(name="r", run=lambda: None, reads=("k",))
        other = Task(name="o", run=lambda: None, reads=("z",))
        assert conflicts(writer, rewriter)        # write/write
        assert conflicts(writer, reader)          # read-after-write
        assert conflicts(reader, rewriter)        # write-after-read
        assert not conflicts(reader, other)

    def test_undeclared_task_is_a_barrier(self):
        tasks = [Task(name="a", run=lambda: None, writes=("x",)),
                 Task(name="bar", run=lambda: None),
                 Task(name="b", run=lambda: None, writes=("y",))]
        deps, _ = link(tasks)
        assert deps[1] == {0}
        assert deps[2] == {1}

    def test_explicit_deps_and_ancestors(self):
        tasks = [Task(name="a", run=lambda: None, writes=("x",)),
                 Task(name="b", run=lambda: None, writes=("y",),
                      deps=("a",)),
                 Task(name="c", run=lambda: None, writes=("z",),
                      deps=("b",))]
        deps, ancestors = link(tasks)
        assert deps == [set(), {0}, {1}]
        assert ancestors[2] == {0, 1}

    def test_duplicate_names_rejected(self):
        tasks = [Task(name="a", run=lambda: None),
                 Task(name="a", run=lambda: None)]
        with pytest.raises(ValueError, match="duplicate task name"):
            link(tasks)

    def test_forward_dep_rejected(self):
        tasks = [Task(name="a", run=lambda: None, writes=("x",),
                      deps=("b",)),
                 Task(name="b", run=lambda: None, writes=("y",))]
        with pytest.raises(ValueError, match="earlier task"):
            link(tasks)


class TestEventBus:
    def test_publish_subscribe_and_history(self):
        bus = EventBus()
        seen = []
        handle = bus.subscribe(seen.append)
        bus.publish("task.started", task="a")
        bus.publish("task.completed", task="a", data={"attempts": 1})
        bus.unsubscribe(handle)
        bus.publish("task.started", task="b")
        assert [event.kind for event in seen] == [
            "task.started", "task.completed"]
        assert len(bus) == 3
        assert [event.task for event
                in bus.history(kinds=("task.started",))] == ["a", "b"]

    def test_replay_feeds_recorded_history(self):
        bus = EventBus()
        bus.publish("a")
        bus.publish("b")
        replayed = []
        assert bus.replay(replayed.append) == 2
        assert [event.seq for event in replayed] == [0, 1]


class TestPolicyRunner:
    def test_succeeds_without_retries(self):
        outcome = PolicyRunner(retry=SINGLE_ATTEMPT).run(
            lambda index: (True, "ok"))
        assert outcome.success and outcome.value == "ok"
        assert outcome.attempts == 1 and outcome.ran

    def test_retries_until_success_with_backoff(self):
        sleeps = []
        failures = []
        calls = []

        def attempt(index):
            calls.append(index)
            return (index == 2, index)

        outcome = PolicyRunner(
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01,
                              jitter=0.0),
            sleeper=sleeps.append,
            on_attempt_failed=failures.append).run(attempt)
        assert outcome.success and outcome.attempts == 3
        assert calls == [0, 1, 2]
        assert failures == [0, 1]
        assert sleeps == [0.01, 0.02]   # exponential, jitter-free

    def test_exception_contained_not_propagated(self):
        contained = []

        def attempt(index):
            raise RuntimeError("boom")

        outcome = PolicyRunner(
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0,
                              jitter=0.0),
            on_exception=lambda exc: contained.append(exc) or "sub").run(
                attempt)
        assert not outcome.success
        assert isinstance(outcome.error, RuntimeError)
        assert outcome.value == "sub"
        assert len(contained) == 2

    def test_breaker_gates_admission(self):
        bank = BreakerBank(failure_threshold=2, cooldown=99)
        breaker = bank.get("backend")
        runner = PolicyRunner(retry=SINGLE_ATTEMPT)
        for _ in range(2):
            runner.run(lambda index: (False, None), breaker=breaker)
        outcome = runner.run(lambda index: (True, "x"), breaker=breaker)
        assert not outcome.ran and not outcome.success

    def test_precheck_short_circuits_without_attempts(self):
        attempted = []
        outcome = PolicyRunner(retry=SINGLE_ATTEMPT).run(
            lambda index: attempted.append(index) or (True, None),
            precheck=lambda: (True, "cached"))
        assert outcome.prechecked and outcome.success
        assert outcome.value == "cached"
        assert outcome.attempts == 0 and not attempted


class TestBreakerBank:
    def test_racing_gets_on_one_key_share_one_breaker(self, monkeypatch):
        import repro.sched.policy as policy

        built = []

        class SlowBreaker(policy.CircuitBreaker):
            # A slow constructor widens the window in which every
            # racer has missed the key and waits to create it.
            def __init__(self, **kwargs):
                time.sleep(0.005)
                super().__init__(**kwargs)
                built.append(self)

        monkeypatch.setattr(policy, "CircuitBreaker", SlowBreaker)
        bank = BreakerBank(failure_threshold=2, cooldown=3)
        racers = 8
        barrier = threading.Barrier(racers)
        got = [None] * racers

        def race(slot):
            barrier.wait()
            got[slot] = bank.get(("h1", "V-1"))

        threads = [threading.Thread(target=race, args=(slot,))
                   for slot in range(racers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(built) == 1
        assert all(breaker is built[0] for breaker in got)
        assert len(bank) == 1
        assert (built[0].failure_threshold, built[0].cooldown) == (2, 3)
        assert bank.get(("h1", "V-1")) is built[0]
        assert bank.get(("h2", "V-1")) is not built[0]


def _report_states(report: BatchReport):
    return {result.name: result.state for result in report.results}


class TestSchedulerExecution:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_results_in_declaration_order(self, workers):
        tasks = [Task(name=f"t{index}", run=lambda i=index: i,
                      writes=(f"k{index}",))
                 for index in range(5)]
        report = Scheduler(workers=workers).run_batch(tasks)
        assert report.passed
        assert [result.name for result in report.results] == [
            f"t{index}" for index in range(5)]
        assert [result.value for result in report.results] == list(range(5))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_dependency_order_respected(self, workers):
        order = []
        lock = threading.Lock()

        def run(name):
            with lock:
                order.append(name)

        tasks = [Task(name="w", run=lambda: run("w"), writes=("k",)),
                 Task(name="r", run=lambda: run("r"), reads=("k",)),
                 Task(name="r2", run=lambda: run("r2"), reads=("k",))]
        assert Scheduler(workers=workers).run_batch(tasks).passed
        assert order[0] == "w"

    def test_independent_tasks_overlap_in_parallel(self):
        barrier = threading.Barrier(2, timeout=5)
        tasks = [Task(name=f"t{index}", run=barrier.wait,
                      writes=(f"k{index}",))
                 for index in range(2)]
        # Each task blocks until the other runs: only true overlap passes.
        assert Scheduler(workers=2).run_batch(tasks).passed

    @pytest.mark.parametrize("workers", [1, 4])
    def test_failure_skips_dependents_and_fail_fast(self, workers):
        tasks = [Task(name="boom", run=self._boom, writes=("k",)),
                 Task(name="dependent", run=lambda: None, reads=("k",)),
                 Task(name="later", run=lambda: None, writes=("z",))]
        report = Scheduler(workers=workers).run_batch(tasks)
        states = _report_states(report)
        assert not report.passed
        assert states["boom"] is TaskState.FAILED
        assert states["dependent"] is TaskState.SKIPPED
        if workers == 1:
            # Serial fail-fast is deterministic; in parallel an
            # independent task already in flight is allowed to finish.
            assert states["later"] is TaskState.SKIPPED
        else:
            assert states["later"] in (TaskState.SKIPPED,
                                       TaskState.SUCCEEDED)

    def test_fail_fast_off_runs_independent_tasks(self):
        tasks = [Task(name="boom", run=self._boom, writes=("k",)),
                 Task(name="other", run=lambda: "ok", writes=("z",))]
        report = Scheduler(workers=1).run_batch(tasks, fail_fast=False)
        states = _report_states(report)
        assert states["boom"] is TaskState.FAILED
        assert states["other"] is TaskState.SUCCEEDED

    def test_value_level_failure_via_ok_predicate(self):
        tasks = [Task(name="soft", run=lambda: {"passed": False},
                      ok=lambda value: value["passed"])]
        report = Scheduler(workers=1).run_batch(tasks)
        assert not report.passed
        assert report.results[0].state is TaskState.FAILED
        assert report.results[0].error is None

    def test_raise_errors_filters_by_type(self):
        tasks = [Task(name="boom", run=self._boom)]
        report = Scheduler(workers=1).run_batch(tasks)
        report.raise_errors(only=(KeyError,))   # contained: wrong type
        with pytest.raises(RuntimeError, match="boom"):
            report.raise_errors()

    def test_task_names_unique_across_run(self):
        scheduler = Scheduler(workers=1)
        scheduler.run_batch([Task(name="a", run=lambda: None)])
        with pytest.raises(ValueError, match="already scheduled"):
            scheduler.run_batch([Task(name="a", run=lambda: None)])

    def test_events_published_for_lifecycle(self):
        bus = EventBus()
        scheduler = Scheduler(workers=1, bus=bus)
        scheduler.run_batch([
            Task(name="good", run=lambda: None, writes=("a",)),
            Task(name="bad", run=self._boom, writes=("b",)),
            Task(name="blocked", run=lambda: None, reads=("b",)),
        ], fail_fast=False)
        kinds = [(event.kind, event.task) for event in bus.history()]
        assert ("task.completed", "good") in kinds
        assert ("task.failed", "bad") in kinds
        assert ("task.skipped", "blocked") in kinds

    @staticmethod
    def _boom():
        raise RuntimeError("boom")


class TestSchedulerPolicies:
    def test_retry_policy_drives_reattempts(self):
        calls = []

        def flaky():
            calls.append(len(calls))
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        bus = EventBus()
        policy = TaskPolicy(retry=RetryPolicy(
            max_attempts=5, backoff_base=0.0, jitter=0.0))
        report = Scheduler(workers=1, bus=bus).run_batch(
            [Task(name="flaky", run=flaky, policy=policy)])
        assert report.passed
        assert report.results[0].attempts == 3
        assert len(bus.history(kinds=("task.retry",))) == 2

    def test_breaker_key_shares_budget_across_tasks(self):
        breakers = BreakerBank(failure_threshold=2, cooldown=99)
        policy = TaskPolicy(retry=SINGLE_ATTEMPT, breaker_key="backend")

        def boom():
            raise RuntimeError("down")

        tasks = [Task(name=f"t{index}", run=boom, writes=(f"k{index}",),
                      policy=policy)
                 for index in range(4)]
        report = Scheduler(workers=1, breakers=breakers).run_batch(
            tasks, fail_fast=False)
        errors = [str(result.error) for result in report.results]
        assert "boom" not in errors[0]
        # First two burn the threshold; the rest are absorbed open-circuit.
        assert all("circuit breaker open" in error
                   for error in errors[2:])
        assert breakers.get("backend").skipped == 2


class TestChaosSeam:
    def _effective(self, counters, count=4):
        return [Task(name=f"t{index}",
                     run=(lambda i=index: (counters.__setitem__(
                         f"t{i}", counters.get(f"t{i}", 0) + 1)
                         or {"i": i})),
                     effective=True)
                for index in range(count)]

    def test_crash_after_budget(self, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"))
        counters = {}
        scheduler = Scheduler(workers=1, journal=journal, crash_after=2)
        with pytest.raises(SchedulerCrash):
            scheduler.run_batch(self._effective(counters))
        assert len(journal.completions()) == 2

    def test_chaos_plan_crash_and_torn_tail(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plan = FaultPlan(seed=7, sched_crash=1.0, sched_truncate=1.0)
        scheduler = Scheduler(workers=1, journal=Journal(path),
                              chaos=ChaosController(plan))
        with pytest.raises(SchedulerCrash):
            scheduler.run_batch(self._effective({}))
        reloaded = Journal(path)
        assert reloaded.torn_tail          # the crash tore the tail
        assert len(reloaded.completions()) == 0

    def test_generation_key_lets_resume_make_progress(self, tmp_path):
        """A resumed generation draws fresh chaos decisions."""
        path = str(tmp_path / "j.jsonl")
        plan = FaultPlan(seed=3, sched_crash=0.6)
        counters = {}
        generation = 0
        for _ in range(40):     # far more generations than ever needed
            journal = Journal(path)
            scheduler = Scheduler(
                workers=1, journal=journal,
                chaos=ChaosController(plan), generation=generation)
            try:
                report = scheduler.run_batch(self._effective(counters))
            except SchedulerCrash:
                generation += 1
                continue
            assert report.passed
            break
        else:
            pytest.fail("crash-resume loop never converged")
        final = Journal(path)
        assert len(final.completions()) == 4
        # Exactly-once effective execution across all generations.
        assert all(count == 1 for count in counters.values())
        assert all(count == 1 for count
                   in final.completion_counts().values())

    def test_adopted_tasks_do_not_recrash(self, tmp_path):
        """The crash budget only counts *fresh* completions."""
        path = str(tmp_path / "j.jsonl")
        counters = {}
        with pytest.raises(SchedulerCrash):
            Scheduler(workers=1, journal=Journal(path),
                      crash_after=3).run_batch(self._effective(counters))
        journal = Journal(path)
        report = Scheduler(workers=1, journal=journal,
                           crash_after=3).run_batch(
            self._effective(counters))
        assert report.passed
        states = _report_states(report)
        assert states["t0"] is TaskState.ADOPTED
        assert states["t3"] is TaskState.SUCCEEDED
        assert all(count == 1 for count in counters.values())
