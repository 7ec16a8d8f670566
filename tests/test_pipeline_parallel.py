"""Tests for the parallel pipeline engine: wave planning, thread
safety of the shared context, and serial/parallel equivalence."""

import threading

import pytest

from repro.core.gates import VerificationGate
from repro.core.pipeline import (
    ConcurrentWriteError,
    Job,
    Pipeline,
    PipelineContext,
    Stage,
    plan_waves,
)
from repro.prevention import bundled_verification_tasks


def job(name, fn=None, reads=(), writes=()):
    return Job(name, fn or (lambda context: ""), reads=reads, writes=writes)


class TestWavePlanning:
    def test_disjoint_jobs_share_a_wave(self):
        waves = plan_waves([
            job("a", writes=("x",)),
            job("b", writes=("y",)),
            job("c", reads=("z",)),
        ])
        assert [[j.name for j in wave] for wave in waves] == [["a", "b", "c"]]

    def test_write_write_conflict_splits(self):
        waves = plan_waves([
            job("a", writes=("x",)),
            job("b", writes=("x",)),
        ])
        assert [[j.name for j in wave] for wave in waves] == [["a"], ["b"]]

    def test_read_after_write_splits(self):
        waves = plan_waves([
            job("w", writes=("x",)),
            job("r", reads=("x",)),
        ])
        assert [[j.name for j in wave] for wave in waves] == [["w"], ["r"]]

    def test_write_after_read_splits(self):
        waves = plan_waves([
            job("r", reads=("x",)),
            job("w", writes=("x",)),
        ])
        assert [[j.name for j in wave] for wave in waves] == [["r"], ["w"]]

    def test_undeclared_job_is_a_barrier(self):
        waves = plan_waves([
            job("a", writes=("x",)),
            job("legacy"),
            job("b", writes=("y",)),
        ])
        assert [[j.name for j in wave] for wave in waves] == \
            [["a"], ["legacy"], ["b"]]

    def test_declaration_order_is_preserved_across_waves(self):
        waves = plan_waves([
            job("a", writes=("x",)),
            job("b", reads=("x",)),
            job("c", reads=("x",)),
        ])
        assert [[j.name for j in wave] for wave in waves] == \
            [["a"], ["b", "c"]]


class TestConcurrentWrites:
    def test_same_key_writers_in_one_wave_are_rejected(self):
        # Both jobs *claim* disjoint writes, then write the same key:
        # the guard must stop the run with a clear error, never
        # silently interleave.
        barrier = threading.Barrier(2, timeout=5)

        def write_shared(context):
            barrier.wait()
            context.put("shared", threading.get_ident())
            return ""

        pipeline = Pipeline([Stage("s", jobs=[
            job("liar-one", write_shared, writes=("a",)),
            job("liar-two", write_shared, writes=("b",)),
        ])])
        with pytest.raises(ConcurrentWriteError) as excinfo:
            pipeline.run(max_workers=2)
        message = str(excinfo.value)
        assert "shared" in message
        assert "liar" in message

    def test_declared_conflicting_writers_are_serialized(self):
        order = []

        def writer(tag):
            def run(context):
                order.append(tag)
                context.put("key", tag)
                return ""
            return run

        pipeline = Pipeline([Stage("s", jobs=[
            job("first", writer("first"), writes=("key",)),
            job("second", writer("second"), writes=("key",)),
        ])])
        run = pipeline.run(max_workers=4)
        assert run.passed
        assert order == ["first", "second"]
        assert run.context.get("key") == "second"

    def test_context_puts_are_thread_safe(self):
        context = PipelineContext()

        def hammer(index):
            for i in range(200):
                context.put(f"key-{index}-{i}", i)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(context.keys()) == 4 * 200


class TestParallelExecution:
    def test_independent_jobs_overlap(self):
        # Four independent jobs on 4 workers run at once: each waits at
        # a 4-party barrier that opens only while all four are in
        # flight, so a run that serialized them would break it on the
        # timeout and fail.
        barrier = threading.Barrier(4, timeout=10.0)

        def meet(key):
            def run(context):
                barrier.wait()
                context.put(key, True)
                return ""
            return run

        jobs = [job(f"j{i}", meet(f"k{i}"), writes=(f"k{i}",))
                for i in range(4)]
        pipeline = Pipeline([Stage("s", jobs=jobs)])
        run = pipeline.run(max_workers=4)
        assert run.passed
        assert not barrier.broken
        assert all(run.context.get(f"k{i}") for i in range(4))

    def test_serial_and_parallel_runs_agree(self):
        def make_pipeline():
            return Pipeline([
                Stage("s", jobs=[
                    job("a", lambda c: c.put("a", 1) or "", writes=("a",)),
                    job("b", lambda c: c.put("b", 2) or "", writes=("b",)),
                ]),
            ])

        serial = make_pipeline().run()
        parallel = make_pipeline().run(max_workers=4)
        assert serial.passed and parallel.passed
        assert serial.context.keys() == parallel.context.keys()
        names = [r.name for r in serial.stage_results[0].job_results]
        assert names == \
            [r.name for r in parallel.stage_results[0].job_results]

    def test_failing_wave_stops_the_pipeline(self):
        def boom(context):
            raise RuntimeError("job exploded")

        pipeline = Pipeline([
            Stage("first", jobs=[
                job("ok", writes=("x",)),
                job("bad", boom, writes=("y",)),
            ]),
            Stage("second", jobs=[job("never", writes=("z",))]),
        ])
        run = pipeline.run(max_workers=2)
        assert not run.passed
        assert run.failed_stage == "first"
        assert len(run.stage_results) == 1
        details = {r.name: r.detail
                   for r in run.stage_results[0].job_results}
        assert "job exploded" in details["bad"]


class TestParallelVerificationGate:
    def test_parallel_and_serial_verdicts_match(self):
        tasks = bundled_verification_tasks()
        serial = PipelineContext(verification_tasks=tasks)
        serial_outcome = VerificationGate().evaluate(serial)
        parallel = PipelineContext(verification_tasks=tasks)
        parallel_outcome = VerificationGate(
            max_workers=4).evaluate(parallel)
        assert serial_outcome.passed == parallel_outcome.passed

        def summary(context):
            return [(label, result.satisfied, result.states_explored,
                     result.query)
                    for label, result
                    in context.require("verification_results")]

        assert summary(serial) == summary(parallel)
