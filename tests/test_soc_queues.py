"""Unit tests for the bounded shard queues and backpressure policies."""

import threading
import time

import pytest

from repro.soc.queues import Backpressure, PutResult, QueueClosed, ShardQueue


class TestBasics:
    def test_fifo_order(self):
        queue = ShardQueue(capacity=4)
        for item in ("a", "b", "c"):
            assert queue.put(item) is PutResult.ACCEPTED
        assert queue.get() == "a"
        assert queue.get() == "b"
        assert queue.get() == "c"

    def test_depth_and_peak(self):
        queue = ShardQueue(capacity=4)
        queue.put(1)
        queue.put(2)
        assert queue.depth == 2
        queue.get()
        assert queue.depth == 1
        assert queue.peak_depth == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardQueue(capacity=0)

    def test_get_returns_none_when_closed_and_empty(self):
        queue = ShardQueue()
        queue.put("last")
        queue.close()
        assert queue.get() == "last"
        assert queue.get() is None

    def test_put_into_closed_queue_raises(self):
        queue = ShardQueue()
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("x")


class TestBlockPolicy:
    def test_put_blocks_until_consumer_frees_a_slot(self):
        queue = ShardQueue(capacity=1, policy=Backpressure.BLOCK)
        queue.put("first")
        unblocked = threading.Event()

        def producer():
            queue.put("second")
            unblocked.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not unblocked.wait(0.05)     # still blocked: queue full
        assert queue.get() == "first"
        assert unblocked.wait(1.0)          # freed slot admits the put
        thread.join(1.0)
        assert queue.get() == "second"
        assert queue.dropped == 0 and queue.rejected == 0

    def test_close_wakes_blocked_producer(self):
        queue = ShardQueue(capacity=1, policy=Backpressure.BLOCK)
        queue.put("first")
        failed = threading.Event()

        def producer():
            try:
                queue.put("second")
            except QueueClosed:
                failed.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.02)
        queue.close()
        assert failed.wait(1.0)
        thread.join(1.0)


class TestDropOldestPolicy:
    def test_full_queue_evicts_oldest(self):
        queue = ShardQueue(capacity=2, policy=Backpressure.DROP_OLDEST)
        queue.put("a")
        queue.put("b")
        assert queue.put("c") is PutResult.DISPLACED
        assert queue.dropped == 1
        assert queue.get() == "b"
        assert queue.get() == "c"

    def test_join_accounts_for_dropped_items(self):
        # A dropped item is never task_done()d by a worker; the queue
        # must settle its accounting itself or join() hangs forever.
        queue = ShardQueue(capacity=1, policy=Backpressure.DROP_OLDEST)
        queue.put("a")
        queue.put("b")  # evicts "a"
        assert queue.get() == "b"
        queue.task_done()
        queue.join()  # must not hang


class TestRejectPolicy:
    def test_full_queue_refuses_new_items(self):
        queue = ShardQueue(capacity=2, policy=Backpressure.REJECT)
        queue.put("a")
        queue.put("b")
        assert queue.put("c") is PutResult.REJECTED
        assert queue.rejected == 1
        assert queue.get() == "a"
        assert queue.get() == "b"
        assert queue.depth == 0


class TestDrain:
    def test_join_waits_for_task_done(self):
        queue = ShardQueue()
        queue.put("work")
        done = threading.Event()

        def worker():
            item = queue.get()
            assert item == "work"
            time.sleep(0.02)
            queue.task_done()
            done.set()

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        queue.join()
        assert done.is_set()
        thread.join(1.0)

    def test_task_done_without_get_raises(self):
        with pytest.raises(ValueError):
            ShardQueue().task_done()


class TestRunIfIdle:
    def test_runs_only_with_nothing_queued_or_in_flight(self):
        queue = ShardQueue()
        calls = []
        assert queue.run_if_idle(lambda: calls.append("empty"))
        queue.put("work")
        assert not queue.run_if_idle(lambda: calls.append("queued"))
        assert queue.get() == "work"
        assert not queue.run_if_idle(lambda: calls.append("in flight"))
        queue.task_done()
        assert queue.run_if_idle(lambda: calls.append("done"))
        queue.close()
        assert not queue.run_if_idle(lambda: calls.append("closed"))
        assert calls == ["empty", "done"]

    def test_producers_wait_until_it_returns(self):
        queue = ShardQueue()
        producer = threading.Thread(target=queue.put, args=("late",),
                                    daemon=True)

        def hold():
            producer.start()
            time.sleep(0.05)
            assert queue.depth == 0

        assert queue.run_if_idle(hold)
        producer.join(1.0)
        assert queue.get() == "late"
