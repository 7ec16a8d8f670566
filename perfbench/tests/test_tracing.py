"""Span nesting and self-time arithmetic."""

import threading

from tracing import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_same_thread_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):            # 0 .. 10
        clock.now = 1.0
        with tracer.span("inner"):        # 1 .. 4
            clock.now = 2.0
            with tracer.span("leaf"):     # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 6.0
        with tracer.span("inner"):        # 6 .. 9
            clock.now = 9.0
        clock.now = 10.0
    assert tracer.totals["outer"] == [1, 10.0, 4.0]
    assert tracer.totals["inner"] == [2, 6.0, 5.0]
    assert tracer.totals["leaf"] == [1, 1.0, 1.0]
    assert tracer.nested_s("outer", "inner") == 6.0
    assert tracer.nested_s("inner", "leaf") == 1.0
    spans = {span[0]: span for span in tracer.spans()}
    outer_id = next(s[0] for s in spans.values() if s[2] == "outer")
    inner_ids = [s[0] for s in spans.values() if s[2] == "inner"]
    assert all(spans[i][1] == outer_id for i in inner_ids)


def test_spans_on_other_threads_are_not_children():
    tracer = Tracer()
    done = threading.Event()

    def worker():
        with tracer.span("worker"):
            done.wait(5)

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        done.set()
        thread.join(5)
    assert not thread.is_alive()
    assert tracer.nested_s("main", "worker") == 0.0
    assert tracer.self_s("main") == tracer.total_s("main")
    assert {span[3] for span in tracer.spans()} == {
        threading.current_thread().name, thread.name}


class _Target:
    def work(self, value):
        return value * 2


def test_wrap_records_calls_and_restore_unwraps():
    tracer = Tracer()
    tracer.wrap(_Target, "work", "target.work")
    assert _Target().work(21) == 42
    with tracer.paused():
        _Target().work(1)
    assert tracer.calls("target.work") == 1
    tracer.restore()
    assert "__wrapped__" not in vars(_Target.work)
    _Target().work(1)
    assert tracer.calls("target.work") == 1


def test_kept_spans_are_capped_but_totals_stay_exact():
    tracer = Tracer(spans_per_name=3)
    for _ in range(10):
        with tracer.span("hot"):
            pass
    assert tracer.calls("hot") == 10
    assert len(tracer.spans()) == 3
