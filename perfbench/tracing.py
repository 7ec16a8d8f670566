"""Outside-in tracing: spans around each layer's public entry points.

The traced pass wraps methods of the program from the benchmark's own
files (nothing under ``src/`` knows it is traced).  Every wrapped call
becomes a span with a name, start, end, parent span and thread.  A
span's parent is the innermost open span on the same thread, so the
producer's ``environment.emit`` contains its ``soc.queues.put`` while a
worker's ``soc.sessions.observe`` contains its ``ltl.compile.observe``
calls.

Self time is a span's duration minus the time its child spans on the
same thread cover.  The wrappers keep exact per-name totals; the span
records themselves stay in memory (capped per name, so a long run
cannot exhaust memory) and are written out when the run ends.
Wrappers time from outside, so a span includes the time its thread
waited for the GIL: compare self times within one traced run only.
"""

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

from common import Patcher

#: Span records kept per span name; totals stay exact past the cap.
SPANS_PER_NAME = 2000


class _ThreadLog:
    """One thread's spans and totals: recording never takes a lock."""

    __slots__ = ("thread", "stack", "totals", "nested", "spans", "kept")

    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, list] = {}
        #: (parent name, child name) -> seconds the child covered
        self.nested: Dict[Tuple[str, str], float] = {}
        #: (id, parent id, name, start, end) per kept span
        self.spans: List[tuple] = []
        self.kept: Dict[str, int] = {}


class Tracer:
    """Span recorder with per-thread nesting and exact self-time totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 spans_per_name: int = SPANS_PER_NAME):
        self.clock = clock
        self.spans_per_name = spans_per_name
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._patcher = Patcher()
        self._paused = False

    # -- recording -----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(
                threading.current_thread().name)
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _open(self, name: str) -> list:
        log = self._log()
        stack = log.stack
        # frame: name, child seconds, span id, parent frame, start, log
        frame = [name, 0.0, next(self._ids),
                 stack[-1] if stack else None, 0.0, log]
        stack.append(frame)
        frame[4] = self.clock()
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        name, child, span_id, parent, start, log = frame
        log.stack.pop()
        duration = end - start
        totals = log.totals.get(name)
        if totals is None:
            totals = log.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child
        if parent is not None:
            parent[1] += duration
            key = (parent[0], name)
            log.nested[key] = log.nested.get(key, 0.0) + duration
        kept = log.kept.get(name, 0)
        if kept < self.spans_per_name:
            log.kept[name] = kept + 1
            log.spans.append((span_id,
                              parent[2] if parent is not None else None,
                              name, start, end))

    @contextmanager
    def span(self, name: str):
        """Time a block as one span (for call sites the benchmark owns)."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Trace every call of ``owner.attr`` as span *name*."""
        def make(original):
            def traced(*args, **kwargs):
                if self._paused:
                    return original(*args, **kwargs)
                frame = self._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(frame)
            traced.__wrapped__ = original
            return traced
        self._patcher.replace(owner, attr, make)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own output
        checks run between passes and must not count as layer time)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def restore(self) -> None:
        """Remove every wrapper this tracer installed."""
        self._patcher.restore()

    # -- reading -------------------------------------------------------------

    @property
    def totals(self) -> Dict[str, list]:
        """name -> [calls, total seconds, self seconds], all threads."""
        merged: Dict[str, list] = {}
        for log in list(self._logs):
            for name, (calls, total, own) in log.totals.items():
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += total
                into[2] += own
        return merged

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def nested_s(self, parent: str, child: str) -> float:
        return sum(log.nested.get((parent, child), 0.0)
                   for log in list(self._logs))

    def spans(self) -> List[tuple]:
        """Kept spans as (id, parent id, name, thread, start, end)."""
        return sorted((span_id, parent, name, log.thread, start, end)
                      for log in list(self._logs)
                      for span_id, parent, name, start, end in log.spans)

    def write(self, path) -> int:
        """Dump the kept spans as JSON lines; returns how many."""
        spans = self.spans()
        with open(path, "w") as handle:
            for span_id, parent, name, thread, start, end in spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "thread": thread, "start": start, "end": end}) + "\n")
        return len(spans)


class NullTracer:
    """The untraced pass: spans cost nothing and record nothing."""

    @contextmanager
    def span(self, name: str):
        yield

    @contextmanager
    def paused(self):
        yield


def instrument(tracer: Tracer) -> Tracer:
    """Wrap the public entry point of every layer the benchmark reports.

    Layer names are the program's module names; see the README's
    metric -> layer -> workload map.
    """
    import importlib

    from repro.core.gates import VerificationGate
    from repro.core.pipeline import Pipeline
    from repro.environment.events import EventLog
    from repro.ltl.compile import CompiledMonitor
    from repro.prevention.cas.tiers import TieredVerdictStore
    from repro.reqs.stream import ReqStream
    from repro.rqcode import default_catalog
    from repro.soc.incidents import IncidentPipeline
    from repro.soc.queues import ShardQueue
    from repro.soc.rearm import Rearmer
    from repro.soc.service import SocService
    from repro.soc.sessions import MonitorSession
    from repro.ta.checker import ZoneGraphChecker

    # Module-level functions are patched on their defining module (the
    # package namespaces re-export names that shadow the submodules).
    fingerprint = importlib.import_module("repro.prevention.fingerprint")
    rearm = importlib.import_module("repro.soc.rearm")

    for owner, attr, name in (
            (EventLog, "emit", "environment.emit"),
            (SocService, "start", "soc.service.start"),
            (SocService, "drain", "soc.service.drain"),
            (ShardQueue, "put", "soc.queues.put"),
            (ShardQueue, "get_batch", "soc.queues.get_batch"),
            (MonitorSession, "observe", "soc.sessions.observe"),
            (MonitorSession, "apply_patch", "soc.sessions.apply_patch"),
            (CompiledMonitor, "observe", "ltl.compile.observe"),
            (IncidentPipeline, "handle", "soc.incidents.handle"),
            (Rearmer, "apply", "soc.rearm.apply"),
            (rearm, "plan_for_records", "soc.rearm.plan_for_records"),
            (ReqStream, "diff", "reqs.stream.diff"),
            (ReqStream, "commit", "reqs.stream.commit"),
            (fingerprint, "fingerprint_task", "prevention.fingerprint"),
            (TieredVerdictStore, "lookup", "prevention.cas.lookup"),
            (TieredVerdictStore, "save", "prevention.cas.save"),
            (ZoneGraphChecker, "check", "ta.checker.check"),
            (Pipeline, "run", "core.pipeline.run"),
            (VerificationGate, "evaluate", "core.gates.evaluate")):
        tracer.wrap(owner, attr, name)
    # RQCODE requirement classes: wrap check/enforce wherever a
    # catalogue class (or a base it inherits from) defines them.
    catalog = default_catalog()
    wrapped = set()
    for finding_id in catalog.finding_ids():
        for klass in catalog.get(finding_id).requirement_class.__mro__:
            for attr in ("check", "enforce"):
                if attr in vars(klass) and (klass, attr) not in wrapped \
                        and not getattr(vars(klass)[attr],
                                        "__isabstractmethod__", False):
                    wrapped.add((klass, attr))
                    tracer.wrap(klass, attr, f"rqcode.{attr}")
    return tracer
