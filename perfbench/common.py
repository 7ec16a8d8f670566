"""Shared pieces of the benchmark: percentiles, stamps, patching, results.

Nothing here imports the system under test, so the helpers (and their
tests) work in a checkout without ``src/``.
"""

import bisect
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where runs leave result documents, span dumps and scratch stores.
OUT = Path(__file__).resolve().parent / "out"

#: A percentile is reported only with at least this many samples
#: strictly beyond it (p90 needs 100 samples, p50 needs 20).
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-percentile (0 < q < 1) of *samples*.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples rank strictly above the returned one.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile q must be in (0, 1), got {q}")
    count = len(samples)
    rank = max(1, math.ceil(q * count))
    if count - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {count} sample(s) has {count - rank} beyond "
            f"it; at least {MIN_BEYOND} are required")
    return sorted(samples)[rank - 1]


def percentile_or_none(samples: Sequence[float], q: float
                       ) -> Optional[float]:
    """:func:`percentile`, or None when the samples do not support it."""
    try:
        return percentile(samples, q)
    except InsufficientSamples:
        return None


def highest_percentile(samples: Sequence[float]) -> Optional[tuple]:
    """``(q, value)`` for the highest of p99, p90 and p50 the sample
    count supports, or None when even p50 is unsupported."""
    for q in (0.99, 0.9, 0.5):
        try:
            return q, percentile(samples, q)
        except InsufficientSamples:
            continue
    return None


#: Wall time of one calibration pass on the reference machine (2 vCPUs
#: of a shared host, Python 3.11) in a fast phase.  End-to-end times are
#: reported at that machine speed: ``wall * REFERENCE_PASS_MS / pass``,
#: with ``pass`` read next to the measured work.
REFERENCE_PASS_MS = 3.0


def _calibration_pass() -> int:
    """Fixed pure-Python work shaped like the program's: a breadth-first
    search over tuple states with dict look-ups, then a JSON round trip
    of what it found."""
    start = (0,) * 6
    parent = {start: None}
    frontier = [start]
    while frontier:
        following = []
        for state in frontier:
            for index in range(6):
                nxt = (state[:index] + ((state[index] + 1) % 4,)
                       + state[index + 1:])
                if nxt not in parent and sum(nxt) < 6:
                    parent[nxt] = state
                    following.append(nxt)
        frontier = following
    text = json.dumps({str(state): list(state) for state in parent},
                      sort_keys=True)
    return len(json.loads(text))


class SpeedGauge:
    """The machine's speed, read between pieces of measured work.

    The shared reference machine runs the same single-threaded Python
    work up to 1.8 times slower for seconds to minutes at a time, in
    user and system time alike and with no CPU steal to show for it,
    so wall times of identical runs spread past any useful bound.  A
    fixed calibration pass slows nearly in step when it runs in the same
    thread between pieces of work (it does not when it runs in another
    thread).  A workload calls :meth:`read` only while the program is
    idle and scales each time it measured by :meth:`factor` at the
    moment the work began.
    """

    def __init__(self):
        self._at: List[float] = []
        self._pass_ms: List[float] = []
        _calibration_pass()     # warm-up, not a reading

    def read(self) -> None:
        """Time one calibration pass now, with the garbage collector off
        so that the size of the program's heap cannot move it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            begun = time.perf_counter()
            _calibration_pass()
            ended = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._at.append(begun)
        self._pass_ms.append((ended - begun) * 1000.0)

    def factor(self, at: float) -> float:
        """``REFERENCE_PASS_MS`` over the mean of the readings just
        before and just after the moment *at*."""
        index = bisect.bisect(self._at, at)
        near = self._pass_ms[max(0, index - 1):index + 1]
        return REFERENCE_PASS_MS / statistics.mean(near)

    def scale(self, timed) -> List[float]:
        """``(began at, wall time)`` pairs as times at reference speed."""
        return [value * self.factor(at) for at, value in timed]

    def median_ms(self) -> float:
        """Median calibration pass of the run so far, in ms."""
        return statistics.median(self._pass_ms)


def cells_for(seconds: float, cell_seconds: float) -> int:
    """How many independent set-ups a run of *seconds* makes."""
    return max(1, round(seconds / cell_seconds))


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, object]:
    """Sample count, median and highest supported percentile."""
    summary: Dict[str, object] = {"n": len(samples_ms)}
    if samples_ms:
        summary["median"] = statistics.median(samples_ms)
        top = highest_percentile(samples_ms)
        if top is not None:
            summary[f"p{round(top[0] * 100)}"] = top[1]
    return summary


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path = ROOT) -> str:
    """HEAD's commit hash read from ``.git`` (no subprocess), or
    ``unknown`` in a checkout that is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path = SRC) -> str:
    """blake2b over every ``*.py`` under *src* (path and bytes), so a
    result identifies the code it measured even without git."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """The provenance block every result document carries."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count() or 1,
        "switch_interval_s": sys.getswitchinterval(),
    }


class Patcher:
    """Replaces attributes and puts every original back on ``restore``.

    The benchmark instruments the program by wrapping its public entry
    points from the outside; restoring them keeps the process clean for
    the next pass (and for tests that run several workloads).
    """

    def __init__(self):
        self._saved: List[tuple] = []

    def replace(self, owner, name: str, make) -> None:
        """Set ``owner.name = make(current)`` (classes or modules)."""
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, make(getattr(owner, name)))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, name)      # it was inherited
            else:
                setattr(owner, name, original)


_MISSING = object()


@dataclass
class WorkloadResult:
    """What one workload pass measured and checked.

    ``metrics`` holds the end-to-end metrics in the names of
    ``BENCHMARK.json``; ``named`` the workload's own metrics in the
    names the benchmark's README gives them; ``layers`` the facts the
    per-layer report is built from (counts read from the program and
    end-of-run state sizes).
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, object] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    sustainable: bool = True

    def fail(self, message: str) -> None:
        """Record one op whose output check failed."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0
