"""Compiled LTL monitoring: memoized progression over interned formulas.

The progression monitor (:class:`~repro.ltl.monitor.LtlMonitor`)
re-derives its next obligation from scratch on every event — a full
recursive rewrite of the obligation tree.  This module turns per-event
rewriting into cached automaton transitions, the standard
runtime-verification move (Bauer et al.'s LTL3 monitor construction;
Havelund & Roşu's rewriting-based monitoring):

* **Interning** (:mod:`repro.ltl.formulas`) makes every obligation a
  canonical object, so a transition key hashes in O(1) and two monitors
  in the same progression state share the literal same obligation.
* **Step projection**: progression only inspects the atoms that occur
  in the obligation, so each observed step is intersected with the
  obligation's (cached) atom set before lookup — distinct raw events
  collapse onto a handful of distinct projected steps.
* **The progression memo** (:class:`TransitionTable`) caches
  ``(obligation, projected step) -> next obligation``.  After warmup an
  :meth:`CompiledMonitor.observe` call is one dict lookup: the table is
  the monitor's LTL3-style automaton, materialized lazily, state by
  reached state.

Tables are shared process-wide per formula (:func:`transition_table`),
so a fleet of monitors on the same requirement warms a single
automaton.  The memo is bounded (``max_transitions``, default 2**16
entries); on overflow the whole epoch is dropped and the table rebuilds
lazily — correctness never depends on the memo, only speed.
"""

import hashlib
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.ltl.formulas import FALSE, Formula, TRUE
from repro.ltl.monitor import LtlMonitor, Verdict, progress
from repro.ltl.parser import parse_ltl

_EMPTY_STEP: FrozenSet[str] = frozenset()

#: One memoized transition: (source obligation, projected step).
TransitionKey = Tuple[Formula, FrozenSet[str]]


class TransitionTable:
    """Lazily-materialized transition function for one formula.

    Shared by every :class:`CompiledMonitor` armed with the same
    (interned) formula; thread-safe in the same sense the interner is —
    concurrent misses may both compute the (deterministic) transition,
    and the memo insert is a plain dict write under the GIL.
    """

    DEFAULT_MAX_TRANSITIONS = 65536

    __slots__ = ("formula", "max_transitions", "_next", "misses",
                 "evictions")

    def __init__(self, formula: Formula,
                 max_transitions: int = DEFAULT_MAX_TRANSITIONS):
        self.formula = formula
        self.max_transitions = max_transitions
        self._next: Dict[TransitionKey, Formula] = {}
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._next)

    def step(self, obligation: Formula, step: FrozenSet[str]) -> Formula:
        """The obligation after observing *step* in state *obligation*."""
        key = (obligation, step & obligation._atoms)
        nxt = self._next.get(key)
        if nxt is None:
            nxt = self._materialize(key)
        return nxt

    def _materialize(self, key: TransitionKey) -> Formula:
        """Memo miss: run one real progression and record it."""
        obligation, projected = key
        nxt = progress(obligation, projected)
        if len(self._next) >= self.max_transitions:
            # Epoch eviction: drop everything and re-warm lazily.  Hit
            # only by adversarial formula/step diversity; keeps the
            # memo's footprint bounded without per-entry bookkeeping.
            self._next.clear()
            self.evictions += 1
        self._next[key] = nxt
        self.misses += 1
        return nxt


#: Process-wide registry: interned formula -> its shared table.
_TABLES: Dict[Formula, TransitionTable] = {}


def transition_table(formula: Formula) -> TransitionTable:
    """The shared :class:`TransitionTable` for *formula*.

    Formulas are interned, so any two monitors built from the same text
    (or the same structural construction) resolve to the same table.
    """
    table = _TABLES.get(formula)
    if table is None:
        table = _TABLES.setdefault(formula, TransitionTable(formula))
    return table


# -- stable obligation identity (the process plane's codec substrate) --------
#
# The SOC's process backend ships monitor banks to worker processes and
# compares final monitor states across backends.  Both need a formula
# identity that survives process boundaries, where interning identity
# does not.  The concrete syntax is that identity: ``str(formula)``
# renders fully parenthesized parser syntax, and interning makes the
# round trip ``parse_ltl(str(f)) is f`` exact — so the canonical text
# (and its digest) is a stable obligation id across any number of
# processes running the same code.

#: Memoized canonical text per interned obligation.
_TEXTS: Dict[Formula, str] = {}


def formula_text(formula: Formula) -> str:
    """Canonical, re-parseable concrete syntax for *formula*.

    ``parse_ltl(formula_text(f)) is f`` — the parser re-interns onto
    the same canonical node — so this is the wire encoding the process
    plane uses to rebuild monitor banks in worker processes.
    """
    text = _TEXTS.get(formula)
    if text is None:
        text = _TEXTS.setdefault(formula, str(formula))
    return text


def parse_formula_text(text: str) -> Formula:
    """Inverse of :func:`formula_text` (re-interning parse)."""
    return parse_ltl(text)


def obligation_id(formula: Formula, digest_size: int = 16) -> bytes:
    """Stable cross-process identity digest for an obligation.

    blake2b over the canonical text; two processes that reach the same
    obligation by any route produce the same id, which is how the
    thread/process equivalence suite compares final monitor states and
    how the merge plane tags verdict records.
    """
    return hashlib.blake2b(formula_text(formula).encode("utf-8"),
                           digest_size=digest_size).digest()


#: Memo for the routing fixed-point probe (see ``soc.sessions``).
_STABLE: Dict[Formula, bool] = {}


def empty_step_stable(formula: Formula) -> bool:
    """True iff progressing *formula* over an atom-free step is a fixed
    point — the SOC sessions' skippability criterion.  Interning makes
    the probe an identity check, memoized per obligation."""
    stable = _STABLE.get(formula)
    if stable is None:
        stable = _STABLE.setdefault(
            formula, progress(formula, _EMPTY_STEP) is formula)
    return stable


class CompiledMonitor(LtlMonitor):
    """Drop-in :class:`LtlMonitor` whose stepping is a memo lookup.

    Verdict-equivalent to progression by construction (the memo caches
    progression's own results); after warmup each :meth:`observe` costs
    one set intersection and one dict probe instead of a recursive
    rewrite.  Monitors of the same formula share one table unless an
    explicit *table* is supplied.
    """

    def __init__(self, formula: Formula, table: TransitionTable = None):
        super().__init__(formula)
        self.table = table if table is not None else transition_table(formula)

    def observe(self, propositions: Iterable[str]) -> Verdict:
        """Consume one step (iterable of true proposition names)."""
        obligation = self.obligation
        if obligation is TRUE:
            return Verdict.TRUE
        if obligation is FALSE:
            return Verdict.FALSE
        step = propositions if type(propositions) is frozenset \
            else frozenset(propositions)
        table = self.table
        key = (obligation, step & obligation._atoms)
        nxt = table._next.get(key)
        if nxt is None:
            nxt = table._materialize(key)
        self.obligation = nxt
        self.steps_observed += 1
        if nxt is TRUE:
            return Verdict.TRUE
        if nxt is FALSE:
            return Verdict.FALSE
        return Verdict.INCONCLUSIVE

    def observe_many(self, steps: Sequence[Iterable[str]]) -> Verdict:
        """Consume a batch of steps in one tight loop.

        Stops early once the verdict freezes (same contract as
        :meth:`observe_trace`), but hoists the per-call attribute
        lookups out of the loop — the fast path for trace replay and
        cross-validation suites.
        """
        obligation = self.obligation
        table = self.table
        memo = table._next
        materialize = table._materialize
        consumed = 0
        for step in steps:
            if obligation is TRUE or obligation is FALSE:
                break
            if type(step) is not frozenset:
                step = frozenset(step)
            key = (obligation, step & obligation._atoms)
            nxt = memo.get(key)
            if nxt is None:
                nxt = materialize(key)
            obligation = nxt
            consumed += 1
        self.obligation = obligation
        self.steps_observed += consumed
        return self.verdict


def step_monitors(monitors: Mapping[str, LtlMonitor],
                  propositions: Iterable[str]) -> List[str]:
    """Feed one step to every monitor in *monitors*.

    Normalizes the step once (instead of per monitor) and returns the
    keys whose monitor concluded FALSE on this step — the batch entry
    point the serial protection loop drives.  It steps every monitor,
    skipping none: the serial loop is the unrouted baseline E2 and E12
    compare the SOC's routed monitor bank against.
    """
    step = propositions if type(propositions) is frozenset \
        else frozenset(propositions)
    tripped: List[str] = []
    for key, monitor in monitors.items():
        if monitor.observe(step) is Verdict.FALSE:
            tripped.append(key)
    return tripped
