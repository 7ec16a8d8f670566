"""Zone-graph model checking for networks of timed automata.

:class:`ZoneGraphChecker` explores the simulation graph — pairs of a
discrete :class:`~repro.ta.system.NetworkState` and a canonical
:class:`~repro.ta.dbm.DBM` zone, closed under delay and extrapolated at
the network's max constant — and answers the TCTL subset PROPAS needs:

* ``E<> φ`` — reachability (exact for the supported state formulas);
* ``A[] φ`` — safety, as the dual of reachability;
* ``A<> φ`` — liveness: the reachable ¬φ-subgraph must contain no
  cycle, no deadlock, and no *time-divergent* state (a non-urgent
  state whose invariant leaves every clock unbounded can wait forever
  without ever reaching φ);
* ``E[] φ`` — dual of ``A<>``;
* ``p --> q`` — leads-to: from every reachable p-state, ``A<> q``.

State formulas are decided existentially on a zone ("some valuation
in the zone satisfies the formula"), matching UPPAAL's ``E<>``; ``A[]``
queries negate into that existential form.  The decision is exact per
valuation: a conjunction narrows the zone its other side is decided
on, and ``deadlock`` holds where some valuation has no way out.
Liveness queries are restricted to location-based formulas, where zone
semantics are crisp.

Fast paths (the E15 prevention-plane optimization): construction
compiles the network into a step table — per location its internal and
emitting edges, guards, resets and invariant as flat ``(i, j, encoded
bound)`` ops, its active clocks, and urgency; per channel its receivers
— so each discrete state's steps are read off the table once, in the
order of :meth:`~repro.ta.system.Network.discrete_steps` (the reference
enumerator), and translated once to its zones' clock positions; zone
intersection uses the DBM's O(n²) incremental re-closure; and the
visited store keys zones by their canonical hash for O(1)
exact-duplicate pruning before the inclusion scan.

The fast path also applies UPPAAL's active-clock reduction (Daws &
Yovine, RTSS 1996) and carries it into the zones' representation: a
symbolic state's zone spans only the clocks live at its discrete
state — each automaton's clocks active at its location
(:meth:`~repro.ta.automaton.TimedAutomaton.active_clocks`), plus the
clocks a query's clock atoms read, which stay live everywhere.  A zone
over ``n`` live clocks is an ``(n+1)²`` DBM however many clocks the
network has, so every zone operation costs O(live²), and dead clocks
never drift past the max constant to make extrapolation relax and
re-close the zone.  One :meth:`~repro.ta.dbm.DBM.project` per discrete
step builds the target zone from the guarded source zone: a target
clock the step resets reads the reference clock, any other is active
at the source too, and clocks that die are dropped.  The reduction
preserves every verdict but explores a smaller zone graph, so
``states_explored`` and witnesses differ from the unreduced graph;
:data:`CHECKER_VERSION` names that change for the verdict caches.

Construct with ``fast=False`` to get the unreduced, unoptimized
reference oracle — full Floyd-Warshall per constraint, fresh
enumeration per visit, linear inclusion scans, every zone over every
clock of the network — which the E15 bench measures the fast engine
against and the equivalence tests compare verdicts with.

:class:`DiscreteTimeChecker` is the ablation engine (experiment E6): it
enumerates integer clock valuations capped at ``max_constant + 1`` and
answers the same reachability/safety queries by explicit-state BFS.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

from repro.ta.dbm import DBM, INF, LE_ZERO, encode
from repro.ta.automaton import ClockConstraint, TimedAutomaton
from repro.ta.query import Atom, Query, StateFormula
from repro.ta.system import ComposedStep, Network, NetworkState


#: Version of the verdicts :class:`ZoneGraphChecker` returns.  Bump it
#: whenever a change alters a verdict dict for the same network and
#: query (``states_explored``, witnesses): the prevention fingerprint
#: folds it in, so cached verdicts of an older checker miss and are
#: re-checked instead of being mixed in.  Version 2: the active-clock
#: reduction, and state formulas decided exactly per valuation.
#: Version 3: zones span only their state's live clocks.  A dead clock
#: no longer carries the lower bound a delay gave it, so zones that
#: differed only in such bounds merge: the same ``satisfied`` verdicts,
#: but sometimes fewer ``states_explored`` or another witness.
CHECKER_VERSION = 3


@dataclass
class CheckResult:
    """Verdict of one query plus exploration statistics."""

    satisfied: bool
    query: str
    states_explored: int
    witness: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.satisfied

    def __repr__(self) -> str:
        verdict = "satisfied" if self.satisfied else "NOT satisfied"
        return (
            f"<{self.query}: {verdict}, "
            f"{self.states_explored} states>"
        )


def _negated(dual: CheckResult, query: str) -> CheckResult:
    """The verdict of *query* from that of its dual: the same search,
    the opposite answer."""
    return CheckResult(not dual.satisfied, query, dual.states_explored,
                       dual.witness)


#: A stored state's parent link: ``(parent trail, step into the state)``,
#: or None at the initial state.  One tuple per stored state, where a
#: copied label list would cost the whole path.
_Trail = Optional[Tuple[Any, ComposedStep]]


def _witness(trail: _Trail) -> List[str]:
    """The step labels from the initial state down *trail*."""
    labels = []
    while trail is not None:
        trail, step = trail
        labels.append(step.label)
    labels.reverse()
    return labels


def _constraint_ops(network: Network, automaton: TimedAutomaton,
                    constraint: ClockConstraint
                    ) -> Tuple[Tuple[int, int, int], ...]:
    """Resolve one textual constraint to ``(i, j, encoded bound)`` ops.

    Equality expands into both difference bounds; the op tuples feed
    :meth:`DBM.constrain` directly with no further lookups.
    """
    i, j = network.constraint_indices(automaton, constraint)
    op, value = constraint.op, constraint.value
    if op in ("<", "<="):
        return ((i, j, encode(value, strict=(op == "<"))),)
    if op in (">", ">="):
        return ((j, i, encode(-value, strict=(op == ">"))),)
    return ((i, j, encode(value, strict=False)),
            (j, i, encode(-value, strict=False)))


def _resolve(network: Network, automaton: TimedAutomaton,
             constraints: Tuple[ClockConstraint, ...]) -> tuple:
    """A conjunction of *automaton*'s constraints as one op tuple."""
    if not constraints:
        return ()
    return tuple(op for constraint in constraints
                 for op in _constraint_ops(network, automaton, constraint))


def _enabling_ops(guard: tuple, reset: tuple, invariant: tuple,
                  pos: Dict[int, int]) -> Optional[tuple]:
    """The ops of a step's enabling set over the zone positions *pos*,
    or None where no valuation enables it: its *guard*, and the
    target's *invariant* with the *reset* clocks read as the zero
    clock, all over global clock ids.  A guard clock is active at the
    source, and so is a target invariant clock the step does not
    reset, so *pos* has them all."""
    ops = list(guard)
    for i, j, bound in invariant:
        i = 0 if i in reset else i
        j = 0 if j in reset else j
        if i != j:
            ops.append((i, j, bound))
        elif bound < LE_ZERO:
            return None       # "0 - 0 < 0" or "0 <= -c"
    return tuple((pos[i], pos[j], bound) for i, j, bound in ops)


def _query_constant(formulas: Iterable[StateFormula]) -> int:
    """The largest constant the formulas' clock atoms compare with."""
    return max((abs(atom.constraint.value)
                for formula in formulas for atom in formula.atoms()
                if atom.constraint is not None), default=0)


class _Site:
    """One automaton location in a checker's step table.

    ``internal`` and ``emits`` hold its outgoing internal and emitting
    edges in edge order, as ``(edge, guard ops, reset ids)`` over global
    clock ids; an emit adds its channel's receivers, as ``(automaton
    index, source location, edge, guard ops, reset ids)`` by automaton
    and then edge order.  ``inv`` is the location's invariant as ops,
    ``keep`` the global ids of the clocks active there, ascending.
    """

    __slots__ = ("internal", "emits", "inv", "keep")

    def __init__(self, inv: tuple, keep: Tuple[int, ...]):
        self.internal: Tuple[tuple, ...] = ()
        self.emits: Tuple[tuple, ...] = ()
        self.inv = inv
        self.keep = keep


class _Layout:
    """Where the zones of one discrete state keep their clocks.

    ``clocks`` lists, ascending, the global ids of the clocks the
    state's zones span (zone clock ``a`` is global clock
    ``clocks[a - 1]``); ``pos`` maps each of them to its zone position,
    and the reference clock 0 to 0; ``inv`` is the state's invariant as
    ``(i, j, encoded bound)`` ops over zone positions.  Two tables fill
    on first use: ``moves`` holds one successor plan per discrete step
    from the state — ``(step, guard ops, projection sources, target
    layout, target urgent)`` — and ``enabling`` the ops of each step's
    enabling set, or None where no valuation enables it.
    """

    __slots__ = ("clocks", "pos", "inv", "moves", "enabling")

    def __init__(self, clocks: Tuple[int, ...], pos: Dict[int, int],
                 inv: Optional[tuple]):
        self.clocks = clocks
        self.pos = pos
        self.inv = inv
        self.moves: Optional[tuple] = None
        self.enabling: Optional[tuple] = None


class _ZoneGraph:
    """The zone graph one query explores.

    ``k`` is its extrapolation constant and ``pinned`` the global ids
    of the clocks the query's clock atoms read, which every zone keeps.
    ``layouts`` memoizes each discrete state's :class:`_Layout`, and
    ``succ`` the successors of its symbolic states.  All three are None
    on the unreduced reference path, whose zones span every clock.
    """

    __slots__ = ("k", "pinned", "layouts", "succ")

    def __init__(self, k: int, pinned: Optional[FrozenSet[int]] = None):
        self.k = k
        self.pinned = pinned
        self.layouts: Optional[Dict[NetworkState, _Layout]] = (
            None if pinned is None else {})
        self.succ: Optional[Dict[Tuple[NetworkState, tuple], tuple]] = (
            None if pinned is None else {})


class ZoneGraphChecker:
    """Model checker over one network's zone graph.

    ``fast`` (default) enables the precomputed-table + memoization +
    incremental-closure engine with the active-clock reduction, whose
    zones span only the clocks live at their discrete state;
    ``fast=False`` is the unreduced reference oracle for ablation
    benchmarks and equivalence tests: the same verdicts, but the full
    zone graph and its state counts.

    A checker holds no per-query state, only its step table (built
    once, at construction) and memos of the network's symbolic
    semantics (discrete steps, each discrete state's clock layout and
    step plans, and the successors of each visited symbolic state).
    Layouts and successors are kept per set of pinned clocks (those a
    query's clock atoms read) and extrapolation constant, so states
    built under different reductions never mix.  Any number of queries
    may run on one checker, one at a time, and each gets the verdict a
    fresh checker would give.  The table and memos live as long as the
    checker: :class:`~repro.core.gates.VerificationGate` builds one per
    network and drops it after that network's last task, so the
    successor memo lives for one gate evaluation.
    """

    def __init__(self, network: Network, fast: bool = True):
        self.network = network
        self._k = network.max_constant()
        self._fast = fast
        if fast:
            # The step table: one _Site per automaton and location, and
            # each automaton that has urgent locations with their names.
            receivers: Dict[str, list] = {}
            self._sites: List[Dict[str, _Site]] = []
            urgent_at = []
            for index, automaton in enumerate(network.automata):
                ids = {clock: network.global_clock(automaton, clock)
                       for clock in automaton.clocks}
                active = automaton.active_clocks()
                sites = {name: _Site(_resolve(network, automaton,
                                              location.invariant),
                                     tuple(sorted(map(ids.__getitem__,
                                                      active[name]))))
                         for name, location in automaton.locations.items()}
                for edge in automaton.edges:
                    entry = (edge, _resolve(network, automaton, edge.guard),
                             tuple(map(ids.__getitem__, edge.resets)))
                    if edge.sync is None:
                        sites[edge.source].internal += (entry,)
                    elif edge.is_emit:
                        sites[edge.source].emits += (entry + (
                            receivers.setdefault(edge.channel, []),),)
                    else:
                        receivers.setdefault(edge.channel, []).append(
                            (index, edge.source) + entry)
                urgent = [name for name, location
                          in automaton.locations.items() if location.urgent]
                if urgent:
                    urgent_at.append((index, frozenset(urgent)))
                self._sites.append(sites)
            self._urgent_at = tuple(urgent_at)
            # Per-NetworkState step memo, filled lazily during exploration.
            self._steps: Dict[NetworkState, tuple] = {}
            # One reduced graph per pinned clock set and extrapolation
            # constant.  Symbolic states are immutable once built, so
            # repeated checks on this checker walk its cached edges
            # instead of redoing the DBM algebra.
            self._graphs: Dict[Tuple[FrozenSet[int], int], _ZoneGraph] = {}
        else:
            # The reference path's zones span every clock.
            clocks = tuple(range(1, network.clock_count + 1))
            self._full_layout = _Layout(
                clocks, {clock: clock for clock in (0,) + clocks}, None)

    # -- symbolic semantics ----------------------------------------------------

    def _apply_invariants(self, zone: DBM, state: NetworkState,
                          layout: _Layout) -> None:
        if self._fast:
            for i, j, bound in layout.inv:
                zone.constrain(i, j, bound)
        else:
            for i, j, bound in self._invariant(state):
                zone.constrain_full(i, j, bound)

    def _invariant(self, state: NetworkState) -> tuple:
        """*state*'s invariant as ops over global clock ids."""
        if self._fast:
            return tuple(op for sites, location in zip(self._sites,
                                                       state.locations)
                         for op in sites[location].inv)
        return tuple(op for automaton, constraint
                     in self.network.invariants_at(state)
                     for op in _constraint_ops(self.network, automaton,
                                               constraint))

    def _steps_from(self, state: NetworkState) -> tuple:
        """The discrete steps from *state* as ``(step, guard ops, reset
        ids)`` over global clock ids, in the order of
        :meth:`Network.discrete_steps`: internal steps by automaton and
        then edge order, then each emit with each receiver on its
        channel in another automaton.

        The reference path enumerates them afresh with that method and
        resolves their constraints by name; the fast path reads them
        off the step table, once per state.
        """
        network = self.network
        if not self._fast:
            return tuple(
                (step,
                 tuple(op for index, edge in step.edges
                       for op in _resolve(network, network.automata[index],
                                          edge.guard)),
                 tuple(network.global_clock(network.automata[index], clock)
                       for index, edge in step.edges
                       for clock in edge.resets))
                for step in network.discrete_steps(state))
        steps = self._steps.get(state)
        if steps is not None:
            return steps
        locations = state.locations
        sites = [table[location]
                 for table, location in zip(self._sites, locations)]
        steps = []
        for index, site in enumerate(sites):
            for edge, guard, reset in site.internal:
                moved = list(locations)
                moved[index] = edge.target
                steps.append((ComposedStep(((index, edge),),
                                           NetworkState(tuple(moved))),
                              guard, reset))
        for emit_index, site in enumerate(sites):
            for emit, guard, reset, receivers in site.emits:
                for recv_index, source, receive, recv_guard, recv_reset \
                        in receivers:
                    if recv_index == emit_index \
                            or locations[recv_index] != source:
                        continue
                    moved = list(locations)
                    moved[emit_index] = emit.target
                    moved[recv_index] = receive.target
                    steps.append((ComposedStep(((emit_index, emit),
                                                (recv_index, receive)),
                                               NetworkState(tuple(moved))),
                                  guard + recv_guard, reset + recv_reset))
        steps = self._steps[state] = tuple(steps)
        return steps

    def _is_urgent(self, state: NetworkState) -> bool:
        if not self._fast:
            return self.network.is_urgent(state)
        return any(state.locations[index] in urgent
                   for index, urgent in self._urgent_at)

    def _graph(self, *formulas: StateFormula) -> _ZoneGraph:
        """The zone graph a query over *formulas* explores.

        It extrapolates at the larger of the network's and the query's
        max constant, so clock atoms comparing beyond the network's
        constants are decided exactly too.  On the fast path clocks the
        formulas' clock atoms read stay live at every location.
        """
        k = max(self._k, _query_constant(formulas))
        if not self._fast:
            return _ZoneGraph(k)
        network = self.network
        pinned = frozenset(
            clock for formula in formulas for atom in formula.atoms()
            if atom.constraint is not None
            for clock in network.constraint_indices(
                network.automata[network.automaton_index(atom.automaton)],
                atom.constraint)
            if clock)
        graph = self._graphs.get((pinned, k))
        if graph is None:
            graph = self._graphs[(pinned, k)] = _ZoneGraph(k, pinned)
        return graph

    def _layout(self, graph: _ZoneGraph, state: NetworkState) -> _Layout:
        """*state*'s clock layout in *graph*: the clocks active at its
        locations and the graph's pinned ones.

        Global clock ids ascend with the automaton that owns them, so
        chaining each automaton's active clocks in network order lists
        them sorted.
        """
        if graph.layouts is None:
            return self._full_layout
        layout = graph.layouts.get(state)
        if layout is None:
            clocks = tuple(clock for sites, location
                           in zip(self._sites, state.locations)
                           for clock in sites[location].keep)
            if graph.pinned:
                clocks = tuple(sorted(graph.pinned.union(clocks)))
            pos = {clock: a for a, clock in enumerate(clocks, 1)}
            pos[0] = 0
            inv = tuple((pos[i], pos[j], bound)
                        for i, j, bound in self._invariant(state))
            layout = graph.layouts[state] = _Layout(clocks, pos, inv)
        return layout

    def _moves(self, graph: _ZoneGraph, state: NetworkState,
               layout: _Layout) -> tuple:
        """The successor plans of *state* (see :class:`_Layout`).

        Guards read clocks active at the source, so their ops translate
        to the source layout.  A target clock the step resets projects
        from the reference clock; any other target clock is active at
        the source as well (the active-clock fixpoint carries it back
        along every edge that does not reset it), so the projection
        never needs a clock the source zone dropped.
        """
        moves = layout.moves
        if moves is None:
            pos = layout.pos
            plans = []
            for step, guard, reset in self._steps_from(state):
                target = self._layout(graph, step.target)
                sources = (0,) + tuple(0 if clock in reset else pos[clock]
                                       for clock in target.clocks)
                plans.append((step,
                              tuple((pos[i], pos[j], bound)
                                    for i, j, bound in guard),
                              sources, target, self._is_urgent(step.target)))
            moves = layout.moves = tuple(plans)
        return moves

    def _initial(self, graph: _ZoneGraph
                 ) -> Tuple[NetworkState, _Layout, DBM]:
        state = self.network.initial_state()
        layout = self._layout(graph, state)
        zone = DBM.zero(len(layout.clocks))
        if not self._is_urgent(state):
            zone.up()
        self._apply_invariants(zone, state, layout)
        if self._fast:
            zone.extrapolate_fast(graph.k)
        else:
            zone.extrapolate(graph.k)
        return state, layout, zone

    def _successors(self, state: NetworkState, layout: _Layout, zone: DBM,
                    graph: _ZoneGraph
                    ) -> Iterable[Tuple[ComposedStep, NetworkState, _Layout,
                                        DBM]]:
        if graph.succ is None:
            return self._reference_successors(state, zone, graph)
        memo_key = (state, zone.key())
        cached = graph.succ.get(memo_key)
        if cached is None:
            cached = tuple(self._compute_successors(state, layout, zone,
                                                    graph))
            graph.succ[memo_key] = cached
        return cached

    def _compute_successors(self, state: NetworkState, layout: _Layout,
                            zone: DBM, graph: _ZoneGraph
                            ) -> Iterable[Tuple[ComposedStep, NetworkState,
                                                _Layout, DBM]]:
        """Fast path: guard the source zone, project it onto the target's
        clocks, then invariants, delay, invariants and extrapolation."""
        if zone.is_empty():
            # Only an initial zone can be: its invariant may exclude 0.
            # A projection would drop the clock that shows the conflict.
            return
        k = graph.k
        for step, guard, sources, target, urgent in self._moves(
                graph, state, layout):
            source = zone
            if guard:
                source = zone.copy()
                for i, j, bound in guard:
                    source.constrain(i, j, bound)
                if source.is_empty():
                    continue
            successor = source.project(sources)
            invariant = target.inv
            if invariant:
                for i, j, bound in invariant:
                    successor.constrain(i, j, bound)
                if successor.is_empty():
                    continue
            if not urgent:
                successor.up()
                if invariant:
                    for i, j, bound in invariant:
                        successor.constrain(i, j, bound)
                    if successor.is_empty():
                        continue
            successor.extrapolate_fast(k)
            yield step, step.target, target, successor

    def _reference_successors(self, state: NetworkState, zone: DBM,
                              graph: _ZoneGraph
                              ) -> Iterable[Tuple[ComposedStep, NetworkState,
                                                  _Layout, DBM]]:
        """Unreduced path: every zone spans every clock."""
        layout = self._full_layout
        for step, guard, reset in self._steps_from(state):
            successor = zone.copy()
            for i, j, bound in guard:
                successor.constrain_full(i, j, bound)
            if successor.is_empty():
                continue
            for clock in reset:
                successor.reset(clock)
            self._apply_invariants(successor, step.target, layout)
            if successor.is_empty():
                continue
            if not self._is_urgent(step.target):
                successor.up()
                self._apply_invariants(successor, step.target, layout)
                if successor.is_empty():
                    continue
            successor.extrapolate(graph.k)
            yield step, step.target, layout, successor

    def _holds(self, formula: StateFormula, state: NetworkState,
               layout: _Layout, zone: DBM) -> bool:
        """Existential zone evaluation: does some valuation of *zone*
        satisfy *formula*?"""
        return bool(self._satisfying(formula, state, layout, zone, zone))

    def _satisfying(self, formula: StateFormula, state: NetworkState,
                    layout: _Layout, zone: DBM, part: DBM) -> List[DBM]:
        """Zones covering the valuations of *part* (a sub-zone of the
        state's *zone*, both laid out by *layout*) that satisfy
        *formula*; empty when none does.

        Exact for every state formula: a conjunction decides its right
        side on the zones its left side leaves, so ``x > 3 and x < 2``
        never holds, and a disjunction keeps both sides' zones.  The
        formula is in negation normal form, so only location and
        ``deadlock`` atoms come negated.  The clocks a clock atom reads
        are pinned, so every layout of the query's graph has them.
        """
        kind = formula.kind
        if kind == "or":
            return (self._satisfying(formula.left, state, layout, zone, part)
                    + self._satisfying(formula.right, state, layout, zone,
                                       part))
        if kind == "and":
            return [piece
                    for left in self._satisfying(formula.left, state, layout,
                                                 zone, part)
                    for piece in self._satisfying(formula.right, state,
                                                  layout, zone, left)]
        atom = formula.atom
        positive = kind == "atom"
        if atom.is_location:
            index = self.network.automaton_index(atom.automaton)
            at = state.location_of(index) == atom.location
            return [part] if at == positive else []
        if atom.is_deadlock:
            return self._deadlocked(state, layout, zone, part, positive)
        automaton = self.network.automata[
            self.network.automaton_index(atom.automaton)]
        pos = layout.pos
        probe = part.copy()
        for i, j, bound in _constraint_ops(self.network, automaton,
                                           atom.constraint):
            if self._fast:
                probe.constrain(pos[i], pos[j], bound)
            else:
                probe.constrain_full(i, j, bound)
        return [] if probe.is_empty() else [probe]

    def _deadlocked(self, state: NetworkState, layout: _Layout, zone: DBM,
                    part: DBM, deadlocked: bool = True) -> List[DBM]:
        """Zones covering the valuations of *part* that are deadlocked
        (UPPAAL's ``deadlock``: no discrete step enabled now or after
        any delay the invariants admit), or with *deadlocked* False
        those that are not.

        Each step's enabling set in the state's *zone*, closed under
        the past unless the state is urgent, is intersected with
        *part* for the live valuations, or subtracted from it for the
        deadlocked ones.  Deciding the atom per valuation, not per
        zone, keeps it monotone under zone inclusion, so neither
        inclusion pruning nor the active-clock reduction can hide a
        deadlock.
        """
        delay = not self._is_urgent(state)
        enabling = []
        for ops in self._enabling(state, layout):
            if ops is None:
                continue
            enabled = zone.copy()
            for i, j, bound in ops:
                enabled.constrain(i, j, bound)
            if enabled.is_empty():
                continue
            if delay:
                enabled.down()
            if deadlocked and enabled.includes(part):
                return []
            enabling.append(enabled)
        if not deadlocked:
            live = (part.copy().intersect(enabled) for enabled in enabling)
            return [piece for piece in live if not piece.is_empty()]
        left = [part]
        for enabled in enabling:
            left = [piece for remainder in left
                    for piece in remainder.subtract(enabled)]
            if not left:
                break
        return left

    def _enabling(self, state: NetworkState, layout: _Layout) -> tuple:
        """Per discrete step from *state*, the ops that cut a zone of it
        down to the valuations from which the step fires now, or None
        for a step no valuation enables.  Resolved once per layout on
        the fast path."""
        if layout.enabling is not None:
            return layout.enabling
        enabling = tuple(
            _enabling_ops(guard, reset, self._invariant(step.target),
                          layout.pos)
            for step, guard, reset in self._steps_from(state))
        if self._fast:
            layout.enabling = enabling
        return enabling

    # -- exploration -------------------------------------------------------------

    def _explore(self, graph: _ZoneGraph
                 ) -> Iterable[Tuple[NetworkState, _Layout, DBM, _Trail]]:
        """Lazily enumerate reachable symbolic states with their trails.

        A trail is the parent link of a stored state (see
        :func:`_witness`): only the state a query stops at has its
        witness spelled out, not every state stored on the way.

        Inclusion-checking: a new zone subsumed by an already-stored
        zone at the same discrete state is pruned.  In fast mode each
        discrete state's zones live in a dict keyed by the zone's
        canonical hash key — repeat zones (the common case) prune in
        O(1) before the inclusion scan runs.
        """
        initial_state, layout, initial_zone = self._initial(graph)
        if self._fast:
            yield from self._explore_fast(initial_state, layout,
                                          initial_zone, graph)
            return
        stored: Dict[NetworkState, List[DBM]] = {
            initial_state: [initial_zone]}
        queue = deque([(initial_state, initial_zone, None)])
        yield initial_state, layout, initial_zone, None
        while queue:
            state, zone, trail = queue.popleft()
            for step, next_state, next_layout, next_zone in \
                    self._successors(state, layout, zone, graph):
                existing = stored.setdefault(next_state, [])
                if any(old.includes(next_zone) for old in existing):
                    continue
                existing[:] = [old for old in existing
                               if not next_zone.includes(old)]
                existing.append(next_zone)
                next_trail = (trail, step)
                yield next_state, next_layout, next_zone, next_trail
                queue.append((next_state, next_zone, next_trail))

    def _explore_fast(self, initial_state: NetworkState,
                      initial_layout: _Layout, initial_zone: DBM,
                      graph: _ZoneGraph
                      ) -> Iterable[Tuple[NetworkState, _Layout, DBM,
                                          _Trail]]:
        stored: Dict[NetworkState, Dict[tuple, DBM]] = {
            initial_state: {initial_zone.key(): initial_zone}}
        queue = deque([(initial_state, initial_layout, initial_zone, None)])
        yield initial_state, initial_layout, initial_zone, None
        while queue:
            state, layout, zone, trail = queue.popleft()
            for step, next_state, next_layout, next_zone in \
                    self._successors(state, layout, zone, graph):
                bucket = stored.setdefault(next_state, {})
                zone_key = next_zone.key()
                if zone_key in bucket:
                    continue
                zones = bucket.values()
                if any(old.includes(next_zone) for old in zones):
                    continue
                subsumed = [key for key, old in bucket.items()
                            if next_zone.includes(old)]
                for key in subsumed:
                    del bucket[key]
                bucket[zone_key] = next_zone
                next_trail = (trail, step)
                yield next_state, next_layout, next_zone, next_trail
                queue.append((next_state, next_layout, next_zone,
                              next_trail))

    # -- queries -----------------------------------------------------------------

    def reachable(self, formula: StateFormula) -> CheckResult:
        """``E<> φ``: is some φ-state reachable?"""
        graph = self._graph(formula)
        explored = 0
        for state, layout, zone, trail in self._explore(graph):
            explored += 1
            if self._holds(formula, state, layout, zone):
                return CheckResult(True, f"E<> {formula}", explored,
                                   _witness(trail))
        return CheckResult(False, f"E<> {formula}", explored)

    def invariantly(self, formula: StateFormula) -> CheckResult:
        """``A[] φ``: does φ hold in every reachable state?"""
        return _negated(self.reachable(formula.negate()), f"A[] {formula}")

    def eventually_on_all_paths(self, formula: StateFormula) -> CheckResult:
        """``A<> φ``: every maximal path reaches a φ-state.

        Restricted to location-based formulas (asserted), where a zone
        state either satisfies φ or not, independent of valuation.
        """
        if not formula.location_only():
            raise ValueError(
                "A<> / E[] queries are restricted to location formulas"
            )
        violation, explored = self._find_phi_avoiding_run(
            formula, self._graph(formula))
        return CheckResult(
            satisfied=violation is None,
            query=f"A<> {formula}",
            states_explored=explored,
            witness=violation or [],
        )

    def possibly_always(self, formula: StateFormula) -> CheckResult:
        """``E[] φ``: some maximal path stays in φ forever."""
        return _negated(self.eventually_on_all_paths(formula.negate()),
                        f"E[] {formula}")

    def leads_to(self, premise: StateFormula, conclusion: StateFormula
                 ) -> CheckResult:
        """``premise --> conclusion``: AG (premise imply AF conclusion)."""
        if not (premise.location_only() and conclusion.location_only()):
            raise ValueError("leads-to is restricted to location formulas")
        graph = self._graph(premise, conclusion)
        explored = 0
        for state, layout, zone, trail in self._explore(graph):
            explored += 1
            if not self._holds(premise, state, layout, zone):
                continue
            run, run_explored = self._find_phi_avoiding_run(
                conclusion, graph, root=(state, layout, zone))
            explored += run_explored
            if run is not None:
                return CheckResult(
                    False, f"{premise} --> {conclusion}", explored,
                    witness=_witness(trail) + run)
        return CheckResult(True, f"{premise} --> {conclusion}", explored)

    def check(self, query: Query) -> CheckResult:
        """Dispatch a parsed :class:`~repro.ta.query.Query`."""
        if query.operator == "E<>":
            return self.reachable(query.formula)
        if query.operator == "A[]":
            return self.invariantly(query.formula)
        if query.operator == "A<>":
            return self.eventually_on_all_paths(query.formula)
        if query.operator == "E[]":
            return self.possibly_always(query.formula)
        if query.operator == "-->":
            return self.leads_to(query.formula, query.conclusion)
        raise ValueError(f"unsupported operator: {query.operator!r}")

    # -- liveness core -------------------------------------------------------------

    def _find_phi_avoiding_run(
            self, formula: StateFormula, graph: _ZoneGraph,
            root: Optional[Tuple[NetworkState, _Layout, DBM]] = None
    ) -> Tuple[Optional[List[str]], int]:
        """Find a maximal run avoiding φ: a cycle or a deadlock inside
        the ¬φ-subgraph.  Returns its step labels (or None) and the
        number of symbolic states the search explored.

        A symbolic state ends the search only where φ holds for every
        valuation of its zone (a ``deadlock`` atom may hold for some of
        them only): a zone that includes another then never hides a run
        the smaller one has.  A run ends in a deadlock or waits forever
        only at valuations that still avoid φ, so ``A<> deadlock`` is
        not refuted by the deadlock it asks for.
        """
        avoided = formula.negate()
        if root is None:
            root = self._initial(graph)
        root_state, root_layout, root_zone = root
        if not self._holds(avoided, root_state, root_layout, root_zone):
            return None, 0
        if self._time_divergent(root_state, root_layout, root_zone, avoided,
                                graph.k):
            return ["(time divergence)"], 0
        # Iterative DFS with an explicit on-stack set for cycle detection.
        Key = Tuple[NetworkState, tuple]
        root_key: Key = (root_state, root_zone.key())
        visited: Set[Key] = set()
        on_stack: Set[Key] = set()
        # Frames: (key, state, layout, zone, successor iterator,
        # labels-so-far).
        stack = [(root_key, root_state, root_layout, root_zone,
                  iter(list(self._successors(root_state, root_layout,
                                             root_zone, graph))),
                  [])]
        visited.add(root_key)
        on_stack.add(root_key)
        explored = 1
        while stack:
            key, state, layout, zone, successors, labels = stack[-1]
            advanced = False
            for step, next_state, next_layout, next_zone in successors:
                if not self._holds(avoided, next_state, next_layout,
                                   next_zone):
                    continue  # this branch reaches φ at the next state
                if self._time_divergent(next_state, next_layout, next_zone,
                                        avoided, graph.k):
                    return (labels + [step.label, "(time divergence)"],
                            explored)
                next_key: Key = (next_state, next_zone.key())
                if next_key in on_stack:
                    return labels + [step.label, "(cycle)"], explored
                if next_key in visited:
                    continue
                visited.add(next_key)
                on_stack.add(next_key)
                explored += 1
                stack.append((
                    next_key, next_state, next_layout, next_zone,
                    iter(list(self._successors(next_state, next_layout,
                                               next_zone, graph))),
                    labels + [step.label],
                ))
                advanced = True
                break
            if advanced:
                continue
            # All successors examined: a valuation with no way out ends
            # a maximal run here if it still avoids φ.
            if any(self._satisfying(avoided, state, layout, zone, piece)
                   for piece in self._deadlocked(state, layout, zone, zone)):
                return labels + ["(deadlock)"], explored
            stack.pop()
            on_stack.discard(key)
        return None, explored

    def _time_divergent(self, state: NetworkState, layout: _Layout,
                        zone: DBM, avoided: StateFormula, k: int) -> bool:
        """Can the system wait forever in *state* while φ stays false?

        Waiting is possible in a non-urgent state whose (delay-closed,
        invariant-intersected) zone leaves every clock unbounded above:
        nothing ever forces a transition, so staying put is a maximal
        run.  Invariant bounds never exceed the extrapolation constant
        *k*, so extrapolation cannot fake unboundedness here.  Once every
        clock exceeds *k*, delay no longer changes which steps a
        valuation can still take, so the wait avoids φ iff some
        valuation of the zone past *k* satisfies *avoided* (¬φ); this
        only differs from the caller's check when φ reads ``deadlock``.
        A clock the zone dropped is read by nothing before its next
        reset, so the zone's own clocks decide both.
        """
        if self._is_urgent(state):
            return False
        n = zone.n
        if n == 0:
            return True  # no clocks: delay is always possible
        if any(zone.bound(i, 0) < INF for i in range(1, n + 1)):
            return False
        tail = zone.copy()
        beyond = encode(-k, strict=True)          # 0 - xi < -k
        for i in range(1, n + 1):
            tail.constrain(0, i, beyond)
        return bool(self._satisfying(avoided, state, layout, zone, tail))


class DiscreteTimeChecker:
    """Explicit-state integer-time engine (the E6 ablation baseline).

    Clocks take integer values capped at ``max_constant + 1`` (values
    beyond the cap are indistinguishable by any guard), where the max
    constant is the larger of the network's and the query's.  Supports
    reachability and safety; liveness is out of scope for the baseline.
    """

    def __init__(self, network: Network):
        self.network = network
        self._cap = network.max_constant() + 1

    def _satisfies(self, valuation: Tuple[int, ...],
                   automaton: TimedAutomaton,
                   constraint: ClockConstraint) -> bool:
        i, j = self.network.constraint_indices(automaton, constraint)
        left = valuation[i - 1]
        right = 0 if j == 0 else valuation[j - 1]
        difference = left - right
        op, value = constraint.op, constraint.value
        # Capped values saturate: treat cap as "anything >= cap".
        if left >= self._cap and constraint.right is None:
            difference = max(difference, self._cap)
        return {
            "<": difference < value,
            "<=": difference <= value,
            ">": difference > value,
            ">=": difference >= value,
            "==": difference == value,
        }[op]

    def _invariant_ok(self, state: NetworkState,
                      valuation: Tuple[int, ...]) -> bool:
        return all(
            self._satisfies(valuation, automaton, constraint)
            for automaton, constraint in self.network.invariants_at(state)
        )

    def _successors(self, state: NetworkState, valuation: Tuple[int, ...]
                    ) -> Iterable[Tuple[str, NetworkState, Tuple[int, ...]]]:
        # Delay by one tick.
        if not self.network.is_urgent(state):
            delayed = tuple(min(v + 1, self._cap) for v in valuation)
            if self._invariant_ok(state, delayed):
                yield "(delay)", state, delayed
        # Discrete steps.
        for step in self.network.discrete_steps(state):
            enabled = True
            for index, edge in step.edges:
                automaton = self.network.automata[index]
                if not all(self._satisfies(valuation, automaton, c)
                           for c in edge.guard):
                    enabled = False
                    break
            if not enabled:
                continue
            values = list(valuation)
            for index, edge in step.edges:
                automaton = self.network.automata[index]
                for clock in edge.resets:
                    values[self.network.global_clock(automaton, clock) - 1] = 0
            next_valuation = tuple(values)
            if not self._invariant_ok(step.target, next_valuation):
                continue
            yield step.label, step.target, next_valuation

    def _holds(self, formula: StateFormula, state: NetworkState,
               valuation: Tuple[int, ...]) -> bool:
        def atom_eval(atom: Atom) -> bool:
            if atom.is_deadlock:
                return self._is_deadlocked(state, valuation)
            if atom.is_location:
                index = self.network.automaton_index(atom.automaton)
                return state.location_of(index) == atom.location
            automaton = self.network.automata[
                self.network.automaton_index(atom.automaton)]
            return self._satisfies(valuation, automaton, atom.constraint)
        return formula.evaluate(atom_eval)

    def _is_deadlocked(self, state: NetworkState,
                       valuation: Tuple[int, ...]) -> bool:
        """UPPAAL deadlock: no discrete step enabled now or after any
        admissible delay from this valuation."""
        current = valuation
        for _ in range(self._cap + 1):
            if any(label != "(delay)"
                   for label, _, _ in self._successors(state, current)):
                return False
            delayed = tuple(min(v + 1, self._cap) for v in current)
            if delayed == current:
                break
            if self.network.is_urgent(state) or \
                    not self._invariant_ok(state, delayed):
                break
            current = delayed
        return True

    def reachable(self, formula: StateFormula) -> CheckResult:
        """``E<> φ`` by explicit-state BFS over integer time."""
        # The query may tell apart values the network's cap merges.
        self._cap = max(self.network.max_constant(),
                        _query_constant([formula])) + 1
        initial = (self.network.initial_state(),
                   tuple([0] * self.network.clock_count))
        visited = {initial}
        queue = deque([(initial, [])])
        explored = 0
        while queue:
            (state, valuation), path = queue.popleft()
            explored += 1
            if self._holds(formula, state, valuation):
                return CheckResult(True, f"E<> {formula}", explored, path)
            for label, next_state, next_valuation in self._successors(
                    state, valuation):
                key = (next_state, next_valuation)
                if key in visited:
                    continue
                visited.add(key)
                queue.append((key, path + [label]))
        return CheckResult(False, f"E<> {formula}", explored)

    def invariantly(self, formula: StateFormula) -> CheckResult:
        return _negated(self.reachable(formula.negate()), f"A[] {formula}")
